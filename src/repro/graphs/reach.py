"""Label-constrained reachability index over a :class:`GraphView`.

Every RSPQ — tractable or not — answers NOT_FOUND for free when the
target is not even *walk*-reachable from the source under the labels
the language can ever use: every simple path is a path, so plain
reachability under the query's label mask is a sound upper bound on
simple-path existence.  This module precomputes exactly that bound:

1. an **SCC condensation** of the graph (iterative Tarjan over the
   view's adjacency, vertices in id order, neighbours in the canonical
   repr order — so every copy of a graph, compiled, loaded or
   attached, numbers components identically);
2. per-edge-label **condensation edges** (inter-component only;
   intra-component movement is free in the condensation, which is what
   makes every answer an *overapproximation* of label-restricted
   reachability — the sound direction for pruning);
3. lazy **bitset closures** per label mask: ``reach[c]`` is a Python
   int whose bit ``d`` says component ``c`` can reach component ``d``
   using only inter-component edges whose label is in the mask.
   Components come out of Tarjan in reverse topological order, so one
   ascending pass computes the closure with pure big-int ORs.

Soundness contract
------------------

``can_reach(u, v, mask)`` may say *True* for a pair that label-mask
reachability actually rules out (intra-component hops are not
label-checked), but it never says *False* for a reachable pair.  Hence:

* ``False`` proves NOT_FOUND for any query whose paths only use labels
  in the mask (the engine's short-circuit);
* ``comps_to(target, mask)`` marks every component that might still
  reach the target — dropping product states outside it never drops a
  solution (the solvers' frontier pruning);
* with the full label mask the condensation is exact: ``can_reach``
  equals plain graph reachability.

The index is immutable once built and safe to share across query
threads: its memos (closure tables, filter bytearrays) are
:class:`~repro.lru.LruCache` maps, so racers on one missing table or
filter wait for a single build of it.
"""

from __future__ import annotations

from array import array

from ..lru import LruCache

#: Bounds on the index's internal memo caches, so a long-lived serving
#: process with many distinct masks/endpoints cannot grow them without
#: limit (the closure tables are O(num_comps²) bits *per mask*).  Both
#: evict least-recently-used; correctness never depends on a cache hit.
MAX_MASK_TABLES = 64
MAX_FILTERS = 4096


def condense(num_vertices, out_fn):
    """SCC condensation of the adjacency ``out_fn(v) -> (label_id, w)...``.

    Returns ``(comp_of, num_comps, label_edges)``:

    * ``comp_of`` — ``array('l')`` mapping vertex id to component id,
      components numbered in *reverse topological* completion order
      (an inter-component edge always points to a smaller id);
    * ``num_comps`` — number of strongly connected components;
    * ``label_edges`` — tuple with one entry per label id: the sorted
      tuple of distinct inter-component ``(comp_from, comp_to)`` pairs
      carried by edges of that label.

    The traversal order (vertices ascending, neighbours in the view's
    canonical order) is deterministic, so two views over the same graph
    produce identical component numberings.
    """
    indices = [-1] * num_vertices
    lowlink = [0] * num_vertices
    on_stack = bytearray(num_vertices)
    scc_stack = []
    comp_of = array("l", [0] * num_vertices)
    counter = 0
    num_comps = 0
    for root in range(num_vertices):
        if indices[root] != -1:
            continue
        indices[root] = lowlink[root] = counter
        counter += 1
        scc_stack.append(root)
        on_stack[root] = 1
        call_stack = [(root, iter(out_fn(root)))]
        while call_stack:
            vertex, edges = call_stack[-1]
            advanced = False
            for _label_id, target in edges:
                if indices[target] == -1:
                    indices[target] = lowlink[target] = counter
                    counter += 1
                    scc_stack.append(target)
                    on_stack[target] = 1
                    call_stack.append((target, iter(out_fn(target))))
                    advanced = True
                    break
                if on_stack[target] and indices[target] < lowlink[vertex]:
                    lowlink[vertex] = indices[target]
            if advanced:
                continue
            call_stack.pop()
            if call_stack:
                parent = call_stack[-1][0]
                if lowlink[vertex] < lowlink[parent]:
                    lowlink[parent] = lowlink[vertex]
            if lowlink[vertex] == indices[vertex]:
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = 0
                    comp_of[member] = num_comps
                    if member == vertex:
                        break
                num_comps += 1

    # Inter-component edges, deduped per label.
    num_labels = 0
    edge_sets = []
    for vertex in range(num_vertices):
        comp_v = comp_of[vertex]
        for label_id, target in out_fn(vertex):
            if label_id >= num_labels:
                edge_sets.extend(set() for _ in range(label_id + 1 - num_labels))
                num_labels = label_id + 1
            comp_t = comp_of[target]
            if comp_t != comp_v:
                edge_sets[label_id].add((comp_v, comp_t))
    label_edges = tuple(tuple(sorted(edges)) for edges in edge_sets)
    return comp_of, num_comps, label_edges


def successor_map(edges):
    """``(comp_from, comp_to)`` pairs -> ``{comp_from: (comp_to, ...)}``."""
    out = {}
    for comp_from, comp_to in edges:
        out.setdefault(comp_from, []).append(comp_to)
    return {comp_from: tuple(comp_tos) for comp_from, comp_tos in out.items()}


# invariant: hot-loop
def closure(num_comps, outs):
    """Per-component reachability bitsets of a condensation.

    ``outs`` are :func:`successor_map` tables over components numbered
    in reverse topological order (as :func:`condense` numbers them):
    every edge points to an already-finished component, so one
    ascending pass sets ``rows[c]`` to ``c``'s own bit OR'd with the
    rows of its successors.  Bit ``d`` of ``rows[c]`` says ``c``
    reaches ``d``.
    """
    rows = [0] * num_comps
    for comp in range(num_comps):
        reach = 1 << comp
        for out in outs:
            for succ in out.get(comp, ()):
                reach |= rows[succ]
        rows[comp] = reach
    return rows


class ReachabilityIndex:
    """Compiled label-constrained reachability oracle (see module doc).

    Parameters
    ----------
    comp_of:
        Vertex id -> component id (reverse-topological numbering).
    num_comps:
        Number of components.
    label_edges:
        Per label id, the distinct inter-component ``(from, to)`` pairs.
    num_labels:
        Total label count of the view (``label_edges`` may be shorter
        when trailing labels carry no inter-component edge).
    """

    def __init__(self, comp_of, num_comps, label_edges, num_labels=None):
        self.comp_of = comp_of
        self.num_comps = num_comps
        if num_labels is None:
            num_labels = len(label_edges)
        self.num_labels = max(num_labels, len(label_edges))
        self.full_mask = (1 << self.num_labels) - 1
        label_out = [successor_map(edges) for edges in label_edges]
        while len(label_out) < self.num_labels:
            label_out.append({})
        self._label_out = label_out
        self.num_condensation_edges = sum(len(edges) for edges in label_edges)
        self._mask_reach = LruCache(MAX_MASK_TABLES)
        self._to_filters = LruCache(MAX_FILTERS)
        self._from_filters = LruCache(MAX_FILTERS)

    # -- closures ----------------------------------------------------------------

    def _normalised(self, mask):
        if mask is None:
            return self.full_mask
        return mask & self.full_mask

    def _reach_for(self, mask):
        """Per-component reachability bitsets under ``mask`` (cached)."""
        return self._mask_reach.get_or_build(mask, self._closure)[0]

    def _closure(self, mask):
        """:func:`closure` over ``mask``'s labelled condensation edges."""
        outs = []
        bits = mask
        while bits:
            low = bits & -bits
            outs.append(self._label_out[low.bit_length() - 1])
            bits ^= low
        return closure(self.num_comps, outs)

    # -- queries -----------------------------------------------------------------

    def can_reach(self, source_id, target_id, mask=None):
        """May ``target_id`` be walk-reachable from ``source_id`` under
        ``mask``?  ``False`` is a proof of unreachability; ``True`` is
        only an overapproximation (see module docstring)."""
        comp_source = self.comp_of[source_id]
        comp_target = self.comp_of[target_id]
        if comp_source == comp_target:
            return True
        mask = self._normalised(mask)
        return bool(self._reach_for(mask)[comp_source] >> comp_target & 1)

    def comps_to(self, target_id, mask=None):
        """Bytearray over components: 1 where the component may still
        reach ``target_id`` under ``mask`` (frontier-pruning filter)."""
        key = (self.comp_of[target_id], self._normalised(mask))
        return self._to_filters.get_or_build(key, self._to_filter)[0]

    def comps_from(self, source_id, mask=None):
        """Bytearray over components: 1 where the component may be
        walk-reachable from ``source_id`` under ``mask``."""
        key = (self.comp_of[source_id], self._normalised(mask))
        return self._from_filters.get_or_build(key, self._from_filter)[0]

    def _to_filter(self, key):
        comp_target, mask = key
        table = self._reach_for(mask)
        filter_ = bytearray(self.num_comps)
        for comp in range(self.num_comps):
            if table[comp] >> comp_target & 1:
                filter_[comp] = 1
        return filter_

    def _from_filter(self, key):
        comp_source, mask = key
        bits = self._reach_for(mask)[comp_source]
        filter_ = bytearray(self.num_comps)
        while bits:
            low = bits & -bits
            filter_[low.bit_length() - 1] = 1
            bits ^= low
        return filter_

    def describe(self):
        """JSON-safe shape/usage counters (service observability)."""
        return {
            "num_components": self.num_comps,
            "condensation_edges": self.num_condensation_edges,
            "masks_cached": len(self._mask_reach),
        }

    def __repr__(self):
        return "ReachabilityIndex(comps=%d, edges=%d, labels=%d)" % (
            self.num_comps, self.num_condensation_edges, self.num_labels,
        )
