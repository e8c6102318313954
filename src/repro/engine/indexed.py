"""Compiled, integer-indexed adjacency view of a db-graph.

:class:`IndexedGraph` takes one pass over a :class:`~repro.graphs.dbgraph.DbGraph`
and freezes it into dense structures tuned for the solvers' hot loops:

* vertices mapped to contiguous ints ``0..n-1`` in the same repr-sorted
  order that ``DbGraph.vertices()`` uses, so every solver that expands
  neighbours "in repr order" returns bit-identical paths on either view;
* per-vertex forward and reverse adjacency stored as pre-sorted tuples
  (``sorted_out_edges`` / ``in_edges`` become array reads, not
  sort-per-call);
* per-label CSR arrays (``indptr`` + flat target ids) for
  label-restricted traversals — the layout the color-coding exemplar
  uses to amortise graph preparation across many trials.

The view is a *snapshot*: it implements the read side of the ``DbGraph``
API (duck-typed — the solvers never notice the difference) and raises
:class:`~repro.errors.GraphError` on unknown vertices, but it does not
track later mutations of the source graph.  Compile once per graph,
reuse across every query; see :mod:`repro.engine` for when that pays.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..errors import GraphError
from ..graphs.dbgraph import DbGraph
from ..graphs.reach import ReachabilityIndex, condense
from ..graphs.view import GraphView

if TYPE_CHECKING:
    from ..graphs.dbgraph import Path
    from ..graphs.reach import ReachabilityIndex as _ReachabilityIndex


def _transpose_label_csr(num_vertices, label_indptr, label_targets):
    """Reverse (label-partitioned) CSR from the forward per-label CSR.

    For each label, slice ``i`` of the result lists the *sources* of
    ``label``-edges into vertex ``i``, in ascending source-id order
    (sources are visited ascending, so each slice comes out sorted).
    One counting pass per label — O(V·|Σ| + E) total, the same cost
    class as the forward build.
    """
    rev_indptr = {}
    rev_sources = {}
    for label, targets in label_targets.items():
        indptr = label_indptr[label]
        counts = [0] * (num_vertices + 1)
        for target_id in targets:
            counts[target_id + 1] += 1
        for index in range(num_vertices):
            counts[index + 1] += counts[index]
        sources = [0] * len(targets)
        cursor = counts[:-1]
        for source_id in range(num_vertices):
            for position in range(indptr[source_id], indptr[source_id + 1]):
                target_id = targets[position]
                sources[cursor[target_id]] = source_id
                cursor[target_id] += 1
        rev_indptr[label] = array("l", counts)
        rev_sources[label] = array("l", sources)
    return rev_indptr, rev_sources


class CsrView(GraphView):
    """Frozen CSR :class:`~repro.graphs.view.GraphView` (see graphs.view).

    Everything the solver hot loops read is precompiled: per-vertex
    ``(label_id, target_id)`` pairs in the canonical repr order,
    per-label forward CSR slices for label-partitioned successor
    iteration, and the label-partitioned reverse CSR for backward
    product searches (``ExactSolver._goal_distances``).  Built once
    per compiled graph via :meth:`IndexedGraph.view`.
    """

    kind = "csr"

    def __init__(self, graph: "IndexedGraph") -> None:
        self.graph = graph
        self._vertex_of = graph._vertex_of
        self._id_of = graph._id_of
        self._label_of = tuple(sorted(graph._labels))
        self._label_ids = {
            label: index for index, label in enumerate(self._label_of)
        }
        self._build_pairs(graph)
        self._fwd = [
            (graph._label_indptr[label], graph._label_targets[label])
            for label in self._label_of
        ]
        self._rev = [
            (graph._rev_label_indptr[label], graph._rev_label_sources[label])
            for label in self._label_of
        ]
        # (vertex_id, label_id) -> tuple memo over the CSR slices, so a
        # hot (vertex, label) pair costs one dict hit instead of a new
        # array slice object per read.  Empty slices are answered with
        # a shared () and never cached, so the memo is bounded by the
        # number of (vertex, label) pairs that actually carry edges —
        # O(E) per direction, not O(|V|·|Σ|).
        self._succ_memo: dict[int, tuple[int, ...]] = {}
        self._pred_memo: dict[int, tuple[int, ...]] = {}

    def _build_pairs(self, graph: "IndexedGraph") -> None:
        """Precompile the per-vertex ``(label_id, other_id)`` tuples.

        Overridden by the snapshot attach view
        (:class:`repro.service.snapshot.AttachedCsrView`), which reads
        the pairs lazily off the mmapped adjacency arrays instead of
        materialising every tuple up front.
        """
        label_ids = self._label_ids
        id_of = self._id_of
        self._out_pairs = [
            tuple((label_ids[label], id_of[target]) for label, target in pairs)
            for pairs in graph._out
        ]
        self._in_id_pairs = [
            tuple((label_ids[label], id_of[source]) for label, source in pairs)
            for pairs in graph._in
        ]

    def _build_reachability(self):
        """Index from the graph's (possibly snapshot-thawed) parts."""
        comp_of, num_comps, label_edges = self.graph.reach_parts()
        return ReachabilityIndex(
            comp_of, num_comps, label_edges, num_labels=self.num_labels
        )

    def out(self, vertex_id: int) -> tuple[tuple[int, int], ...]:
        """``(label_id, target_id)`` pairs in repr order — precompiled."""
        return self._out_pairs[vertex_id]

    def out_csr(
        self, label_id: int
    ) -> tuple["array[int]", "array[int]"]:
        """Bulk successors-by-label: the frozen ``(indptr, targets)`` pair.

        The raw per-label CSR arrays (see
        :meth:`~repro.graphs.view.GraphView.out_csr`) — the vectorized
        batch sweep reads whole label partitions off these instead of
        slicing per vertex through :meth:`out_by_label`.
        """
        return self._fwd[label_id]

    # invariant: hot-loop
    def out_by_label(
        self, vertex_id: int, label_id: int | None
    ) -> tuple[int, ...]:
        """``label_id``-successors (ascending ids) — memoised CSR slice."""
        if label_id is None:
            return ()
        key = vertex_id * len(self._fwd) + label_id
        cached = self._succ_memo.get(key)
        if cached is None:
            indptr, targets = self._fwd[label_id]
            start = indptr[vertex_id]
            stop = indptr[vertex_id + 1]
            if start == stop:
                return ()
            cached = tuple(targets[start:stop])
            self._succ_memo[key] = cached
        return cached

    def in_pairs(self, vertex_id: int) -> tuple[tuple[int, int], ...]:
        """``(label_id, source_id)`` pairs — precompiled."""
        return self._in_id_pairs[vertex_id]

    # invariant: hot-loop
    def in_by_label(
        self, vertex_id: int, label_id: int | None
    ) -> tuple[int, ...]:
        """``label_id``-predecessors — memoised reverse-CSR slice."""
        if label_id is None:
            return ()
        key = vertex_id * len(self._rev) + label_id
        cached = self._pred_memo.get(key)
        if cached is None:
            indptr, sources = self._rev[label_id]
            start = indptr[vertex_id]
            stop = indptr[vertex_id + 1]
            if start == stop:
                return ()
            cached = tuple(sources[start:stop])
            self._pred_memo[key] = cached
        return cached

    def out_degree(self, vertex_id: int) -> int:
        return len(self._out_pairs[vertex_id])

    def __repr__(self):
        return "CsrView(|V|=%d, |Σ|=%d over %r)" % (
            self.num_vertices, self.num_labels, self.graph,
        )


class IndexedGraph:
    """Immutable compiled view of a db-graph (see module docstring)."""

    __slots__ = (
        "_vertex_of",
        "_id_of",
        "_labels",
        "_num_edges",
        "_out",
        "_in",
        "_out_pair_sets",
        "_label_indptr",
        "_label_targets",
        "_rev_label_indptr",
        "_rev_label_sources",
        "_sorted_succ_by_label",
        "_reach_parts",
        "_view",
        # Snapshot provenance: set by repro.service.snapshot when the
        # graph was saved to / loaded from / attached to a snapshot
        # file, so a worker pool can attach that file directly.
        "_snapshot_path",
        # Attach-mode storage (AttachedGraph): the open mmap keeping
        # every buffer alive, and the raw name -> memoryview dict.
        "_mapping",
        "_raw",
        # Needed so the snapshot module can hold weak references to
        # saved graphs (condensation reuse across save/load).
        "__weakref__",
    )

    def __init__(self, graph: Any) -> None:
        if isinstance(graph, IndexedGraph):
            raise GraphError("graph is already an IndexedGraph")
        # Contiguous ids in the graph's own deterministic vertex order.
        self._vertex_of = tuple(graph.vertices())
        self._id_of = {
            vertex: index for index, vertex in enumerate(self._vertex_of)
        }
        self._labels = frozenset(graph.labels())
        self._num_edges = graph.num_edges
        n = len(self._vertex_of)

        # Forward adjacency: pre-sorted (label, target) tuples per id,
        # in exactly the repr order the solvers would sort into.
        sorted_out = getattr(graph, "sorted_out_edges", None)
        if sorted_out is None:  # any duck-typed graph
            def _sorted_out_fallback(vertex, _graph=graph):
                return sorted(_graph.out_edges(vertex), key=repr)

            sorted_out = _sorted_out_fallback
        self._out = tuple(
            tuple(sorted_out(vertex)) for vertex in self._vertex_of
        )
        self._out_pair_sets = tuple(frozenset(pairs) for pairs in self._out)

        # Reverse adjacency, same discipline.
        self._in = tuple(
            tuple(sorted(graph.in_edges(vertex), key=repr))
            for vertex in self._vertex_of
        )

        # Per-label CSR: label -> (indptr, flat target ids), built in a
        # single pass over the adjacency (O(V·|Σ| + E), not a rescan of
        # every edge per label).  Slices are already sorted because the
        # forward adjacency is.
        self._label_indptr = {
            label: array("l", [0]) for label in self._labels
        }
        self._label_targets = {label: array("l") for label in self._labels}
        for source_id in range(n):
            for edge_label, target in self._out[source_id]:
                self._label_targets[edge_label].append(self._id_of[target])
            for label in self._labels:
                self._label_indptr[label].append(
                    len(self._label_targets[label])
                )

        # Label-partitioned reverse CSR, built once at compile time so
        # backward product searches (goal-distance BFS) read array
        # slices instead of rescanning in-edge sets.
        self._rev_label_indptr, self._rev_label_sources = (
            _transpose_label_csr(n, self._label_indptr, self._label_targets)
        )

        # (vertex, label) -> sorted target tuple, filled lazily from the
        # CSR slices on first use.
        self._sorted_succ_by_label: dict[tuple, tuple] = {}
        # SCC condensation + per-label condensation edges, computed on
        # first use (reach_parts) and persisted by snapshot format v3.
        self._reach_parts: Any = None
        self._view: Any = None
        self._snapshot_path: Any = None
        self._mapping: Any = None
        self._raw: Any = None

    @classmethod
    def _from_parts(cls, vertex_of, labels, num_edges, out, in_,
                    label_indptr, label_targets,
                    rev_label_indptr, rev_label_sources,
                    reach_parts=None):
        """Rebuild a compiled view directly from its frozen parts.

        Used by :mod:`repro.service.snapshot` to warm-start from disk
        without re-sorting anything: the caller guarantees the parts
        came from a previously compiled :class:`IndexedGraph`, so the
        adjacency order is already the canonical repr order.
        """
        self = object.__new__(cls)
        self._vertex_of = tuple(vertex_of)
        self._id_of = {
            vertex: index for index, vertex in enumerate(self._vertex_of)
        }
        self._labels = frozenset(labels)
        self._num_edges = num_edges
        self._out = tuple(out)
        # Materialised lazily (see _pair_sets): a warm start should pay
        # for membership structures only if has_edge is actually used.
        self._out_pair_sets = None
        self._in = tuple(in_)
        self._label_indptr = dict(label_indptr)
        self._label_targets = dict(label_targets)
        self._rev_label_indptr = dict(rev_label_indptr)
        self._rev_label_sources = dict(rev_label_sources)
        self._sorted_succ_by_label = {}
        # None: the condensation is computed on first use.
        self._reach_parts = reach_parts
        self._view = None
        self._snapshot_path = None
        self._mapping = None
        self._raw = None
        return self

    # -- pickling ----------------------------------------------------------------

    #: Slots never pickled: rebuilt on demand (the view and the lazy
    #: membership sets) or process-local by nature (the mmap and the
    #: raw buffer views into it).
    _UNPICKLED_SLOTS = (
        "_view", "_out_pair_sets", "_mapping", "_raw", "__weakref__",
    )

    def __getstate__(self):
        # The compiled view ships its frozen parts; the GraphView and
        # the lazy membership sets are rebuilt on demand after loading.
        state = {
            slot: getattr(self, slot)
            for slot in IndexedGraph.__slots__
            if slot not in self._UNPICKLED_SLOTS
        }
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self._out_pair_sets = None
        self._view = None
        self._mapping = None
        self._raw = None

    # -- integer-native view ------------------------------------------------------

    def view(self) -> CsrView:
        """The frozen :class:`CsrView` over this graph (built once)."""
        if self._view is None:
            self._view = CsrView(self)
        return self._view

    # -- reachability index -------------------------------------------------------

    def reach_parts(self) -> tuple:
        """The SCC condensation parts ``(comp_of, num_comps, label_edges)``.

        Computed once per compiled graph (iterative Tarjan over the
        forward adjacency in canonical order) and cached; snapshot
        format v3 persists the result so a warm start thaws the index
        instead of re-condensing.
        """
        if self._reach_parts is None:
            # The CSR view's precompiled (label_id, target_id) pairs
            # are exactly the integer adjacency the condensation
            # walks; reuse them instead of re-mapping the string
            # adjacency (the view is built once per compiled graph
            # and every index consumer needs it anyway).  Going
            # through view.out (rather than the _out_pairs list)
            # keeps this correct for attach-mode views, which read
            # the pairs lazily off the mmapped arrays.
            self._reach_parts = condense(
                len(self._vertex_of), self.view().out
            )
        return self._reach_parts

    def reachability(self) -> "_ReachabilityIndex":
        """The shared :class:`ReachabilityIndex` (via the CSR view)."""
        return self.view().reachability()

    # -- id mapping -------------------------------------------------------------

    def vertex_id(self, vertex: Any) -> int:
        """The contiguous int id of ``vertex``."""
        try:
            return self._id_of[vertex]
        except KeyError:
            raise GraphError("unknown vertex %r" % (vertex,)) from None

    def vertex_at(self, index: int) -> Any:
        """The vertex carrying id ``index``."""
        return self._vertex_of[index]

    def out_neighbor_ids(self, vertex_id: int, label: str) -> Any:
        """CSR slice of ``label``-successors of ``vertex_id`` (ids)."""
        indptr = self._label_indptr.get(label)
        if indptr is None:
            return ()
        targets = self._label_targets[label]
        return targets[indptr[vertex_id]:indptr[vertex_id + 1]]

    # -- DbGraph read API (duck-typed) ----------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_of)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> Iterator[Any]:
        """Iterator over all vertices in id (= repr) order."""
        return iter(self._vertex_of)

    def labels(self) -> frozenset[str]:
        return self._labels

    def has_vertex(self, vertex: Any) -> bool:
        return vertex in self._id_of

    def require_vertex(self, vertex: Any) -> None:
        if vertex not in self._id_of:
            raise GraphError("unknown vertex %r" % (vertex,))

    def _pair_sets(self):
        """Per-vertex ``(label, target)`` membership sets (lazy thaw)."""
        if self._out_pair_sets is None:
            self._out_pair_sets = tuple(map(frozenset, self._out))
        return self._out_pair_sets

    def has_edge(self, source: Any, label: str, target: Any) -> bool:
        source_id = self._id_of.get(source)
        if source_id is None:
            return False
        return (label, target) in self._pair_sets()[source_id]

    def out_edges(self, vertex: Any) -> Iterator[tuple[str, Any]]:
        """Iterator of ``(label, target)`` pairs (pre-sorted)."""
        return iter(self._out[self.vertex_id(vertex)])

    def in_edges(self, vertex: Any) -> Iterator[tuple[str, Any]]:
        """Iterator of ``(label, source)`` pairs (pre-sorted)."""
        return iter(self._in[self.vertex_id(vertex)])

    def sorted_out_edges(self, vertex: Any) -> tuple[tuple[str, Any], ...]:
        """``(label, target)`` pairs in repr order — O(1), precompiled."""
        return self._out[self.vertex_id(vertex)]

    def sorted_successors(self, vertex: Any, label: str) -> tuple[Any, ...]:
        """``label``-successors in repr order — cached CSR read."""
        key = (vertex, label)
        targets = self._sorted_succ_by_label.get(key)
        if targets is None:
            targets = tuple(
                self._vertex_of[target_id]
                for target_id in self.out_neighbor_ids(
                    self.vertex_id(vertex), label
                )
            )
            self._sorted_succ_by_label[key] = targets
        return targets

    def successors(self, vertex: Any, label: str | None = None) -> set[Any]:
        if label is None:
            return {
                target for _label, target in self._out[self.vertex_id(vertex)]
            }
        return set(self.sorted_successors(vertex, label))

    def predecessors(
        self, vertex: Any, label: str | None = None
    ) -> set[Any]:
        pairs = self._in[self.vertex_id(vertex)]
        if label is None:
            return {source for _label, source in pairs}
        return {
            source for edge_label, source in pairs if edge_label == label
        }

    def edges(self) -> Iterator[tuple[Any, str, Any]]:
        """Iterator over all ``(source, label, target)`` triples."""
        for source_id, source in enumerate(self._vertex_of):
            for label, target in self._out[source_id]:
                yield source, label, target

    def out_degree(self, vertex: Any) -> int:
        return len(self._out[self.vertex_id(vertex)])

    def in_degree(self, vertex: Any) -> int:
        return len(self._in[self.vertex_id(vertex)])

    def is_path(self, path: "Path") -> bool:
        """Check a ``Path`` is edge-consistent with this graph."""
        for source, label, target in path.steps():
            if not self.has_edge(source, label, target):
                return False
        return True

    # invariant: hot-loop
    def reachable_within(self, start: Any,
                         allowed_labels: Iterable[str] | None = None,
                         forbidden: Iterable[Any] = ()) -> set[Any]:
        """Same contract as :meth:`DbGraph.reachable_within`.

        When nothing restricts the walk (no forbidden vertices, and
        either no label filter or one covering every edge label), the
        answer is read off the reachability index — the condensation is
        *exact* for unrestricted reachability — instead of re-walking
        the CSR arrays per call.  Restricted queries (where the index's
        free intra-component movement would overapproximate) fall back
        to the original DFS.
        """
        start_id = self.vertex_id(start)
        blocked = set(forbidden)
        if start in blocked:
            return set()
        if not blocked and (
            allowed_labels is None or self._labels <= set(allowed_labels)
        ):
            index = self.reachability()
            comp_of = index.comp_of
            reachable = index.comps_from(start_id)
            return {
                vertex
                for vertex_id, vertex in enumerate(self._vertex_of)
                if reachable[comp_of[vertex_id]]
            }
        seen = {start}
        stack = [start_id]
        seen_ids = {start_id}
        while stack:
            vertex_id = stack.pop()
            for label, target in self._out[vertex_id]:
                if allowed_labels is not None and label not in allowed_labels:
                    continue
                target_id = self._id_of[target]
                if target in blocked or target_id in seen_ids:
                    continue
                seen_ids.add(target_id)
                seen.add(target)
                stack.append(target_id)
        return seen

    # -- conversion -----------------------------------------------------------------

    def to_dbgraph(self) -> DbGraph:
        """Thaw back into a mutable :class:`DbGraph`."""
        result = DbGraph()
        for vertex in self._vertex_of:
            result.add_vertex(vertex)
        for source, label, target in self.edges():
            result.add_edge(source, label, target)
        return result

    def __repr__(self):
        return "IndexedGraph(|V|=%d, |E|=%d, Σ=%s)" % (
            self.num_vertices,
            self.num_edges,
            "".join(sorted(self._labels)),
        )
