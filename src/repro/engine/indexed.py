"""Compiled, integer-indexed db-graph: one CSR layout, one GraphView.

:class:`IndexedGraph` takes one pass over a
:class:`~repro.graphs.dbgraph.DbGraph` and freezes it into the int64
arrays a v3 snapshot stores (:mod:`repro.service.snapshot`), under the
snapshot manifest's names:

* vertices mapped to contiguous ints ``0..n-1`` in the same repr-sorted
  order that ``DbGraph.vertices()`` uses, labels to ``0..L-1`` in
  sorted order, so every solver that expands neighbours "in repr
  order" returns bit-identical paths on either backing;
* ``out_indptr`` / ``out_labels`` / ``out_targets`` and
  ``in_indptr`` / ``in_labels`` / ``in_sources``: forward and reverse
  adjacency as one CSR each, every vertex's slice in repr order;
* ``csr_offsets`` / ``csr_indptr`` / ``csr_targets``: the per-label
  forward CSR for label-restricted traversals — the layout the
  color-coding exemplar uses to amortise graph preparation across many
  trials — and ``rcsr_offsets`` / ``rcsr_indptr`` / ``rcsr_sources``,
  its label-partitioned reverse for backward product searches.

The compiled graph *is* its own :class:`~repro.graphs.view.GraphView`
(``view()`` returns it), so the solver cores walk the arrays directly.
Compiling builds them (``array("q")``); a snapshot load copies them
back from disk and an attach casts zero-copy ``memoryview`` arrays
over a read-only mapping of the file (:meth:`IndexedGraph.from_arrays`) —
the same layout and the same read code either way.

The graph is a frozen snapshot of its source: it does not track later
mutations.  Name-level (string) reads go through :meth:`to_dbgraph`.
Compile once per graph, reuse across every query; see
:mod:`repro.engine` for when that pays.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, repeat
from typing import Any, Iterator, Mapping, Sequence

from ..errors import GraphError
from ..graphs.dbgraph import DbGraph, sorted_out_edges_fn
from ..graphs.reach import ReachabilityIndex, condense
from ..graphs.view import GraphView


def _flat_adjacency(vertex_of, pairs_of, label_ids, id_of):
    """One CSR of ``pairs_of(vertex)``: ``(indptr, label ids, other ids)``."""
    rows = list(map(pairs_of, vertex_of))
    pairs = list(chain.from_iterable(rows))
    return (
        [0, *accumulate(map(len, rows))],
        [label_ids[label] for label, _other in pairs],
        [id_of[other] for _label, other in pairs],
    )


def _label_csr(num_vertices, num_labels, keys, edge_labels, values):
    """Per-label CSR of the edges ``(keys[e], edge_labels[e], values[e])``.

    Label ``j`` owns rows ``j*(n+1):(j+1)*(n+1)`` of the returned
    indptr and the value slice ``offsets[j]:offsets[j+1]``; within a
    ``(label, key)`` slot the values keep their edge order (the sort
    is stable).  Returns ``(offsets, indptr, values)``.
    """
    width = num_vertices + 1
    slots = [
        label_id * width + key for key, label_id in zip(keys, edge_labels)
    ]
    indptr = [0] * (num_labels * width)
    for slot in slots:
        indptr[slot + 1] += 1
    offsets = [0]
    for label_id in range(num_labels):
        row = slice(label_id * width, (label_id + 1) * width)
        indptr[row] = accumulate(indptr[row])
        offsets.append(offsets[-1] + indptr[row.stop - 1])
    order = sorted(range(len(slots)), key=slots.__getitem__)
    return offsets, indptr, [values[edge] for edge in order]


def _label_slices(offsets, indptr, values, width):
    """``[(indptr row, value slice)]`` per label, as memoryview slices."""
    indptr = memoryview(indptr)
    values = memoryview(values)
    return [
        (
            indptr[label_id * width:(label_id + 1) * width],
            values[offsets[label_id]:offsets[label_id + 1]],
        )
        for label_id in range(len(offsets) - 1)
    ]


class IndexedGraph(GraphView):
    """Immutable compiled db-graph over the snapshot's CSR arrays.

    See the module docstring for the twelve adjacency arrays it holds
    (public, read-only, named as in the snapshot manifest).  Per-vertex
    ``(label_id, other_id)`` pair tuples are decoded lazily from the
    flat arrays into a list memo indexed by vertex id: two threads may
    decode the same vertex, but both store equal tuples and a list
    store is atomic under the GIL.
    """

    kind = "csr"

    def __init__(self, graph: Any) -> None:
        if isinstance(graph, IndexedGraph):
            raise GraphError("graph is already an IndexedGraph")
        # Contiguous ids in the graph's own deterministic vertex order.
        self._set_tables(
            graph.vertices(), sorted(graph.labels()), graph.num_edges
        )
        vertex_of, id_of, label_ids = (
            self._vertex_of, self._id_of, self._label_ids
        )
        n = len(vertex_of)
        num_labels = len(label_ids)

        # Forward and reverse adjacency in exactly the repr order the
        # solvers would sort into.
        out_indptr, out_labels, out_targets = _flat_adjacency(
            vertex_of, sorted_out_edges_fn(graph), label_ids, id_of
        )
        in_indptr, in_labels, in_sources = _flat_adjacency(
            vertex_of,
            lambda vertex: sorted(graph.in_edges(vertex), key=repr),
            label_ids, id_of,
        )
        # Per-label CSR, forward (keyed by source, so each slice keeps
        # the forward repr order) and reverse (keyed by target; sources
        # come out ascending because the edges are in source order).
        out_sources = list(chain.from_iterable(
            repeat(source_id, stop - start)
            for source_id, (start, stop) in enumerate(
                zip(out_indptr, out_indptr[1:])
            )
        ))
        csr_offsets, csr_indptr, csr_targets = _label_csr(
            n, num_labels, out_sources, out_labels, out_targets
        )
        rcsr_offsets, rcsr_indptr, rcsr_sources = _label_csr(
            n, num_labels, out_targets, out_labels, out_sources
        )
        arrays = {
            "out_indptr": out_indptr,
            "out_labels": out_labels,
            "out_targets": out_targets,
            "in_indptr": in_indptr,
            "in_labels": in_labels,
            "in_sources": in_sources,
            "csr_offsets": csr_offsets,
            "csr_indptr": csr_indptr,
            "csr_targets": csr_targets,
            "rcsr_offsets": rcsr_offsets,
            "rcsr_indptr": rcsr_indptr,
            "rcsr_sources": rcsr_sources,
        }
        self._set_arrays(
            {name: array("q", values) for name, values in arrays.items()}
        )

    @classmethod
    def from_arrays(cls, vertices: Sequence[Any], labels: Sequence[str],
                    num_edges: int, arrays: Mapping[str, Any],
                    reach_parts: Any = None,
                    mapping: Any = None) -> "IndexedGraph":
        """Wrap arrays already in the compiled layout — no recompile.

        ``arrays`` maps the twelve adjacency array names to int64
        sequences (``array("q")`` or ``memoryview``) that a previous
        compile produced; the caller guarantees they are consistent
        (:mod:`repro.service.snapshot` validates a file before calling
        this).  ``mapping`` is the read-only mmap the arrays are cast
        over, kept alive for the graph's lifetime when attached.
        """
        self = cls.__new__(cls)
        self._set_tables(vertices, labels, num_edges)
        self._set_arrays(arrays, reach_parts, mapping)
        return self

    def _set_tables(self, vertices, labels, num_edges):
        """Install the vertex and label tables (``labels`` sorted)."""
        self._vertex_of = tuple(vertices)
        self._id_of = {
            vertex: index for index, vertex in enumerate(self._vertex_of)
        }
        self._label_of = tuple(labels)
        self._label_ids = {
            label: index for index, label in enumerate(self._label_of)
        }
        self._labels = frozenset(self._label_of)
        self._num_edges = num_edges

    def _set_arrays(self, arrays, reach_parts=None, mapping=None):
        """Install the adjacency arrays; every attribute is set once."""
        self.out_indptr = arrays["out_indptr"]
        self.out_labels = arrays["out_labels"]
        self.out_targets = arrays["out_targets"]
        self.in_indptr = arrays["in_indptr"]
        self.in_labels = arrays["in_labels"]
        self.in_sources = arrays["in_sources"]
        self.csr_offsets = arrays["csr_offsets"]
        self.csr_indptr = arrays["csr_indptr"]
        self.csr_targets = arrays["csr_targets"]
        self.rcsr_offsets = arrays["rcsr_offsets"]
        self.rcsr_indptr = arrays["rcsr_indptr"]
        self.rcsr_sources = arrays["rcsr_sources"]
        # Per-label (indptr row, value slice) pairs: zero-copy
        # memoryview slices of the flat per-label arrays.
        width = len(self._vertex_of) + 1
        self._fwd = _label_slices(
            self.csr_offsets, self.csr_indptr, self.csr_targets, width
        )
        self._rev = _label_slices(
            self.rcsr_offsets, self.rcsr_indptr, self.rcsr_sources, width
        )
        self._out_pairs: list[Any] = [None] * len(self._vertex_of)
        self._in_pairs: list[Any] = [None] * len(self._vertex_of)
        # (vertex_id, label_id) -> tuple memo over the CSR slices, so a
        # hot (vertex, label) pair costs one dict hit instead of a new
        # slice object per read.  Empty slices are answered with a
        # shared () and never cached, so the memo is bounded by the
        # number of (vertex, label) pairs that actually carry edges —
        # O(E) per direction, not O(|V|·|Σ|).
        self._succ_memo: dict[int, tuple[int, ...]] = {}
        self._pred_memo: dict[int, tuple[int, ...]] = {}
        # SCC condensation + per-label condensation edges: thawed from
        # a snapshot, or computed on first use (reach_parts).
        self._reach_parts = reach_parts
        self._reach_index = None
        self._mapping = mapping
        # Snapshot provenance: set by repro.service.snapshot when the
        # graph was saved to / loaded from / attached to a snapshot
        # file, so a worker pool can attach that file directly.
        self._snapshot_path: str | None = None

    # -- GraphView ---------------------------------------------------------------

    def view(self) -> "IndexedGraph":
        """The compiled graph is its own :class:`GraphView`."""
        return self

    # invariant: hot-loop
    def out(self, vertex_id: int) -> tuple[tuple[int, int], ...]:
        """``(label_id, target_id)`` pairs in repr order (lazy memo)."""
        pairs = self._out_pairs[vertex_id]
        if pairs is None:
            start = self.out_indptr[vertex_id]
            stop = self.out_indptr[vertex_id + 1]
            pairs = tuple(zip(
                self.out_labels[start:stop], self.out_targets[start:stop]
            ))
            self._out_pairs[vertex_id] = pairs
        return pairs

    # invariant: hot-loop
    def in_pairs(self, vertex_id: int) -> tuple[tuple[int, int], ...]:
        """``(label_id, source_id)`` pairs in repr order (lazy memo)."""
        pairs = self._in_pairs[vertex_id]
        if pairs is None:
            start = self.in_indptr[vertex_id]
            stop = self.in_indptr[vertex_id + 1]
            pairs = tuple(zip(
                self.in_labels[start:stop], self.in_sources[start:stop]
            ))
            self._in_pairs[vertex_id] = pairs
        return pairs

    def out_csr(self, label_id: int) -> tuple[Sequence[int], Sequence[int]]:
        """Bulk successors-by-label: the label's ``(indptr, targets)``.

        Zero-copy slices of the per-label CSR arrays (see
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
        return self.out_indptr[vertex_id + 1] - self.out_indptr[vertex_id]

    # -- reachability index -------------------------------------------------------

    def reach_parts(self) -> tuple:
        """The SCC condensation parts ``(comp_of, num_comps, label_edges)``.

        Computed once per compiled graph (iterative Tarjan over the
        forward adjacency in canonical order) and cached; snapshot
        format v3 persists the result so a warm start thaws the index
        instead of re-condensing.
        """
        if self._reach_parts is None:
            self._reach_parts = condense(len(self._vertex_of), self.out)
        return self._reach_parts

    def _build_reachability(self) -> ReachabilityIndex:
        """Index from the graph's (possibly snapshot-thawed) parts."""
        comp_of, num_comps, label_edges = self.reach_parts()
        return ReachabilityIndex(
            comp_of, num_comps, label_edges, num_labels=self.num_labels
        )

    # -- vertex and label tables ----------------------------------------------------

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

    # -- conversion -----------------------------------------------------------------

    def to_dbgraph(self) -> DbGraph:
        """Thaw back into a mutable :class:`DbGraph` (the string API)."""
        result = DbGraph()
        vertex_of = self._vertex_of
        label_of = self._label_of
        for vertex in vertex_of:
            result.add_vertex(vertex)
        for source_id, source in enumerate(vertex_of):
            for label_id, target_id in self.out(source_id):
                result.add_edge(
                    source, label_of[label_id], vertex_of[target_id]
                )
        return result

    def __repr__(self) -> str:
        return "IndexedGraph(|V|=%d, |E|=%d, Σ=%s)" % (
            self.num_vertices,
            self.num_edges,
            "".join(self._label_of),
        )

