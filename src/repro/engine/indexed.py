"""Compiled, integer-indexed db-graph: one CSR layout, the one GraphView.

:class:`IndexedGraph` compiles a
:class:`~repro.graphs.dbgraph.DbGraph` from its edge set E into the
int64 arrays a v3 snapshot stores (:mod:`repro.service.snapshot`),
under the snapshot manifest's names:

* vertices mapped to contiguous ints ``0..n-1`` in the same repr-sorted
  order that ``DbGraph.vertices()`` uses, labels to ``0..L-1`` in
  sorted order, so every solver that expands neighbours "in repr
  order" returns bit-identical paths on every copy of a graph;
* ``out_indptr`` / ``out_labels`` / ``out_targets`` and
  ``in_indptr`` / ``in_labels`` / ``in_sources``: forward and reverse
  adjacency as one CSR each, every vertex's slice in repr order;
* ``csr_offsets`` / ``csr_indptr`` / ``csr_targets``: the per-label
  forward CSR for label-restricted traversals — the layout the
  color-coding exemplar uses to amortise graph preparation across many
  trials — and ``rcsr_offsets`` / ``rcsr_indptr`` / ``rcsr_sources``,
  its label-partitioned reverse for backward product searches.

The compile is flat.  Each edge gets one integer key per direction,
``(source id, label rank, target id)`` forward and ``(target id, label
rank, source id)`` backward, packed as ``(v * L + rank) * n + w``, and
each direction's keys are sorted once.  The sorted forward keys are
the forward CSR (``out_indptr`` is bisected off them); a stable bucket
pass by label turns them into the per-label forward CSR.  The backward
keys give the reverse CSR and its label-partitioned form the same way.

Why the key order is the repr order: a vertex's adjacency is sorted by
``repr((label, other))``.  No one-symbol label's repr is a prefix of
another's, so pairs with different labels compare as their labels'
reprs do — the label *rank*, which is not always the label id order
(``'`` prints as ``"'"`` and ranks first).  Pairs with one label
compare as ``repr(other) + ")"`` does, which is the order of
``repr(other)`` and so of vertex ids (ids are repr ranks) unless one
vertex's repr is a proper prefix of another's followed by a character
below ``)``.  No ``str``, ``int``, ``float``, ``None`` or ``tuple``
vertex has such a repr, and the text format only makes ``str``
vertices.  (Vertices equal under ``==`` that print differently —
``1``, ``1.0``, ``True`` — are already one vertex; which of their
orders holds is not pinned.)

The compiled graph is the one :class:`~repro.graphs.view.GraphView`
(``view()`` returns it), so the solver cores walk the arrays directly:
an engine compiles its own, and a direct solve on a ``DbGraph`` walks
the graph's memoised compile (``DbGraph.view()``).  Compiling builds
the arrays (``array("q")``); a snapshot load copies them back from
disk and an attach casts zero-copy ``memoryview`` arrays over a
read-only mapping of the file (:meth:`IndexedGraph.from_arrays`) —
the same layout and the same read code either way.

The graph is written once.  After its constructor, the only state
ever set is the reachability parts and index, each built once; every
adjacency read slices the arrays afresh and keeps nothing, so an
attached graph's adjacency stays in the shared mapping however many
queries read it.  The graph is a frozen snapshot of its source: it
does not track later mutations.  Name-level (string) reads go through
:meth:`to_dbgraph`.  Compile once per graph, reuse across every query;
see :mod:`repro.engine` for when that pays.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain, repeat
from operator import floordiv, mod
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..errors import GraphError
from ..graphs.dbgraph import DbGraph, Edge, edge_set
from ..graphs.reach import ReachabilityIndex, condense
from ..graphs.view import GraphView


def _compile(id_of: Mapping[Any, int], label_of: Sequence[str],
             edges: Iterable[Edge]) -> dict[str, list[int]]:
    """The twelve adjacency arrays of ``edges``, by manifest name."""
    n = len(id_of)
    num_labels = len(label_of)
    # Label ids in rank (repr) order, and each label's rank times n.
    by_rank = sorted(range(num_labels), key=lambda j: repr(label_of[j]))
    rank_term = {label_of[j]: rank * n for rank, j in enumerate(by_rank)}
    stride = num_labels * n
    forward: list[int] = []
    backward: list[int] = []
    for source, label, target in edges:
        source_id = id_of[source]
        target_id = id_of[target]
        term = rank_term[label]
        forward.append(source_id * stride + term + target_id)
        backward.append(target_id * stride + term + source_id)
    forward.sort()
    backward.sort()
    arrays: dict[str, list[int]] = {}
    for keys, names in (
        (forward, ("out_indptr", "out_labels", "out_targets",
                   "csr_offsets", "csr_indptr", "csr_targets")),
        (backward, ("in_indptr", "in_labels", "in_sources",
                    "rcsr_offsets", "rcsr_indptr", "rcsr_sources")),
    ):
        arrays.update(zip(names, _direction(keys, n, by_rank)))
    return arrays


def _direction(keys: list[int], n: int,
               by_rank: Sequence[int]) -> tuple[list[int], ...]:
    """One direction's CSR and per-label CSR from its sorted keys.

    ``keys`` holds ``(vertex * L + rank) * n + other`` per edge in
    ascending order, and ``by_rank[rank]`` is the label id of ``rank``.
    Returns ``(indptr, label ids, others)`` for the whole adjacency,
    then ``(offsets, indptr, others)`` for the per-label CSR: label
    ``j`` owns rows ``j*(n+1):(j+1)*(n+1)`` of that indptr and the
    slice ``offsets[j]:offsets[j+1]`` of its others, which keep the
    ``(vertex, other)`` order of ``keys``.
    """
    width = len(by_rank) or 1  # an edgeless graph has no labels
    rows = list(map(floordiv, keys, repeat(n)))  # vertex * L + rank
    others = list(map(mod, keys, repeat(n)))
    labels = list(map(by_rank.__getitem__, map(mod, rows, repeat(width))))
    # starts[row] is the position of the row's first edge in ``keys``.
    per_row = Counter(rows)
    starts = list(accumulate(
        map(per_row.get, range(n * width), repeat(0)), initial=0
    ))
    rank_of = {label_id: rank for rank, label_id in enumerate(by_rank)}
    label_indptr: list[int] = []
    for label_id in range(len(by_rank)):
        rank = rank_of[label_id]
        label_indptr.extend(accumulate(
            map(per_row.get, range(rank, n * width, width), repeat(0)),
            initial=0,
        ))
    buckets: list[list[int]] = [[] for _ in by_rank]
    for label_id, other in zip(labels, others):
        buckets[label_id].append(other)
    return (
        starts[::width], labels, others,
        [0, *accumulate(map(len, buckets))], label_indptr,
        list(chain.from_iterable(buckets)),
    )


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
    (public, read-only, named as in the snapshot manifest).  Every
    adjacency read slices those arrays afresh and keeps nothing, so
    after the constructor (compile, load or attach) the only state
    ever written is the reachability parts and index, each built once;
    concurrent readers share nothing mutable.
    """

    #: Memoised by :meth:`reachability`.
    _reach_index: ReachabilityIndex | None

    def __init__(self, graph: Any) -> None:
        if isinstance(graph, IndexedGraph):
            raise GraphError("graph is already an IndexedGraph")
        # Contiguous ids in the graph's own deterministic vertex order.
        self._set_tables(
            graph.vertices(), sorted(graph.labels()), graph.num_edges
        )
        arrays = _compile(self._id_of, self._label_of, edge_set(graph))
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
        # SCC condensation + per-label condensation edges: thawed from
        # a snapshot, or computed on first use (reach_parts).
        self._reach_parts = reach_parts
        self._reach_index = None
        self._mapping = mapping

    # -- GraphView ---------------------------------------------------------------

    def view(self) -> "IndexedGraph":
        """The compiled graph is its own :class:`GraphView`."""
        return self

    # invariant: hot-loop
    def out(self, vertex_id: int) -> tuple[tuple[int, int], ...]:
        """``(label_id, target_id)`` pairs in repr order."""
        start = self.out_indptr[vertex_id]
        stop = self.out_indptr[vertex_id + 1]
        return tuple(zip(
            self.out_labels[start:stop], self.out_targets[start:stop]
        ))

    # invariant: hot-loop
    def in_pairs(self, vertex_id: int) -> tuple[tuple[int, int], ...]:
        """``(label_id, source_id)`` pairs in repr order."""
        start = self.in_indptr[vertex_id]
        stop = self.in_indptr[vertex_id + 1]
        return tuple(zip(
            self.in_labels[start:stop], self.in_sources[start:stop]
        ))

    def out_csr(self, label_id: int) -> tuple[Sequence[int], Sequence[int]]:
        """Bulk successors-by-label: the label's ``(indptr, targets)``.

        ``targets[indptr[v]:indptr[v + 1]]`` lists the ``label_id``-
        successors of vertex ``v`` in ascending id order: zero-copy
        slices of the per-label CSR arrays, so a multi-source sweep
        (:mod:`repro.engine.vectorized`) expands every pending query's
        frontier through one label without a per-vertex method call.
        """
        return self._fwd[label_id]

    # invariant: hot-loop
    def out_by_label(
        self, vertex_id: int, label_id: int | None
    ) -> tuple[int, ...]:
        """``label_id``-successors in ascending id order."""
        if label_id is None:
            return ()
        indptr, targets = self._fwd[label_id]
        return tuple(targets[indptr[vertex_id]:indptr[vertex_id + 1]])

    # invariant: hot-loop
    def in_by_label(
        self, vertex_id: int, label_id: int | None
    ) -> tuple[int, ...]:
        """``label_id``-predecessors in ascending id order."""
        if label_id is None:
            return ()
        indptr, sources = self._rev[label_id]
        return tuple(sources[indptr[vertex_id]:indptr[vertex_id + 1]])

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

    def reachability(self) -> ReachabilityIndex:
        """The :class:`~repro.graphs.reach.ReachabilityIndex` of the graph.

        Built on first use from :meth:`reach_parts` (possibly thawed
        from a snapshot) and memoised: the graph is frozen, so its
        index lives as long as the compiled graph does.
        """
        index = self._reach_index
        if index is None:
            comp_of, num_comps, label_edges = self.reach_parts()
            index = self._reach_index = ReachabilityIndex(
                comp_of, num_comps, label_edges, num_labels=self.num_labels
            )
        return index

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

