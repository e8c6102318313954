"""Compiled, integer-indexed db-graph: one CSR layout, the one GraphView.

:class:`IndexedGraph` compiles a
:class:`~repro.graphs.dbgraph.DbGraph` from its edge set E into the
six int64 adjacency arrays a v4 snapshot stores
(:mod:`repro.service.snapshot`), under the snapshot manifest's names:

* vertices mapped to contiguous ints ``0..n-1`` in the same repr-sorted
  order that ``DbGraph.vertices()`` uses, labels to ``0..L-1`` in
  sorted order, so every solver that expands neighbours "in repr
  order" returns bit-identical paths on every copy of a graph;
* ``out_indptr`` / ``out_labels`` / ``out_targets`` and
  ``in_indptr`` / ``in_labels`` / ``in_sources``: forward and reverse
  adjacency as one CSR each, every vertex's slice in repr order.

A vertex's slice groups its edges by label, labels in rank order,
with ascending ids inside a label, so a label-restricted read (a
pinned word letter, one DFA transition) filters the slice it already
holds: the edges it keeps come out in ascending id order.

The compile is flat.  Each edge gets one integer key per direction,
``(source id, label rank, target id)`` forward and ``(target id, label
rank, source id)`` backward, packed as ``(v * L + rank) * n + w``, and
each direction's keys are sorted once.  The sorted keys are the CSR:
``indptr`` counts each vertex's keys, and the label and other id of
each edge are read back off its key.

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
from itertools import accumulate, repeat
from operator import floordiv, mod
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..errors import GraphError
from ..graphs.dbgraph import DbGraph, Edge, edge_set
from ..graphs.reach import ReachabilityIndex, condense
from ..graphs.view import GraphView


def _compile(id_of: Mapping[Any, int], label_of: Sequence[str],
             edges: Iterable[Edge]) -> dict[str, list[int]]:
    """The six adjacency arrays of ``edges``, by manifest name."""
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
        (forward, ("out_indptr", "out_labels", "out_targets")),
        (backward, ("in_indptr", "in_labels", "in_sources")),
    ):
        arrays.update(zip(names, _direction(keys, n, by_rank)))
    return arrays


def _direction(keys: list[int], n: int,
               by_rank: Sequence[int]) -> tuple[list[int], ...]:
    """One direction's ``(indptr, label ids, others)`` from its keys.

    ``keys`` holds ``(vertex * L + rank) * n + other`` per edge in
    ascending order, and ``by_rank[rank]`` is the label id of ``rank``.
    """
    width = len(by_rank) or 1  # an edgeless graph has no labels
    rows = list(map(floordiv, keys, repeat(n)))  # vertex * L + rank
    others = list(map(mod, keys, repeat(n)))
    labels = list(map(by_rank.__getitem__, map(mod, rows, repeat(width))))
    per_vertex = Counter(map(floordiv, rows, repeat(width)))
    indptr = list(accumulate(
        map(per_vertex.get, range(n), repeat(0)), initial=0
    ))
    return indptr, labels, others


class IndexedGraph(GraphView):
    """Immutable compiled db-graph over the snapshot's CSR arrays.

    See the module docstring for the six adjacency arrays it holds
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

        ``arrays`` maps the six adjacency array names to int64
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
        """``(label_id, target_id)`` pairs in repr order: grouped by
        label in rank order, ascending target ids inside a label."""
        start = self.out_indptr[vertex_id]
        stop = self.out_indptr[vertex_id + 1]
        return tuple(zip(
            self.out_labels[start:stop], self.out_targets[start:stop]
        ))

    # invariant: hot-loop
    def in_pairs(self, vertex_id: int) -> tuple[tuple[int, int], ...]:
        """``(label_id, source_id)`` pairs in repr order: grouped by
        label in rank order, ascending source ids inside a label."""
        start = self.in_indptr[vertex_id]
        stop = self.in_indptr[vertex_id + 1]
        return tuple(zip(
            self.in_labels[start:stop], self.in_sources[start:stop]
        ))

    # -- reachability index -------------------------------------------------------

    def reach_parts(self) -> tuple:
        """The SCC condensation parts ``(comp_of, num_comps, label_edges)``.

        Computed once per compiled graph (iterative Tarjan over the
        forward adjacency in canonical order) and cached; a snapshot
        persists the result so a warm start thaws the index instead of
        re-condensing.
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

