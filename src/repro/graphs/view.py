"""GraphView — the integer-native read layer under the solver cores.

The three solver cores (finite / tractable / exact) spend their hot
loops asking the same four questions: *what are this vertex's
successors, partitioned by label?  what is its out-degree?  who points
at it?  have I visited it?*  Asking those questions of a
:class:`~repro.graphs.dbgraph.DbGraph` means hashing vertex names and
label strings on every expansion.  A :class:`GraphView` answers them in
integers instead: vertices carry contiguous ids ``0..n-1`` assigned in
the graph's deterministic (repr-sorted) order, labels carry ids
``0..L-1`` in sorted order, and label *sets* become bitmasks — so a
visited set is a flat ``bytearray`` index, a label-class test is one
shift-and-mask, and a DFA transition is a list lookup.

Two implementations:

:class:`DbGraphView`
    Dict-backed with *reference semantics*: every read goes through the
    live graph's own adjacency (plus its cached repr-sorted views), so
    the view is cheap to build and never copies the edge set.  This is
    what a direct ``solve_rspq`` on a mutable :class:`DbGraph` uses —
    ``DbGraph.view()`` memoises one per mutation generation.

``IndexedGraph`` (:mod:`repro.engine.indexed`)
    The compiled graph is itself a view over frozen int64 CSR arrays:
    flat forward and reverse adjacency, per-label forward CSR, and a
    label-partitioned *reverse* CSR for backward product searches —
    built by a compile, copied from a snapshot, or mapped from one.
    This is what :class:`~repro.engine.QueryEngine` (and therefore
    every batch and HTTP-served query) hands to the solvers.

Both views assign vertex ids in the same repr-sorted order and iterate
adjacency in the same precomputed repr order, so the solvers return
**bit-identical paths** on either backing — the property the
CSR-vs-DbGraph differential suite in ``tests/test_hypothesis_solvers``
pins down.

:func:`as_graph_view` is the solvers' entry point: it accepts a view
(identity — an ``IndexedGraph`` included), anything exposing
``.view()`` (``DbGraph``), or any duck-typed graph with the
``DbGraph`` read API (wrapped in a fresh :class:`DbGraphView`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..errors import GraphError
from .dbgraph import (
    DbGraph,
    Path,
    sorted_out_edges_fn,
    sorted_successors_fn,
)

if TYPE_CHECKING:
    from .reach import ReachabilityIndex


class GraphView:
    """Abstract integer-native graph view (see module docstring).

    Subclasses provide ``_vertex_of`` / ``_id_of`` (vertex tables),
    ``_label_of`` / ``_label_ids`` (label tables) and the adjacency
    methods :meth:`out`, :meth:`out_by_label`, :meth:`in_pairs`,
    :meth:`in_by_label` and :meth:`out_degree`.  Vertex ids follow the
    repr-sorted vertex order; label ids follow sorted label order;
    adjacency iterates in the same repr order every solver historically
    sorted into, which is what makes results view-independent.
    """

    #: Short machine-readable backend name ("dict" / "csr").
    kind = "abstract"

    #: Subclass contract: the id tables behind the generic accessors.
    _vertex_of: Sequence[Any]
    _id_of: dict[Any, int]
    _label_of: Sequence[str]
    _label_ids: dict[str, int]
    _reach_index: "ReachabilityIndex | None"

    # -- reachability index -------------------------------------------------------

    def reachability(self) -> ReachabilityIndex:
        """The :class:`~repro.graphs.reach.ReachabilityIndex` for this view.

        Built lazily on first use and memoised on the view instance —
        a :class:`DbGraphView` is rebuilt per mutation generation, so
        its index can never serve a stale graph; an ``IndexedGraph``
        is frozen, so its index (possibly thawed straight from a
        snapshot) lives as long as the compiled graph.  Both backends
        condense in the same canonical order, so the component
        partition — and therefore every pruning decision — is
        view-independent.
        """
        index = getattr(self, "_reach_index", None)
        if index is None:
            index = self._build_reachability()
            self._reach_index = index
        return index

    def _build_reachability(self) -> ReachabilityIndex:
        from .reach import ReachabilityIndex

        return ReachabilityIndex.from_view(self)

    # -- id tables ---------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_of)

    @property
    def num_labels(self) -> int:
        return len(self._label_of)

    def vertex_id(self, vertex: Any) -> int:
        """The contiguous int id of ``vertex`` (GraphError if unknown)."""
        try:
            return self._id_of[vertex]
        except KeyError:
            raise GraphError("unknown vertex %r" % (vertex,)) from None

    def vertex_at(self, vertex_id: int) -> Any:
        """The vertex carrying id ``vertex_id``."""
        return self._vertex_of[vertex_id]

    def label_id(self, label: str) -> int | None:
        """The int id of ``label``, or ``None`` when no edge carries it."""
        return self._label_ids.get(label)

    def label_at(self, label_id: int) -> str:
        return self._label_of[label_id]

    def label_mask(self, symbols: Iterable[str]) -> int:
        """Bitmask over label ids for a set of label strings.

        Symbols that label no edge contribute no bit — a class test
        against the mask then fails exactly like the string-set test
        used to.
        """
        mask = 0
        label_ids = self._label_ids
        for symbol in symbols:
            label_id = label_ids.get(symbol)
            if label_id is not None:
                mask |= 1 << label_id
        return mask

    def word_label_ids(self, word: Iterable[str]) -> tuple[int | None, ...]:
        """Per-letter label ids; ``None`` marks a letter with no edges."""
        label_ids = self._label_ids
        return tuple(label_ids.get(symbol) for symbol in word)

    def out_csr(
        self, label_id: int
    ) -> tuple[Sequence[int], Sequence[int]] | None:
        """Bulk successors-by-label: the ``(indptr, targets)`` CSR pair.

        ``targets[indptr[v]:indptr[v + 1]]`` lists the ``label_id``-
        successors of vertex ``v`` in ascending id order — the whole
        label partition in two flat arrays, so a multi-source sweep
        (:mod:`repro.engine.vectorized`) can expand every pending
        query's frontier through one label without a per-vertex method
        call.  Returns ``None`` on backings with no CSR arrays (the
        dict-backed view) — callers must fall back to per-vertex
        :meth:`out_by_label` or per-query solving.
        """
        return None

    def path(self, vertex_ids: Sequence[int],
             label_ids: Sequence[int]) -> Path:
        """Materialise an id-path back into a named :class:`Path`."""
        vertex_of = self._vertex_of
        label_of = self._label_of
        return Path(
            tuple(vertex_of[vertex_id] for vertex_id in vertex_ids),
            tuple(label_of[label_id] for label_id in label_ids),
        )


class DbGraphView(GraphView):
    """Dict-backed :class:`GraphView` with reference semantics.

    Reads go straight through the backing graph's adjacency (using its
    cached repr-sorted accessors when available), converting names to
    ids on the fly — nothing about the edge set is copied, so the view
    costs one pass over the vertex set to build.  The id tables are a
    snapshot: after the graph mutates, build a new view
    (``DbGraph.view()`` does this automatically via its mutation
    counter).
    """

    kind = "dict"

    def __init__(self, graph: Any) -> None:
        self.graph = graph
        if isinstance(graph, DbGraph):
            # DbGraph.vertices() is already repr-sorted (and cached).
            vertices = tuple(graph.vertices())
        else:
            vertices = tuple(sorted(graph.vertices(), key=repr))
        self._vertex_of = vertices
        self._id_of = {
            vertex: index for index, vertex in enumerate(vertices)
        }
        self._label_of = tuple(sorted(graph.labels()))
        self._label_ids = {
            label: index for index, label in enumerate(self._label_of)
        }
        self._sorted_out = sorted_out_edges_fn(graph)
        self._sorted_successors = sorted_successors_fn(graph)

    def out(self, vertex_id: int) -> list[tuple[int, int]]:
        """``(label_id, target_id)`` pairs in repr order."""
        label_ids = self._label_ids
        id_of = self._id_of
        return [
            (label_ids[label], id_of[target])
            for label, target in self._sorted_out(self._vertex_of[vertex_id])
        ]

    def out_by_label(self, vertex_id: int,
                     label_id: int | None) -> Sequence[int]:
        """Target ids of ``label_id``-edges, ascending (= repr order)."""
        if label_id is None:
            return ()
        id_of = self._id_of
        return [
            id_of[target]
            for target in self._sorted_successors(
                self._vertex_of[vertex_id], self._label_of[label_id]
            )
        ]

    def in_pairs(self, vertex_id: int) -> list[tuple[int, int]]:
        """``(label_id, source_id)`` pairs (order unspecified)."""
        label_ids = self._label_ids
        id_of = self._id_of
        return [
            (label_ids[label], id_of[source])
            for label, source in self.graph.in_edges(
                self._vertex_of[vertex_id]
            )
        ]

    def in_by_label(self, vertex_id: int,
                    label_id: int | None) -> Sequence[int]:
        """Source ids of ``label_id``-edges into ``vertex_id``."""
        if label_id is None:
            return ()
        label = self._label_of[label_id]
        id_of = self._id_of
        return [
            id_of[source]
            for edge_label, source in self.graph.in_edges(
                self._vertex_of[vertex_id]
            )
            if edge_label == label
        ]

    def out_degree(self, vertex_id: int) -> int:
        return self.graph.out_degree(self._vertex_of[vertex_id])

    def __repr__(self) -> str:
        return "DbGraphView(|V|=%d, |Σ|=%d over %r)" % (
            self.num_vertices, self.num_labels, self.graph,
        )


def as_graph_view(graph: Any) -> GraphView:
    """The :class:`GraphView` for ``graph`` (identity when already one).

    A compiled :class:`~repro.engine.indexed.IndexedGraph` is already a
    view; ``DbGraph`` exposes a cached ``view()`` (rebuilt on
    mutation); any other duck-typed graph with the ``DbGraph`` read
    API is wrapped in a fresh :class:`DbGraphView`.
    """
    if isinstance(graph, GraphView):
        return graph
    viewer = getattr(graph, "view", None)
    if viewer is not None:
        return viewer()
    return DbGraphView(graph)
