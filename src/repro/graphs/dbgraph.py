"""Directed edge-labeled multigraphs — the paper's *db-graphs*.

A db-graph is a tuple ``G = (V, Σ, E)`` with ``E ⊆ V × Σ × V``, and a
:class:`DbGraph` stores exactly that: a vertex set and a set of
``(source, label, target)`` triples.  Everything else is derived from
those two sets when it is first read:

* the adjacency indexes (successors, predecessors, and successors per
  label) are built from E by the first adjacency read, and later
  :meth:`DbGraph.add_edge` calls update them in place;
* the repr-sorted vertex list (:meth:`~DbGraph.vertices`) and the
  compiled :class:`~repro.engine.indexed.IndexedGraph` the solvers walk
  (:meth:`~DbGraph.view`) are memoised and dropped whenever the graph
  mutates.

A graph that is only parsed and compiled (:func:`repro.graphs.io.loads`,
then :class:`~repro.engine.indexed.IndexedGraph`, which reads E through
:func:`edge_set`) therefore never builds an index, and the whole-graph
transforms (:meth:`~DbGraph.copy`, :meth:`~DbGraph.reversed`,
:meth:`~DbGraph.subgraph`, ...) are set comprehensions over E.

Vertices are arbitrary hashable objects.  Edge labels are single symbols;
:meth:`DbGraph.add_word_edge` provides the Lemma-5 generalisation of
edges labeled by non-empty *words*, expanded on the fly through fresh
intermediate vertices.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import TYPE_CHECKING, AbstractSet, Any, Iterable, Iterator

from ..errors import GraphError

if TYPE_CHECKING:
    from ..engine.indexed import IndexedGraph

#: One edge of E: ``(source, label, target)``.
Edge = tuple[Any, str, Any]
#: An adjacency entry: ``(label, other endpoint)``.
Pair = tuple[str, Any]


def _single_symbol(label: Any) -> str:
    if not isinstance(label, str) or len(label) != 1:
        raise GraphError(
            "edge labels are single symbols, got %r "
            "(use add_word_edge for word labels)" % (label,)
        )
    return label


def _edge_order(edge: Edge) -> tuple[str, str]:
    """Sort key of :meth:`DbGraph.edges`: the source's repr, then the
    ``(label, target)`` pair's."""
    source, label, target = edge
    return repr(source), repr((label, target))


class _Adjacency:
    """The adjacency indexes over an edge set (derived state)."""

    __slots__ = ("succ", "pred", "succ_by_label")

    def __init__(self, edges: Iterable[Edge]) -> None:
        #: v -> {(label, w)}
        self.succ: defaultdict[Any, set[Pair]] = defaultdict(set)
        #: w -> {(label, v)}
        self.pred: defaultdict[Any, set[Pair]] = defaultdict(set)
        #: (v, label) -> {w}
        self.succ_by_label: defaultdict[tuple[Any, str], set[Any]] = (
            defaultdict(set)
        )
        for source, label, target in edges:
            self.add(source, label, target)

    def add(self, source: Any, label: str, target: Any) -> None:
        self.succ[source].add((label, target))
        self.pred[target].add((label, source))
        self.succ_by_label[(source, label)].add(target)


class DbGraph:
    """A directed, edge-labeled multigraph (db-graph)."""

    def __init__(self) -> None:
        self._vertices: set[Any] = set()
        #: E, the store every other structure is derived from.
        self._edges: set[Edge] = set()
        self._labels: set[str] = set()
        #: Built from E by the first adjacency read (see _adjacency).
        self._index: _Adjacency | None = None
        self._fresh_counter = 0
        # The repr-sorted vertex list and the compiled view, built
        # lazily and dropped wholesale whenever the graph mutates.  The
        # mutation counter keeps staleness checks to one int compare.
        self._mutations = 0
        self._cache_mutations = -1
        self._sorted_vertices: list[Any] | None = None
        self._view: IndexedGraph | None = None

    @classmethod
    def _of(cls, vertices: set[Any], edges: set[Edge]) -> DbGraph:
        """The graph on ``vertices`` plus every endpoint, with E = ``edges``.

        The bulk constructor behind :func:`repro.graphs.io.loads` and
        every whole-graph transform: it keeps both sets (``vertices``
        gains the endpoints in place) and does no per-edge work in
        Python.  The caller vouches that every label is a single
        symbol.
        """
        vertices.update(map(itemgetter(0), edges))
        vertices.update(map(itemgetter(2), edges))
        graph = cls()
        graph._vertices = vertices
        graph._edges = edges
        graph._labels = set(map(itemgetter(1), edges))
        return graph

    def _sync_caches(self) -> None:
        if self._cache_mutations != self._mutations:
            self._cache_mutations = self._mutations
            self._sorted_vertices = None
            self._view = None

    def _adjacency(self) -> _Adjacency:
        """The adjacency indexes, built from E on the first call."""
        index = self._index
        if index is None:
            index = self._index = _Adjacency(self._edges)
        return index

    # -- construction -----------------------------------------------------------

    def add_vertex(self, vertex: Any) -> Any:
        """Add ``vertex`` (idempotent); returns the vertex."""
        if vertex not in self._vertices:
            self._vertices.add(vertex)
            self._mutations += 1
        return vertex

    def add_edge(self, source: Any, label: str, target: Any) -> None:
        """Add the labeled edge ``(source, label, target)``.

        Vertices are created implicitly.  Adding the same edge twice is a
        no-op (E is a *set* of triples, per the paper's definition).
        """
        edge = (source, _single_symbol(label), target)
        if edge in self._edges:
            return
        self._edges.add(edge)
        self._vertices.add(source)
        self._vertices.add(target)
        self._labels.add(label)
        if self._index is not None:
            self._index.add(source, label, target)
        self._mutations += 1

    def fresh_vertex(self, prefix: str = "_w") -> str:
        """A vertex name guaranteed not to collide with existing ones."""
        while True:
            candidate = "%s%d" % (prefix, self._fresh_counter)
            self._fresh_counter += 1
            if candidate not in self._vertices:
                return candidate

    def add_word_edge(self, source: Any, word: str,
                      target: Any) -> list[str]:
        """Add a path spelling ``word`` from ``source`` to ``target``.

        Implements the generalisation used in the Lemma 5 reduction: "an
        edge labeled by a word w can be replaced with a path whose edges
        form the word w", with fresh intermediate vertices.  Returns the
        list of intermediate vertices created (empty for 1-letter words).
        """
        if not word:
            raise GraphError("word edges must carry a non-empty word")
        intermediates: list[str] = []
        current = source
        for index, symbol in enumerate(word):
            is_last = index == len(word) - 1
            next_vertex = target if is_last else self.fresh_vertex()
            if not is_last:
                intermediates.append(next_vertex)
            self.add_edge(current, symbol, next_vertex)
            current = next_vertex
        return intermediates

    # -- queries ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def generation(self) -> int:
        """Monotonic mutation counter (bumps on any structural change).

        Derived state snapshotted from the graph — the repr-sorted
        vertex list and the compiled view (:meth:`view`) — is checked
        against it to detect staleness in one int compare instead of
        hashing the edge set.  (A :class:`~repro.engine.QueryEngine`
        serves a compiled copy of its own and never sees later
        mutations.)
        """
        return self._mutations

    def vertices(self) -> Iterator[Any]:
        """Iterator over all vertices, in deterministic (repr) order.

        The sort is cached and invalidated on mutation, so repeated
        calls — a compile, solver preprocessing — cost O(V) instead of
        O(V log V) each.
        """
        self._sync_caches()
        if self._sorted_vertices is None:
            self._sorted_vertices = sorted(self._vertices, key=repr)
        return iter(self._sorted_vertices)

    def labels(self) -> frozenset[str]:
        """The set of labels that occur on edges."""
        return frozenset(self._labels)

    def has_vertex(self, vertex: Any) -> bool:
        return vertex in self._vertices

    def require_vertex(self, vertex: Any) -> None:
        if vertex not in self._vertices:
            raise GraphError("unknown vertex %r" % (vertex,))

    def has_edge(self, source: Any, label: str, target: Any) -> bool:
        return (source, label, target) in self._edges

    def out_edges(self, vertex: Any) -> Iterator[Pair]:
        """Iterator of ``(label, target)`` pairs from ``vertex``."""
        return iter(self._adjacency().succ.get(vertex, ()))

    def in_edges(self, vertex: Any) -> Iterator[Pair]:
        """Iterator of ``(label, source)`` pairs into ``vertex``."""
        return iter(self._adjacency().pred.get(vertex, ()))

    def successors(self, vertex: Any, label: str | None = None) -> set[Any]:
        """Targets of edges from ``vertex`` (optionally by label)."""
        index = self._adjacency()
        if label is None:
            return {target for _label, target in index.succ.get(vertex, ())}
        return set(index.succ_by_label.get((vertex, label), ()))

    def predecessors(self, vertex: Any,
                     label: str | None = None) -> set[Any]:
        """Sources of edges into ``vertex`` (optionally by label)."""
        pairs = self._adjacency().pred.get(vertex, ())
        return {
            source
            for edge_label, source in pairs
            if label is None or edge_label == label
        }

    def edges(self) -> Iterator[Edge]:
        """Iterator over all ``(source, label, target)`` triples.

        Deterministic order: sources in :meth:`vertices` order, and
        each source's ``(label, target)`` pairs in repr order — one
        sort of E on ``(repr(source), repr((label, target)))``.
        """
        return iter(sorted(self._edges, key=_edge_order))

    def out_degree(self, vertex: Any) -> int:
        return len(self._adjacency().succ.get(vertex, ()))

    def in_degree(self, vertex: Any) -> int:
        return len(self._adjacency().pred.get(vertex, ()))

    def view(self) -> IndexedGraph:
        """The compiled :class:`~repro.engine.indexed.IndexedGraph`.

        The :class:`~repro.graphs.view.GraphView` a direct solve walks.
        Memoised per mutation generation: repeated solves against an
        unchanged graph share one compile (and its reachability
        index); the first solve after a mutation recompiles, one
        O(E log E) pass.
        """
        self._sync_caches()
        if self._view is None:
            from ..engine.indexed import IndexedGraph

            self._view = IndexedGraph(self)
        return self._view

    # -- restricted views ------------------------------------------------------------

    def subgraph(self, vertices: Iterable[Any]) -> DbGraph:
        """Induced subgraph on ``vertices`` (a new DbGraph)."""
        keep = set(vertices)
        for vertex in keep:
            self.require_vertex(vertex)
        return DbGraph._of(keep, {
            edge for edge in self._edges
            if edge[0] in keep and edge[2] in keep
        })

    def reversed(self) -> DbGraph:
        """Graph with every edge reversed."""
        return DbGraph._of(set(self._vertices), {
            (target, label, source)
            for source, label, target in self._edges
        })

    def restricted_to_labels(self, labels: Iterable[str]) -> DbGraph:
        """Graph keeping only edges whose label is in ``labels``."""
        allowed = frozenset(labels)
        return DbGraph._of(set(self._vertices), {
            edge for edge in self._edges if edge[1] in allowed
        })

    def copy(self) -> DbGraph:
        """A deep structural copy."""
        return DbGraph._of(set(self._vertices), set(self._edges))

    # -- path utilities ---------------------------------------------------------------

    def is_path(self, path: Path) -> bool:
        """Check a ``Path`` is edge-consistent with this graph."""
        return all(step in self._edges for step in path.steps())

    def reachable_within(self, start: Any,
                         allowed_labels: AbstractSet[str] | None = None,
                         forbidden: Iterable[Any] = ()) -> set[Any]:
        """Vertices reachable from ``start`` avoiding ``forbidden``.

        ``allowed_labels=None`` means every label.  ``start`` itself is
        included (unless it is forbidden, in which case the set is empty).
        """
        self.require_vertex(start)
        blocked = set(forbidden)
        if start in blocked:
            return set()
        succ = self._adjacency().succ
        seen = {start}
        stack = [start]
        while stack:
            vertex = stack.pop()
            for label, target in succ.get(vertex, ()):
                if allowed_labels is not None and label not in allowed_labels:
                    continue
                if target in blocked or target in seen:
                    continue
                seen.add(target)
                stack.append(target)
        return seen

    # -- interop --------------------------------------------------------------------------

    def to_networkx(self) -> Any:
        """Export as a ``networkx.MultiDiGraph`` (label attribute: 'label')."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        graph.add_nodes_from(self._vertices)
        for source, label, target in self.edges():
            graph.add_edge(source, target, label=label)
        return graph

    @classmethod
    def from_networkx(cls, graph: Any, label_attr: str = "label") -> DbGraph:
        """Import from any networkx directed graph with labeled edges."""
        result = cls()
        for vertex in graph.nodes():
            result.add_vertex(vertex)
        for source, target, data in graph.edges(data=True):
            label = data.get(label_attr)
            if label is None:
                raise GraphError(
                    "edge (%r, %r) lacks the %r attribute"
                    % (source, target, label_attr)
                )
            result.add_edge(source, str(label), target)
        return result

    @classmethod
    def from_edges(cls, triples: Iterable[Edge]) -> DbGraph:
        """Build from an iterable of ``(source, label, target)`` triples."""
        edges = {
            (source, _single_symbol(label), target)
            for source, label, target in triples
        }
        return cls._of(set(), edges)

    def __repr__(self) -> str:
        return "DbGraph(|V|=%d, |E|=%d, Σ=%s)" % (
            self.num_vertices,
            self.num_edges,
            "".join(sorted(self._labels)),
        )


def edge_set(graph: Any) -> AbstractSet[Edge]:
    """E of ``graph``: its set of ``(source, label, target)`` triples.

    A :class:`DbGraph` hands over its own store, which the caller must
    only read; any other graph-shaped object is read through
    ``edges()``.
    """
    if isinstance(graph, DbGraph):
        return graph._edges
    return set(graph.edges())


class Path:
    """A labeled path ``(v_1, a_1, v_2, ..., a_k, v_{k+1})``.

    Stored as the vertex sequence plus the label sequence (one shorter).
    """

    __slots__ = ("vertices", "labels")

    vertices: tuple[Any, ...]
    labels: tuple[str, ...]

    def __init__(self, vertices: Iterable[Any],
                 labels: Iterable[str]) -> None:
        self.vertices = tuple(vertices)
        self.labels = tuple(labels)
        if len(self.vertices) != len(self.labels) + 1:
            raise GraphError(
                "a path with %d labels needs %d vertices, got %d"
                % (len(self.labels), len(self.labels) + 1,
                   len(self.vertices))
            )
        if not self.vertices:
            raise GraphError("a path has at least one vertex")

    @classmethod
    def single(cls, vertex: Any) -> Path:
        """The empty path sitting at ``vertex``."""
        return cls((vertex,), ())

    @property
    def source(self) -> Any:
        return self.vertices[0]

    @property
    def target(self) -> Any:
        return self.vertices[-1]

    @property
    def word(self) -> str:
        """The word spelled by the edge labels."""
        return "".join(self.labels)

    def __len__(self) -> int:
        """Path size = number of edges."""
        return len(self.labels)

    def is_simple(self) -> bool:
        """True iff all vertices are distinct."""
        return len(set(self.vertices)) == len(self.vertices)

    def steps(self) -> Iterator[Edge]:
        """Iterator of ``(source, label, target)`` per edge."""
        for index, label in enumerate(self.labels):
            yield self.vertices[index], label, self.vertices[index + 1]

    def extend(self, label: str, vertex: Any) -> Path:
        """New path with one more edge appended."""
        return Path(self.vertices + (vertex,), self.labels + (label,))

    def concat(self, other: Path) -> Path:
        """Join with ``other`` (which must start at this path's target)."""
        if other.source != self.target:
            raise GraphError(
                "cannot concatenate: %r does not start at %r"
                % (other.source, self.target)
            )
        return Path(
            self.vertices + other.vertices[1:], self.labels + other.labels
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Path)
            and self.vertices == other.vertices
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.labels))

    def __repr__(self) -> str:
        if not self.labels:
            return "Path(%r)" % (self.vertices[0],)
        pieces = [repr(self.vertices[0])]
        for index, label in enumerate(self.labels):
            pieces.append("-%s->" % label)
            pieces.append(repr(self.vertices[index + 1]))
        return "Path(%s)" % " ".join(pieces)
