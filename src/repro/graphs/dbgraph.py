"""Directed edge-labeled multigraphs — the paper's *db-graphs*.

A db-graph is a tuple ``G = (V, Σ, E)`` with ``E ⊆ V × Σ × V``.  This
implementation keeps per-source and per-(source, label) adjacency indexes
so the solvers can iterate exactly the edges they need.

Vertices are arbitrary hashable objects.  Edge labels are single symbols;
:meth:`DbGraph.add_word_edge` provides the Lemma-5 generalisation of
edges labeled by non-empty *words*, expanded on the fly through fresh
intermediate vertices.
"""

from __future__ import annotations

from collections import defaultdict

from ..errors import GraphError


class DbGraph:
    """A directed, edge-labeled multigraph (db-graph)."""

    def __init__(self):
        self._vertices = set()
        self._succ = defaultdict(set)          # v -> {(label, w)}
        self._pred = defaultdict(set)          # w -> {(label, v)}
        self._succ_by_label = defaultdict(set)  # (v, label) -> {w}
        self._labels = set()
        self._num_edges = 0
        self._fresh_counter = 0
        # Deterministic-order caches (repr-sorted views), lazily built
        # and invalidated wholesale whenever the graph mutates.  The
        # mutation counter keeps staleness checks to one int compare.
        self._mutations = 0
        self._cache_mutations = -1
        self._sorted_vertices = None
        self._sorted_succ = {}
        self._sorted_label_succ = {}
        # Integer-native GraphView over this graph, memoised per
        # mutation generation (see view()).
        self._view = None
        self._view_mutations = -1

    def _sync_caches(self):
        if self._cache_mutations != self._mutations:
            self._cache_mutations = self._mutations
            self._sorted_vertices = None
            self._sorted_succ = {}
            self._sorted_label_succ = {}

    # -- construction -----------------------------------------------------------

    def add_vertex(self, vertex):
        """Add ``vertex`` (idempotent); returns the vertex."""
        if vertex not in self._vertices:
            self._vertices.add(vertex)
            self._mutations += 1
        return vertex

    def add_edge(self, source, label, target):
        """Add the labeled edge ``(source, label, target)``.

        Vertices are created implicitly.  Adding the same edge twice is a
        no-op (E is a *set* of triples, per the paper's definition).
        """
        if not isinstance(label, str) or len(label) != 1:
            raise GraphError(
                "edge labels are single symbols, got %r "
                "(use add_word_edge for word labels)" % (label,)
            )
        self._vertices.add(source)
        self._vertices.add(target)
        key = (label, target)
        if key in self._succ[source]:
            return
        self._succ[source].add(key)
        self._pred[target].add((label, source))
        self._succ_by_label[(source, label)].add(target)
        self._labels.add(label)
        self._num_edges += 1
        self._mutations += 1

    def fresh_vertex(self, prefix="_w"):
        """A vertex name guaranteed not to collide with existing ones."""
        while True:
            candidate = "%s%d" % (prefix, self._fresh_counter)
            self._fresh_counter += 1
            if candidate not in self._vertices:
                return candidate

    def add_word_edge(self, source, word, target):
        """Add a path spelling ``word`` from ``source`` to ``target``.

        Implements the generalisation used in the Lemma 5 reduction: "an
        edge labeled by a word w can be replaced with a path whose edges
        form the word w", with fresh intermediate vertices.  Returns the
        list of intermediate vertices created (empty for 1-letter words).
        """
        if not word:
            raise GraphError("word edges must carry a non-empty word")
        intermediates = []
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
    def num_vertices(self):
        return len(self._vertices)

    @property
    def num_edges(self):
        return self._num_edges

    @property
    def generation(self):
        """Monotonic mutation counter (bumps on any structural change).

        Derived state snapshotted from the graph — the memoised
        :class:`~repro.graphs.view.DbGraphView` and the sorted
        adjacency caches — is checked against it to detect staleness
        in one int compare instead of hashing the edge set.  (A
        :class:`~repro.engine.QueryEngine` serves a compiled copy and
        never sees later mutations.)
        """
        return self._mutations

    def vertices(self):
        """Iterator over all vertices, in deterministic (repr) order.

        The sort is cached and invalidated on mutation, so repeated
        calls — ``copy()``, ``subgraph()``, solver preprocessing — cost
        O(V) instead of O(V log V) each.
        """
        self._sync_caches()
        if self._sorted_vertices is None:
            self._sorted_vertices = sorted(self._vertices, key=repr)
        return iter(self._sorted_vertices)

    def labels(self):
        """The set of labels that occur on edges."""
        return frozenset(self._labels)

    def has_vertex(self, vertex):
        return vertex in self._vertices

    def require_vertex(self, vertex):
        if vertex not in self._vertices:
            raise GraphError("unknown vertex %r" % (vertex,))

    def has_edge(self, source, label, target):
        return (label, target) in self._succ.get(source, ())

    def out_edges(self, vertex):
        """Iterator of ``(label, target)`` pairs from ``vertex``."""
        return iter(self._succ.get(vertex, ()))

    def in_edges(self, vertex):
        """Iterator of ``(label, source)`` pairs into ``vertex``."""
        return iter(self._pred.get(vertex, ()))

    def sorted_out_edges(self, vertex):
        """``(label, target)`` pairs from ``vertex`` in repr order.

        Cached per vertex (invalidated on mutation); the hot-path
        counterpart of :meth:`out_edges` for solvers that need a
        deterministic expansion order.
        """
        self._sync_caches()
        pairs = self._sorted_succ.get(vertex)
        if pairs is None:
            pairs = tuple(sorted(self._succ.get(vertex, ()), key=repr))
            self._sorted_succ[vertex] = pairs
        return pairs

    def sorted_successors(self, vertex, label):
        """Targets of ``label``-edges from ``vertex`` in repr order (cached)."""
        self._sync_caches()
        key = (vertex, label)
        targets = self._sorted_label_succ.get(key)
        if targets is None:
            targets = tuple(
                sorted(self._succ_by_label.get(key, ()), key=repr)
            )
            self._sorted_label_succ[key] = targets
        return targets

    def successors(self, vertex, label=None):
        """Targets of edges from ``vertex`` (optionally by label)."""
        if label is None:
            return {target for _label, target in self._succ.get(vertex, ())}
        return set(self._succ_by_label.get((vertex, label), ()))

    def predecessors(self, vertex, label=None):
        """Sources of edges into ``vertex`` (optionally by label)."""
        if label is None:
            return {source for _label, source in self._pred.get(vertex, ())}
        return {
            source
            for edge_label, source in self._pred.get(vertex, ())
            if edge_label == label
        }

    def edges(self):
        """Iterator over all ``(source, label, target)`` triples.

        Deterministic (repr-sorted) order, served from the cached sorted
        views rather than re-sorting on every call.
        """
        for source in self.vertices():
            for label, target in self.sorted_out_edges(source):
                yield source, label, target

    def out_degree(self, vertex):
        return len(self._succ.get(vertex, ()))

    def in_degree(self, vertex):
        return len(self._pred.get(vertex, ()))

    def view(self):
        """The integer-native :class:`~repro.graphs.view.DbGraphView`.

        Memoised per mutation generation: repeated solves against an
        unchanged graph share one view (and its id tables); any
        mutation invalidates it wholesale, exactly like the sorted
        adjacency caches.
        """
        if self._view is None or self._view_mutations != self._mutations:
            from .view import DbGraphView

            self._view = DbGraphView(self)
            self._view_mutations = self._mutations
        return self._view

    # -- restricted views ------------------------------------------------------------

    def subgraph(self, vertices):
        """Induced subgraph on ``vertices`` (a new DbGraph)."""
        keep = set(vertices)
        result = DbGraph()
        for vertex in keep:
            self.require_vertex(vertex)
            result.add_vertex(vertex)
        for source, label, target in self.edges():
            if source in keep and target in keep:
                result.add_edge(source, label, target)
        return result

    def reversed(self):
        """Graph with every edge reversed."""
        result = DbGraph()
        for vertex in self._vertices:
            result.add_vertex(vertex)
        for source, label, target in self.edges():
            result.add_edge(target, label, source)
        return result

    def restricted_to_labels(self, labels):
        """Graph keeping only edges whose label is in ``labels``."""
        allowed = frozenset(labels)
        result = DbGraph()
        for vertex in self._vertices:
            result.add_vertex(vertex)
        for source, label, target in self.edges():
            if label in allowed:
                result.add_edge(source, label, target)
        return result

    def copy(self):
        """A deep structural copy."""
        result = DbGraph()
        for vertex in self._vertices:
            result.add_vertex(vertex)
        for source, label, target in self.edges():
            result.add_edge(source, label, target)
        return result

    # -- path utilities ---------------------------------------------------------------

    def is_path(self, path):
        """Check a ``Path`` is edge-consistent with this graph."""
        for source, label, target in path.steps():
            if not self.has_edge(source, label, target):
                return False
        return True

    def reachable_within(self, start, allowed_labels=None, forbidden=()):
        """Vertices reachable from ``start`` avoiding ``forbidden``.

        ``allowed_labels=None`` means every label.  ``start`` itself is
        included (unless it is forbidden, in which case the set is empty).
        """
        self.require_vertex(start)
        blocked = set(forbidden)
        if start in blocked:
            return set()
        seen = {start}
        stack = [start]
        while stack:
            vertex = stack.pop()
            for label, target in self._succ.get(vertex, ()):
                if allowed_labels is not None and label not in allowed_labels:
                    continue
                if target in blocked or target in seen:
                    continue
                seen.add(target)
                stack.append(target)
        return seen

    # -- interop --------------------------------------------------------------------------

    def to_networkx(self):
        """Export as a ``networkx.MultiDiGraph`` (label attribute: 'label')."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        graph.add_nodes_from(self._vertices)
        for source, label, target in self.edges():
            graph.add_edge(source, target, label=label)
        return graph

    @classmethod
    def from_networkx(cls, graph, label_attr="label"):
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
    def from_edges(cls, triples):
        """Build from an iterable of ``(source, label, target)`` triples."""
        result = cls()
        for source, label, target in triples:
            result.add_edge(source, label, target)
        return result

    def __repr__(self):
        return "DbGraph(|V|=%d, |E|=%d, Σ=%s)" % (
            self.num_vertices,
            self.num_edges,
            "".join(sorted(self._labels)),
        )


def sorted_out_edges_fn(graph):
    """A callable ``v -> repr-sorted (label, target) pairs`` for ``graph``.

    Solvers need a deterministic expansion order on their hot paths.
    When the graph exposes a cached ``sorted_out_edges`` (``DbGraph``)
    that accessor is used directly; otherwise the sort is memoised per
    vertex so any graph-shaped object pays it at most once per solve.
    """
    accessor = getattr(graph, "sorted_out_edges", None)
    if accessor is not None:
        return accessor
    memo = {}

    def fallback(vertex):
        pairs = memo.get(vertex)
        if pairs is None:
            pairs = tuple(sorted(graph.out_edges(vertex), key=repr))
            memo[vertex] = pairs
        return pairs

    return fallback


def sorted_successors_fn(graph):
    """A callable ``(v, label) -> repr-sorted targets`` for ``graph``.

    Same dispatch-or-memoise contract as :func:`sorted_out_edges_fn`.
    """
    accessor = getattr(graph, "sorted_successors", None)
    if accessor is not None:
        return accessor
    memo = {}

    def fallback(vertex, label):
        key = (vertex, label)
        targets = memo.get(key)
        if targets is None:
            targets = tuple(
                sorted(graph.successors(vertex, label), key=repr)
            )
            memo[key] = targets
        return targets

    return fallback


class Path:
    """A labeled path ``(v_1, a_1, v_2, ..., a_k, v_{k+1})``.

    Stored as the vertex sequence plus the label sequence (one shorter).
    """

    __slots__ = ("vertices", "labels")

    def __init__(self, vertices, labels):
        vertices = tuple(vertices)
        labels = tuple(labels)
        if len(vertices) != len(labels) + 1:
            raise GraphError(
                "a path with %d labels needs %d vertices, got %d"
                % (len(labels), len(labels) + 1, len(vertices))
            )
        if not vertices:
            raise GraphError("a path has at least one vertex")
        self.vertices = vertices
        self.labels = labels

    @classmethod
    def single(cls, vertex):
        """The empty path sitting at ``vertex``."""
        return cls((vertex,), ())

    @property
    def source(self):
        return self.vertices[0]

    @property
    def target(self):
        return self.vertices[-1]

    @property
    def word(self):
        """The word spelled by the edge labels."""
        return "".join(self.labels)

    def __len__(self):
        """Path size = number of edges."""
        return len(self.labels)

    def is_simple(self):
        """True iff all vertices are distinct."""
        return len(set(self.vertices)) == len(self.vertices)

    def steps(self):
        """Iterator of ``(source, label, target)`` per edge."""
        for index, label in enumerate(self.labels):
            yield self.vertices[index], label, self.vertices[index + 1]

    def extend(self, label, vertex):
        """New path with one more edge appended."""
        return Path(self.vertices + (vertex,), self.labels + (label,))

    def concat(self, other):
        """Join with ``other`` (which must start at this path's target)."""
        if other.source != self.target:
            raise GraphError(
                "cannot concatenate: %r does not start at %r"
                % (other.source, self.target)
            )
        return Path(
            self.vertices + other.vertices[1:], self.labels + other.labels
        )

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and self.vertices == other.vertices
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.vertices, self.labels))

    def __repr__(self):
        if not self.labels:
            return "Path(%r)" % (self.vertices[0],)
        pieces = [repr(self.vertices[0])]
        for index, label in enumerate(self.labels):
            pieces.append("-%s->" % label)
            pieces.append(repr(self.vertices[index + 1]))
        return "Path(%s)" % " ".join(pieces)
