"""Tests for the db-graph substrate and Path objects."""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.indexed import IndexedGraph
from repro.errors import GraphError
from repro.graphs import dbgraph
from repro.graphs.dbgraph import DbGraph, Path
from repro.graphs import io as graph_io
from repro.graphs.generators import random_labeled_graph


class TestDbGraph:
    def test_add_edge_creates_vertices(self):
        graph = DbGraph()
        graph.add_edge("x", "a", "y")
        assert graph.has_vertex("x")
        assert graph.has_vertex("y")
        assert graph.num_edges == 1

    def test_duplicate_edge_ignored(self):
        graph = DbGraph()
        graph.add_edge(1, "a", 2)
        graph.add_edge(1, "a", 2)
        assert graph.num_edges == 1

    def test_multigraph_labels(self):
        graph = DbGraph()
        graph.add_edge(1, "a", 2)
        graph.add_edge(1, "b", 2)
        assert graph.num_edges == 2
        assert graph.successors(1) == {2}
        assert graph.successors(1, "a") == {2}

    def test_multi_letter_label_rejected(self):
        graph = DbGraph()
        with pytest.raises(GraphError):
            graph.add_edge(1, "ab", 2)

    def test_word_edge_expansion(self):
        graph = DbGraph()
        inner = graph.add_word_edge("x", "abc", "y")
        assert len(inner) == 2
        assert graph.num_edges == 3
        # Follow the expansion.
        current, word = "x", ""
        for _ in range(3):
            ((label, nxt),) = list(graph.out_edges(current))
            word += label
            current = nxt
        assert current == "y"
        assert word == "abc"

    def test_word_edge_empty_rejected(self):
        graph = DbGraph()
        with pytest.raises(GraphError):
            graph.add_word_edge("x", "", "y")

    def test_predecessors(self):
        graph = DbGraph.from_edges([(1, "a", 2), (3, "b", 2)])
        assert graph.predecessors(2) == {1, 3}
        assert graph.predecessors(2, "a") == {1}

    def test_subgraph(self):
        graph = DbGraph.from_edges([(1, "a", 2), (2, "a", 3)])
        sub = graph.subgraph([1, 2])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1

    def test_subgraph_unknown_vertex(self):
        graph = DbGraph()
        graph.add_vertex(1)
        with pytest.raises(GraphError):
            graph.subgraph([1, 99])

    def test_reversed(self):
        graph = DbGraph.from_edges([(1, "a", 2)])
        rev = graph.reversed()
        assert rev.has_edge(2, "a", 1)
        assert not rev.has_edge(1, "a", 2)

    def test_restricted_to_labels(self):
        graph = DbGraph.from_edges([(1, "a", 2), (1, "b", 2)])
        only_a = graph.restricted_to_labels({"a"})
        assert only_a.num_edges == 1

    def test_reachable_within(self):
        graph = DbGraph.from_edges(
            [(1, "a", 2), (2, "a", 3), (2, "b", 4), (4, "a", 5)]
        )
        assert graph.reachable_within(1, allowed_labels={"a"}) == {1, 2, 3}
        assert graph.reachable_within(1, forbidden={2}) == {1}

    def test_networkx_roundtrip(self):
        graph = DbGraph.from_edges([(1, "a", 2), (2, "b", 1)])
        back = DbGraph.from_networkx(graph.to_networkx())
        assert sorted(back.edges()) == sorted(graph.edges())

    def test_fresh_vertex_no_collision(self):
        graph = DbGraph()
        graph.add_vertex("_w0")
        fresh = graph.fresh_vertex()
        assert fresh != "_w0"


class TestPath:
    def test_length_and_word(self):
        path = Path((1, 2, 3), ("a", "b"))
        assert len(path) == 2
        assert path.word == "ab"
        assert path.source == 1
        assert path.target == 3

    def test_single(self):
        path = Path.single("x")
        assert len(path) == 0
        assert path.word == ""
        assert path.is_simple()

    def test_mismatched_lengths(self):
        with pytest.raises(GraphError):
            Path((1, 2), ())

    def test_simplicity(self):
        assert Path((1, 2, 3), ("a", "a")).is_simple()
        assert not Path((1, 2, 1), ("a", "a")).is_simple()

    def test_extend(self):
        path = Path.single(1).extend("a", 2).extend("b", 3)
        assert path.vertices == (1, 2, 3)
        assert path.word == "ab"

    def test_concat(self):
        left = Path((1, 2), ("a",))
        right = Path((2, 3), ("b",))
        assert left.concat(right).word == "ab"

    def test_concat_mismatch(self):
        with pytest.raises(GraphError):
            Path((1, 2), ("a",)).concat(Path((9, 3), ("b",)))

    def test_steps(self):
        path = Path((1, 2, 3), ("a", "b"))
        assert list(path.steps()) == [(1, "a", 2), (2, "b", 3)]

    def test_graph_is_path(self):
        graph = DbGraph.from_edges([(1, "a", 2), (2, "b", 3)])
        assert graph.is_path(Path((1, 2, 3), ("a", "b")))
        assert not graph.is_path(Path((1, 2, 3), ("b", "b")))


class TestIo:
    def test_roundtrip(self):
        graph = DbGraph.from_edges(
            [("x", "a", "y"), ("y", "b", "z")]
        )
        graph.add_vertex("lonely")
        back = graph_io.loads(graph_io.dumps(graph))
        assert sorted(back.edges()) == sorted(graph.edges())
        assert back.has_vertex("lonely")

    def test_comments_and_blanks(self):
        text = "# comment\n\ne x a y\nv z\n"
        graph = graph_io.loads(text)
        assert graph.num_edges == 1
        assert graph.has_vertex("z")

    def test_bad_record(self):
        with pytest.raises(GraphError):
            graph_io.loads("nonsense line\n")

    def test_bad_label(self):
        with pytest.raises(GraphError):
            graph_io.loads("e x ab y\n")

    def test_file_roundtrip(self, tmp_path):
        graph = DbGraph.from_edges([("a", "x", "b")])
        target = tmp_path / "graph.txt"
        graph_io.dump(graph, target)
        assert sorted(graph_io.load(target).edges()) == sorted(graph.edges())


class TestSortedCaches:
    """Deterministic-order views are cached and invalidated on mutation."""

    def test_vertices_cached_list_reused(self):
        graph = DbGraph.from_edges([(2, "a", 1), (3, "b", 1)])
        first = list(graph.vertices())
        second = list(graph.vertices())
        assert first == second == [1, 2, 3]

    def test_vertices_refresh_after_mutation(self):
        graph = DbGraph()
        graph.add_vertex(2)
        assert list(graph.vertices()) == [2]
        graph.add_vertex(1)
        assert list(graph.vertices()) == [1, 2]
        graph.add_edge(0, "a", 3)  # implicit vertices also invalidate
        assert list(graph.vertices()) == [0, 1, 2, 3]

    def test_edges_refresh_after_mutation(self):
        graph = DbGraph.from_edges([(1, "b", 2)])
        assert list(graph.edges()) == [(1, "b", 2)]
        graph.add_edge(1, "a", 2)
        assert list(graph.edges()) == [(1, "a", 2), (1, "b", 2)]

    def test_duplicate_mutations_keep_caches_valid(self):
        graph = DbGraph.from_edges([(1, "a", 2)])
        list(graph.edges())
        graph.add_edge(1, "a", 2)  # no-op duplicate
        graph.add_vertex(1)  # no-op duplicate
        assert list(graph.edges()) == [(1, "a", 2)]
        assert list(graph.vertices()) == [1, 2]


class TestIoLabelValidation:
    """Whitespace labels must be rejected at dump time (regression)."""

    def test_whitespace_label_rejected_at_dump(self):
        graph = DbGraph.from_edges([("x", " ", "y")])
        with pytest.raises(GraphError):
            graph_io.dumps(graph)

    def test_tab_and_newline_labels_rejected(self):
        for label in ("\t", "\n"):
            graph = DbGraph.from_edges([("x", label, "y")])
            with pytest.raises(GraphError):
                graph_io.dumps(graph)

    def test_whitespace_vertex_rejected_any_kind(self):
        graph = DbGraph.from_edges([("x\ty", "a", "z")])
        with pytest.raises(GraphError):
            graph_io.dumps(graph)

    def test_valid_labels_roundtrip(self):
        graph = DbGraph.from_edges(
            [("x", "a", "y"), ("y", "b", "z"), ("z", "c", "x")]
        )
        back = graph_io.loads(graph_io.dumps(graph))
        assert sorted(back.edges()) == sorted(graph.edges())

    def test_empty_vertex_name_rejected_at_dump(self):
        # It would write "e  a x", which loads rejects.
        graph = DbGraph.from_edges([("", "a", "x")])
        with pytest.raises(GraphError, match="vertex name '' is empty"):
            graph_io.dumps(graph)

    def test_vertices_sharing_a_str_rejected_at_dump(self):
        # 1 and "1" (and None and "None") would load as one vertex.
        graph = DbGraph.from_edges([(1, "a", "1")])
        graph.add_vertex(None)
        graph.add_vertex("None")
        with pytest.raises(
            GraphError, match="vertices '1' and 1 both write as '1'"
        ):
            graph_io.dumps(graph)


#: Labels and vertices whose reprs stress the repr order: quotes,
#: brackets, digits and signs.
LABELS = "ab'\"(#"
NAMEABLE_VERTICES = st.one_of(
    st.integers(-20, 20),
    st.text(alphabet="ab1'\"(#-", min_size=1, max_size=3),
)
MIXED_VERTICES = st.one_of(
    NAMEABLE_VERTICES,
    st.none(),
    st.tuples(st.integers(0, 3), st.sampled_from("ab")),
)


@st.composite
def drawn_graphs(draw, vertices, unique_by=None):
    """A graph on up to 8 drawn vertices (some isolated), up to 20 edges."""
    nodes = draw(st.lists(
        vertices, min_size=1, max_size=8, unique_by=unique_by,
        unique=unique_by is None,
    ))
    edges = draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(LABELS),
                  st.sampled_from(nodes)),
        max_size=20,
    ))
    graph = DbGraph.from_edges(edges)
    for vertex in nodes:
        graph.add_vertex(vertex)
    return graph


def per_vertex_edges(graph):
    """E in per-vertex repr order: sources as ``vertices()`` lists them,
    each source's ``(label, target)`` pairs sorted by repr."""
    return [
        (source, label, target)
        for source in graph.vertices()
        for label, target in sorted(graph.out_edges(source), key=repr)
    ]


class TestEdgeOrderPin:
    """``edges()`` and ``dumps`` keep the per-vertex repr order."""

    @given(drawn_graphs(MIXED_VERTICES))
    @settings(max_examples=200, deadline=None)
    def test_edges_follow_the_per_vertex_repr_sort(self, graph):
        assert list(graph.edges()) == per_vertex_edges(graph)

    @given(drawn_graphs(NAMEABLE_VERTICES, unique_by=str))
    @settings(max_examples=200, deadline=None)
    def test_dumps_text_follows_the_per_vertex_repr_sort(self, graph):
        edges = per_vertex_edges(graph)
        touched = {edge[0] for edge in edges} | {edge[2] for edge in edges}
        lines = ["e %s %s %s" % edge for edge in edges] + [
            "v %s" % vertex
            for vertex in graph.vertices() if vertex not in touched
        ]
        text = graph_io.dumps(graph)
        assert text == "\n".join(lines) + "\n"
        back = graph_io.loads(text)
        assert set(back.vertices()) == set(map(str, graph.vertices()))
        assert set(back.edges()) == {
            (str(source), label, str(target))
            for source, label, target in edges
        }


def _edge_by_edge(vertices, edges):
    """A graph built one ``add_vertex`` / ``add_edge`` call at a time."""
    graph = DbGraph()
    for vertex in vertices:
        graph.add_vertex(vertex)
    for source, label, target in edges:
        graph.add_edge(source, label, target)
    return graph


def _assert_same_graph(built, expected):
    assert list(built.vertices()) == list(expected.vertices())
    assert list(built.edges()) == list(expected.edges())
    assert built.labels() == expected.labels()
    assert built.num_edges == expected.num_edges
    for vertex in expected.vertices():
        assert set(built.in_edges(vertex)) == set(expected.in_edges(vertex))
        assert built.out_degree(vertex) == expected.out_degree(vertex)


class TestDerivedAdjacency:
    """E is the store; the adjacency indexes are built on first read."""

    def test_parsed_graph_builds_no_index_until_an_adjacency_read(self):
        graph = graph_io.loads("e s a t\ne t b u\nv lonely\n")
        IndexedGraph(graph)
        assert list(graph.vertices()) == ["lonely", "s", "t", "u"]
        assert graph.labels() == {"a", "b"}
        assert graph.num_edges == 2
        assert graph.has_edge("s", "a", "t")
        assert graph._index is None
        assert sorted(graph.out_edges("s")) == [("a", "t")]
        assert graph._index is not None

    def test_interleaved_writes_and_reads_build_the_index_once(
        self, monkeypatch
    ):
        builds = []

        class Counted(dbgraph._Adjacency):
            def __init__(self, edges):
                builds.append(len(edges))
                super().__init__(edges)

        monkeypatch.setattr(dbgraph, "_Adjacency", Counted)
        rng = random.Random(3)
        graph = DbGraph()
        expected = defaultdict(set)
        for _ in range(1000):  # 1,000 writes interleaved with 1,000 reads
            source, target = rng.randrange(40), rng.randrange(40)
            label = rng.choice("ab")
            graph.add_edge(source, label, target)
            expected[source].add((label, target))
            probe = rng.randrange(40)
            assert set(graph.out_edges(probe)) == expected[probe]
        assert builds == [1]

    def test_bulk_transforms_match_edge_by_edge_construction(self):
        graph = random_labeled_graph(30, 90, "abc", seed=5)
        graph.add_vertex("isolated")
        vertices, edges = list(graph.vertices()), list(graph.edges())
        keep = set(vertices[::2])
        cases = [
            (graph.copy(), _edge_by_edge(vertices, edges)),
            (graph.reversed(), _edge_by_edge(
                vertices, [(t, label, s) for s, label, t in edges]
            )),
            (graph.restricted_to_labels({"a", "c"}), _edge_by_edge(
                vertices, [edge for edge in edges if edge[1] != "b"]
            )),
            (graph.subgraph(keep), _edge_by_edge(keep, [
                edge for edge in edges if edge[0] in keep and edge[2] in keep
            ])),
            (DbGraph.from_edges(edges), _edge_by_edge((), edges)),
        ]
        for built, expected in cases:
            _assert_same_graph(built, expected)

    def test_bulk_transforms_leave_the_source_alone(self):
        graph = DbGraph.from_edges([(1, "a", 2), (2, "b", 3)])
        copy = graph.copy()
        copy.add_edge(3, "c", 1)
        copy.add_vertex(9)
        graph.reversed()
        graph.subgraph([1, 2])
        assert graph._index is None
        assert graph.num_edges == 2 and graph.num_vertices == 3
        assert not graph.has_edge(3, "c", 1)
        assert copy.num_edges == 3 and copy.has_vertex(9)

    def test_from_edges_rejects_word_labels(self):
        with pytest.raises(GraphError, match="single symbols, got 'ab'"):
            DbGraph.from_edges([(1, "a", 2), (2, "ab", 3)])
