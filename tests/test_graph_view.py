"""Unit tests for the GraphView layer (graphs/view.py + IndexedGraph).

The compiled :class:`IndexedGraph` is the one view every solve walks.
It runs three ways here: freshly compiled, loaded from a snapshot
(array copies) and attached to one (memoryviews over the mapping).
Each must assign vertex ids in the graph's repr-sorted order and
iterate adjacency in the per-vertex repr order of the ``DbGraph``'s
own name-level reads, which is what makes a solve return the same
path on every copy.  A ``DbGraph`` hands solvers its memoised compile,
rebuilt after a mutation.
"""

import gc
import sys
import threading
import tracemalloc

import pytest

from repro.algorithms.bounded import _word_path_ids
from repro.core.solver import RspqSolver
from repro.engine import QueryEngine, indexed
from repro.engine.indexed import IndexedGraph
from repro.errors import GraphError
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import random_labeled_graph
from repro.graphs.view import GraphView, as_graph_view
from repro.service import GraphRegistry
from repro.service.snapshot import (
    attach_snapshot,
    load_snapshot,
    save_snapshot,
)


@pytest.fixture
def graph():
    return random_labeled_graph(18, 60, "abc", seed=7)


@pytest.fixture(params=["compiled", "loaded", "attached"])
def view(request, graph, tmp_path):
    compiled = IndexedGraph(graph)
    if request.param == "compiled":
        return compiled.view()
    path = str(tmp_path / "g.snap")
    save_snapshot(compiled, path)
    reopen = load_snapshot if request.param == "loaded" else attach_snapshot
    return reopen(path).view()


def _ids(view, pairs):
    """Name-level ``(label, vertex)`` pairs as ``(label id, vertex id)``."""
    return [
        (view.label_id(label), view.vertex_id(vertex))
        for label, vertex in pairs
    ]


class TestViewEquivalence:
    def test_is_an_indexed_graph_view(self, view):
        assert isinstance(view, IndexedGraph)
        assert isinstance(view, GraphView)
        assert view.view() is view

    def test_vertex_tables_match(self, graph, view):
        order = list(graph.vertices())  # repr-sorted
        assert [view.vertex_at(i) for i in range(view.num_vertices)] \
            == order
        for index, vertex in enumerate(order):
            assert view.vertex_id(vertex) == index

    def test_label_tables_match(self, graph, view):
        expected = sorted(graph.labels())
        assert list(view._label_of) == expected
        for index, label in enumerate(expected):
            assert view.label_id(label) == index
            assert view.label_at(index) == label
        assert view.label_id("zz") is None

    def test_out_pairs_identical_across_views(self, graph, view):
        """Each copy iterates the per-vertex repr order of the names."""
        for vertex in graph.vertices():
            vertex_id = view.vertex_id(vertex)
            assert list(view.out(vertex_id)) == _ids(
                view, sorted(graph.out_edges(vertex), key=repr)
            )
            assert list(view.in_pairs(vertex_id)) == _ids(
                view, sorted(graph.in_edges(vertex), key=repr)
            )

    def test_adjacency_groups_labels_in_rank_order(self, graph, view):
        """A label filter over ``out`` or ``in_pairs`` keeps ascending
        ids: each vertex's edges are grouped by label, labels in rank
        (repr) order, ids ascending inside a label — the DbGraph's
        adjacency, edge for edge."""
        rank = sorted(range(view.num_labels), key=lambda label_id: repr(
            view.label_at(label_id)
        )).index
        for vertex in graph.vertices():
            vertex_id = view.vertex_id(vertex)
            for pairs, edges in (
                (view.out(vertex_id), graph.out_edges(vertex)),
                (view.in_pairs(vertex_id), graph.in_edges(vertex)),
            ):
                assert list(pairs) == sorted(
                    pairs, key=lambda pair: (rank(pair[0]), pair[1])
                )
                assert sorted(pairs) == sorted(_ids(view, edges))

    def test_csr_slices_match_out_and_in_pairs(self, view):
        """The six arrays the vectorised sweep walks slice, row by row,
        to exactly what ``out`` and ``in_pairs`` read."""
        n = view.num_vertices
        for indptr, labels, ids, read in (
            (view.out_indptr, view.out_labels, view.out_targets, view.out),
            (view.in_indptr, view.in_labels, view.in_sources, view.in_pairs),
        ):
            assert len(indptr) == n + 1
            assert indptr[n] == len(labels) == len(ids) == view.num_edges
            for vertex_id in range(n):
                lo, hi = indptr[vertex_id], indptr[vertex_id + 1]
                assert list(zip(labels[lo:hi], ids[lo:hi])) == \
                    list(read(vertex_id))

    def test_none_label_is_empty(self, graph, view):
        """A letter no edge carries has label id ``None`` and spells no
        path: the word search filtering ``out`` by label id finds the
        edge a real letter spells, and nothing for ``None``."""
        visited = bytearray(view.num_vertices)
        source, label, target = next(
            edge for edge in graph.edges() if edge[0] != edge[2]
        )
        source_id, target_id = view.vertex_id(source), view.vertex_id(target)
        label_id = view.label_id(label)
        assert view.label_id("zz") is None
        assert _word_path_ids(
            view, source_id, target_id, (label_id,), visited
        ) == ((source_id, target_id), (label_id,))
        assert not any(visited)
        for word in ((None,), (label_id, None), (None, label_id)):
            assert _word_path_ids(
                view, source_id, target_id, word, visited
            ) is None
            assert not any(visited)

    def test_reverse_csr_transposes_forward(self, view):
        forward = {
            (source, label_id, target)
            for source in range(view.num_vertices)
            for label_id, target in view.out(source)
        }
        backward = {
            (source, label_id, target)
            for target in range(view.num_vertices)
            for label_id, source in view.in_pairs(target)
        }
        assert forward == backward
        assert len(forward) == view.num_edges

    def test_label_masks_and_word_ids(self, view):
        a = view.label_id("a")
        b = view.label_id("b")
        assert view.label_mask("ab") == (1 << a) | (1 << b)
        assert view.label_mask("zq") == 0
        assert view.word_label_ids("az") == (a, None)

    def test_path_materialisation(self, graph, view):
        source, label, target = next(iter(graph.edges()))
        path = view.path(
            (view.vertex_id(source), view.vertex_id(target)),
            (view.label_id(label),),
        )
        assert path.vertices == (source, target)
        assert path.labels == (label,)

    def test_unknown_vertex_raises_graph_error(self, view):
        with pytest.raises(GraphError, match="unknown vertex"):
            view.vertex_id("no-such-vertex")


class TestAsGraphView:
    def test_identity_on_views(self, view):
        assert as_graph_view(view) is view

    def test_dbgraph_view_is_cached_per_mutation(self, graph):
        first = as_graph_view(graph)
        assert isinstance(first, IndexedGraph)
        assert as_graph_view(graph) is first
        assert graph.view() is first
        graph.add_edge("brand-new", "a", next(iter(graph.vertices())))
        second = as_graph_view(graph)
        assert isinstance(second, IndexedGraph)
        assert second is not first
        assert "brand-new" in second._id_of
        assert "brand-new" not in first._id_of
        assert second.num_edges == first.num_edges + 1

    def test_indexed_graph_is_its_own_view(self, graph):
        indexed_graph = IndexedGraph(graph)
        assert indexed_graph.view() is indexed_graph
        assert as_graph_view(indexed_graph) is indexed_graph

    def test_object_without_view_is_rejected(self, graph):
        class ReadApiOnly:
            """DbGraph's read API, but no ``view()``."""

            def vertices(self):
                return graph.vertices()

            def labels(self):
                return graph.labels()

            def out_edges(self, vertex):
                return graph.out_edges(vertex)

        for candidate in (ReadApiOnly(), object(), None):
            with pytest.raises(GraphError, match="has no view"):
                as_graph_view(candidate)


class TestDirectSolveCompile:
    """A direct solve walks the DbGraph's memoised compile."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        calls = []
        compile_arrays = indexed._compile

        def counted(*args):
            calls.append(args)
            return compile_arrays(*args)

        monkeypatch.setattr(indexed, "_compile", counted)
        return calls

    def test_solves_on_an_unchanged_graph_compile_once(self, compiles):
        graph = DbGraph.from_edges([(0, "a", 1), (1, "b", 2)])
        solver = RspqSolver("ab")
        assert solver.solve(graph, 0, 2).found
        assert not RspqSolver("a*").solve(graph, 0, 2).found
        assert not solver.solve(graph, 1, 2).found
        assert len(compiles) == 1

    def test_a_direct_solve_sees_add_edge(self, compiles):
        graph = DbGraph.from_edges([(0, "a", 1), (1, "b", 2)])
        solver = RspqSolver("a*")
        assert not solver.solve(graph, 0, 2).found
        graph.add_edge(1, "a", 2)
        result = solver.solve(graph, 0, 2)
        assert result.found
        assert result.path.vertices == (0, 1, 2)
        assert len(compiles) == 2
        graph.add_edge(1, "a", 2)  # a duplicate edge is no write
        assert solver.solve(graph, 0, 2).found
        assert len(compiles) == 2

    def test_a_direct_solve_sees_add_vertex(self, compiles):
        graph = DbGraph.from_edges([(0, "a", 1)])
        solver = RspqSolver("a*")
        assert solver.solve(graph, 0, 1).found
        with pytest.raises(GraphError, match="unknown vertex"):
            solver.solve(graph, "lonely", "lonely")
        graph.add_vertex("lonely")
        result = solver.solve(graph, "lonely", "lonely")
        assert result.found and len(result.path) == 0
        assert not solver.solve(graph, 0, "lonely").found
        assert len(compiles) == 2


class TestCsrViewLifecycle:
    def test_snapshot_thaw_view_matches_compiled_view(self, graph, tmp_path):
        compiled = IndexedGraph(graph)
        path = str(tmp_path / "g.snap")
        save_snapshot(compiled, path)
        thawed_view = load_snapshot(path).view()
        compiled_view = compiled.view()
        for vertex_id in range(compiled_view.num_vertices):
            assert list(thawed_view.out(vertex_id)) == \
                list(compiled_view.out(vertex_id))
            assert list(thawed_view.in_pairs(vertex_id)) == \
                list(compiled_view.in_pairs(vertex_id))

    def test_concurrent_reads_agree(self, tmp_path):
        """Threads reading one attached graph at once all read the
        right pairs.

        Every ``out`` / ``in_pairs`` call slices the shared mapping
        afresh, so the racing readers share nothing mutable.
        """
        graph = random_labeled_graph(300, 900, "abc", seed=11)
        path = str(tmp_path / "race.snap")
        save_snapshot(IndexedGraph(graph), path)
        expected = load_snapshot(path)
        want = [
            (expected.out(vertex_id), expected.in_pairs(vertex_id))
            for vertex_id in range(expected.num_vertices)
        ]
        attached = attach_snapshot(path)
        threads_count = 8
        barrier = threading.Barrier(threads_count)
        seen = []

        def decode():
            barrier.wait(timeout=10)
            seen.append([
                (attached.out(vertex_id), attached.in_pairs(vertex_id))
                for vertex_id in range(attached.num_vertices)
            ])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=decode)
                for _ in range(threads_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == threads_count
        assert all(decoded == want for decoded in seen)


class TestWrittenOnce:
    """After its constructor (compile, load or attach), nothing writes
    to a compiled graph but its reachability parts and index, each
    built once."""

    def test_reads_retain_nothing(self, graph, view):
        # Every vertex id is a cached small int here, so an allocation
        # made in indexed.py that outlives the reads below is state the
        # graph kept.
        engine = QueryEngine(view)  # builds the reachability index
        vertices = list(graph.vertices())
        source, target = vertices[0], vertices[5]
        queries = [
            ("ab + ba", {}),
            ("a*(bb^+ + eps)c*", {}),
            ("a*ba*", {}),
            ("a*ba*", {"portfolio": True}),
            ("(aa)*", {"max_path_edges": 3}),
        ]
        swept = [
            ("a*ba*", vertex, other)
            for vertex in vertices[:6] for other in vertices[9:15]
        ]
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.take_snapshot()
            for vertex_id in range(view.num_vertices):
                view.out(vertex_id)
                view.in_pairs(vertex_id)
            strategies = [
                engine.query(language, source, target, **overrides).strategy
                for language, overrides in queries
            ]
            batch = engine.run_batch(swept)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert strategies == [
            "finite-AC0", "trc-nice-path", "exact-backtracking",
            "portfolio:walk-probe", "exact-backtracking",
        ]
        assert batch.stats.sweeps == 1
        only = [tracemalloc.Filter(True, indexed.__file__)]
        retained = [
            stat
            for stat in after.filter_traces(only).compare_to(
                before.filter_traces(only), "lineno"
            )
            if stat.size_diff > 0
        ]
        assert retained == []

    def test_snapshot_io_and_registration_leave_the_graph_alone(
        self, view, tmp_path
    ):
        view.reachability()
        state = dict(vars(view))

        def assert_unchanged():
            now = vars(view)
            assert list(now) == list(state)
            for key, value in state.items():
                assert now[key] is value, key

        save_snapshot(view, str(tmp_path / "copy.snap"))
        assert_unchanged()
        registry = GraphRegistry(
            worker_processes=1, spool_dir=tmp_path / "spool"
        )
        try:
            registry.register("g", view)
            registry.evict("g")
        finally:
            registry.close()
        assert_unchanged()
