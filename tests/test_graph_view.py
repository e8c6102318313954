"""Unit tests for the GraphView layer (graphs/view.py + IndexedGraph).

The contract under test: both view backends assign vertex ids in the
same repr-sorted order, iterate adjacency in the same precompiled repr
order, and therefore feed the solver cores bit-identical inputs — the
property the CSR-vs-DbGraph differential suite relies on.  The CSR
side runs three ways: freshly compiled, loaded from a snapshot (array
copies) and attached to one (memoryviews over the mapping).
"""

import sys
import threading

import pytest

from repro.engine.indexed import IndexedGraph
from repro.errors import GraphError
from repro.graphs.generators import random_labeled_graph
from repro.graphs.view import DbGraphView, GraphView, as_graph_view
from repro.service.snapshot import (
    attach_snapshot,
    load_snapshot,
    save_snapshot,
)


@pytest.fixture
def graph():
    return random_labeled_graph(18, 60, "abc", seed=7)


@pytest.fixture(params=["compiled", "loaded", "attached"])
def views(request, graph, tmp_path):
    compiled = IndexedGraph(graph)
    if request.param == "compiled":
        return DbGraphView(graph), compiled.view()
    path = str(tmp_path / "g.snap")
    save_snapshot(compiled, path)
    reopen = load_snapshot if request.param == "loaded" else attach_snapshot
    return DbGraphView(graph), reopen(path).view()


class TestViewEquivalence:
    def test_kinds(self, views):
        dict_view, csr_view = views
        assert dict_view.kind == "dict"
        assert csr_view.kind == "csr"
        assert isinstance(csr_view, IndexedGraph)
        assert isinstance(csr_view, GraphView)

    def test_vertex_tables_match(self, graph, views):
        dict_view, csr_view = views
        order = list(graph.vertices())  # repr-sorted
        for view in views:
            assert [view.vertex_at(i) for i in range(view.num_vertices)] \
                == order
            for index, vertex in enumerate(order):
                assert view.vertex_id(vertex) == index

    def test_label_tables_match(self, graph, views):
        expected = sorted(graph.labels())
        for view in views:
            assert list(view._label_of) == expected
            for index, label in enumerate(expected):
                assert view.label_id(label) == index
                assert view.label_at(index) == label
            assert view.label_id("zz") is None

    def test_out_pairs_identical_across_views(self, views):
        dict_view, csr_view = views
        for vertex_id in range(dict_view.num_vertices):
            assert list(dict_view.out(vertex_id)) == \
                list(csr_view.out(vertex_id))
            assert dict_view.out_degree(vertex_id) == \
                csr_view.out_degree(vertex_id)

    def test_label_partitioned_adjacency_identical(self, views):
        dict_view, csr_view = views
        for vertex_id in range(dict_view.num_vertices):
            for label_id in range(dict_view.num_labels):
                assert list(dict_view.out_by_label(vertex_id, label_id)) \
                    == list(csr_view.out_by_label(vertex_id, label_id))
                assert sorted(dict_view.in_by_label(vertex_id, label_id)) \
                    == sorted(csr_view.in_by_label(vertex_id, label_id))
            assert sorted(dict_view.in_pairs(vertex_id)) == \
                sorted(csr_view.in_pairs(vertex_id))

    def test_out_by_label_matches_mask_filtered_out(self, views):
        for view in views:
            for vertex_id in range(view.num_vertices):
                for label_id in range(view.num_labels):
                    filtered = [
                        target
                        for edge_label, target in view.out(vertex_id)
                        if edge_label == label_id
                    ]
                    assert list(view.out_by_label(vertex_id, label_id)) \
                        == filtered

    def test_out_csr_slices_match_out_by_label(self, views):
        dict_view, csr_view = views
        assert dict_view.out_csr(0) is None
        for label_id in range(csr_view.num_labels):
            indptr, targets = csr_view.out_csr(label_id)
            assert len(indptr) == csr_view.num_vertices + 1
            for vertex_id in range(csr_view.num_vertices):
                assert list(
                    targets[indptr[vertex_id]:indptr[vertex_id + 1]]
                ) == list(dict_view.out_by_label(vertex_id, label_id))

    def test_reverse_csr_transposes_forward(self, views):
        _dict_view, csr_view = views
        for label_id in range(csr_view.num_labels):
            forward = {
                (source, target)
                for source in range(csr_view.num_vertices)
                for target in csr_view.out_by_label(source, label_id)
            }
            backward = {
                (source, target)
                for target in range(csr_view.num_vertices)
                for source in csr_view.in_by_label(target, label_id)
            }
            assert forward == backward

    def test_none_label_is_empty(self, views):
        for view in views:
            assert tuple(view.out_by_label(0, None)) == ()
            assert tuple(view.in_by_label(0, None)) == ()

    def test_label_masks_and_word_ids(self, views):
        for view in views:
            a = view.label_id("a")
            b = view.label_id("b")
            assert view.label_mask("ab") == (1 << a) | (1 << b)
            assert view.label_mask("zq") == 0
            assert view.word_label_ids("az") == (a, None)

    def test_path_materialisation(self, graph, views):
        source, label, target = next(iter(graph.edges()))
        for view in views:
            path = view.path(
                (view.vertex_id(source), view.vertex_id(target)),
                (view.label_id(label),),
            )
            assert path.vertices == (source, target)
            assert path.labels == (label,)

    def test_unknown_vertex_raises_graph_error(self, views):
        for view in views:
            with pytest.raises(GraphError, match="unknown vertex"):
                view.vertex_id("no-such-vertex")


class TestAsGraphView:
    def test_identity_on_views(self, views):
        for view in views:
            assert as_graph_view(view) is view

    def test_dbgraph_view_is_cached_per_mutation(self, graph):
        first = as_graph_view(graph)
        assert isinstance(first, DbGraphView)
        assert as_graph_view(graph) is first
        graph.add_edge("brand-new", "a", next(iter(graph.vertices())))
        second = as_graph_view(graph)
        assert second is not first
        assert "brand-new" in second._id_of
        assert "brand-new" not in first._id_of

    def test_indexed_graph_is_its_own_view(self, graph):
        indexed = IndexedGraph(graph)
        assert indexed.view() is indexed
        assert as_graph_view(indexed) is indexed

    def test_duck_typed_graph_falls_back_to_dict_view(self, graph):
        class Duck:
            """Minimal read API, vertices deliberately unsorted."""

            def vertices(self):
                return ["b", "a", "c"]

            def labels(self):
                return {"x"}

            def out_edges(self, vertex):
                return [("x", "a")] if vertex == "b" else []

            def in_edges(self, vertex):
                return [("x", "b")] if vertex == "a" else []

            def successors(self, vertex, label=None):
                return {
                    target
                    for edge_label, target in self.out_edges(vertex)
                    if edge_label == label
                }

            def out_degree(self, vertex):
                return len(self.out_edges(vertex))

        view = as_graph_view(Duck())
        assert view.kind == "dict"
        # Ids follow repr-sorted order even for unsorted duck graphs.
        assert [view.vertex_at(i) for i in range(3)] == ["a", "b", "c"]
        assert list(view.out(view.vertex_id("b"))) == [(0, 0)]


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
            for label_id in range(compiled_view.num_labels):
                assert list(thawed_view.in_by_label(vertex_id, label_id)) \
                    == list(compiled_view.in_by_label(vertex_id, label_id))

    def test_concurrent_lazy_decode_agrees(self, tmp_path):
        """Threads racing on the lazy pair memo all read the right pairs.

        An attached graph decodes ``out`` / ``in_pairs`` on first use;
        two threads may decode one vertex at once and both store.
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
