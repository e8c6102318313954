"""Tests for vertex-labeled / vertex-edge-labeled RSPQs (Section 4.1)."""

import pytest

from repro import catalog, language
from repro.core.vlg import (
    find_trc_vlg_counterexample,
    is_in_trc_evlg,
    is_in_trc_vlg,
    solve_evlg,
    solve_vlg,
)
from repro.errors import GraphError
from repro.graphs.vlgraph import EvlGraph, VlGraph, default_pair_encoding


class TestTrcVlgMembership:
    """The four data points the paper states explicitly."""

    @pytest.mark.parametrize(
        "regex,expected",
        [("(ab)*", True), ("a*bc*", True), ("a*ba*", False),
         ("(aa)*", False)],
    )
    def test_paper_examples(self, regex, expected):
        assert is_in_trc_vlg(language(regex).dfa) is expected

    @pytest.mark.parametrize(
        "entry", catalog.tractable_entries(), ids=lambda e: e.name
    )
    def test_trc_implies_trc_vlg(self, entry):
        # trC ⊆ trC_vlg: the vl condition quantifies over fewer pairs.
        assert is_in_trc_vlg(entry.language().dfa)

    def test_rejects_other_inputs(self):
        with pytest.raises(TypeError):
            is_in_trc_vlg("a*")
        with pytest.raises(TypeError):
            is_in_trc_evlg("a*", str)

    def test_definitional_oracle_agrees_on_hard_cases(self):
        lang = language("(aa)*")
        counter = find_trc_vlg_counterexample(lang.dfa, 2, max_length=8)
        assert counter is not None
        wl, w1, wm, w2, wr = counter
        assert w1[-1] == w2[-1]  # the ≡vl constraint

    def test_definitional_oracle_silent_on_vlg_tractable(self):
        lang = language("a*bc*")
        assert find_trc_vlg_counterexample(lang.dfa, 3, max_length=8) is None


class TestTrcEvlg:
    def test_edge_labels_ignored_when_grouping_by_vertex(self):
        # Pair symbols: '0' = (v=a, e=x), '1' = (v=a, e=y).  A language
        # distinguishing edge labels only is judged by vertex groups.
        vertex_label = {"0": "a", "1": "a"}.get
        # (01)* over same-vertex-label pairs behaves like (aa)* — hard.
        assert not is_in_trc_evlg(language("(01)*").dfa, vertex_label)

    def test_distinct_vertex_labels_relax(self):
        vertex_label = {"0": "a", "1": "b"}.get
        # (01)* with alternating vertex labels mirrors (ab)* on
        # vl-graphs — tractable.
        assert is_in_trc_evlg(language("(01)*").dfa, vertex_label)


class TestVlGraphStructure:
    def test_relabel_conflict(self):
        graph = VlGraph()
        graph.add_vertex(1, "a")
        with pytest.raises(GraphError):
            graph.add_vertex(1, "b")

    def test_edge_needs_labeled_endpoints(self):
        graph = VlGraph()
        graph.add_vertex(1, "a")
        with pytest.raises(GraphError):
            graph.add_edge(1, 2)

    def test_encoding_uses_target_labels(self):
        graph = VlGraph()
        graph.add_vertex(1, "a")
        graph.add_vertex(2, "b")
        graph.add_edge(1, 2)
        encoded = graph.to_dbgraph()
        assert encoded.has_edge(1, "b", 2)


class TestSolveVlg:
    def _alternating_path(self, labels):
        graph = VlGraph()
        for index, label in enumerate(labels):
            graph.add_vertex(index, label)
        for index in range(len(labels) - 1):
            graph.add_edge(index, index + 1)
        return graph

    def test_vertex_word_semantics(self):
        graph = self._alternating_path("abab")
        result = solve_vlg(language("a(ba)*"), graph, 0, 2)
        assert result.found
        assert result.path.vertices == (0, 1, 2)

    def test_mismatched_vertex_word(self):
        graph = self._alternating_path("abab")
        assert not solve_vlg(language("a(ba)*"), graph, 0, 3).found

    def test_single_vertex_query(self):
        graph = self._alternating_path("a")
        assert solve_vlg(language("a"), graph, 0, 0).found
        assert not solve_vlg(language("b"), graph, 0, 0).found

    def test_requires_vlgraph(self):
        from repro.graphs.dbgraph import DbGraph

        with pytest.raises(GraphError):
            solve_vlg(language("a"), DbGraph(), 0, 0)

    def test_vlg_easier_than_dbgraph_example(self):
        # a*bc* query on a vl-graph: vertices labeled a feed a b-vertex
        # then c-vertices; correctness on a yes and a no instance.
        graph = VlGraph()
        layout = {0: "a", 1: "a", 2: "b", 3: "c", 4: "c"}
        for vertex, label in layout.items():
            graph.add_vertex(vertex, label)
        for edge in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            graph.add_edge(*edge)
        assert solve_vlg(language("a*bc*"), graph, 0, 4).found
        # Single-vertex query: vertex word "b" IS in a*bc*, so 2 -> 2
        # holds; an a-labeled start alone does not.
        assert solve_vlg(language("a*bc*"), graph, 2, 2).found
        assert not solve_vlg(language("bc*"), graph, 0, 0).found


class TestSolveEvlg:
    def test_pair_encoding_roundtrip(self):
        graph = EvlGraph()
        graph.add_vertex(0, "a")
        graph.add_vertex(1, "b")
        graph.add_edge(0, "x", 1)
        encoded, encoding = graph.to_dbgraph()
        assert encoded.has_edge(0, encoding[("b", "x")], 1)

    def test_solve_with_encoding(self):
        graph = EvlGraph()
        for vertex, label in [(0, "a"), (1, "b"), (2, "a")]:
            graph.add_vertex(vertex, label)
        graph.add_edge(0, "x", 1)
        graph.add_edge(1, "y", 2)
        encoding = default_pair_encoding(graph.pair_alphabet())
        bx = encoding[("b", "x")]
        ay = encoding[("a", "y")]
        result, _enc = solve_evlg(
            language(bx + ay), graph, 0, 2, encoding=encoding
        )
        assert result.found

    def test_requires_evlgraph(self):
        from repro.graphs.dbgraph import DbGraph

        with pytest.raises(GraphError):
            solve_evlg(language("a"), DbGraph(), 0, 0)
