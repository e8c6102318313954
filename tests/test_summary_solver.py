"""Tests for the literal Lemma 15/16 summary-enumeration solver."""

import pytest

from tests.conftest import paths_agree, random_instance

from repro.algorithms.exact import ExactSolver
from repro.core import nice_paths
from repro.core.nice_paths import TractableSolver
from repro.core.summary_solver import SummarySolver
from repro.errors import NotInTrCError
from repro.graphs.dbgraph import Path
from repro.graphs.generators import (
    figure3_graph,
    figure4_cross_graph,
    figure4_graph,
    labeled_cycle,
    labeled_path,
)
from repro.languages import language


@pytest.fixture
def gap_searches(monkeypatch):
    """The gap searches the completion step runs, one entry per call
    to ``_gap_distances``."""
    calls = []
    original = nice_paths._gap_distances

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(nice_paths, "_gap_distances", spy)
    return calls


class TestConstruction:
    def test_rejects_hard_languages(self):
        with pytest.raises(NotInTrCError):
            SummarySolver(language("(aa)*"))

    def test_heuristic_mode_allows_them(self):
        solver = SummarySolver(language("(aa)*"), require_trc=False)
        graph = labeled_path("aa")
        path = solver.shortest_simple_path(graph, 0, 2)
        # Sound: any returned path is correct.
        assert path is None or (
            path.is_simple() and len(path) % 2 == 0
        )

    def test_default_bound_is_2m_squared(self):
        lang = language("a*c*")
        solver = SummarySolver(lang)
        assert solver.bound == 2 * lang.num_states ** 2

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            SummarySolver(language("a*"), bound=0)


class TestBasicQueries:
    def test_straight_line(self):
        solver = SummarySolver(language("a*"), bound=2)
        graph = labeled_path("aaaaa")
        path = solver.shortest_simple_path(graph, 0, 5)
        assert path is not None
        assert path.word == "aaaaa"

    def test_source_equals_target(self):
        solver = SummarySolver(language("a*"), bound=2)
        graph = labeled_cycle("aa")
        assert solver.shortest_simple_path(graph, 0, 0) == Path.single(0)

    def test_short_stays_need_no_gap(self, gap_searches):
        solver = SummarySolver(language("a*c*"), bound=5)
        graph = labeled_path("ac")
        path = solver.shortest_simple_path(graph, 0, 2)
        assert path.word == "ac"
        # Everything pinned: no gap BFS ran.
        assert gap_searches == []

    def test_long_stays_are_compressed(self, gap_searches):
        solver = SummarySolver(language("a*"), bound=2)
        graph = labeled_path("a" * 8)
        path = solver.shortest_simple_path(graph, 0, 8)
        assert path is not None
        assert len(path) == 8
        assert gap_searches


class TestPaperInstances:
    def test_figure3(self):
        lang = language("a(c{2,} + eps)(a+b)*(ac)?a*")
        graph, x, y = figure3_graph()
        # The paper "pretends N = 3" for this example.
        solver = SummarySolver(lang, bound=3)
        mine = solver.shortest_simple_path(graph, x, y)
        truth = ExactSolver(lang).shortest_simple_path(graph, x, y)
        assert paths_agree(mine, truth)

    def test_figure4_negative(self):
        lang = language("a*(bb^+ + eps)c*")
        graph, x, y = figure4_graph(2)
        solver = SummarySolver(lang, bound=2)
        assert solver.shortest_simple_path(graph, x, y) is None

    def test_figure4_cross_positive(self):
        lang = language("a*(bb^+ + eps)c*")
        graph, x, y = figure4_cross_graph(3)
        solver = SummarySolver(lang, bound=2)
        path = solver.shortest_simple_path(graph, x, y)
        assert path is not None
        assert len(path) == 9


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "regex,bound",
        [("a*", 2), ("a*c*", 2), ("a*(bb^+ + eps)c*", 3),
         ("a*(b + eps)c*", 2), ("[ab]*", 2)],
        ids=["a", "ac", "example1", "optb", "classes"],
    )
    def test_small_graphs(self, regex, bound):
        lang = language(regex)
        alphabet = sorted(lang.alphabet)
        solver = SummarySolver(lang, bound=bound)
        exact = ExactSolver(lang)
        for seed in range(20):
            graph, x, y = random_instance(seed, alphabet, max_vertices=7)
            mine = solver.shortest_simple_path(graph, x, y)
            truth = exact.shortest_simple_path(graph, x, y)
            assert paths_agree(mine, truth), (regex, seed)

    def test_agrees_with_anchored_solver(self):
        lang = language("a*(bb^+ + eps)c*")
        faithful = SummarySolver(lang, bound=3)
        anchored = TractableSolver(lang)
        for seed in range(12):
            graph, x, y = random_instance(100 + seed, "abc", max_vertices=7)
            a = faithful.shortest_simple_path(graph, x, y)
            b = anchored.shortest_simple_path(graph, x, y)
            assert paths_agree(a, b), seed

    def test_paper_bound_on_tiny_graphs(self):
        # The full N = 2M² bound is usable only on tiny instances; it
        # must agree with everything there.
        lang = language("a*c*")
        solver = SummarySolver(lang)  # N = 18 for M = 3
        exact = ExactSolver(lang)
        for seed in range(8):
            graph, x, y = random_instance(seed, "ac", max_vertices=5)
            assert paths_agree(
                solver.shortest_simple_path(graph, x, y),
                exact.shortest_simple_path(graph, x, y),
            ), seed
