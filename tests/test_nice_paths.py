"""Tests for the polynomial trC solver (anchored nice-path search)."""

import pytest

from tests.conftest import (
    brute_force_length,
    infinite_trc_plans,
    paths_agree,
    random_instance,
)

from repro import catalog
from repro.algorithms.exact import ExactSolver
from repro.core.nice_paths import TractableSolver
from repro.errors import BudgetExceededError
from repro.execution import ExecutionContext
from repro.graphs.dbgraph import Path
from repro.graphs.generators import (
    component_chain_graph,
    figure3_graph,
    figure4_graph,
    labeled_cycle,
    labeled_path,
)
from repro.languages import language


class TestBasicQueries:
    def test_straight_line(self):
        solver = TractableSolver(language("a*"))
        graph = labeled_path("aaaa")
        path = solver.shortest_simple_path(graph, 0, 4)
        assert path is not None
        assert path.word == "aaaa"

    def test_no_path(self):
        solver = TractableSolver(language("a*"))
        graph = labeled_path("ab")
        assert solver.shortest_simple_path(graph, 0, 2) is None

    def test_source_equals_target_with_epsilon(self):
        solver = TractableSolver(language("a*"))
        graph = labeled_cycle("aaa")
        path = solver.shortest_simple_path(graph, 0, 0)
        assert path == Path.single(0)

    def test_source_equals_target_without_epsilon(self):
        solver = TractableSolver(language("ab^+"))
        graph = labeled_cycle("ab")
        assert solver.shortest_simple_path(graph, 0, 0) is None

    def test_unknown_vertex_raises(self):
        from repro.errors import GraphError

        solver = TractableSolver(language("a*"))
        graph = labeled_path("a")
        with pytest.raises(GraphError):
            solver.shortest_simple_path(graph, 0, 99)

    def test_result_is_simple_and_in_language(self):
        lang = language("a*(bb^+ + eps)c*")
        solver = TractableSolver(lang)
        graph, x, y = component_chain_graph(["aaa", "bb", "cc"], seed=7)
        path = solver.shortest_simple_path(graph, x, y)
        assert path is not None
        assert path.is_simple()
        assert lang.accepts(path.word)


class TestPaperFigures:
    def test_figure3_nice_path(self):
        lang = language("a(c{2,} + eps)(a+b)*(ac)?a*")
        graph, x, y = figure3_graph()
        path = TractableSolver(lang).shortest_simple_path(graph, x, y)
        exact = ExactSolver(lang).shortest_simple_path(graph, x, y)
        assert path is not None
        assert len(path) == len(exact)
        assert lang.accepts(path.word)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_figure4_faithful_family_is_negative(self, k):
        # The paper's loop-elimination counterexample: a walk exists but
        # no simple L-labeled path; both solvers must say no.
        lang = language("a*(bb^+ + eps)c*")
        graph, x, y = figure4_graph(k)
        assert TractableSolver(lang).shortest_simple_path(graph, x, y) is None
        assert ExactSolver(lang).shortest_simple_path(graph, x, y) is None

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_figure4_cross_family_is_positive(self, k):
        # The k-edge-bridge variant: the cut-across simple path exists
        # and the nice-path discipline must find it (shortest).
        from repro.graphs.generators import figure4_cross_graph

        lang = language("a*(bb^+ + eps)c*")
        graph, x, y = figure4_cross_graph(k)
        path = TractableSolver(lang).shortest_simple_path(graph, x, y)
        exact = ExactSolver(lang).shortest_simple_path(graph, x, y)
        assert path is not None
        assert len(path) == len(exact) == 3 * k


class TestExample1Algorithm:
    """Example 1's case analysis, realised by the generic solver."""

    def test_pure_ac_path(self):
        lang = language("a*(bb^+ + eps)c*")
        solver = TractableSolver(lang)
        graph = labeled_path("aacc")
        path = solver.shortest_simple_path(graph, 0, 4)
        assert path.word == "aacc"

    def test_forced_bb_segment(self):
        lang = language("a*(bb^+ + eps)c*")
        solver = TractableSolver(lang)
        graph = labeled_path("abbc")
        path = solver.shortest_simple_path(graph, 0, 4)
        assert path.word == "abbc"

    def test_single_b_is_rejected(self):
        lang = language("a*(bb^+ + eps)c*")
        solver = TractableSolver(lang)
        graph = labeled_path("abc")
        assert solver.shortest_simple_path(graph, 0, 3) is None

    def test_long_b_run(self):
        lang = language("a*(bb^+ + eps)c*")
        solver = TractableSolver(lang)
        graph = labeled_path("a" + "b" * 7 + "cc")
        path = solver.shortest_simple_path(graph, 0, 10)
        assert path is not None
        assert path.word == "a" + "b" * 7 + "cc"


class TestOracleAgreement:
    """The heart of the validation: agree with the exact solver."""

    @pytest.mark.parametrize(
        "entry", catalog.tractable_entries(), ids=lambda e: e.name
    )
    def test_random_graphs(self, entry):
        lang = entry.language()
        alphabet = sorted(lang.alphabet) or ["a"]
        solver = TractableSolver(lang)
        exact = ExactSolver(lang)
        for seed in range(30):
            graph, x, y = random_instance(seed, alphabet)
            mine = solver.shortest_simple_path(graph, x, y)
            truth = exact.shortest_simple_path(graph, x, y)
            assert paths_agree(mine, truth), (entry.name, seed, mine, truth)

    def test_dense_graph_agreement(self):
        lang = language("a*(bb^+ + eps)c*")
        solver = TractableSolver(lang)
        exact = ExactSolver(lang)
        for seed in range(8):
            graph, x, y = random_instance(1000 + seed, "abc", max_vertices=9)
            mine = solver.shortest_simple_path(graph, x, y)
            truth = exact.shortest_simple_path(graph, x, y)
            assert paths_agree(mine, truth), (seed, mine, truth)


class TestStats:
    def test_stats_populated(self):
        solver = TractableSolver(language("a*c*"))
        graph = labeled_path("aac")
        ctx = ExecutionContext()
        solver.shortest_simple_path(graph, 0, 3, ctx=ctx)
        assert ctx.steps > 0

    def test_budget_limits_work(self):
        # The query's budget caps the anchored DFS: a search that would
        # overrun it raises instead of answering "no path".
        solver = TractableSolver(language("a*c*"))
        graph = labeled_path("aac")
        ctx = ExecutionContext(budget=1)
        with pytest.raises(BudgetExceededError):
            solver.shortest_simple_path(graph, 0, 3, ctx=ctx)
        assert ctx.steps == 2
        # The whole search takes six steps.
        ctx = ExecutionContext(budget=6)
        assert solver.shortest_simple_path(graph, 0, 3, ctx=ctx).word == "aac"


class TestSynthesizedDecompositions:
    """Nice-path ≡ exact ≡ brute force for every pool language whose
    decomposition comes from synthesis (the languages extraction cannot
    decompose), on three small random graphs each, all endpoint pairs."""

    @pytest.mark.parametrize("pool", ["depth1", "depth3"])
    def test_agrees_with_exact_and_brute_force(self, pool):
        checked = 0
        for index, (regex, plan) in enumerate(infinite_trc_plans(pool)):
            if plan.solver.expression.k is None:
                continue
            dfa = plan.language.dfa
            exact = ExactSolver(plan.language)
            for seed in range(3 * index, 3 * index + 3):
                graph, _, _ = random_instance(seed, "abc", max_vertices=8)
                for source in graph.vertices():
                    for target in graph.vertices():
                        mine = plan.solver.shortest_simple_path(
                            graph, source, target
                        )
                        length = None if mine is None else len(mine)
                        assert length == brute_force_length(
                            graph, dfa, source, target
                        ), (regex, seed, source, target)
                        assert paths_agree(
                            mine,
                            exact.shortest_simple_path(graph, source, target),
                        ), (regex, seed, source, target)
            checked += 1
        assert checked >= 40
