"""Tests for the dispatching front-door solver (Theorem 2 in code)."""

import pytest

from tests.conftest import paths_agree, random_instance

from repro import catalog
from repro.algorithms.exact import ExactSolver
from repro.core.solver import (
    STRATEGY_EXACT,
    STRATEGY_FINITE,
    STRATEGY_TRACTABLE,
    RspqSolver,
    solve_rspq,
)
from repro.execution import ExecutionContext
from repro.graphs.generators import labeled_path
from repro.languages import language


class TestDispatch:
    def test_finite_language_uses_finite_solver(self):
        solver = RspqSolver(language("abc"))
        assert solver.strategy == STRATEGY_FINITE

    def test_trc_language_uses_tractable_solver(self):
        solver = RspqSolver(language("a*(bb^+ + eps)c*"))
        assert solver.strategy == STRATEGY_TRACTABLE

    def test_hard_language_uses_exact_solver(self):
        solver = RspqSolver(language("a*ba*"))
        assert solver.strategy == STRATEGY_EXACT

    @pytest.mark.parametrize("entry", catalog.entries(), ids=lambda e: e.name)
    def test_strategy_matches_classification(self, entry):
        solver = RspqSolver(entry.language())
        if entry.complexity == "AC0":
            assert solver.strategy == STRATEGY_FINITE
        elif entry.complexity == "NL-complete":
            assert solver.strategy == STRATEGY_TRACTABLE
        else:
            assert solver.strategy == STRATEGY_EXACT


class TestResults:
    def test_result_object(self):
        graph = labeled_path("ab")
        result = solve_rspq("ab", graph, 0, 2)
        assert result.found
        assert result.length == 2
        assert result.strategy == STRATEGY_FINITE
        assert result.classification.finite

    def test_negative_result(self):
        graph = labeled_path("ab")
        result = solve_rspq("ba", graph, 0, 2)
        assert not result.found
        assert result.path is None
        assert result.length is None


class TestCrossStrategyAgreement:
    """All strategies are answering the same question."""

    @pytest.mark.parametrize(
        "entry", catalog.entries(), ids=lambda e: e.name
    )
    def test_dispatcher_agrees_with_exact(self, entry):
        lang = entry.language()
        alphabet = sorted(lang.alphabet) or ["a"]
        solver = RspqSolver(lang)
        exact = ExactSolver(lang)
        for seed in range(12):
            graph, x, y = random_instance(seed, alphabet, max_vertices=9)
            mine = solver.shortest_simple_path(graph, x, y)
            truth = exact.shortest_simple_path(graph, x, y)
            assert paths_agree(mine, truth), (entry.name, seed)

    def test_exists_matches_path_search(self):
        lang = language("a*c*")
        solver = RspqSolver(lang)
        for seed in range(10):
            graph, x, y = random_instance(seed, "ac", max_vertices=8)
            assert solver.exists(graph, x, y) == (
                solver.shortest_simple_path(graph, x, y) is not None
            )


class TestDecomposeFailedFlag:
    """The documented trC-fallback warning flag (both branches)."""

    def test_successful_decomposition_leaves_flag_clear(self):
        solver = RspqSolver(language("a*(bb^+ + eps)c*"))
        assert solver.strategy == STRATEGY_TRACTABLE
        assert solver.decompose_failed is False
        result = solver.solve(labeled_path("a"), 0, 1)
        assert result.decompose_failed is False

    def test_failed_decomposition_sets_flag_and_falls_back(self, monkeypatch):
        from repro.core import solver as solver_module
        from repro.errors import ReproError

        def broken_decompose(_language):
            raise ReproError("synthetic decomposition failure")

        monkeypatch.setattr(solver_module, "decompose", broken_decompose)
        solver = RspqSolver(language("a*"))
        assert solver.strategy == STRATEGY_EXACT
        assert solver.decompose_failed is True
        result = solver.solve(labeled_path("aa"), 0, 2)
        assert result.decompose_failed is True
        assert result.found and result.length == 2

    def test_other_regimes_never_warn(self):
        assert RspqSolver(language("ab")).decompose_failed is False
        assert RspqSolver(language("a*ba*")).decompose_failed is False


class TestLastSteps:
    def test_steps_reported_per_strategy(self):
        graph = labeled_path("ab")
        for regex in ("ab", "a*b*", "a*ba*"):  # finite, tractable, exact
            solver = RspqSolver(language(regex))
            ctx = ExecutionContext()
            solver.solve(graph, 0, 2, ctx=ctx)
            assert ctx.steps >= 1, regex
