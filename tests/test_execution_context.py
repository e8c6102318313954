"""ExecutionContext: pure solver cores, budgets, deadlines.

The refactor contract: a solver constructed once is never mutated by a
query — every counter lands on the context the query passes, or on a
throwaway one when it passes none.
"""

import pytest

from repro.algorithms.bounded import FiniteLanguageSolver
from repro.algorithms.exact import ExactSolver
from repro.core.nice_paths import TractableSolver
from repro.core.product import shortest_walk, walk_check
from repro.core.solver import (
    STRATEGY_EXACT,
    STRATEGY_FINITE,
    STRATEGY_TRACTABLE,
    RspqSolver,
    solve_rspq,
)
from repro.errors import BudgetExceededError, DeadlineExceededError
from repro.execution import ExecutionContext
from repro.engine import QueryEngine
from repro.graphs.generators import (
    figure4_graph,
    labeled_cycle,
    labeled_path,
    random_labeled_graph,
)
from repro.languages import language


@pytest.fixture
def graph():
    return random_labeled_graph(25, 75, "abc", seed=11)


def _working_pair(regex, graph):
    """A (source, target) pair the query actually explores."""
    for source in graph.vertices():
        for target in graph.vertices():
            if source == target:
                continue
            if solve_rspq(regex, graph, source, target).found:
                return source, target
    raise AssertionError("no positive instance in fixture graph")


class TestContextIsolation:
    def test_exact_solver_instance_stays_clean(self, graph):
        solver = ExactSolver("a*ba*")
        source, target = _working_pair("a*ba*", graph)
        before = dict(vars(solver))
        ctx = ExecutionContext()
        path = solver.shortest_simple_path(graph, source, target, ctx=ctx)
        assert path is not None
        assert ctx.steps > 0
        assert solver.shortest_simple_path(graph, source, target) == path
        assert dict(vars(solver)) == before

    def test_finite_solver_instance_stays_clean(self, graph):
        solver = FiniteLanguageSolver(language("ab + ba + abc"))
        before = dict(vars(solver))
        ctx = ExecutionContext()
        solver.shortest_simple_path(graph, 0, 5, ctx=ctx)
        assert ctx.steps > 0
        solver.shortest_simple_path(graph, 0, 5)
        assert dict(vars(solver)) == before

    def test_tractable_solver_instance_stays_clean(self, graph):
        solver = TractableSolver(language("a*(bb^+ + eps)c*"))
        before = dict(vars(solver))
        ctx = ExecutionContext()
        solver.shortest_simple_path(graph, 0, 5, ctx=ctx)
        assert ctx.steps > 0
        solver.shortest_simple_path(graph, 0, 5)
        assert dict(vars(solver)) == before

    def test_two_contexts_do_not_mix(self, graph):
        solver = ExactSolver("a*ba*")
        source, target = _working_pair("a*ba*", graph)
        first = ExecutionContext()
        solver.shortest_simple_path(graph, source, target, ctx=first)
        recorded = first.steps
        second = ExecutionContext()
        solver.shortest_simple_path(graph, source, target, ctx=second)
        assert first.steps == recorded  # untouched by the second query
        assert second.steps == recorded  # deterministic workload

    def test_shared_solver_is_deterministic_across_contexts(self, graph):
        solver = TractableSolver(language("a*(bb^+ + eps)c*"))
        paths = set()
        counts = set()
        for _ in range(3):
            ctx = ExecutionContext()
            path = solver.shortest_simple_path(graph, 0, 5, ctx=ctx)
            paths.add(path)
            counts.add(ctx.steps)
        assert len(paths) == 1
        assert len(counts) == 1


class TestBudgets:
    def test_context_budget_on_unbudgeted_solver(self):
        solver = ExactSolver("(aa)*")  # no instance budget
        cycle = labeled_cycle("a" * 9)
        with pytest.raises(BudgetExceededError) as info:
            solver.shortest_simple_path(
                cycle, 0, 1, ctx=ExecutionContext(budget=3)
            )
        assert info.value.steps > 3

    def test_explicit_context_overrides_instance_budget(self):
        solver = ExactSolver("(aa)*", budget=3)
        cycle = labeled_cycle("a" * 9)
        # An unbudgeted context wins over the instance default.
        path = solver.shortest_simple_path(
            cycle, 0, 1, ctx=ExecutionContext()
        )
        assert path is None  # odd distance: correctly no (aa)* path

    def test_instance_budget_still_guards_legacy_calls(self):
        solver = ExactSolver("(aa)*", budget=3)
        cycle = labeled_cycle("a" * 9)
        with pytest.raises(BudgetExceededError):
            solver.shortest_simple_path(cycle, 0, 1)

    def test_engine_budget_caps_the_tractable_search(self):
        # The engine's budget reaches the anchored DFS: overrunning it
        # raises instead of answering "no path".
        graph = labeled_path("aac")
        with pytest.raises(BudgetExceededError):
            QueryEngine(graph, exact_budget=1).query("a*c*", 0, 3)
        assert QueryEngine(graph, exact_budget=6).query("a*c*", 0, 3).found


class TestDeadlines:
    def test_expired_deadline_aborts_query(self):
        solver = ExactSolver("(aa)*")
        cycle = labeled_cycle("a" * 9)
        ctx = ExecutionContext(
            deadline_seconds=0.0, deadline_check_interval=1
        )
        with pytest.raises(DeadlineExceededError):
            solver.shortest_simple_path(cycle, 0, 1, ctx=ctx)

    def test_generous_deadline_does_not_fire(self, graph):
        solver = ExactSolver("a*ba*")
        source, target = _working_pair("a*ba*", graph)
        ctx = ExecutionContext(
            deadline_seconds=3600.0, deadline_check_interval=1
        )
        path = solver.shortest_simple_path(graph, source, target, ctx=ctx)
        assert path is not None

    def test_deadline_on_tractable_solver(self, graph):
        solver = TractableSolver(language("a*(bb^+ + eps)c*"))
        ctx = ExecutionContext(
            deadline_seconds=0.0, deadline_check_interval=1
        )
        with pytest.raises(DeadlineExceededError):
            solver.shortest_simple_path(graph, 0, 5, ctx=ctx)

    def test_deadline_on_finite_solver(self, graph):
        solver = FiniteLanguageSolver(language("ab + ba + abc"))
        ctx = ExecutionContext(
            deadline_seconds=0.0, deadline_check_interval=1
        )
        with pytest.raises(DeadlineExceededError):
            solver.shortest_simple_path(graph, 0, 5, ctx=ctx)

    def test_check_interval_validated(self):
        with pytest.raises(ValueError):
            ExecutionContext(deadline_check_interval=0)


class TestRspqSolverDispatch:
    @pytest.mark.parametrize(
        "regex,strategy",
        [
            ("ab + ba", STRATEGY_FINITE),
            ("a*", STRATEGY_TRACTABLE),
            ("a*ba*", STRATEGY_EXACT),
        ],
        ids=["finite", "tractable", "exact"],
    )
    def test_every_strategy_charges_steps(self, graph, regex, strategy):
        # Words tried, walk nodes, DFS steps and expansions all land
        # on the one counter the engine reports.
        solver = RspqSolver(regex)
        assert solver.strategy == strategy
        source, target = _working_pair(regex, graph)
        ctx = ExecutionContext()
        solver.shortest_simple_path(graph, source, target, ctx=ctx)
        assert ctx.steps > 0
        result = QueryEngine(graph).query(regex, source, target)
        assert result.stats.steps == ctx.steps

    def test_solve_threads_context(self):
        # Figure 4's shortest walk repeats vertices, so the walk check
        # cannot decide it and the anchored DFS runs on ``ctx``.
        graph, source, target = figure4_graph(3)
        solver = RspqSolver("a*(bb^+ + eps)c*")
        view = graph.view()
        walk_ctx = ExecutionContext()
        walk_check(
            solver.language.dfa, view, view.vertex_id(source),
            view.vertex_id(target), view.num_vertices - 1, walk_ctx,
        )
        ctx = ExecutionContext()
        result = solver.solve(graph, source, target, ctx=ctx)
        assert result.strategy == solver.strategy
        assert ctx.steps > walk_ctx.steps > 0

    def test_exists_threads_context(self):
        # (aa)* from 0 to 9: the shortest walk takes the loop on 8, so
        # the exact search runs on ``ctx`` after the walk check.  Two
        # isolated vertices lift the walk check's cap (|V| - 1 edges)
        # to the walk's 10 edges; under 9 the check alone would decide.
        graph = labeled_path("a" * 9)
        graph.add_edge(8, "a", 8)
        graph.add_vertex(10)
        graph.add_vertex(11)
        solver = RspqSolver("(aa)*")
        view = graph.view()
        walk_ctx = ExecutionContext()
        shortest_walk(solver.language.dfa, view, view.vertex_id(0),
                      view.vertex_id(9), ctx=walk_ctx)
        ctx = ExecutionContext()
        assert not solver.exists(graph, 0, 9, ctx=ctx)
        assert ctx.steps > walk_ctx.steps
