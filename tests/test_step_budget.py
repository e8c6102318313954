"""One work count per query: every search charges ``steps``, and the
step budget caps that one count.

The walk check, the exact search, the tractable solver's anchored DFS
and the finite-language word loop all charge
:attr:`~repro.execution.ExecutionContext.steps`, so a budget bounds a
query's whole search and no answer reports more steps than its
budget.  Figure 4 is the instance where two searches run on one
query: its L-walk repeats vertices, so the anchored DFS runs after the
walk check, and the two share the budget.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import (
    STRATEGY_EXACT,
    STRATEGY_FINITE,
    STRATEGY_TRACTABLE,
    RspqSolver,
)
from repro.engine import QueryEngine
from repro.errors import BudgetExceededError, ServiceError
from repro.execution import ExecutionContext
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import figure4_graph
from repro.service import (
    GraphRegistry,
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)

EXAMPLE1 = "a*(bb^+ + eps)c*"

#: One language per regime of the trichotomy.
LANGUAGES = {
    STRATEGY_FINITE: "ab + ba + abc",
    STRATEGY_TRACTABLE: EXAMPLE1,
    STRATEGY_EXACT: "(aa)*",
}

#: Figure 4 with k = 6: walk nodes plus anchored-DFS steps.
FIGURE4_STEPS = 100


@pytest.fixture
def figure4():
    return figure4_graph(6)


class TestFigure4:
    def test_walk_and_dfs_share_one_budget(self, figure4):
        graph, source, target = figure4
        engine = QueryEngine(graph)
        with pytest.raises(BudgetExceededError):
            engine.query(EXAMPLE1, source, target, budget=63)
        with pytest.raises(BudgetExceededError):
            engine.query(EXAMPLE1, source, target, budget=FIGURE4_STEPS - 1)
        result = engine.query(EXAMPLE1, source, target, budget=FIGURE4_STEPS)
        assert result.error is None and not result.found
        assert result.strategy == STRATEGY_TRACTABLE
        assert result.stats.steps == FIGURE4_STEPS
        # A result-cache replay runs no search, so it reports 0 steps,
        # even under a budget no fresh solve could meet.
        replay = engine.query(EXAMPLE1, source, target, budget=63)
        assert replay.stats.result_cache_hit and not replay.found
        assert replay.stats.steps == 0

    def test_direct_solve_charges_the_same_steps(self, figure4):
        graph, source, target = figure4
        ctx = ExecutionContext()
        assert RspqSolver(EXAMPLE1).solve(
            graph, source, target, ctx=ctx
        ).found is False
        assert ctx.steps == FIGURE4_STEPS

    def test_over_http(self, figure4):
        graph, source, target = figure4
        registry = GraphRegistry()
        registry.register("figure4", graph)
        service = QueryService(registry, ServiceConfig(workers=1))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            with pytest.raises(ServiceError) as info:
                client.query(EXAMPLE1, source, target, budget=63)
            assert info.value.status == 422
            record = client.query(
                EXAMPLE1, source, target, budget=FIGURE4_STEPS
            )
            replay = client.query(EXAMPLE1, source, target, budget=63)
        assert record["found"] is False
        assert record["strategy"] == STRATEGY_TRACTABLE
        assert record["steps"] == FIGURE4_STEPS
        assert replay["result_cache_hit"] is True
        assert replay["found"] is False
        assert replay["steps"] == 0


@st.composite
def graph_and_query(draw):
    """A random db-graph over ``abc`` (≤ 8 vertices) and a query pair."""
    num_vertices = draw(st.integers(2, 8))
    vertex = st.integers(0, num_vertices - 1)
    edges = draw(st.lists(
        st.tuples(vertex, st.sampled_from("abc"), vertex),
        min_size=1, max_size=3 * num_vertices,
    ))
    graph = DbGraph()
    for name in range(num_vertices):
        graph.add_vertex(name)
    for source, label, target in edges:
        graph.add_edge(source, label, target)
    return graph, draw(vertex), draw(vertex)


class TestBudgetCapsSteps:
    def test_one_language_per_regime(self):
        for strategy, regex in LANGUAGES.items():
            assert RspqSolver(regex).strategy == strategy

    @given(
        graph_and_query(),
        st.sampled_from(sorted(LANGUAGES.values())),
        st.integers(1, 150),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_budgeted_query_raises_or_fits(self, instance, regex, budget):
        # A budget never changes the search: a query answers, with the
        # steps and path of its unbudgeted run, exactly when that run
        # fits the budget.  The engine's reachability short-circuit
        # may answer a query with no search at all (0 steps).
        graph, source, target = instance
        solver = RspqSolver(regex)
        unbudgeted = ExecutionContext()
        expected = solver.solve(graph, source, target, ctx=unbudgeted)
        ctx = ExecutionContext(budget=budget)
        try:
            result = solver.solve(graph, source, target, ctx=ctx)
        except BudgetExceededError:
            assert unbudgeted.steps > budget
        else:
            assert ctx.steps == unbudgeted.steps <= budget
            assert result.path == expected.path
        engine = QueryEngine(graph, result_cache_size=0)
        try:
            answer = engine.query(regex, source, target, budget=budget)
        except BudgetExceededError:
            assert unbudgeted.steps > budget
        else:
            assert answer.stats.steps <= budget
            assert answer.path == expected.path

    @given(graph_and_query(), st.integers(1, 150))
    @settings(max_examples=60, deadline=None)
    def test_portfolio_rungs_stay_inside_the_budget(self, instance, budget):
        # The middle rungs run on slices of what the walk check left;
        # whatever rung answers, the query's steps fit its budget.
        graph, source, target = instance
        engine = QueryEngine(graph, result_cache_size=0)
        try:
            answer = engine.query(
                LANGUAGES[STRATEGY_EXACT], source, target, budget=budget,
                portfolio=True,
            )
        except BudgetExceededError:
            return
        assert answer.stats.steps <= budget
