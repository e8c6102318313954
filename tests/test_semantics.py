"""Tests for walk / trail / simple path semantics (introduction, E13)."""

import pytest

from repro.algorithms.semantics import (
    SEMANTICS,
    SIMPLE,
    TRAIL,
    WALK,
    SemanticsEvaluator,
)
from repro.engine.indexed import IndexedGraph
from repro.errors import BudgetExceededError, DeadlineExceededError, GraphError
from repro.execution import ExecutionContext
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import (
    labeled_cycle,
    labeled_path,
    random_labeled_graph,
)
from repro.languages import language


class TestHierarchy:
    """simple ⇒ trail ⇒ walk on every instance."""

    def test_on_random_instances(self):
        from tests.conftest import random_instance

        for regex in ["(aa)*", "a*ba*", "(ab)*"]:
            evaluator = SemanticsEvaluator(language(regex))
            for seed in range(10):
                graph, x, y = random_instance(seed, "ab", max_vertices=7)
                answers = evaluator.evaluate_all(graph, x, y)
                if answers[SIMPLE]:
                    assert answers[TRAIL]
                if answers[TRAIL]:
                    assert answers[WALK]


class TestSeparations:
    def test_walk_but_no_trail(self):
        # a^4 on a 2-cycle: the walk 0->1->0->1->0 repeats both edges;
        # no trail of length 4 exists with only two edges available.
        graph = labeled_cycle("aa")
        evaluator = SemanticsEvaluator(language("a{4}"))
        assert evaluator.exists(graph, 0, 0, WALK)
        assert not evaluator.exists(graph, 0, 0, TRAIL)

    def test_trail_but_no_simple_path(self):
        # Figure-eight: two triangles sharing vertex 1; the word a^6
        # traverses both loops edge-distinctly but revisits vertex 1.
        graph = DbGraph.from_edges(
            [(0, "a", 1), (1, "a", 2), (2, "a", 0),
             (1, "a", 3), (3, "a", 4), (4, "a", 1)]
        )
        evaluator = SemanticsEvaluator(language("a{6}"))
        assert evaluator.exists(graph, 0, 0, WALK)
        assert evaluator.exists(graph, 0, 0, TRAIL)
        assert not evaluator.exists(graph, 0, 0, SIMPLE)

    def test_unknown_semantics_rejected(self):
        evaluator = SemanticsEvaluator(language("a"))
        with pytest.raises(ValueError):
            evaluator.exists(labeled_path("a"), 0, 1, "bogus")


def _string_level_walk_count(dfa, graph, source, target, max_length):
    """L-labeled walks of length ≤ max_length, counted over vertex names
    and label strings (the oracle for the id-level DP)."""
    counts = {(source, dfa.initial): 1}
    total = 0
    if source == target and dfa.initial in dfa.accepting:
        total += 1
    for _ in range(max_length):
        next_counts = {}
        for (vertex, state), count in counts.items():
            for label, nxt in graph.out_edges(vertex):
                if label not in dfa.alphabet:
                    continue
                key = (nxt, dfa.transition(state, label))
                next_counts[key] = next_counts.get(key, 0) + count
        counts = next_counts
        for (vertex, state), count in counts.items():
            if vertex == target and state in dfa.accepting:
                total += count
    return total


class TestCounting:
    def test_count_walks_explosion(self):
        # Arenas et al.'s yottabyte point: walk counts blow up.
        graph = DbGraph.from_edges(
            [(0, "a", 1), (0, "a", 2), (1, "a", 3), (2, "a", 3),
             (3, "a", 4), (3, "a", 5), (4, "a", 6), (5, "a", 6)]
        )
        evaluator = SemanticsEvaluator(language("a*"))
        assert evaluator.count_walks(graph, 0, 6, 4) == 4

    def test_count_walks_vs_simple(self):
        graph = labeled_cycle("aa")
        evaluator = SemanticsEvaluator(language("(aa)*"))
        # Walks 0->0 of length <= 6: lengths 0, 2, 4, 6.
        assert evaluator.count_walks(graph, 0, 0, 6) == 4
        # Only the empty path is simple.
        assert evaluator.count_simple(graph, 0, 0) == 1

    def test_count_trails(self):
        graph = DbGraph.from_edges(
            [(0, "a", 1), (1, "a", 2), (0, "a", 2)]
        )
        evaluator = SemanticsEvaluator(language("a*"))
        # 0->2: direct edge, and the two-edge route.
        assert evaluator.count_trails(graph, 0, 2) == 2

    def test_count_walks_matches_string_level_dp(self):
        """The id-level DP equals the name-level one on either graph."""
        from tests.conftest import random_instance

        nonzero = 0
        for regex in ["a*", "(aa)*", "a*ba*", "(ab)*c", "ab + ba"]:
            evaluator = SemanticsEvaluator(language(regex))
            for seed in range(6):
                graph, _x, _y = random_instance(seed, "abc", max_vertices=6)
                compiled = IndexedGraph(graph)
                for x in graph.vertices():
                    for y in graph.vertices():
                        expected = _string_level_walk_count(
                            evaluator.dfa, graph, x, y, 6
                        )
                        case = (regex, seed, x, y)
                        assert evaluator.count_walks(
                            graph, x, y, 6
                        ) == expected, case
                        assert evaluator.count_walks(
                            compiled, x, y, 6
                        ) == expected, case
                        nonzero += expected > 0
        assert nonzero > 100

    def test_semantics_constant_list(self):
        assert set(SEMANTICS) == {WALK, TRAIL, SIMPLE}


class TestEndpointsAndContext:
    def test_unknown_vertex_raises_under_every_semantics(self):
        graph = labeled_cycle("ab")
        evaluator = SemanticsEvaluator(language("a*"))
        for semantics in SEMANTICS:
            with pytest.raises(GraphError):
                evaluator.exists(graph, 0, 99, semantics)
            with pytest.raises(GraphError):
                evaluator.exists(graph, 99, 0, semantics)
        with pytest.raises(GraphError):
            evaluator.count_walks(graph, 0, 99, 3)
        with pytest.raises(GraphError):
            evaluator.count_walks(graph, 99, 0, 3)
        with pytest.raises(GraphError):
            evaluator.count_trails(graph, 99, 0)
        with pytest.raises(GraphError):
            evaluator.count_trails(graph, 0, 99)

    def test_trail_search_charges_the_context(self):
        graph = labeled_path("a" * 8)
        evaluator = SemanticsEvaluator(language("a*"))
        ctx = ExecutionContext()
        assert evaluator.exists(graph, 0, 8, TRAIL, ctx=ctx)
        assert ctx.steps == 9
        for semantics in (TRAIL, SIMPLE):
            # The message names no solver: both searches charge the
            # same context.
            with pytest.raises(
                BudgetExceededError, match="^query exceeded its 5-step budget$"
            ):
                evaluator.exists(
                    graph, 0, 8, semantics, ctx=ExecutionContext(budget=5)
                )

    def test_context_free_calls_use_the_evaluator_budget(self):
        graph = labeled_path("a" * 8)
        evaluator = SemanticsEvaluator(language("a*"), budget=5)
        with pytest.raises(BudgetExceededError):
            evaluator.exists(graph, 0, 8, TRAIL)
        with pytest.raises(BudgetExceededError):
            evaluator.count_trails(graph, 0, 8)
        assert SemanticsEvaluator(language("a*"), budget=9).count_trails(
            graph, 0, 8
        ) == 1

    def test_trail_search_honours_the_deadline(self):
        # No trail spells (aa)*c on an {a, b} graph, so the search
        # exhausts every (aa)*-trail from 0: a few tenths of a second
        # without a deadline.
        graph = random_labeled_graph(12, 60, "ab", seed=1)
        ctx = ExecutionContext(
            deadline_seconds=0.02, deadline_check_interval=1
        )
        with pytest.raises(DeadlineExceededError):
            SemanticsEvaluator(language("(aa)*c")).exists(
                graph, 0, 11, TRAIL, ctx=ctx
            )
