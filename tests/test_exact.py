"""Tests for the exponential exact RSPQ solver."""

import pytest

from repro.algorithms.exact import ExactSolver
from repro.core.product import reverse_transition_index, walk_distances
from repro.errors import BudgetExceededError
from repro.graphs.dbgraph import DbGraph, Path
from repro.graphs.generators import grid_graph, labeled_cycle, labeled_path
from repro.languages import language


class TestCorrectness:
    def test_finds_shortest_not_just_any(self):
        # Two routes: direct aa (length 2) and detour aaa (length 3).
        graph = DbGraph.from_edges(
            [(0, "a", 1), (1, "a", 9),
             (0, "a", 2), (2, "a", 3), (3, "a", 9)]
        )
        path = ExactSolver("a*").shortest_simple_path(graph, 0, 9)
        assert len(path) == 2

    def test_any_simple_path_is_valid(self):
        graph = labeled_path("aba")
        lang = language("aba")
        path = ExactSolver(lang).any_simple_path(graph, 0, 3)
        assert path is not None
        assert path.is_simple()
        assert lang.accepts(path.word)

    def test_simplicity_is_enforced(self):
        # (aa)* on a 3-cycle: walks of even length exist (go around
        # twice = 6 edges) but no *simple* path from 0 to 1 has even
        # length.
        graph = labeled_cycle("aaa")
        lang = language("(aa)*")
        assert not ExactSolver(lang).exists(graph, 0, 1)
        # The walk semantics disagrees (goes around: length 4 reaches
        # vertex 1).
        from repro.algorithms.rpq import RpqSolver

        assert RpqSolver(lang).exists(graph, 0, 1)

    def test_source_equals_target(self):
        graph = labeled_cycle("ab")
        assert ExactSolver("eps").shortest_simple_path(
            graph, 0, 0
        ) == Path.single(0)
        assert ExactSolver("(ab)^+").shortest_simple_path(graph, 0, 0) is None

    def test_grid_hardness_instance(self):
        # Barrett et al.: grids are the hard family; small ones must
        # still be solved correctly.
        graph = grid_graph(3, 3)
        lang = language("(ab)*")  # alternate right/down
        path = ExactSolver(lang).shortest_simple_path(graph, (0, 0), (2, 2))
        assert path is not None
        assert path.word in ("abab", "baba"[0:4])  # right-down alternation


class TestBudget:
    def test_budget_exceeded_raises(self):
        # (aa)* on an odd cycle: even-length walks to vertex 1 exist (so
        # the liveness prune cannot cut the search), but no simple path
        # qualifies — the DFS must walk the cycle and exceed the budget.
        graph = labeled_cycle("a" * 9)
        solver = ExactSolver("(aa)*", budget=3)
        with pytest.raises(BudgetExceededError) as info:
            solver.shortest_simple_path(graph, 0, 1)
        assert info.value.steps > 3

    def test_no_budget_by_default(self):
        graph = labeled_path("ab")
        assert ExactSolver("ab").exists(graph, 0, 2)


class TestCounting:
    def test_count_simple_paths(self):
        # Diamond: two disjoint a-a routes 0->3.
        graph = DbGraph.from_edges(
            [(0, "a", 1), (1, "a", 3), (0, "a", 2), (2, "a", 3)]
        )
        assert ExactSolver("aa").count_simple_paths(graph, 0, 3) == 2

    def test_count_with_length_bound(self):
        graph = DbGraph.from_edges(
            [(0, "a", 1), (1, "a", 3), (0, "a", 2), (2, "a", 3),
             (0, "a", 3)]
        )
        solver = ExactSolver("a*")
        assert solver.count_simple_paths(graph, 0, 3, max_length=1) == 1
        assert solver.count_simple_paths(graph, 0, 3) == 3

    def test_count_source_equals_target(self):
        graph = labeled_cycle("aa")
        assert ExactSolver("a*").count_simple_paths(graph, 0, 0) == 1
        assert ExactSolver("a^+").count_simple_paths(graph, 0, 0) == 0


def _naive_goal_distances(dfa, graph, target):
    """The seed's per-edge all-states scan, kept as the test oracle."""
    from collections import deque

    distances = {}
    queue = deque()
    for final in dfa.accepting:
        node = (target, final)
        distances[node] = 0
        queue.append(node)
    while queue:
        vertex, state = queue.popleft()
        base = distances[(vertex, state)]
        for label, source in graph.in_edges(vertex):
            if label not in dfa.alphabet:
                continue
            for state_before in dfa.states():
                if dfa.transition(state_before, label) != state:
                    continue
                node = (source, state_before)
                if node not in distances:
                    distances[node] = base + 1
                    queue.append(node)
    return distances


class TestGoalDistances:
    """The walk layer's backward BFS behind the exact solver's pruning
    matches the naive all-states scan."""

    @pytest.mark.parametrize(
        "regex", ["a*", "a*ba*", "(aa)*", "a*(bb^+ + eps)c*", "ab + ba"]
    )
    def test_distances_match_naive_scan(self, regex):
        from repro.graphs.generators import random_labeled_graph
        from repro.graphs.view import as_graph_view

        dfa = language(regex).dfa
        reverse = reverse_transition_index(dfa)
        num_states = dfa.num_states
        for seed in range(5):
            graph = random_labeled_graph(10, 30, "abc", seed=seed)
            view = as_graph_view(graph)
            for target in (0, 5, 9):
                packed = walk_distances(
                    dfa, view, view.vertex_id(target), reverse
                )
                unpacked = {
                    (view.vertex_at(node // num_states), node % num_states):
                        distance
                    for node, distance in packed.items()
                }
                assert unpacked == _naive_goal_distances(
                    dfa, graph, target
                ), (regex, seed, target)

    def test_reverse_index_covers_all_transitions(self):
        dfa = language("a*(bb^+ + eps)c*").dfa
        listed = sorted(
            (before, label, after)
            for label, rows in reverse_transition_index(dfa).items()
            for after, befores in enumerate(rows)
            for before in befores
        )
        assert listed == sorted(dfa.transitions())
