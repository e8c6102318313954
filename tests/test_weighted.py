"""Tests for weighted shortest simple paths (the paper's E → R+ remark).

"[The algorithm] can be generalized to db-graphs weighted by a function
E → R+" — both the tractable solver and the exact solver accept a
``weight_fn`` and must agree on minimum total weight.
"""

import random

import pytest

from repro.algorithms.exact import ExactSolver
from repro.core.nice_paths import TractableSolver, path_weight
from repro.errors import GraphError
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import random_labeled_graph
from repro.languages import language


def _weights_for(graph, seed):
    rng = random.Random(seed)
    table = {
        (u, label, v): rng.choice([1, 2, 3, 5, 10])
        for u, label, v in graph.edges()
    }
    return lambda u, label, v: table[(u, label, v)]


class TestWeightedBasics:
    def test_heavier_short_route_loses(self):
        # Two a*-routes 0 -> 3: direct edge weight 10, two-hop weight 4.
        graph = DbGraph.from_edges(
            [(0, "a", 3), (0, "a", 1), (1, "a", 3)]
        )
        weights = {(0, "a", 3): 10, (0, "a", 1): 2, (1, "a", 3): 2}
        def weight_fn(u, label, v):
            return weights[(u, label, v)]

        solver = TractableSolver(language("a*"))
        path = solver.shortest_simple_path(graph, 0, 3, weight_fn=weight_fn)
        assert path.vertices == (0, 1, 3)
        assert path_weight(path, weight_fn) == 4

    def test_unweighted_prefers_fewer_edges(self):
        graph = DbGraph.from_edges(
            [(0, "a", 3), (0, "a", 1), (1, "a", 3)]
        )
        solver = TractableSolver(language("a*"))
        path = solver.shortest_simple_path(graph, 0, 3)
        assert len(path) == 1

    def test_nonpositive_weight_rejected_in_gap(self):
        # A long a-run forces a gap, whose Dijkstra validates weights.
        graph = DbGraph.from_edges(
            [(i, "a", i + 1) for i in range(6)]
        )
        solver = TractableSolver(language("a*"))
        with pytest.raises(GraphError):
            solver.shortest_simple_path(
                graph, 0, 6, weight_fn=lambda u, label, v: 0
            )

    def test_exact_rejects_nonpositive_weights(self):
        graph = DbGraph.from_edges([(0, "a", 1)])
        with pytest.raises(ValueError):
            ExactSolver(language("a*")).shortest_simple_path(
                graph, 0, 1, weight_fn=lambda u, label, v: -1
            )


class TestWeightedAgreement:
    @pytest.mark.parametrize(
        "regex", ["a*", "a*c*", "a*(bb^+ + eps)c*", "a*(b + eps)c*"],
    )
    def test_matches_exact_on_random_graphs(self, regex):
        lang = language(regex)
        alphabet = sorted(lang.alphabet)
        solver = TractableSolver(lang)
        exact = ExactSolver(lang)
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(4, 9)
            graph = random_labeled_graph(
                n, rng.randint(n, 3 * n), alphabet, seed=seed
            )
            weight_fn = _weights_for(graph, seed)
            x, y = rng.randrange(n), rng.randrange(n)
            mine = solver.shortest_simple_path(
                graph, x, y, weight_fn=weight_fn
            )
            truth = exact.shortest_simple_path(
                graph, x, y, weight_fn=weight_fn
            )
            assert (mine is None) == (truth is None), (regex, seed)
            if mine is not None:
                assert path_weight(mine, weight_fn) == path_weight(
                    truth, weight_fn
                ), (regex, seed)

    def test_weighted_and_unweighted_can_differ(self):
        graph = DbGraph.from_edges(
            [(0, "a", 9), (0, "a", 1), (1, "a", 2), (2, "a", 9)]
        )
        weights = {
            (0, "a", 9): 100,
            (0, "a", 1): 1, (1, "a", 2): 1, (2, "a", 9): 1,
        }
        def weight_fn(u, label, v):
            return weights[(u, label, v)]

        solver = TractableSolver(language("a*"))
        light = solver.shortest_simple_path(graph, 0, 9, weight_fn=weight_fn)
        short = solver.shortest_simple_path(graph, 0, 9)
        assert len(short) == 1
        assert len(light) == 3


class TestPrunedSearch:
    def test_pruned_search_matches_exact_solver(self):
        lang = language("a*(bb^+ + eps)c*")
        pruned = TractableSolver(lang)
        exact = ExactSolver(lang)
        for seed in range(10):
            graph = random_labeled_graph(8, 20, "abc", seed=seed)
            a = pruned.shortest_simple_path(graph, 0, 7)
            b = exact.shortest_simple_path(graph, 0, 7)
            assert (a is None) == (b is None), seed
            if a is not None:
                assert len(a) == len(b), seed
