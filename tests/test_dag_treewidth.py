"""Tests for the DAG case (Theorem 8 base case) and width diagnostics."""

import pytest

from repro.algorithms.dag import is_dag
from repro.algorithms.exact import ExactSolver
from repro.algorithms.treewidth import (
    greedy_feedback_vertex_set,
    undirected_treewidth_upper_bound,
)
from repro.core.nice_paths import TractableSolver
from repro.core.solver import RspqSolver
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import (
    grid_graph,
    labeled_cycle,
    labeled_path,
    layered_dag,
)
from repro.languages import language

from tests.conftest import paths_agree

#: Even-length words: NP-complete on general graphs.
HARD_LANGUAGE = "((a+b)(a+b))*"


class TestIsDag:
    def test_path_is_dag(self):
        assert is_dag(labeled_path("abc"))

    def test_cycle_is_not(self):
        assert not is_dag(labeled_cycle("ab"))

    def test_grid_is_dag(self):
        assert is_dag(grid_graph(3, 3))


class TestWalkCheckDecidesDags:
    """Theorem 8's DAG case through the one solver.

    Every walk in a DAG is simple, so the walk check ``RspqSolver``
    runs first decides every query: no simple-path search may run.
    """

    @staticmethod
    def no_search(monkeypatch):
        """Make any exact or tractable simple-path search fail loudly."""

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a simple-path search ran on a DAG")

        monkeypatch.setattr(ExactSolver, "shortest_simple_path", forbidden)
        monkeypatch.setattr(TractableSolver, "shortest_simple_path", forbidden)

    def test_agrees_with_exact_on_layered_dags(self, monkeypatch):
        regexes = ["a*", "(ab)*", "a*ba*", "(aa)*", HARD_LANGUAGE]
        cases = []
        for seed in range(10):
            graph = layered_dag(4, 3, "ab", density=0.6, seed=seed)
            for regex in regexes:
                truth = ExactSolver(language(regex)).shortest_simple_path(
                    graph, (0, 0), (3, 2)
                )
                cases.append((graph, regex, truth))
        self.no_search(monkeypatch)
        for graph, regex, truth in cases:
            mine = RspqSolver(regex).shortest_simple_path(
                graph, (0, 0), (3, 2)
            )
            assert paths_agree(mine, truth), regex
            if mine is not None:
                assert mine.is_simple()

    def test_agrees_with_exact_on_grids(self, monkeypatch):
        graph = grid_graph(4, 4)
        truths = {
            target: ExactSolver(language(HARD_LANGUAGE)).shortest_simple_path(
                graph, (0, 0), target
            )
            for target in graph.vertices()
        }
        self.no_search(monkeypatch)
        solver = RspqSolver(HARD_LANGUAGE)
        for target, truth in truths.items():
            mine = solver.shortest_simple_path(graph, (0, 0), target)
            assert paths_agree(mine, truth), target

    def test_hard_language_is_easy_on_a_large_grid(self, monkeypatch):
        # ((a+b)(a+b))* is NP-complete on general graphs; on the 12x12
        # grid the walk check alone answers with the 22-edge path.
        self.no_search(monkeypatch)
        path = RspqSolver(HARD_LANGUAGE).shortest_simple_path(
            grid_graph(12, 12), (0, 0), (11, 11)
        )
        assert path is not None
        assert len(path) == 22


class TestWidthDiagnostics:
    def test_fvs_of_dag_is_empty(self):
        assert greedy_feedback_vertex_set(grid_graph(3, 3)) == set()

    def test_fvs_breaks_cycles(self):
        graph = labeled_cycle("aaaa")
        fvs = greedy_feedback_vertex_set(graph)
        assert fvs
        remaining = graph.subgraph(
            [v for v in graph.vertices() if v not in fvs]
        )
        assert is_dag(remaining)

    def test_treewidth_bound_of_path(self):
        assert undirected_treewidth_upper_bound(labeled_path("aaa")) <= 1

    def test_treewidth_bound_of_grid(self):
        bound = undirected_treewidth_upper_bound(grid_graph(3, 3))
        assert 3 <= bound <= 4  # treewidth of the 3x3 grid is 3

    def test_treewidth_bound_of_clique(self):
        graph = DbGraph()
        for i in range(5):
            for j in range(5):
                if i != j:
                    graph.add_edge(i, "a", j)
        assert undirected_treewidth_upper_bound(graph) == 4
