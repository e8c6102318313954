"""Ablations for the tractable solver's design choices.

Two things the anchored-search rendition of the paper's NL algorithm
adds on top of the theory:

* the *live-table prune* (sequence-NFA × graph product reachability),
  always on: the bench times the pruned search and records its steps;
* the *weighted generalisation* (Dijkstra gap filling) — the paper's
  E → R+ remark; costs a little over BFS.
"""

import pytest

from repro import language
from repro.core.nice_paths import TractableSolver, path_weight
from repro.execution import ExecutionContext
from repro.graphs.generators import random_labeled_graph

LANGUAGE = "a*(bb^+ + eps)c*"


def _weight_fn(u, label, v):
    return 1 + (hash((u, label, v)) % 5)


def test_live_pruned_search(benchmark):
    lang = language(LANGUAGE)
    solver = TractableSolver(lang)
    graph = random_labeled_graph(60, 150, "abc", seed=21)

    path = benchmark(solver.shortest_simple_path, graph, 0, 59)
    ctx = ExecutionContext()
    solver.shortest_simple_path(graph, 0, 59, ctx=ctx)
    benchmark.extra_info["steps"] = ctx.steps
    if path is not None:
        assert lang.accepts(path.word)


@pytest.mark.parametrize("weighted", [False, True], ids=["edges", "weights"])
def test_weighted_gap_filling(benchmark, weighted):
    lang = language(LANGUAGE)
    solver = TractableSolver(lang)
    graph = random_labeled_graph(50, 130, "abc", seed=8)
    weight_fn = _weight_fn if weighted else None

    path = benchmark(
        solver.shortest_simple_path, graph, 0, 49, weight_fn
    )
    if path is not None and weighted:
        assert path_weight(path, _weight_fn) >= len(path)
