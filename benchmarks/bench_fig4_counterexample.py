"""E5 — Figure 4 (Example 4): the loop-elimination counterexample.

The family where naive loop removal fails: an L-labeled walk exists
whose two self-intersections cannot both be eliminated, yet a simple
L-labeled path exists (cutting across the middle).  We assert the
naive strategy fails, the nice-path solver succeeds, and measure its
scaling over k.
"""

import pytest

from repro import language
from repro.algorithms.exact import ExactSolver
from repro.algorithms.rpq import RpqSolver
from repro.core.nice_paths import TractableSolver
from repro.graphs.generators import figure4_graph

EXAMPLE1 = "a*(bb^+ + eps)c*"


def _remove_loops(path):
    """Naive loop elimination: cut cycles greedily left to right."""
    from repro.graphs.dbgraph import Path

    vertices = list(path.vertices)
    labels = list(path.labels)
    position = 0
    seen = {}
    while position < len(vertices):
        vertex = vertices[position]
        if vertex in seen:
            start = seen[vertex]
            del vertices[start:position]
            del labels[start:position]
            seen = {v: i for i, v in enumerate(vertices[: start + 1])}
            position = start + 1
            continue
        seen[vertex] = position
        position += 1
    return Path(tuple(vertices), tuple(labels))


def _figure4_walk(graph, x, y, k):
    """The paper's Figure-4 walk: the full a-run, b-run, then c-run.

    It crosses itself at the middles x_k and y_k of the a- and c-chains.
    """
    from repro.graphs.dbgraph import Path

    vertices = [x]
    labels = []
    for stretch, label in ((2 * k, "a"), (2 * k, "b"), (2 * k, "c")):
        for _ in range(stretch):
            (nxt,) = graph.successors(vertices[-1], label)
            vertices.append(nxt)
            labels.append(label)
    assert vertices[-1] == y
    return Path(tuple(vertices), tuple(labels))


def test_naive_loop_elimination_fails():
    lang = language(EXAMPLE1)
    k = 3
    graph, x, y = figure4_graph(k)
    walk = _figure4_walk(graph, x, y, k)
    assert lang.accepts(walk.word)
    assert not walk.is_simple()  # self-intersects at x_k and y_k
    cut = _remove_loops(walk)
    assert cut.is_simple()
    # ... but the label left after loop removal is outside L (the
    # Example-4 point: you cannot cut both loops and stay in L).
    assert not lang.accepts(cut.word)


def test_faithful_family_is_a_negative_instance():
    # An L-labeled *walk* exists, yet no simple L-labeled path does:
    # a solver based on naive loop removal would answer wrongly here.
    lang = language(EXAMPLE1)
    for k in (2, 3, 4):
        graph, x, y = figure4_graph(k)
        assert RpqSolver(lang).shortest_walk(graph, x, y) is not None
        assert ExactSolver(lang).shortest_simple_path(graph, x, y) is None
        assert TractableSolver(lang).shortest_simple_path(graph, x, y) is None


@pytest.mark.parametrize("k", [3, 6, 12])
def test_nice_path_solver_on_cross_family(benchmark, k):
    from repro.graphs.generators import figure4_cross_graph

    lang = language(EXAMPLE1)
    graph, x, y = figure4_cross_graph(k)
    solver = TractableSolver(lang)

    path = benchmark(solver.shortest_simple_path, graph, x, y)
    assert path is not None
    assert path.is_simple()
    assert lang.accepts(path.word)
    assert len(path) == 3 * k  # the cut-across route a^k b^k c^k


def test_cross_family_answer_matches_exact():
    from repro.graphs.generators import figure4_cross_graph

    lang = language(EXAMPLE1)
    for k in (2, 4, 6):
        graph, x, y = figure4_cross_graph(k)
        mine = TractableSolver(lang).shortest_simple_path(graph, x, y)
        truth = ExactSolver(lang).shortest_simple_path(graph, x, y)
        assert mine is not None and truth is not None
        assert len(mine) == len(truth)
