"""E6 — the tractability frontier (Theorem 1).

Same instance family, one language on each side of the frontier, over
the single-letter alphabet {a}:

* ``a*`` ∈ trC — answered by the polynomial nice-path solver;
* ``(aa)*`` ∉ trC — only exponential backtracking is available.

The *parity gadget* makes the separation measurable: a chain of
diamonds whose two arms have lengths 1 and 3 (both odd), so every
simple route has the same parity — odd, for an odd number of diamonds —
and ``(aa)*`` has **no** simple path.  A self-loop at the source lets
*walks* flip parity, which defeats product-graph liveness pruning: the
backtracking solver must enumerate all 2^w arm combinations.  The trC
solver answers ``a*`` on the same graphs in polynomial time.

Reproduced shape: who wins (the trC side), and the exponential-vs-
polynomial growth on either side of the frontier.
"""

import pytest

from benchmarks.conftest import SMOKE, measure_seconds

from repro import language
from repro.algorithms.exact import ExactSolver
from repro.core.nice_paths import TractableSolver
from repro.execution import ExecutionContext
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import random_labeled_graph

TRACTABLE = "a*"
HARD = "(aa)*"


def parity_gadget(width):
    """A diamond chain with odd arms and a parity-flipping self-loop.

    ``width`` should be odd so that every simple source→target route
    has odd length, making the (aa)* instance a hard "no".  Self-loops
    at every diamond base let *walks* flip parity from anywhere, which
    keeps every search node alive for product-graph liveness pruning —
    the backtracking solver has to enumerate the 2^width arm choices.
    Returns ``(graph, source, target)``.
    """
    graph = DbGraph()
    for i in range(width):
        base, nxt = ("d", i), ("d", i + 1)
        # Short arm: one edge.
        graph.add_edge(base, "a", nxt)
        # Long arm: three edges.
        u, v = ("u", i), ("v", i)
        graph.add_edge(base, "a", u)
        graph.add_edge(u, "a", v)
        graph.add_edge(v, "a", nxt)
        # Walk-level parity flip (unusable by any simple path).
        graph.add_edge(base, "a", base)
    source, target = ("d", 0), ("d", width)
    return graph, source, target


@pytest.mark.parametrize("n", [40, 80, 160])
def test_tractable_side_scaling(benchmark, n):
    lang = language("a*(bb^+ + eps)c*")
    solver = TractableSolver(lang)
    graph = random_labeled_graph(n, 2 * n, "abc", seed=3 * n)
    benchmark(solver.shortest_simple_path, graph, 0, n - 1)


@pytest.mark.parametrize("width", [5, 7, 9, 11])
def test_hard_side_work_explodes(benchmark, width):
    lang = language(HARD)
    graph, x, y = parity_gadget(width)
    solver = ExactSolver(lang)

    def run():
        ctx = ExecutionContext()
        path = solver.shortest_simple_path(graph, x, y, ctx=ctx)
        return ctx.steps, path

    steps, path = benchmark(run)
    assert path is None  # parity proves it: no simple (aa)* path
    benchmark.extra_info["search_steps"] = steps


@pytest.mark.parametrize("width", [5, 7, 9, 11])
def test_tractable_side_on_gadget(benchmark, width):
    lang = language(TRACTABLE)
    graph, x, y = parity_gadget(width)
    solver = TractableSolver(lang)

    path = benchmark(solver.shortest_simple_path, graph, x, y)
    assert path is not None
    assert len(path) == width  # the short arms all the way


def test_who_wins_shape():
    """Exponential growth on the hard side, polynomial on the trC side.

    Steps of the exact solver for (aa)* roughly double per extra
    diamond; the a* solver's wall-clock stays within polynomial range.
    """
    widths = [5, 7, 9, 11]
    hard_steps = []
    for width in widths:
        graph, x, y = parity_gadget(width)
        solver = ExactSolver(language(HARD))
        ctx = ExecutionContext()
        assert solver.shortest_simple_path(graph, x, y, ctx=ctx) is None
        hard_steps.append(ctx.steps)
    # Adding two diamonds multiplies the work by ~4 (2 per diamond):
    # demand at least 2x to be robust against pruning noise.
    for before, after in zip(hard_steps, hard_steps[1:]):
        assert after >= 2 * before, hard_steps

    easy_times = []
    for width in widths:
        graph, x, y = parity_gadget(width)
        solver = TractableSolver(language(TRACTABLE))
        seconds, path = measure_seconds(
            solver.shortest_simple_path, graph, x, y
        )
        assert path is not None
        easy_times.append(seconds)
    # Polynomial: the largest instance costs at most ~50x the smallest
    # (sizes grew ~2x; generous noise allowance).  Not checked under
    # the smoke profile: wall-clock ratios are meaningless on shared
    # CI runners (the step-count growth assertions above still run).
    if not SMOKE:
        assert easy_times[-1] <= max(easy_times[0], 1e-4) * 50
