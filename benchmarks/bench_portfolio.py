"""The hard-regime portfolio vs exact-only search.

Two workload families:

* **Bounded hard negatives** — parity-gadget chains (the Theorem 7
  k-RSPQ regime): every simple source→target route is odd, so the
  ``(aa)*`` query is a hard "no", and a self-loop keeps walk-level
  parity alive, defeating liveness pruning.  With a path-length bound
  below the gadget width the walk check, capped at the bound,
  *certifies* NOT_FOUND in polynomial time, while exact-only search
  must still enumerate the ``2^width`` arm combinations to find (the
  absence of) a shortest simple path before applying the bound.
* **Probabilistic negatives** — padded odd-cycle gadgets where an
  accepting walk exists but no simple path does: the calibrated
  color-coding rung and the algebraic rung both complete, serving a
  NOT_FOUND with a δ² combined failure bound instead of paying for
  backtracking.

Asserted shape (the ISSUE-8 acceptance criteria):

* portfolio answers match exact ground truth on every query of both
  families — measured success rate ≥ 0.999 (here: 1.0);
* on the bounded family the portfolio engine beats exact-only search
  by ≥ 5× wall-clock (recorded as ``portfolio_speedup`` and gated by
  ``check_perf_regression.py``).

Exact-only search is ``ExactSolver.shortest_simple_path`` on each
query, then the bound, with no walk check.  Both engine paths run the
walk check capped at the bound, which certifies these negatives, so an
engine with ``portfolio=False`` would read about 1 against the
portfolio engine: the ratio measures the capped walk check against
exact search.
"""

import pytest

from benchmarks.conftest import (
    measure_seconds,
    record_metric,
    scaled,
)

from repro.algorithms.exact import ExactSolver
from repro.engine import (
    CONFIDENCE_CERTIFIED,
    CONFIDENCE_PROBABILISTIC,
    IndexedGraph,
    QueryEngine,
)
from repro.graphs.dbgraph import DbGraph
from repro.languages import language

HARD = "(aa)*"

#: Diamond-chain width of the bounded family (odd: all routes odd).
WIDTH = scaled(13, 11)

#: Timed repetitions of each batch (caches disabled, so every
#: repetition re-solves; amortises timer noise on the smoke profile).
REPS = scaled(3, 5)


def parity_gadget_into(graph, gadget_id, width):
    """One diamond chain with odd arms and parity-flipping self-loops.

    Returns the ``(source, target)`` pair.  Every simple route has odd
    length (arms of length 1 and 3), so ``(aa)*`` has no simple path;
    self-loops let walks flip parity from any base, keeping every
    search node alive for the exact solver.
    """
    for i in range(width):
        base, nxt = (gadget_id, "d", i), (gadget_id, "d", i + 1)
        graph.add_edge(base, "a", base)
        graph.add_edge(base, "a", nxt)
        u, v = (gadget_id, "u", i), (gadget_id, "v", i)
        graph.add_edge(base, "a", u)
        graph.add_edge(u, "a", v)
        graph.add_edge(v, "a", nxt)
    return (gadget_id, "d", 0), (gadget_id, "d", width)


@pytest.fixture(scope="module")
def bounded_workload():
    """Gadget copies plus even positive chains, and the length bound.

    The bound ``WIDTH - 1`` undercuts every source→target walk (all
    have ≥ WIDTH edges), so the walk probe certifies the negatives;
    the positive chains answer through the same bounded path.
    """
    graph = DbGraph()
    queries = []
    for gadget_id in range(3):
        x, y = parity_gadget_into(graph, gadget_id, WIDTH)
        queries.append((HARD, x, y))
    for gadget_id in range(3):
        previous = (gadget_id, "p", 0)
        for i in range(1, 7):
            current = (gadget_id, "p", i)
            graph.add_edge(previous, "a", current)
            previous = current
        queries.append((HARD, (gadget_id, "p", 0), (gadget_id, "p", 6)))
    return graph, queries, WIDTH - 1


def probabilistic_gadget():
    """Odd a-cycle with padding: accepting walk, no simple path.

    The ``(aa)*`` walk 0-1-2-3-1-2-4 (6 edges) revisits vertices; the
    only simple route 0-1-2-4 is odd.  Padding vertices raise the
    simple-path cap to 6 so the walk probe cannot certify, and both
    randomized rungs run to completion.
    """
    graph = DbGraph()
    for u, l, v in [
        (0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 1), (2, "a", 4),
    ]:
        graph.add_edge(u, l, v)
    graph.add_vertex(5)
    graph.add_vertex(6)
    return graph


def _engine(graph, portfolio):
    # Result cache off so repetitions re-solve; queries are answered
    # one engine.query call at a time (_answer_each), so the timing
    # isolates the solver path.
    return QueryEngine(graph, result_cache_size=0, portfolio=portfolio)


def _answer_each(engine, queries, bound):
    """Each query's :class:`EngineResult`, one ``engine.query`` call
    at a time (no plan-group sweep runs)."""
    return [
        engine.query(regex, source, target, max_path_edges=bound)
        for regex, source, target in queries
    ]


def _exact_only(exact, view, queries, bound):
    """Each query's found flag from exact search alone: the shortest
    simple path, dropped when it overshoots the bound."""
    found = []
    for _regex, source, target in queries:
        path = exact.shortest_simple_path(view, source, target)
        found.append(path is not None and len(path) <= bound)
    return found


def _timed(answer, *args):
    def run():
        results = None
        for _ in range(REPS):
            results = answer(*args)
        return results

    return measure_seconds(run)


def test_portfolio_matches_exact_on_both_families(bounded_workload):
    graph, queries, bound = bounded_workload
    exact = ExactSolver(language(HARD))
    routed = _engine(graph, portfolio=True)
    correct = 0
    for (_regex, x, y), result in zip(
        queries, _answer_each(routed, queries, bound)
    ):
        truth = exact.shortest_simple_path(graph, x, y)
        if truth is not None and len(truth) > bound:
            truth = None
        correct += result.found == (truth is not None)
        assert result.confidence == CONFIDENCE_CERTIFIED, (x, y)
    success_rate = correct / len(queries)
    record_metric("portfolio", "bounded_success_rate", success_rate)
    assert success_rate >= 0.999


def test_bounded_hard_negatives_speedup(bounded_workload):
    graph, queries, bound = bounded_workload
    exact = ExactSolver(language(HARD))
    view = IndexedGraph(graph)
    routed = _engine(graph, portfolio=True)
    # Warm the plan cache so the measurement is solve-only.
    _answer_each(routed, queries, bound)
    classic_seconds, classic_found = _timed(
        _exact_only, exact, view, queries, bound
    )
    portfolio_seconds, portfolio_results = _timed(
        _answer_each, routed, queries, bound
    )
    assert classic_found == [r.found for r in portfolio_results]
    speedup = classic_seconds / portfolio_seconds
    record_metric(
        "portfolio", "exact_only_seconds", round(classic_seconds, 6)
    )
    record_metric(
        "portfolio", "portfolio_seconds", round(portfolio_seconds, 6)
    )
    record_metric("portfolio", "portfolio_speedup", round(speedup, 3))
    assert speedup >= 5.0, (
        "expected >= 5x over exact-only search, got %.1fx "
        "(portfolio %.4fs, exact %.4fs)"
        % (speedup, portfolio_seconds, classic_seconds)
    )


def test_probabilistic_rungs_serve_unbounded_negatives():
    graph = probabilistic_gadget()
    engine = QueryEngine(graph, portfolio=True, result_cache_size=0)
    result = engine.query(HARD, 0, 4)
    assert not result.found
    assert result.confidence == CONFIDENCE_PROBABILISTIC
    # Color rung complete and algebraic negative: δ² combined bound.
    assert result.failure_bound == pytest.approx(1e-6)
    truth = ExactSolver(language(HARD)).shortest_simple_path(graph, 0, 4)
    assert truth is None  # the probabilistic answer is also correct
    record_metric(
        "portfolio", "probabilistic_failure_bound", result.failure_bound
    )


def test_bounded_batch_portfolio(benchmark, bounded_workload):
    graph, queries, bound = bounded_workload
    engine = _engine(graph, portfolio=True)
    _answer_each(engine, queries, bound)  # warm plans
    results = benchmark(_answer_each, engine, queries, bound)
    assert sum(result.found for result in results) == 3


def test_bounded_batch_exact_only(benchmark, bounded_workload):
    graph, queries, bound = bounded_workload
    found = benchmark(
        _exact_only, ExactSolver(language(HARD)), IndexedGraph(graph),
        queries, bound,
    )
    assert sum(found) == 3
