"""Randomized negatives miss no more often than their failure bound.

The gadget: ``(aa)*`` on the edges s→s, s→t and s→x→y→z→t, every one
labelled ``a``.  The shortest accepting walk s-s-t repeats s, so the
walk check cannot decide the query, and the only answer is the 4-edge
simple path s-x-y-z-t.  Every randomized NOT_FOUND on it is a miss.

Each rung is calibrated to a one-sided error bound δ, and the ladder
reports δ² when both rungs miss (they draw independent streams).  At a
large δ over many seeds the miss counts are binomial, so each is held
to the binomial's upper quantile at :data:`ALPHA` rather than to a raw
``misses / seeds <= δ``: colour coding's trial count is calibrated
close to δ, and a raw comparison would fail about half the time.
"""

import math

import pytest

from repro.algorithms.algebraic import AlgebraicSolver
from repro.algorithms.color_coding import ColorCodingSolver
from repro.engine import CONFIDENCE_PROBABILISTIC, IndexedGraph, QueryEngine
from repro.graphs.dbgraph import DbGraph
from repro.languages import language

HARD = "(aa)*"
DELTA = 0.3
SEEDS = range(400)
#: Chance that one assertion rejects a bound that holds.
ALPHA = 1e-6
#: Edges of the only simple answer.
ANSWER_EDGES = 4


def binomial_upper_quantile(n, p, alpha=ALPHA):
    """The smallest m with P(Bin(n, p) > m) <= alpha."""
    tail = 0.0  # P(X > m) for the m of the loop
    for m in range(n, -1, -1):
        at_least_m = tail + math.comb(n, m) * p ** m * (1 - p) ** (n - m)
        if at_least_m > alpha:
            return m
        tail = at_least_m
    return 0


def gadget():
    graph = DbGraph()
    for source, target in [
        ("s", "s"), ("s", "t"), ("s", "x"), ("x", "y"), ("y", "z"),
        ("z", "t"),
    ]:
        graph.add_edge(source, "a", target)
    return graph


def test_quantile_matches_the_binomial():
    # Bin(4, 1/2): P(X > 3) = 1/16, P(X > 2) = 5/16.
    assert binomial_upper_quantile(4, 0.5, alpha=0.1) == 3
    assert binomial_upper_quantile(4, 0.5, alpha=0.5) == 2
    assert binomial_upper_quantile(400, DELTA) < 400 * DELTA * 1.5


def test_color_coding_rung_misses_within_its_bound():
    view = IndexedGraph(gadget())
    lang = language(HARD)
    misses = sum(
        ColorCodingSolver(
            lang, seed=seed, failure_probability=DELTA
        ).bounded_simple_path(view, "s", "t", ANSWER_EDGES) is None
        for seed in SEEDS
    )
    assert misses <= binomial_upper_quantile(len(SEEDS), DELTA), misses


def test_algebraic_rung_misses_within_its_bound():
    view = IndexedGraph(gadget())
    lang = language(HARD)
    misses = sum(
        not AlgebraicSolver(
            lang, seed=seed, failure_probability=DELTA
        ).exists(view, "s", "t", ANSWER_EDGES)
        for seed in SEEDS
    )
    assert misses <= binomial_upper_quantile(len(SEEDS), DELTA), misses


def test_ladder_misses_within_its_reported_bound():
    graph = gadget()
    misses = 0
    for seed in SEEDS:
        result = QueryEngine(
            graph, portfolio=True, portfolio_seed=seed,
            portfolio_failure_probability=DELTA,
        ).query(HARD, "s", "t")
        # The walk repeats s: only the middle rungs or the exact
        # search can conclude.
        assert result.strategy != "portfolio:walk-probe", seed
        if result.found:
            assert result.length == ANSWER_EDGES
            continue
        misses += 1
        assert result.confidence == CONFIDENCE_PROBABILISTIC
        assert result.failure_bound == pytest.approx(DELTA ** 2)
    assert misses <= binomial_upper_quantile(len(SEEDS), DELTA ** 2), misses
