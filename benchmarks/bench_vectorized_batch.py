"""Vectorized batch execution vs answering each query on its own.

The workload is the shape the vectorized engine was built for — *few
plans, many endpoint pairs*: every query shares one ``a*ba*`` plan
over distinct endpoints of a random ``a``-expander whose only ``b``
edges dead-end in a sink (:func:`benchmarks.workloads.
sweep_skewed_workload`).  The reachability index cannot short-circuit
these queries (endpoints are label-closure reachable) and the result
cache never fires (pairs are distinct), so ``engine.query`` must pay
one full product search per query — while ``run_batch``
decides the whole group at once, proving almost every query NOT_FOUND:
by one shared BFS sweep over the CSR arrays while the plan is cold,
then, once those sweeps have paid for it, by one lookup per query in
the plan's walk certificate (:mod:`repro.engine.vectorized`).

Asserted shape (the ISSUE-7 acceptance criteria):

* batch answers are **identical** to ``engine.query`` answers, query
  for query;
* nearly the whole batch is decided by sweeps (counters prove the
  fast path actually ran — a silent fallback cannot pass);
* on the full profile, the batch beats answering the same queries one
  ``engine.query`` call at a time by **≥ 5×** wall-clock; the
  ``vectorized_speedup`` ratio metric lands in the JSON artifact and
  is gated by ``check_perf_regression.py``;
* ``vectorized_cold_speedup`` (also gated) divides the same per-query
  time by the first vectorized batch of a fresh engine (plan compiled
  beforehand), so a certificate build landing on a one-off batch
  would show there.
"""

import pytest

from benchmarks.conftest import (
    measure_seconds,
    record_metric,
    scaled,
    skip_if_smoke,
)
from benchmarks.workloads import sweep_skewed_workload

from repro.engine import QueryEngine

NUM_PAIRS = scaled(400, 60)
NUM_VERTICES = scaled(400, 60)

#: The full-profile wall-clock bar (measured ~8× on one core).
MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def workload():
    return sweep_skewed_workload(
        num_pairs=NUM_PAIRS, num_vertices=NUM_VERTICES, seed=29
    )


def _per_query(engine, queries):
    """``queries`` answered one ``engine.query`` call at a time."""
    return [engine.query(*query) for query in queries]


def _assert_identical(reference, batch):
    assert len(reference) == len(batch)
    for ref, res in zip(reference, batch.results):
        key = (str(ref.language), ref.source, ref.target)
        assert res.found == ref.found, key
        assert res.path == ref.path, key
        assert res.strategy == ref.strategy, key
        assert res.error == ref.error, key


def test_vectorized_matches_the_per_query_path(workload):
    graph, queries = workload
    per_query = _per_query(QueryEngine(graph), queries)
    vectorized = QueryEngine(graph).run_batch(queries)
    _assert_identical(per_query, vectorized)


def test_sweeps_decide_the_workload(workload):
    """The counters prove the fast path ran — no silent fallback."""
    graph, queries = workload
    batch = QueryEngine(graph).run_batch(queries)
    stats = batch.stats
    assert stats.sweeps >= 1
    assert stats.grouped_queries == len(queries)
    # The workload is adversarial for the other shortcuts: the sweep,
    # not the index or the cache, must carry the batch.
    assert stats.peeled_cache_hits == 0
    assert stats.swept_negatives >= 0.8 * len(queries)


def test_vectorized_speedup_over_per_query_path(workload):
    """≥ 5× over one ``engine.query`` call per query on the skewed
    batch."""
    graph, queries = workload
    # No result cache: the best-of-two reruns must re-solve, not
    # replay (pairs are already distinct within one run).
    baseline_engine = QueryEngine(graph, result_cache_size=0)
    vectorized_engine = QueryEngine(graph, result_cache_size=0)
    # Best of two runs each: one noisy scheduling hiccup must not
    # decide a wall-clock comparison.
    baseline_seconds, baseline_results = min(
        (measure_seconds(_per_query, baseline_engine, queries)
         for _ in range(2)),
        key=lambda pair: pair[0],
    )
    vectorized_seconds, vectorized_batch = min(
        (measure_seconds(vectorized_engine.run_batch, queries)
         for _ in range(2)),
        key=lambda pair: pair[0],
    )
    _assert_identical(baseline_results, vectorized_batch)
    speedup = baseline_seconds / vectorized_seconds
    cold_engine = QueryEngine(graph, result_cache_size=0)
    cold_engine.plan_for(queries[0][0])
    cold_seconds, cold_batch = measure_seconds(cold_engine.run_batch, queries)
    _assert_identical(baseline_results, cold_batch)
    record_metric(
        "vectorized_batch", "baseline_seconds",
        round(baseline_seconds, 6),
    )
    record_metric(
        "vectorized_batch", "vectorized_seconds",
        round(vectorized_seconds, 6),
    )
    record_metric(
        "vectorized_batch", "vectorized_speedup", round(speedup, 3)
    )
    record_metric(
        "vectorized_batch", "vectorized_cold_speedup",
        round(baseline_seconds / cold_seconds, 3),
    )
    record_metric("vectorized_batch", "num_pairs", len(queries))
    record_metric(
        "vectorized_batch", "swept_negatives",
        vectorized_batch.stats.swept_negatives,
    )
    # Metrics land in the artifact even under smoke — the perf gate
    # tracks the ratio trajectory; the hard bar only binds on full.
    skip_if_smoke("vectorized wall-clock speedup")
    assert speedup >= MIN_SPEEDUP, (
        "expected >=%.1fx over the per-query path, got %.2fx "
        "(baseline %.3fs, vectorized %.3fs)"
        % (MIN_SPEEDUP, speedup, baseline_seconds, vectorized_seconds)
    )


def test_vectorized_batch(benchmark, workload):
    graph, queries = workload
    engine = QueryEngine(graph, result_cache_size=0)
    engine.run_batch(queries)  # warm the plan cache
    batch = benchmark(engine.run_batch, queries)
    assert batch.stats.sweeps >= 1


def test_per_query_baseline(benchmark, workload):
    graph, queries = workload
    engine = QueryEngine(graph, result_cache_size=0)
    _per_query(engine, queries)  # warm the plan cache
    results = benchmark(_per_query, engine, queries)
    assert not any(result.stats.vectorized for result in results)
