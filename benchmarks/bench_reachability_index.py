"""Reachability index + result cache (ISSUE-5 tentpole).

Two serving-shaped workloads against one engine stack, answers asserted
identical (including the short-circuit flags) before any clock starts:

* **negative-heavy** — two regions with only back-edges between them:
  most queries ask for a path the graph cannot have.  Without the
  index each such query needs a product-graph BFS over thousands of
  vertices just to say "no"; the baseline times that search as one
  :func:`repro.core.product.walk_check` per query (the check
  ``RspqSolver.solve`` runs before searching an infinite L).  With the
  index, the engine short-circuits in O(1) after the one-off SCC
  condensation.  The acceptance bar is ≥5×.

* **repeated-query** — a small distinct query set replayed many times,
  the signature of a hot serving workload.  With the result cache the
  replay is a dict hit; without it every repeat re-runs its solver.
  The acceptance bar is ≥2× end-to-end.

Wall-clock assertions skip under ``REPRO_BENCH_PROFILE=smoke``; the
correctness assertions (identical answers, the short-circuit and
cache-hit flags actually firing) always run.  Ratios land in
``BENCH_reachability_index.json`` and are guarded against regression
by ``benchmarks/check_perf_regression.py`` in CI.
"""

import gc
import random
import time

from benchmarks.conftest import record_metric, scaled, skip_if_smoke

import pytest

from repro.core.product import walk_check
from repro.engine import QueryEngine
from repro.graphs.dbgraph import DbGraph

#: Vertices per region; the negative-query cost without the index
#: scales with this while the short-circuit stays O(1).
REGION_SIZE = scaled(1500, 40)
#: Extra random intra-region edges per region.
REGION_EXTRA = scaled(3000, 80)
#: Distinct negative source/target pairs.
NEGATIVE_PAIRS = scaled(30, 6)
#: Distinct queries and replay count of the repeated-query workload.
DISTINCT_QUERIES = scaled(12, 4)
REPLAYS = scaled(25, 4)
#: Timed repetitions per side (min is reported).
REPS = scaled(3, 1)

#: Languages spanning all three trichotomy regimes (negative side —
#: the exact solver never searches there, its goal BFS proves "no").
LANGUAGES = ["ab + ba", "a*", "a*ba*", "(aa)*"]

#: Positive-workload languages: polynomial strategies only (a positive
#: exact-strategy search over a large SCC is exponential by design and
#: would measure the solver, not the cache).
POSITIVE_LANGUAGES = ["ab + ba", "a*", "a*b*", "a*(b + eps)a*b*"]


def _region(graph, offset, size, rng):
    """A strongly-connected-ish region: a cycle plus random chords."""
    vertices = list(range(offset, offset + size))
    for index, vertex in enumerate(vertices):
        graph.add_edge(
            vertex, "a", vertices[(index + 1) % size]
        )
    for _ in range(REGION_EXTRA):
        source = rng.choice(vertices)
        target = rng.choice(vertices)
        graph.add_edge(source, rng.choice("ab"), target)
    return vertices


@pytest.fixture(scope="module")
def two_region_graph():
    """Region B reaches region A, never the other way around."""
    rng = random.Random(91)
    graph = DbGraph()
    region_a = _region(graph, 0, REGION_SIZE, rng)
    region_b = _region(graph, REGION_SIZE, REGION_SIZE, rng)
    for _ in range(8):
        graph.add_edge(rng.choice(region_b), "b", rng.choice(region_a))
    return graph, region_a, region_b


def _measure(fn):
    # Collector off while timing, as timeit does: a smoke-profile run
    # is tens of microseconds, so a collection triggered by garbage
    # other benches left behind would otherwise decide the ratio.
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _assert_identical(reference, candidate):
    for expected, got in zip(reference, candidate):
        assert got.found == expected.found
        if expected.path is None:
            assert got.path is None
        else:
            assert got.path.vertices == expected.path.vertices
            assert got.path.word == expected.path.word


def test_negative_heavy_workload_short_circuits_at_least_5x(
    two_region_graph,
):
    graph, region_a, region_b = two_region_graph
    rng = random.Random(23)
    queries = [
        (rng.choice(LANGUAGES), rng.choice(region_a), rng.choice(region_b))
        for _ in range(NEGATIVE_PAIRS)
    ]

    # Result cache off: this isolates the index effect (otherwise the
    # cache would also absorb the engine's repeats).
    indexed = QueryEngine(graph, result_cache_size=0)
    # The baseline: the search that decides these negatives without
    # the index, one walk check per query on the plan's minimal DFA
    # with the simple-path cap |V| - 1.
    view = indexed.view
    cap = view.num_vertices - 1
    checks = [
        (
            indexed.plan_for(language)[0].language.dfa,
            view.vertex_id(source),
            view.vertex_id(target),
        )
        for language, source, target in queries
    ]

    def run_indexed():
        return [
            indexed.query(language, source, target)
            for language, source, target in queries
        ]

    def run_walk_checks():
        return [
            walk_check(dfa, view, source_id, target_id, cap)
            for dfa, source_id, target_id in checks
        ]

    indexed_results = run_indexed()        # warm plans + index closures
    baseline_results = run_walk_checks()
    # Identical answers: the walk check decides every query NOT_FOUND,
    # and the index proves each one without a search.
    assert all(
        decided and path is None
        for decided, path, _edges in baseline_results
    )
    assert all(not result.found for result in indexed_results)
    assert all(
        result.stats.short_circuit for result in indexed_results
    )

    indexed_seconds = min(
        _measure(run_indexed) for _ in range(REPS)
    )
    baseline_seconds = min(
        _measure(run_walk_checks) for _ in range(REPS)
    )
    speedup = (
        baseline_seconds / indexed_seconds
        if indexed_seconds
        else float("inf")
    )
    record_metric(
        "reachability_index", "negative_baseline_seconds",
        round(baseline_seconds, 6),
    )
    record_metric(
        "reachability_index", "negative_indexed_seconds",
        round(indexed_seconds, 6),
    )
    record_metric(
        "reachability_index", "negative_speedup", round(speedup, 3)
    )
    skip_if_smoke()
    # The acceptance bar: provably-negative queries at least 5x faster
    # through the short-circuit (measured far higher on full profile).
    assert speedup >= 5.0, (baseline_seconds, indexed_seconds)


def test_repeated_query_workload_result_cache_at_least_2x():
    from repro.graphs.generators import random_labeled_graph

    # A serving-sized sparse graph: each distinct query costs real
    # solver work (≈ms), each replay should cost a dict hit.
    graph = random_labeled_graph(
        scaled(400, 40), scaled(900, 90), "ab", seed=7
    )
    vertices = list(graph.vertices())
    rng = random.Random(47)
    distinct = [
        (
            rng.choice(POSITIVE_LANGUAGES),
            rng.choice(vertices),
            rng.choice(vertices),
        )
        for _ in range(DISTINCT_QUERIES)
    ]
    workload = [
        distinct[index % len(distinct)]
        for index in range(DISTINCT_QUERIES * REPLAYS)
    ]

    cached = QueryEngine(graph)
    uncached = QueryEngine(graph, result_cache_size=0)

    def run(engine):
        return [
            engine.query(language, source, target)
            for language, source, target in workload
        ]

    cached_results = run(cached)      # warm plans + populate the cache
    uncached_results = run(uncached)  # warm plans
    _assert_identical(uncached_results, cached_results)
    # Every replay after the first pass over the distinct set hits.
    hits = sum(
        1 for result in cached_results if result.stats.result_cache_hit
    )
    assert hits >= len(workload) - len(distinct)
    assert cached.result_cache_stats().hits == hits

    cached_seconds = min(
        _measure(lambda: run(cached)) for _ in range(REPS)
    )
    uncached_seconds = min(
        _measure(lambda: run(uncached)) for _ in range(REPS)
    )
    speedup = (
        uncached_seconds / cached_seconds
        if cached_seconds
        else float("inf")
    )
    record_metric(
        "reachability_index", "cache_uncached_seconds",
        round(uncached_seconds, 6),
    )
    record_metric(
        "reachability_index", "cache_cached_seconds",
        round(cached_seconds, 6),
    )
    record_metric(
        "reachability_index", "result_cache_speedup", round(speedup, 3)
    )
    skip_if_smoke()
    # The acceptance bar: a repeated-query serving workload at least
    # 2x faster end-to-end through the result cache.
    assert speedup >= 2.0, (uncached_seconds, cached_seconds)
