"""Service tier: snapshot warm-start + live-server differential load.

Two claims of the serving layer (the ISSUE-3 acceptance criteria):

* **Warm-start beats recompiling.**  Loading a persisted compiled
  graph (:func:`repro.service.load_snapshot`) must be measurably
  faster than compiling the same :class:`IndexedGraph` from its
  ``DbGraph`` — the snapshot stores the compiled arrays themselves,
  so a load is pure array copies.  Asserted best-of-5 with a 1.2×
  gap.
* **The service changes no answers.**  A load-generator run against a
  live ``repro serve`` instance (real sockets, JSON codec, admission
  control, thread-pool dispatch) must return results **path-for-path
  identical** to direct :func:`solve_rspq` calls — for a compiled
  registration and for a snapshot warm-started one alike.
* **Pre-fork serving scales past the GIL.**  A
  :class:`~repro.service.WorkerPool` of N processes attached to one
  shared snapshot must lift batch throughput with N (``≥2.5×`` at 4
  workers, asserted only on machines that actually have 4 cores) while
  per-worker RSS stays near-flat — the mmapped graph is shared, not
  copied.  ``scaling_efficiency`` (= throughput(4) / throughput(1) / 4)
  lands in ``BENCH_service.json`` and is gated by
  ``check_perf_regression.py``.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import (
    measure_seconds,
    record_metric,
    scaled,
    skip_if_smoke,
)
from benchmarks.workloads import mixed_workload, random_regexes

from repro.core.solver import STRATEGY_EXACT, RspqSolver
from repro.engine import IndexedGraph
from repro.graphs.generators import random_labeled_graph
from repro.service import (
    GraphRegistry,
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    load_snapshot,
    run_load,
    save_snapshot,
    verify_against_direct,
)

#: Graph size for the warm-start measurement (big enough that the
#: compile pass's sorting dominates noise).
NUM_VERTICES = scaled(1500, 60)
NUM_EDGES = scaled(6000, 180)

#: Load-generator workload against the live server.
NUM_QUERIES = scaled(120, 24)


@pytest.fixture(scope="module")
def big_graph():
    return random_labeled_graph(NUM_VERTICES, NUM_EDGES, "abc", seed=7)


@pytest.fixture(scope="module")
def workload():
    graph, queries = mixed_workload(
        num_queries=NUM_QUERIES, seed=31, num_vertices=40, num_edges=130
    )
    # Widen beyond the curated rotation: seeded random regexes over the
    # same alphabet, endpoints reused from the seeded queries.  Only
    # polynomial strategies are admitted at this graph size — random
    # exact-strategy languages get their differential coverage on the
    # small graphs of tests/test_hypothesis_solvers.py, where the
    # exponential oracle is affordable (the curated HARD_LANGUAGES in
    # the mixed workload keep the exact path exercised here).
    wanted = scaled(16, 6)
    extras = []
    for regex in random_regexes(4 * wanted, seed=77, max_depth=2):
        if RspqSolver(regex).strategy == STRATEGY_EXACT:
            continue
        index = len(extras)
        extras.append((
            regex,
            queries[index % len(queries)][1],
            queries[index % len(queries)][2],
        ))
        if len(extras) == wanted:
            break
    assert len(extras) == wanted
    return graph, queries + extras


def test_snapshot_roundtrip_is_exact(tmp_path, big_graph):
    indexed = IndexedGraph(big_graph)
    path = str(tmp_path / "big.snap")
    save_snapshot(indexed, path)
    thawed = load_snapshot(path)
    assert list(thawed.vertices()) == list(indexed.vertices())
    assert list(thawed.to_dbgraph().edges()) == list(big_graph.edges())
    for vertex_id in range(indexed.num_vertices):
        assert thawed.out(vertex_id) == indexed.out(vertex_id)
        assert thawed.in_pairs(vertex_id) == indexed.in_pairs(vertex_id)
    assert thawed.num_edges == indexed.num_edges
    assert thawed.labels() == indexed.labels()


def test_snapshot_warm_start_faster_than_recompile(tmp_path, big_graph):
    indexed = IndexedGraph(big_graph)
    path = str(tmp_path / "big.snap")
    save_snapshot(indexed, path)
    compile_seconds = min(
        measure_seconds(IndexedGraph, big_graph)[0] for _ in range(5)
    )
    load_seconds = min(
        measure_seconds(load_snapshot, path)[0] for _ in range(5)
    )
    record_metric("service", "compile_seconds", round(compile_seconds, 6))
    record_metric("service", "thaw_seconds", round(load_seconds, 6))
    record_metric(
        "service", "thaw_speedup", round(compile_seconds / load_seconds, 3)
    )
    skip_if_smoke("warm-start timing comparison")
    assert load_seconds * 1.2 < compile_seconds, (
        "snapshot load (%.4fs) should beat recompilation (%.4fs) by "
        ">=1.2x" % (load_seconds, compile_seconds)
    )


#: Pool-scaling workload: enough per-batch solver work that the fork
#: and pipe overheads amortise away.
POOL_QUERIES = scaled(320, 32)
POOL_WORKER_STEPS = (1, 2, 4)


def _pool_workload(graph, count):
    """Polynomial-strategy queries spread over the big graph."""
    import random

    rng = random.Random(5)
    vertices = list(graph.vertices())
    rotation = ["a*bc*", "a*(bb^+ + eps)c*", "ab + ba", "(ab)^+", "c*a*"]
    return [
        (
            rotation[index % len(rotation)],
            rng.choice(vertices),
            rng.choice(vertices),
        )
        for index in range(count)
    ]


def test_worker_pool_scaling(tmp_path, big_graph):
    from repro.engine import QueryEngine
    from repro.service import WorkerPool

    indexed = IndexedGraph(big_graph)
    path = str(tmp_path / "pool.snap")
    save_snapshot(indexed, path)
    queries = _pool_workload(big_graph, POOL_QUERIES)
    # The result cache is off so repeated languages are re-solved: the
    # measurement is solver throughput, not cache replay.
    engine_kwargs = {"result_cache_size": 0}
    expected = QueryEngine(indexed, result_cache_size=0).run_batch(queries)
    throughput = {}
    rss_mb = []
    for workers in POOL_WORKER_STEPS:
        with WorkerPool(path, engine_kwargs=engine_kwargs,
                        workers=workers) as pool:
            pool.run_batch(queries[:8])  # warm plans
            # Best-of-3: one slow scheduler wakeup must not poison a
            # gated ratio (1-core smoke runs sit entirely in overhead).
            seconds = float("inf")
            for _ in range(3):
                run_seconds, batch = measure_seconds(
                    pool.run_batch, queries
                )
                seconds = min(seconds, run_seconds)
            throughput[workers] = len(queries) / seconds
            if workers == max(POOL_WORKER_STEPS):
                for served, direct in zip(batch.results, expected.results):
                    assert served.found == direct.found
                    assert served.path == direct.path
                rss_mb = [
                    block["rss_mb"]
                    for block in pool.stats()["per_worker"]
                    if block["rss_mb"] is not None
                ]
    scaling = throughput[4] / throughput[1]
    record_metric(
        "service", "pool_queries_per_second_1worker",
        round(throughput[1], 1),
    )
    record_metric(
        "service", "pool_queries_per_second_4workers",
        round(throughput[4], 1),
    )
    record_metric("service", "worker_scaling_ratio", round(scaling, 3))
    record_metric(
        "service", "scaling_efficiency", round(scaling / 4, 3)
    )
    if rss_mb:
        record_metric("service", "worker_rss_mb", round(max(rss_mb), 1))
    skip_if_smoke("multi-process scaling timing")
    if len(os.sched_getaffinity(0)) < 4:
        pytest.skip(
            "scaling assertion needs >= 4 cores (this runner has %d)"
            % len(os.sched_getaffinity(0))
        )
    assert scaling >= 2.5, (
        "4 pool workers should lift throughput >= 2.5x over 1 "
        "(got %.2fx: %s)" % (scaling, throughput)
    )


def test_live_server_matches_direct_solver(workload):
    graph, queries = workload
    registry = GraphRegistry()
    registry.register("bench", graph)
    service = QueryService(
        registry, ServiceConfig(workers=4, max_inflight=256)
    )
    with ServiceThread(service) as running:
        client = ServiceClient(port=running.port)
        records = run_load(
            client, queries, graph="bench", batch_size=32, workers=4
        )
        stats = client.stats()
    assert len(records) == len(queries)
    mismatches = verify_against_direct(graph, queries, records)
    assert mismatches == [], mismatches[:5]
    (graph_stats,) = stats["graphs"]
    assert graph_stats["queries"] == len(queries)
    assert stats["service"]["rejected"] == 0


def test_snapshot_warm_started_server_matches_direct_solver(
    tmp_path, workload
):
    graph, queries = workload
    path = str(tmp_path / "serve.snap")
    save_snapshot(IndexedGraph(graph), path)
    registry = GraphRegistry()
    entry = registry.register_snapshot("warm", path)
    assert entry.stats.source == "snapshot"
    service = QueryService(
        registry, ServiceConfig(workers=2, max_inflight=256)
    )
    with ServiceThread(service) as running:
        client = ServiceClient(port=running.port)
        records = run_load(client, queries, graph="warm", batch_size=32)
    mismatches = verify_against_direct(graph, queries, records)
    assert mismatches == [], mismatches[:5]
