"""Concurrency properties of the engine: shared frozen plans, pooled
batches, single-flight compilation, per-query context isolation.

Two core properties:

* ``engine.query`` called from many threads at once is
  **observationally identical** to serial execution — same paths, same
  strategies, same per-query step counters (which would differ if two
  queries ever bled counters through a shared solver) — and compiles
  each language exactly once;
* a batch on a :class:`~repro.service.workers.WorkerPool`, the one
  multi-core batch path, matches the in-process ``run_batch`` path for
  path, in input order, with failures isolated per query.
"""

import threading

import pytest

from benchmarks.workloads import (
    MIXED_LANGUAGES,
    distinct_languages,
    mixed_workload,
)

from repro.engine import QueryEngine
from repro.errors import GraphError, ReproError
from repro.service import save_snapshot
from repro.service.workers import WorkerPool

from tests.conftest import per_query

WORKERS = 4

#: Pool size for the pooled-batch tests (two processes are enough to
#: split every batch; more would only cost start-up time).
POOL_WORKERS = 2


@pytest.fixture(scope="module")
def workload():
    """Mixed-regime workload with a hot language on every 2nd query."""
    return mixed_workload(
        num_queries=60,
        seed=5,
        num_vertices=24,
        num_edges=70,
        hot_language="a*(bb^+ + eps)c*",
        hot_every=2,
    )


@pytest.fixture(scope="module")
def pool(workload, tmp_path_factory):
    graph, _queries = workload
    path = str(tmp_path_factory.mktemp("pool") / "graph.snap")
    save_snapshot(graph, path)
    with WorkerPool(path, workers=POOL_WORKERS) as running:
        yield running


def run_threaded(engine, queries, workers=WORKERS):
    """``engine.query`` over ``queries`` from ``workers`` threads at once.

    Strided shards released together by a barrier; returns the results
    in input order, with the raised :class:`ReproError` in place of a
    failed query's result.
    """
    results = [None] * len(queries)
    barrier = threading.Barrier(workers)

    def shard(offset):
        barrier.wait(timeout=10)
        for index in range(offset, len(queries), workers):
            try:
                results[index] = engine.query(*queries[index])
            except ReproError as err:
                results[index] = err

    threads = [
        threading.Thread(target=shard, args=(offset,))
        for offset in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    return results


class TestParallelMatchesSerial:
    def test_paths_strategies_and_steps_identical(self, workload):
        graph, queries = workload
        serial = per_query(QueryEngine(graph), queries)
        threaded = run_threaded(QueryEngine(graph), queries)
        assert len(threaded) == len(queries)
        for reference, result in zip(serial, threaded):
            assert result.found == reference.found
            assert result.path == reference.path
            assert result.strategy == reference.strategy
            # Step counters are deterministic per query; equality means
            # no cross-query counter bleed through the shared plans.
            assert result.stats.steps == reference.stats.steps

    def test_process_mode_identical(self, workload, pool):
        # Answers only: each worker groups its own shard, so steps come
        # from that worker's sweeps and caches.
        graph, queries = workload
        serial = per_query(QueryEngine(graph), queries)
        pooled = pool.run_batch(queries)
        assert pooled.workers == POOL_WORKERS
        for reference, result in zip(serial, pooled.results):
            assert result.found == reference.found
            assert result.path == reference.path
            assert result.strategy == reference.strategy

    def test_results_keep_input_order(self, workload, pool):
        _graph, queries = workload
        batch = pool.run_batch(queries)
        assert [
            (result.language, result.source, result.target)
            for result in batch.results
        ] == queries


class TestSingleFlightCompilation:
    def test_distinct_languages_compiled_exactly_once(self, workload):
        graph, queries = workload
        engine = QueryEngine(graph)
        run_threaded(engine, queries)
        stats = engine.cache_stats()
        assert stats.inserts == len(distinct_languages(queries))
        assert stats.evictions == 0

    def test_hot_language_contention(self, workload):
        graph, _queries = workload
        vertices = list(graph.vertices())
        # Every thread hammers the same cold language at the same time.
        queries = [
            ("a*(bb^+ + eps)c*", vertices[i % len(vertices)],
             vertices[(i + 7) % len(vertices)])
            for i in range(40)
        ]
        engine = QueryEngine(graph)
        results = run_threaded(engine, queries)
        assert engine.cache_stats().inserts == 1
        assert not any(isinstance(result, ReproError) for result in results)

    def test_stats_sanity(self, workload):
        graph, queries = workload
        engine = QueryEngine(graph)
        results = run_threaded(engine, queries)
        stats = engine.cache_stats()
        assert stats.lookups == stats.hits + stats.misses
        assert stats.hits + stats.inserts >= len(queries)
        assert not any(isinstance(result, ReproError) for result in results)
        assert all(result.stats.seconds >= 0 for result in results)

    def test_concurrent_query_calls_share_one_plan(self, workload):
        """Raw engine.query from many threads: one compile, no errors."""
        graph, _queries = workload
        engine = QueryEngine(graph)
        vertices = list(graph.vertices())
        errors = []
        barrier = threading.Barrier(WORKERS)

        def hammer(offset):
            try:
                barrier.wait(timeout=10)
                for i in range(10):
                    engine.query(
                        "b*c*",
                        vertices[(offset + i) % len(vertices)],
                        vertices[(offset + 3 * i + 1) % len(vertices)],
                    )
            except Exception as err:  # pragma: no cover - failure path
                errors.append(err)

        threads = [
            threading.Thread(target=hammer, args=(offset,))
            for offset in range(WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert engine.cache_stats().inserts == 1


class TestParallelErrorIsolation:
    def test_bad_queries_isolated_across_workers(self, workload, pool):
        graph, queries = workload
        poisoned = list(queries)
        poisoned[3] = ("a*", "missing-vertex", poisoned[3][2])
        poisoned[17] = ("((((", poisoned[17][1], poisoned[17][2])
        serial = QueryEngine(graph).run_batch(poisoned)
        pooled = pool.run_batch(poisoned)
        assert pooled.error_count == serial.error_count == 2
        for reference, result in zip(serial.results, pooled.results):
            assert result.error == reference.error
            assert result.path == reference.path

    def test_single_query_api_still_raises_in_parallel_engine(
        self, workload
    ):
        graph, queries = workload
        engine = QueryEngine(graph)
        run_threaded(engine, queries[:8])  # engine has served threads
        with pytest.raises(GraphError):
            engine.query("a*", "nope", 1)


class TestRunBatchArguments:
    def test_rejects_zero_workers(self, workload, pool):
        _graph, queries = workload
        with pytest.raises(ValueError):
            pool.run_batch(queries, workers=0)
        with pytest.raises(ValueError):
            WorkerPool(pool.snapshot_path, workers=0)

    def test_workers_clamped_to_queries(self, pool):
        batch = pool.run_batch([("a*", 0, 1)], workers=WORKERS)
        assert batch.workers == 1
        assert len(batch) == 1

    def test_empty_batch(self, workload, pool):
        graph, _queries = workload
        for batch in (QueryEngine(graph).run_batch([]), pool.run_batch([])):
            assert len(batch) == 0
            assert batch.cache_stats.inserts == 0

    def test_workload_generator_is_deterministic(self):
        first = mixed_workload(num_queries=20, seed=9)
        second = mixed_workload(num_queries=20, seed=9)
        assert first[1] == second[1]
        assert list(first[0].edges()) == list(second[0].edges())
        assert distinct_languages(first[1]) <= set(MIXED_LANGUAGES)
