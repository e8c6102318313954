"""Pre-fork worker pool: differential answers, crashes, mmap lifecycle.

The pool's contract is *bit-identical serving*: every answer produced
by N forked workers attached to one shared snapshot must match, path
for path, what a single in-process :class:`QueryEngine` (and the raw
:func:`solve_rspq` library call) produces — including when overrides
tighten budgets or deadlines, and including across a mid-run worker
crash (queries are pure, so the retry on a respawned sibling is
invisible to the caller).

The mmap lifecycle tests pin POSIX semantics the serving design leans
on: deleting or replacing the snapshot file never disturbs already
attached workers (the old inode lives until the last mapping drops),
while *fresh* attaches see the new file or fail with a clean
:class:`SnapshotError`.
"""

import gc
import multiprocessing
import os
import threading
import time
import types
import weakref

import pytest

from benchmarks.workloads import mixed_workload

from repro.core.solver import solve_rspq
from repro.engine import IndexedGraph, QueryEngine
from repro.errors import (
    BudgetExceededError,
    GraphError,
    ReproError,
    ServiceError,
    SnapshotError,
    WorkerCrashError,
)
from repro.graphs.generators import labeled_cycle, random_labeled_graph
from repro.service import FaultPlan, GraphRegistry, faults, save_snapshot
from repro.service import workers as workers_module
from repro.service.workers import WorkerPool

from tests.conftest import per_query

QUERIES = [
    ("a*", 0, 1),
    ("a*(bb^+ + eps)c*", 0, 5),
    ("ab + ba", 2, 3),
    ("a*ba*", 4, 5),
    ("(ab)^+", 1, 4),
    ("c*a", 3, 0),
    ("a*", 0, 1),  # repeat: exercises the per-worker result cache
    ("b^+", 5, 2),
]


@pytest.fixture
def graph():
    return random_labeled_graph(25, 80, "abc", seed=3)


@pytest.fixture
def snap_path(tmp_path, graph):
    path = str(tmp_path / "graph.snap")
    save_snapshot(IndexedGraph(graph), path)
    return path


@pytest.fixture
def pool(snap_path):
    with WorkerPool(snap_path, workers=2) as running:
        yield running


def assert_results_identical(served, direct):
    assert served.found == direct.found
    assert served.strategy == direct.strategy
    assert served.confidence == direct.confidence
    assert served.error == direct.error
    if direct.path is None:
        assert served.path is None
    else:
        assert list(served.path.vertices) == list(direct.path.vertices)
        assert served.path.word == direct.path.word


def assert_serves_attached(entry):
    """``entry``'s engine serves from the mapping its pool attaches."""
    graph = entry.engine.graph
    assert graph._mapping is not None
    with open(entry.pool.snapshot_path, "rb") as handle:
        assert graph._mapping[:] == handle.read()
    for name in ("out_indptr", "out_targets", "in_indptr", "in_sources"):
        raw = getattr(graph, name)
        assert isinstance(raw, memoryview), name
        assert raw.obj is graph._mapping, name


class TestDifferential:
    def test_query_matches_engine_and_direct(self, pool, snap_path, graph):
        engine = QueryEngine(IndexedGraph(graph))
        for language, source, target in QUERIES:
            served = pool.query(language, source, target)
            assert_results_identical(
                served, engine.query(language, source, target)
            )
            direct = solve_rspq(language, graph, source, target)
            assert served.found == direct.found
            if direct.path is not None:
                assert list(served.path.vertices) == list(
                    direct.path.vertices
                )

    def test_graph_errors_reconstructed_by_class(self, pool):
        with pytest.raises(GraphError, match="unknown"):
            pool.query("a*", 999, 1)

    def test_batch_matches_engine_vectorized_and_serial(self, pool, graph):
        expected = QueryEngine(IndexedGraph(graph)).run_batch(QUERIES)
        reference = per_query(QueryEngine(IndexedGraph(graph)), QUERIES)
        batch = pool.run_batch(QUERIES)
        assert batch.workers == 2
        assert len(batch.results) == len(QUERIES)
        for served, direct, answered in zip(
            batch.results, expected.results, reference
        ):
            assert_results_identical(served, direct)
            assert_results_identical(served, answered)

    def test_batch_isolates_per_query_errors(self, pool, graph):
        queries = [("a*", 0, 1), ("a*", 999, 1)]
        batch = pool.run_batch(queries)
        expected = QueryEngine(IndexedGraph(graph)).run_batch(queries)
        assert batch.results[0].error is None
        assert batch.results[0].found == expected.results[0].found
        assert batch.results[1].error == expected.results[1].error

    def test_budget_override_matches_cold_engine(self, tmp_path):
        # Budget comparisons need matching cache states: a warm result
        # cache replays answers no fresh budgeted solve could reach, so
        # both sides run with the cache off.
        cycle = labeled_cycle("ababababa")
        path = str(tmp_path / "cycle.snap")
        save_snapshot(IndexedGraph(cycle), path)
        engine = QueryEngine(IndexedGraph(cycle), result_cache_size=0)
        queries = [("a*", 0, 1), ("(ab)^+ba", 0, 5), ("b*a*b*", 2, 7)]
        with WorkerPool(
            path, engine_kwargs={"result_cache_size": 0}, workers=2
        ) as pool:
            for language, source, target in queries:
                for budget in (5, 100000):
                    outcomes = []
                    for run in (
                        lambda: pool.query(
                            language, source, target, budget=budget
                        ),
                        lambda: engine.query(
                            language, source, target, budget=budget
                        ),
                    ):
                        try:
                            outcomes.append(("ok", run().found))
                        except BudgetExceededError:
                            outcomes.append(("budget", None))
                    assert outcomes[0] == outcomes[1]
            served = pool.run_batch(queries, budget=5)
            direct = engine.run_batch(queries, budget=5)
            for pool_result, engine_result in zip(
                served.results, direct.results
            ):
                assert_results_identical(pool_result, engine_result)

    def test_deadline_override_matches_engine(self, pool, graph):
        # A generous deadline must not perturb answers (the engine
        # disables shared sweeps whenever a deadline is in force, and
        # the pool's workers apply that same engine rule).
        engine = QueryEngine(IndexedGraph(graph))
        served = pool.run_batch(QUERIES, deadline_seconds=30.0)
        direct = engine.run_batch(QUERIES, deadline_seconds=30.0)
        for pool_result, engine_result in zip(
            served.results, direct.results
        ):
            assert_results_identical(pool_result, engine_result)

    def test_batch_aggregates_worker_cache_stats(self, pool):
        batch = pool.run_batch(QUERIES)
        assert batch.cache_stats.inserts >= 1
        assert batch.workers == 2


class TestSharding:
    def test_one_plan_batch_reaches_every_worker(self, pool):
        # The pool deals queries round-robin without looking at plans;
        # each worker groups its own shard.
        queries = [("a*", source, source + 1) for source in range(8)]
        batch = pool.run_batch(queries)
        assert batch.workers == 2
        assert [
            block["served_batches"] for block in pool.stats()["per_worker"]
        ] == [1, 1]


class TestBatchKnobs:
    """Pooled batches apply the engine's sweep rule inside each worker:
    on one shard every counter matches an in-process run, and dealt
    over two workers an engine budget still disables every sweep."""

    @pytest.mark.parametrize("engine_kwargs", [
        {"exact_budget": 50},  # an effective budget disables sweeps
    ], ids=["exact_budget"])
    def test_stats_match_the_engine(self, tmp_path, engine_kwargs):
        graph, queries = mixed_workload(
            num_queries=48, seed=11, num_vertices=22, num_edges=66,
            hot_language="a*(bb^+ + eps)c*", hot_every=2,
        )
        path = str(tmp_path / "mixed.snap")
        save_snapshot(IndexedGraph(graph), path)
        expected = QueryEngine(graph, **engine_kwargs).run_batch(queries)
        with WorkerPool(
            path, engine_kwargs=engine_kwargs, workers=2
        ) as pool:
            single = pool.run_batch(queries, workers=1)
            sharded = pool.run_batch(queries)
        assert single.stats == expected.stats
        assert expected.stats.sweeps == sharded.stats.sweeps == 0
        assert sharded.workers == 2
        for served in (single, sharded):
            for pool_result, engine_result in zip(
                served.results, expected.results
            ):
                assert_results_identical(pool_result, engine_result)


class TestCrashRecovery:
    def test_respawn_then_identical_results(self, pool, graph):
        engine = QueryEngine(IndexedGraph(graph))
        before = [pool.query(lang, s, t) for lang, s, t in QUERIES]
        pool.kill_worker(0)
        pool.kill_worker(1)
        after = [pool.query(lang, s, t) for lang, s, t in QUERIES]
        for first, second in zip(before, after):
            assert_results_identical(first, second)
        for served, (language, source, target) in zip(after, QUERIES):
            assert_results_identical(
                served, engine.query(language, source, target)
            )
        stats = pool.stats()
        assert stats["crashes"] >= 2
        assert stats["respawns"] >= 2

    def test_retry_budget_exhaustion_surfaces_worker_crash_error(
        self, pool
    ):
        # The "exit" frame is the crash drill: every worker that picks
        # it up dies without replying, so the request burns through its
        # retries and surfaces as WorkerCrashError — after which the
        # respawned pool keeps serving.
        with pytest.raises(WorkerCrashError, match="died"):
            pool._roundtrip(("exit", 1))
        assert pool.query("a*", 0, 1) is not None
        assert pool.stats()["respawns"] >= pool.max_retries

    def test_worker_crash_error_is_repro_error(self):
        assert issubclass(WorkerCrashError, ReproError)


class TestClose:
    def test_close_delivers_a_reply_already_in_flight(
        self, snap_path, graph
    ):
        # The reading thread is held once close() has begun, as a
        # descheduled thread would be, until close() returns or half a
        # second passes.  Its worker has answered by then, so the query
        # must get that answer rather than a closed connection.
        pool = WorkerPool(snap_path, workers=1)
        real_recv = pool._recv
        reading = threading.Event()
        close_returned = threading.Event()

        def held_recv(handle, deadline, kill_at=None):
            reading.set()
            while not pool._closed:
                time.sleep(0.001)
            close_returned.wait(timeout=0.5)
            return real_recv(handle, deadline, kill_at)

        pool._recv = held_recv
        outcome = []

        def ask():
            try:
                outcome.append(pool.query("a*", 0, 1))
            except Exception as err:  # reported by the asserts below
                outcome.append(err)

        asker = threading.Thread(target=ask)
        asker.start()
        assert reading.wait(timeout=10)
        pool.close()
        close_returned.set()
        asker.join(timeout=10)
        assert not asker.is_alive()
        assert len(outcome) == 1, outcome
        assert not isinstance(outcome[0], Exception), outcome
        assert_results_identical(
            outcome[0], QueryEngine(IndexedGraph(graph)).query("a*", 0, 1)
        )
        assert all(
            not handle.process.is_alive() for handle in pool._handles
        )

    def test_close_kills_a_worker_still_busy_after_its_timeout(
        self, snap_path
    ):
        # The worker sleeps 3 s before answering; close(timeout=1.0)
        # waits that one timeout for it, then kills it under its
        # request instead of joining it for a second timeout.
        faults.install(FaultPlan(worker_slow_at=(1,), slow_seconds=3.0))
        try:
            pool = WorkerPool(snap_path, workers=1)
        finally:
            faults.uninstall()
        outcome = []

        def ask():
            try:
                outcome.append(pool.query("a*", 0, 1))
            except Exception as err:  # reported by the asserts below
                outcome.append(err)

        asker = threading.Thread(target=ask)
        asker.start()
        give_up = time.monotonic() + 10
        while pool._idle.qsize():  # until the worker is checked out
            assert time.monotonic() < give_up
            time.sleep(0.01)
        start = time.monotonic()
        pool.close(timeout=1.0)
        elapsed = time.monotonic() - start
        asker.join(timeout=10)
        assert not asker.is_alive()
        assert 1.0 <= elapsed < 1.8, (elapsed, outcome)
        assert len(outcome) == 1, outcome
        assert isinstance(outcome[0], WorkerCrashError), outcome
        assert all(
            not handle.process.is_alive() for handle in pool._handles
        )

    def test_respawn_racing_close_leaves_no_worker_running(
        self, snap_path
    ):
        # The query's worker is dead, so the query respawns it after a
        # 1 s backoff; close() begins and returns within that second.
        # The replacement spawned after close() must not outlive it.
        before = set(multiprocessing.active_children())
        pool = WorkerPool(snap_path, workers=1, respawn_backoff=1.0)
        pool.kill_worker(0)
        outcome = []

        def ask():
            try:
                outcome.append(pool.query("a*", 0, 1))
            except Exception as err:  # reported by the asserts below
                outcome.append(err)

        asker = threading.Thread(target=ask)
        asker.start()
        time.sleep(0.3)
        pool.close(timeout=0.2)
        asker.join(timeout=30)
        assert not asker.is_alive()
        try:
            assert len(outcome) == 1, outcome
            assert isinstance(outcome[0], WorkerCrashError), outcome
            assert "pool is closed" in str(outcome[0])
            assert set(multiprocessing.active_children()) <= before
        finally:
            for handle in pool._handles:
                pool._kill(handle)


class TestMmapLifecycle:
    def test_unlink_while_attached_keeps_serving(self, snap_path, graph):
        engine = QueryEngine(IndexedGraph(graph))
        with WorkerPool(snap_path, workers=1) as pool:
            os.unlink(snap_path)
            for language, source, target in QUERIES[:4]:
                assert_results_identical(
                    pool.query(language, source, target),
                    engine.query(language, source, target),
                )

    def test_replace_while_attached_keeps_old_graph(
        self, snap_path, graph
    ):
        from repro.service.snapshot import attach_snapshot

        engine = QueryEngine(IndexedGraph(graph))
        replacement = labeled_cycle("aaaa")
        with WorkerPool(snap_path, workers=1) as pool:
            save_snapshot(IndexedGraph(replacement), snap_path)
            # Attached workers still serve the old inode ...
            assert_results_identical(
                pool.query("a*(bb^+ + eps)c*", 0, 5),
                engine.query("a*(bb^+ + eps)c*", 0, 5),
            )
            # ... while a fresh attach sees the new file.
            fresh = attach_snapshot(snap_path)
            assert fresh.num_vertices == replacement.num_vertices
            assert fresh.num_edges == replacement.num_edges

    def test_respawn_after_delete_is_clean_snapshot_error(self, snap_path):
        with WorkerPool(
            snap_path, workers=1, max_retries=1, respawn_backoff=0.0
        ) as pool:
            os.unlink(snap_path)
            pool.kill_worker(0)
            with pytest.raises(SnapshotError, match="could not attach"):
                pool.query("a*", 0, 1)

    def test_failed_respawn_keeps_the_slot(self, snap_path, graph):
        # The replacement for a killed worker cannot attach: the caller
        # gets the SnapshotError, and the next request retries the
        # spawn instead of waiting forever for an idle worker.
        with WorkerPool(snap_path, workers=1, respawn_backoff=0.01) as pool:
            pool.kill_worker(0)
            faults.install(FaultPlan(snapshot_truncate_at=(1,)))
            try:
                with pytest.raises(SnapshotError, match="could not attach"):
                    pool.query("a*", 0, 1)
            finally:
                faults.uninstall()
            answers = []
            waiter = threading.Thread(
                target=lambda: answers.append(pool.query("a*", 0, 1)),
                daemon=True,
            )
            waiter.start()
            waiter.join(timeout=10)
            assert not waiter.is_alive()
            stats = pool.stats()
        engine = QueryEngine(IndexedGraph(graph))
        assert_results_identical(answers[0], engine.query("a*", 0, 1))
        assert stats["respawns"] == 1
        assert stats["sampled"] == 1

    def test_truncated_fresh_attach_raises(self, snap_path):
        from repro.service.snapshot import attach_snapshot

        size = os.path.getsize(snap_path)
        with open(snap_path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(SnapshotError):
            attach_snapshot(snap_path)

    def test_pool_on_missing_snapshot_fails_at_construction(self, tmp_path):
        with pytest.raises(SnapshotError):
            WorkerPool(str(tmp_path / "absent.snap"), workers=1)


class TestPoolStats:
    def test_stats_shape_and_counters(self, pool):
        pool.query("a*", 0, 1)
        pool.run_batch(QUERIES[:4])
        stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["requests"] >= 2
        assert stats["sampled"] == 2
        assert stats["aggregate"]["served_queries"] >= 5
        assert len(stats["per_worker"]) == 2
        for block in stats["per_worker"]:
            assert block["pid"] > 0
            assert set(block["plan_cache"]) == {
                "hits", "misses", "evictions", "compiles",
            }

    def test_per_worker_rss_stays_flat(self, pool):
        # The whole point of attach-by-path: worker RSS is fork
        # inheritance plus engine overhead, never a private copy of
        # the graph.  Forked children start from the parent's
        # footprint, so the bound is relative — a pickled-graph worker
        # would add the whole graph on top of it.
        from repro.service.workers import _rss_mb

        pool.run_batch(QUERIES)
        parent_rss = _rss_mb()
        for block in pool.stats()["per_worker"]:
            if block["rss_mb"] is None or parent_rss is None:
                continue
            assert block["rss_mb"] < parent_rss + 32.0

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/smaps_rollup"),
        reason="PSS needs /proc/<pid>/smaps_rollup",
    )
    def test_per_worker_pss_is_positive_and_at_most_rss(self, pool):
        pool.run_batch(QUERIES)
        for block in pool.stats()["per_worker"]:
            assert 0 < block["pss_mb"] <= block["rss_mb"]


class TestPoolBackedService:
    def _random_queries(self, graph, count=24, seed=11):
        import random

        rng = random.Random(seed)
        vertices = list(graph.vertices())
        languages = ["a*", "a*(bb^+ + eps)c*", "ab + ba", "(ab)^+", "c*a"]
        return [
            (
                languages[index % len(languages)],
                rng.choice(vertices),
                rng.choice(vertices),
            )
            for index in range(count)
        ]

    def test_registry_spools_snapshot_and_serves_identically(self, graph):
        from repro.service import (
            QueryService, ServiceClient, ServiceConfig, ServiceThread,
        )
        from repro.service.client import run_load, verify_against_direct

        registry = GraphRegistry(worker_processes=2)
        try:
            entry = registry.register("main", graph)
            assert entry.pool is not None
            assert entry.pool.workers == 2
            assert os.path.exists(entry.pool.snapshot_path)
            queries = self._random_queries(graph)
            service = QueryService(registry, ServiceConfig(workers=2))
            with ServiceThread(service) as running:
                client = ServiceClient(port=running.port)
                records = run_load(
                    client, queries, graph="main", batch_size=8, workers=2
                )
                stats = client.stats()
            assert verify_against_direct(graph, queries, records) == []
            (graph_stats,) = stats["graphs"]
            workers_block = graph_stats["workers"]
            assert workers_block["workers"] == 2
            assert workers_block["aggregate"]["served_queries"] >= len(
                queries
            )
            assert graph_stats["snapshot_path"] == entry.pool.snapshot_path
        finally:
            registry.close()

    def test_register_snapshot_attaches_for_pool(self, snap_path, graph):
        registry = GraphRegistry(worker_processes=1)
        try:
            entry = registry.register_snapshot("warm", snap_path)
            assert entry.pool is not None
            assert entry.pool.snapshot_path == snap_path
            assert_serves_attached(entry)
            assert entry.spool_path is None
            served = entry.pool.query("a*(bb^+ + eps)c*", 0, 5)
            direct = solve_rspq("a*(bb^+ + eps)c*", graph, 0, 5)
            assert served.found == direct.found
        finally:
            registry.close()

    def test_close_terminates_workers_and_spool(self, graph):
        registry = GraphRegistry(worker_processes=1)
        entry = registry.register("main", graph)
        pool = entry.pool
        spooled = pool.snapshot_path
        processes = [handle.process for handle in pool._handles]
        registry.close()
        for process in processes:
            process.join(timeout=5.0)
            assert not process.is_alive()
        assert not os.path.exists(spooled)

    def test_single_query_via_http_uses_pool(self, graph):
        from repro.service import (
            QueryService, ServiceClient, ServiceConfig, ServiceThread,
        )

        registry = GraphRegistry(worker_processes=1)
        try:
            registry.register("main", graph)
            service = QueryService(registry, ServiceConfig(workers=2))
            with ServiceThread(service) as running:
                client = ServiceClient(port=running.port)
                record = client.query("a*(bb^+ + eps)c*", 0, 5)
            direct = solve_rspq("a*(bb^+ + eps)c*", graph, 0, 5)
            assert record["found"] == direct.found
            assert record["strategy"] == direct.strategy
        finally:
            registry.close()

    def test_negative_worker_processes_rejected(self):
        with pytest.raises(ValueError):
            GraphRegistry(worker_processes=-1)


def _recording_context(freeze_counts):
    """A fork context whose workers record the collector's freeze
    count at the instant they are started."""
    context = multiprocessing.get_context("fork")

    class Process(context.Process):
        def start(self):
            freeze_counts.append(gc.get_freeze_count())
            super().start()

    return types.SimpleNamespace(Process=Process, Pipe=context.Pipe)


def _failing_start_context(body, started):
    """A fork context whose worker ``repro-pool-1`` runs ``body`` in
    place of ``_worker_main``, so it never sends its ready frame; every
    process started is appended to ``started``."""
    context = multiprocessing.get_context("fork")

    class Process(context.Process):
        def start(self):
            started.append(self)
            super().start()

        def run(self):
            if self.name == "repro-pool-1":
                body()
            else:
                super().run()

    return types.SimpleNamespace(Process=Process, Pipe=context.Pipe)


class TestStartupHandshake:
    """A worker that never sends its ready frame fails the pool's
    start with WorkerCrashError, and no worker is left running: the
    silent one is killed, and so is the sibling started before it."""

    def assert_start_fails(self, snap_path, body):
        started = []
        with pytest.raises(WorkerCrashError, match="ready handshake"):
            WorkerPool(
                snap_path, workers=2,
                mp_context=_failing_start_context(body, started),
            )
        assert [process.name for process in started] == [
            "repro-pool-0", "repro-pool-1",
        ]
        assert not any(process.is_alive() for process in started)

    def test_worker_exiting_before_ready(self, snap_path):
        self.assert_start_fails(snap_path, lambda: None)

    def test_worker_sleeping_past_start_timeout(self, snap_path,
                                                monkeypatch):
        monkeypatch.setattr(workers_module, "START_TIMEOUT", 0.3)
        start = time.monotonic()
        self.assert_start_fails(snap_path, lambda: time.sleep(60))
        assert time.monotonic() - start < 10


class TestForkFromFrozenHeap:
    """Workers fork from a frozen heap, and the parent is unfrozen
    again after every spawn, successful or not."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_start_forks_frozen_and_unfreezes(self, snap_path, enabled):
        was_enabled = gc.isenabled()
        counts = []
        try:
            if not enabled:
                gc.disable()
            with WorkerPool(
                snap_path, workers=2,
                mp_context=_recording_context(counts),
            ) as pool:
                assert gc.get_freeze_count() == 0
                assert gc.isenabled() is enabled
                pool.query("a*", 0, 1)
        finally:
            if was_enabled:
                gc.enable()
        assert len(counts) == 2
        assert all(count > 0 for count in counts)

    def test_respawn_forks_frozen_and_unfreezes(self, snap_path):
        enabled = gc.isenabled()
        counts = []
        with WorkerPool(
            snap_path, workers=1, respawn_backoff=0.0,
            mp_context=_recording_context(counts),
        ) as pool:
            pool.kill_worker(0)
            pool.query("a*", 0, 1)
            assert pool.stats()["respawns"] == 1
            assert gc.get_freeze_count() == 0
            assert gc.isenabled() is enabled
        assert len(counts) == 2
        assert all(count > 0 for count in counts)

    def test_failed_handshake_unfreezes(self, snap_path):
        enabled = gc.isenabled()
        faults.install(FaultPlan(snapshot_truncate_at=(1,)))
        try:
            with pytest.raises(SnapshotError, match="could not attach"):
                WorkerPool(snap_path, workers=1)
        finally:
            faults.uninstall()
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() is enabled


class TestPooledMemoryModel:
    """A pooled registry serves each graph from one mapped file: the
    parent's engine attaches the snapshot its workers attach."""

    @pytest.mark.parametrize("indexed", [False, True],
                             ids=["dbgraph", "indexed"])
    def test_register_serves_the_spooled_mapping(self, graph, indexed):
        registry = GraphRegistry(worker_processes=1)
        try:
            entry = registry.register(
                "main", IndexedGraph(graph) if indexed else graph
            )
            assert_serves_attached(entry)
            assert entry.spool_path == entry.pool.snapshot_path
            assert entry.stats.source == (
                "indexed" if indexed else "compiled"
            )
            engine = QueryEngine(IndexedGraph(graph))
            for language, source, target in QUERIES:
                assert_results_identical(
                    entry.pool.query(language, source, target),
                    engine.query(language, source, target),
                )
        finally:
            registry.close()

    @pytest.mark.parametrize("reopen", ["load", "attach"])
    def test_snapshot_backed_graph_is_spooled(self, tmp_path, snap_path,
                                              reopen):
        # A graph read from the caller's file is spooled like any
        # other graph; serving that file is register_snapshot's job.
        from repro.service.snapshot import attach_snapshot, load_snapshot

        graph = (load_snapshot if reopen == "load" else attach_snapshot)(
            snap_path
        )
        spool = tmp_path / "spool"
        registry = GraphRegistry(worker_processes=1, spool_dir=spool)
        try:
            entry = registry.register("main", graph)
            assert_serves_attached(entry)
            assert entry.spool_path == entry.pool.snapshot_path
            assert os.path.dirname(entry.spool_path) == str(spool)
            assert entry.stats.source == "indexed"
            registry.evict("main")
            assert os.path.exists(snap_path)
        finally:
            registry.close()
        assert os.path.exists(snap_path)

    def test_temporary_graph_is_freed_before_the_pool_starts(
        self, monkeypatch
    ):
        refs = []
        alive_at_pool_start = []

        def temporary_graph():
            graph = random_labeled_graph(25, 80, "abc", seed=3)
            refs.append(weakref.ref(graph))
            return graph

        class Probe(WorkerPool):
            def __init__(self, *args, **kwargs):
                alive_at_pool_start.append(refs[0]() is not None)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(workers_module, "WorkerPool", Probe)
        registry = GraphRegistry(worker_processes=1)
        try:
            registry.register("main", temporary_graph())
        finally:
            registry.close()
        assert alive_at_pool_start == [False]


class TestSpoolLifecycle:
    """The registry deletes each snapshot it spooled when the entry
    closes (evict, close, failed registration), and never a caller's
    own snapshot file."""

    def test_evict_deletes_the_spool_file(self, graph, tmp_path):
        registry = GraphRegistry(worker_processes=1, spool_dir=tmp_path)
        try:
            for round_index in range(3):
                name = "g%d" % round_index
                spooled = registry.register(name, graph).spool_path
                assert os.listdir(tmp_path) == [os.path.basename(spooled)]
                registry.evict(name)
                assert os.listdir(tmp_path) == []
        finally:
            registry.close()

    def test_close_deletes_spool_files_in_a_given_dir(self, graph,
                                                      tmp_path):
        registry = GraphRegistry(worker_processes=1, spool_dir=tmp_path)
        registry.register("one", graph)
        registry.register("two", graph)
        assert len(os.listdir(tmp_path)) == 2
        registry.close()
        assert os.listdir(tmp_path) == []

    def test_evicted_graph_keeps_serving_its_parent_engine(self, graph,
                                                           tmp_path):
        registry = GraphRegistry(worker_processes=1, spool_dir=tmp_path)
        try:
            registry.register("g", graph)
            entry = registry.evict("g")
            assert os.listdir(tmp_path) == []
            # The unlinked file's pages live on under the mapping.
            assert_results_identical(
                entry.engine.query("a*", 0, 1),
                QueryEngine(IndexedGraph(graph)).query("a*", 0, 1),
            )
        finally:
            registry.close()

    def test_failed_attach_deletes_the_spool_file(self, graph, tmp_path):
        registry = GraphRegistry(worker_processes=1, spool_dir=tmp_path)
        faults.install(FaultPlan(snapshot_truncate_at=(1,)))
        try:
            with pytest.raises(SnapshotError):
                registry.register("g", graph)
        finally:
            faults.uninstall()
        try:
            assert os.listdir(tmp_path) == []
            assert "g" not in registry
        finally:
            registry.close()

    def test_raced_duplicate_deletes_its_spool_file(self, graph, tmp_path,
                                                    monkeypatch):
        registry = GraphRegistry(worker_processes=1, spool_dir=tmp_path)

        def racing_pool(*args, **kwargs):
            # Another registration of the same name lands while this
            # one starts its pool.
            monkeypatch.setattr(workers_module, "WorkerPool", WorkerPool)
            registry.register("g", graph)
            return WorkerPool(*args, **kwargs)

        monkeypatch.setattr(workers_module, "WorkerPool", racing_pool)
        try:
            with pytest.raises(ServiceError) as info:
                registry.register("g", graph)
            assert info.value.status == 409
            winner = registry.get("g").spool_path
            assert os.listdir(tmp_path) == [os.path.basename(winner)]
        finally:
            registry.close()
        assert os.listdir(tmp_path) == []

    def test_user_snapshot_files_are_never_deleted(self, snap_path,
                                                   tmp_path):
        from repro.service.snapshot import load_snapshot

        registry = GraphRegistry(
            worker_processes=1, spool_dir=tmp_path / "spool"
        )
        registry.register_snapshot("warm", snap_path)
        registry.register("loaded", load_snapshot(snap_path))
        registry.evict("warm")
        assert os.path.exists(snap_path)
        registry.close()
        assert os.path.exists(snap_path)

    def test_indexed_graph_reregisters_after_evict(self, graph, tmp_path):
        # The spool file goes with the entry, and registering marks
        # nothing on the caller's graph.
        indexed = IndexedGraph(graph)
        registry = GraphRegistry(worker_processes=1, spool_dir=tmp_path)
        try:
            registry.register("g", indexed)
            registry.evict("g")
            entry = registry.register("g", indexed)
            assert os.path.exists(entry.pool.snapshot_path)
        finally:
            registry.close()
