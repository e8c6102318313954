"""Pre-fork worker pool serving queries off one shared snapshot.

Every solver in this repo runs under the GIL, so one process saturates
exactly one core however many threads it runs.  :class:`WorkerPool` is
the one way past that: N worker processes, each attached read-only to
the same mmapped snapshot
(:func:`~repro.service.snapshot.attach_snapshot`) — zero array copies,
so N workers share one physical copy of the graph through the page
cache.  A pooled :class:`~repro.service.registry.GraphRegistry` entry
serves its parent-side engine from that same mapping, so the server
adds no second copy.  Workers are spawned with only a *path* and an
engine config, and each builds its own
:class:`~repro.engine.QueryEngine` around the attached graph (private
plan cache, private result cache, private ``ExecutionContext`` per
query, exactly like an independent server).  Each is forked from a
frozen heap (see :meth:`WorkerPool._spawn`), so what it inherited
stays shared with the parent instead of being copied by its garbage
collector.  The query service (``repro serve --worker-processes N``)
and ``repro batch --workers N`` both run on it.

Parent ↔ worker protocol is a strict request/response over one
:func:`multiprocessing.Pipe` per worker:

``("query", (language, source, target, overrides))``
    One RSPQ; the reply carries the :class:`EngineResult` or a
    re-raisable :class:`~repro.errors.ReproError` by class name.
``("batch", (queries, overrides))``
    One shard of a batch, answered by
    :meth:`~repro.engine.QueryEngine.run_shard` — the engine's own
    batch path — replying with its :class:`BatchResult` (results in
    shard order plus the plan-cache, result-cache and plan-group
    counter deltas).
``("stats",)`` / ``("ping",)`` / ``("shutdown",)``
    Introspection, liveness and orderly exit.

The parent side polls the pipe with a short interval so it can
notice three things between frames: the reply arriving, the worker
*dying* (``is_alive`` goes false → respawn with exponential backoff
and retry the request on a sibling — queries are pure, so the retry
is idempotent), and the request overrunning its deadline plus a
grace period (the worker is presumed wedged, killed, respawned, and
the caller gets :class:`~repro.errors.DeadlineExceededError`).

A batch is dealt round-robin over its shards, one per worker, and
knows nothing about plans: each worker's engine groups its own shard
by plan, exactly as an in-process batch is grouped.  Grouping never
changes an answer, so pool answers are path-identical to in-process
answers; the per-result ``steps`` and flags and the summed counters
come from each worker's own groups and caches.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import MappingProxyType
from typing import Any

from .. import errors as _errors
from ..errors import (
    DeadlineExceededError,
    ReproError,
    SnapshotError,
    WorkerCrashError,
)
from ..engine import (
    BatchResult,
    PlanCacheStats,
    QueryEngine,
    VectorizedBatchStats,
)
from . import faults


def _proc_mb(path, field):
    """The ``field: N kB`` line of procfs file ``path`` in MiB (None
    where the file or the field is missing)."""
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):  # pragma: no cover
        pass
    return None  # pragma: no cover - non-procfs hosts


def _rss_mb():
    """This process's resident set size in MiB (None if unknown).

    RSS counts every page the process maps in full, so the shared
    snapshot and the pages a worker inherited at fork count once per
    process; :func:`_pss_mb` divides them among their sharers.
    """
    return _proc_mb("/proc/self/status", "VmRSS:")


def _pss_mb():
    """This process's proportional set size in MiB (None if unknown).

    Each shared page counts 1/N in each of the N processes mapping
    it, so summing PSS over the server and its workers counts the
    pooled graph once.  Read from ``/proc/self/smaps_rollup``.
    """
    return _proc_mb("/proc/self/smaps_rollup", "Pss:")


def _worker_main(snapshot_path, engine_kwargs, conn, fault_spec=None):
    """Worker process body: attach once, then serve requests forever.

    Every mapped buffer the attached graph exposes is read-only
    shared state — nothing here may write into it (enforced by the
    ``snapshot-readonly`` invariant rule).

    ``fault_spec`` propagates the parent's installed
    :class:`~repro.service.faults.FaultPlan` (None in production):
    installing it *before* the attach means snapshot-corruption
    faults exercise the real worker startup path too.
    """
    from .snapshot import attach_snapshot

    faults.install_spec(fault_spec)
    try:
        graph = attach_snapshot(snapshot_path)
        engine = QueryEngine(graph, **engine_kwargs)
    except BaseException as err:
        try:
            conn.send(
                ("startup-error", "%s: %s" % (type(err).__name__, err))
            )
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        conn.close()
        return
    conn.send(("ready", os.getpid()))
    served_queries = 0
    served_batches = 0
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        kind = request[0]
        if kind == "shutdown":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            break
        if kind == "exit":
            # Test hook: simulate a hard crash (no reply, no cleanup).
            os._exit(int(request[1]))
        if kind in ("query", "batch"):
            action = faults.worker_fault()
            if action == "crash":
                os._exit(3)
            elif action is not None:
                # "hang" sleeps past any deadline (the parent kills
                # us); "slow" delays the reply but still answers.
                time.sleep(faults.worker_stall_seconds(action))
        try:
            if kind == "query":
                language, source, target, overrides = request[1]
                result = engine.query(language, source, target, **overrides)
                served_queries += 1
                reply = ("ok", result)
            elif kind == "batch":
                queries, overrides = request[1]
                reply = ("ok", engine.run_shard(queries, overrides))
                served_batches += 1
                served_queries += len(queries)
            elif kind == "stats":
                cache = engine.cache_stats()
                reply = ("ok", {
                    "pid": os.getpid(),
                    "served_queries": served_queries,
                    "served_batches": served_batches,
                    "rss_mb": _rss_mb(),
                    "pss_mb": _pss_mb(),
                    "plan_cache": {
                        "hits": cache.hits,
                        "misses": cache.misses,
                        "evictions": cache.evictions,
                        "compiles": cache.compiles,
                    },
                    "result_cache": engine.result_cache_stats().as_dict(),
                })
            elif kind == "ping":
                reply = ("ok", os.getpid())
            else:
                reply = (
                    "error", "ValueError",
                    "unknown request kind %r" % (kind,),
                )
        except ReproError as err:
            # Engine-level errors are *answers*: re-raised by class
            # name on the parent side, exactly like in-process serving.
            reply = ("repro-error", type(err).__name__, str(err))
        except BaseException as err:  # pragma: no cover - defensive
            reply = ("error", type(err).__name__, str(err))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
    conn.close()


class _WorkerDied(Exception):
    """Internal: the worker's process ended mid-request."""


class _WorkerHung(Exception):
    """Internal: the worker overran deadline + grace without replying."""


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("index", "process", "conn", "crashes", "lock",
                 "busy_since", "busy_deadline", "busy_token")

    def __init__(self, index, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        #: Consecutive crashes at this slot (drives respawn backoff;
        #: reset by the first successful reply).
        self.crashes = 0
        #: Guards the busy_* fields: the request thread stamps and
        #: clears them under this lock, and the watchdog re-checks
        #: under it immediately before a kill, so a worker that just
        #: finished (or started a fresh request) is never shot for a
        #: stale observation.
        self.lock = threading.Lock()
        #: Monotonic instant the in-flight request started (None when
        #: idle) and its absolute give-up time — what the watchdog
        #: reads to find wedged workers.
        self.busy_since = None
        self.busy_deadline = None
        #: Generation counter bumped at every checkout; the watchdog
        #: only kills if the token it scanned is still the one in
        #: flight.
        self.busy_token = 0


class WorkerPool:
    """Pre-fork query workers attached to one shared snapshot.

    Parameters
    ----------
    snapshot_path:
        The snapshot every worker attaches to (see module docstring).
    engine_kwargs:
        :class:`~repro.engine.QueryEngine` constructor kwargs applied
        in every worker, passed through unchanged; absent kwargs take
        the engine's defaults.
    workers:
        Number of pre-forked processes.
    respawn_backoff / max_backoff:
        Exponential backoff between a crash and the respawn: the n-th
        consecutive crash of a slot waits ``respawn_backoff * 2**(n-1)``
        seconds, capped at ``max_backoff``.
    grace_seconds:
        Extra wall-clock allowance past a request's deadline before
        the worker is presumed wedged and killed.
    poll_interval:
        Pipe polling granularity (crash/deadline detection latency).
    max_retries:
        How many times one request may be retried across crashes
        before :class:`~repro.errors.WorkerCrashError` surfaces.
    start_timeout:
        Seconds to wait for a fresh worker's ready handshake.
    watchdog_seconds:
        When set, a daemon watchdog thread hard-kills any worker
        that has been busy on one request for longer than this (or
        past the request's own give-up deadline, whichever is
        sooner).  This is what reclaims a wedged worker holding a
        request *without* a deadline — the per-request ``_recv``
        timeout only fires when a deadline exists.  None disables it.
    """

    def __init__(self, snapshot_path: Any,
                 engine_kwargs: dict | None = None,
                 workers: int = 2,
                 respawn_backoff: float = 0.05,
                 max_backoff: float = 2.0,
                 grace_seconds: float = 10.0,
                 poll_interval: float = 0.05,
                 max_retries: int = 2,
                 start_timeout: float = 60.0,
                 watchdog_seconds: float | None = None,
                 mp_context: Any = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1, got %d" % workers)
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise ValueError(
                "watchdog_seconds must be positive or None, got %r"
                % (watchdog_seconds,)
            )
        self.snapshot_path = os.fspath(snapshot_path)
        # Read-only after construction (workers inherit it at fork
        # time); the proxy also keeps it out of lock-guarded state.
        self.engine_kwargs = MappingProxyType(dict(engine_kwargs or {}))
        self.respawn_backoff = respawn_backoff
        self.max_backoff = max_backoff
        self.grace_seconds = grace_seconds
        self.poll_interval = poll_interval
        self.max_retries = max_retries
        self.start_timeout = start_timeout
        self.watchdog_seconds = watchdog_seconds
        self._watchdog_kills = 0
        self._watchdog_stop = threading.Event()
        self._watchdog_thread: threading.Thread | None = None
        self._workers = workers
        self._ctx = (
            mp_context if mp_context is not None
            else multiprocessing.get_context()
        )
        self._lock = threading.Lock()
        self._closed = False
        self._crashes = 0
        self._respawns = 0
        self._requests = 0
        self._idle: queue.Queue = queue.Queue()
        self._handles: list[_WorkerHandle] = []
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-pool"
        )
        try:
            for index in range(workers):
                self._handles.append(self._spawn(index))
        except BaseException:
            for handle in self._handles:
                self._kill(handle)
            self._executor.shutdown(wait=False)
            raise
        for handle in self._handles:
            self._idle.put(handle)
        if watchdog_seconds is not None:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop,
                name="repro-pool-watchdog",
                daemon=True,
            )
            self._watchdog_thread.start()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def workers(self) -> int:
        return self._workers

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down (drain in-flight batches first)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        self._watchdog_stop.set()
        if self._watchdog_thread is not None:
            self._watchdog_thread.join(timeout=timeout)
        self._executor.shutdown(wait=True)
        for handle in handles:
            try:
                handle.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for handle in handles:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.kill()
                handle.process.join(timeout=timeout)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass

    def kill_worker(self, index: int) -> None:
        """Test hook: hard-kill worker ``index`` (crash-recovery drills)."""
        with self._lock:
            handle = self._handles[index]
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=5.0)

    def _spawn(self, index):
        """Start worker ``index`` and wait for its ready handshake.

        The worker forks from a frozen heap: :func:`gc.freeze` moves
        every object the parent holds into the collector's permanent
        generation just before the fork, and :func:`gc.unfreeze`
        moves them back in the parent right after it.  The child never
        unfreezes, so its collections never walk the objects it
        inherited; walking them would write their headers and copy
        every page they sit on.  The first start, every respawn and
        ``repro batch --workers`` all spawn here.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.snapshot_path, dict(self.engine_kwargs), child_conn,
                  faults.active_spec()),
            name="repro-pool-%d" % index,
            daemon=True,
        )
        gc.freeze()
        try:
            process.start()
        finally:
            gc.unfreeze()
        child_conn.close()
        deadline = time.monotonic() + self.start_timeout
        message = None
        while True:
            remaining = deadline - time.monotonic()
            try:
                if parent_conn.poll(min(max(remaining, 0.0), 0.1)):
                    message = parent_conn.recv()
                    break
            except (EOFError, OSError):
                break
            if not process.is_alive():
                # One final poll: the ready frame may have landed just
                # before the exit.
                try:
                    if parent_conn.poll(0):
                        message = parent_conn.recv()
                except (EOFError, OSError):  # pragma: no cover
                    pass
                break
            if remaining <= 0:
                break
        if message is None:
            process.kill()
            process.join(timeout=5.0)
            parent_conn.close()
            raise WorkerCrashError(
                "pool worker %d died or hung before its ready handshake"
                % index
            )
        if message[0] != "ready":
            process.join(timeout=5.0)
            parent_conn.close()
            raise SnapshotError(
                "pool worker %d could not attach %s: %s"
                % (index, self.snapshot_path, message[1])
            )
        return _WorkerHandle(index, process, parent_conn)

    def _kill(self, handle):
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _respawn(self, handle):
        """Replace a dead worker: backoff, spawn, register, make it idle.

        A spawn that fails (the snapshot will not attach, or the
        worker dies before its handshake) puts the dead handle back on
        the idle queue instead, so the slot is not lost: the next
        request that checks it out finds it dead and retries the spawn
        with the slot's growing backoff.  The spawn's error still
        reaches the caller.
        """
        self._kill(handle)
        with self._lock:
            self._crashes += 1
            handle.crashes += 1
            crashes = handle.crashes
            closed = self._closed
        if closed:
            raise WorkerCrashError("pool is closed")
        delay = min(
            self.respawn_backoff * (2 ** (crashes - 1)), self.max_backoff
        )
        if delay > 0:
            time.sleep(delay)
        try:
            fresh = self._spawn(handle.index)
        except BaseException:
            self._idle.put(handle)
            raise
        fresh.crashes = crashes
        with self._lock:
            self._handles[handle.index] = fresh
            self._respawns += 1
        self._idle.put(fresh)

    def _watchdog_loop(self):
        """Hard-kill workers wedged on one request for too long.

        Scans every ``poll_interval`` for handles whose in-flight
        request has outlived ``watchdog_seconds`` (or its own give-up
        deadline) and kills the process.  The thread blocked in
        ``_recv`` then observes the death and runs the normal
        respawn-and-retry path — the watchdog only converts a silent
        wedge into a detectable crash.

        The kill re-validates the scanned generation token under the
        handle lock: between the scan and the kill the long request
        may have completed and the worker been checked out for a new
        one — shooting it then would crash a healthy request and feed
        a spurious failure into the breaker and the ladder.
        """
        interval = max(self.poll_interval, 0.01)
        while not self._watchdog_stop.wait(interval):
            now = time.monotonic()
            with self._lock:
                handles = list(self._handles)
            for handle in handles:
                with handle.lock:
                    busy_since = handle.busy_since
                    busy_deadline = handle.busy_deadline
                    busy_token = handle.busy_token
                if busy_since is None:
                    continue
                limit = busy_since + self.watchdog_seconds
                if busy_deadline is not None:
                    limit = min(limit, busy_deadline)
                if now <= limit or not handle.process.is_alive():
                    continue
                with handle.lock:
                    if (handle.busy_since is None
                            or handle.busy_token != busy_token):
                        continue  # that request already completed
                    handle.process.kill()
                with self._lock:
                    self._watchdog_kills += 1

    # -- request plumbing --------------------------------------------------------

    def _checkout(self, deadline):
        with self._lock:
            if self._closed:
                raise WorkerCrashError("pool is closed")
        timeout = (
            None if deadline is None else max(deadline - time.monotonic(), 0)
        )
        try:
            return self._idle.get(timeout=timeout)
        except queue.Empty:
            raise DeadlineExceededError(
                "no pool worker became idle before the request deadline"
            ) from None

    def _recv(self, handle, deadline):
        """Deadline-aware reply wait with crash detection."""
        conn = handle.conn
        process = handle.process
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise _WorkerHung()
            try:
                if conn.poll(self.poll_interval):
                    return conn.recv()
            except (EOFError, OSError):
                raise _WorkerDied() from None
            if not process.is_alive():
                # Drain a reply the worker may have flushed right
                # before dying.
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):  # pragma: no cover
                    pass
                raise _WorkerDied()

    def _roundtrip(self, message, deadline=None):
        """Send one request to an idle worker; returns the raw reply.

        Crashed workers are respawned (with backoff) and the request
        retried on a sibling up to ``max_retries`` times; a worker
        overrunning ``deadline`` is killed and the caller gets a
        :class:`DeadlineExceededError`.
        """
        attempts = 0
        while True:
            handle = self._checkout(deadline)
            with handle.lock:
                handle.busy_token += 1
                handle.busy_since = time.monotonic()
                handle.busy_deadline = deadline
            try:
                handle.conn.send(message)
                reply = self._recv(handle, deadline)
            except (_WorkerDied, BrokenPipeError, OSError):
                self._respawn(handle)
                attempts += 1
                if attempts > self.max_retries:
                    raise WorkerCrashError(
                        "pool worker died %d time(s) answering one "
                        "request (each crash respawned a replacement)"
                        % attempts
                    ) from None
                continue
            except _WorkerHung:
                self._respawn(handle)
                raise DeadlineExceededError(
                    "pool worker overran the request deadline plus "
                    "%.1fs grace and was respawned" % self.grace_seconds
                ) from None
            except BaseException:
                # Parent-side failure with the worker healthy.
                with handle.lock:
                    handle.busy_since = None
                    handle.busy_deadline = None
                self._idle.put(handle)
                raise
            with handle.lock:
                handle.busy_since = None
                handle.busy_deadline = None
            handle.crashes = 0
            self._idle.put(handle)
            with self._lock:
                self._requests += 1
            return reply

    @staticmethod
    def _unwrap(reply):
        kind = reply[0]
        if kind == "ok":
            return reply[1]
        if kind == "repro-error":
            _kind, cls_name, message = reply
            cls = getattr(_errors, cls_name, ReproError)
            if not (isinstance(cls, type) and issubclass(cls, ReproError)):
                cls = ReproError  # pragma: no cover - defensive
            raise cls(message)
        raise WorkerCrashError(
            "pool worker failed a request: %s: %s" % (reply[1], reply[2])
        )

    def _request_deadline(self, deadline_seconds, weight):
        """Absolute give-up time for one request (None = wait forever).

        The worker enforces the real per-query deadline inside its
        ``ExecutionContext``; this is only the parent-side hang
        detector, so it is scaled by the shard size and padded with
        the grace period.
        """
        effective = deadline_seconds
        if effective is None:
            effective = self.engine_kwargs.get("deadline_seconds")
        if effective is None:
            return None
        return (
            time.monotonic()
            + effective * max(1, weight)
            + self.grace_seconds
        )

    # -- public query API --------------------------------------------------------

    def query(self, language: Any, source: Any, target: Any,
              deadline_seconds: float | None = None,
              budget: int | None = None,
              portfolio: bool | None = None,
              max_path_edges: int | None = None) -> Any:
        """One RSPQ answered by a pool worker (engine-identical).

        Raises exactly what :meth:`QueryEngine.query` raises
        (re-constructed by class), plus :class:`WorkerCrashError` when
        the retry budget is spent.
        """
        QueryEngine._check_overrides(deadline_seconds, budget, max_path_edges)
        overrides = {
            "deadline_seconds": deadline_seconds,
            "budget": budget,
            "portfolio": portfolio,
            "max_path_edges": max_path_edges,
        }
        deadline = self._request_deadline(deadline_seconds, 1)
        reply = self._roundtrip(
            ("query", (language, source, target, overrides)), deadline
        )
        return self._unwrap(reply)

    def run_batch(self, queries: Any, workers: int | None = None,
                  deadline_seconds: float | None = None,
                  budget: int | None = None,
                  portfolio: bool | None = None,
                  max_path_edges: int | None = None) -> BatchResult:
        """A batch sharded across the pool; same contract as the engine.

        Results land in input order with the answers
        ``QueryEngine.run_batch`` gives on the same snapshot (see the
        module docstring for the sharding).  ``workers`` caps the
        fan-out (default: every worker); it is clamped to the pool
        size and the batch length, and ``BatchResult.workers`` reports
        the shards actually formed.
        """
        query_list = list(queries)
        QueryEngine._check_overrides(deadline_seconds, budget, max_path_edges)
        if workers is None:
            workers = self._workers
        if workers < 1:
            raise ValueError("workers must be >= 1, got %d" % workers)
        overrides = {
            "deadline_seconds": deadline_seconds,
            "budget": budget,
            "portfolio": portfolio,
            "max_path_edges": max_path_edges,
        }
        start = time.perf_counter()
        shard_count = min(workers, self._workers, len(query_list))
        futures = [
            self._executor.submit(
                self._send_shard, query_list[offset::shard_count],
                overrides, deadline_seconds,
            )
            for offset in range(shard_count)
        ]
        results: list = [None] * len(query_list)
        plan_stats = PlanCacheStats()
        result_cache_stats = None
        group_stats = VectorizedBatchStats()
        errors = []
        for offset, future in enumerate(futures):
            try:
                part = future.result()
            except BaseException as err:
                errors.append(err)
                continue
            results[offset::shard_count] = part.results
            plan_stats = plan_stats + part.cache_stats
            if part.result_cache_stats is not None:
                result_cache_stats = (
                    part.result_cache_stats if result_cache_stats is None
                    else result_cache_stats + part.result_cache_stats
                )
            group_stats = group_stats + part.stats
        if errors:
            raise errors[0]
        return BatchResult(
            results=results,
            seconds=time.perf_counter() - start,
            cache_stats=plan_stats,
            workers=max(shard_count, 1),
            result_cache_stats=result_cache_stats,
            stats=group_stats,
        )

    def _send_shard(self, queries, overrides, deadline_seconds):
        deadline = self._request_deadline(deadline_seconds, len(queries))
        reply = self._roundtrip(("batch", (queries, overrides)), deadline)
        return self._unwrap(reply)

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Pool counters plus a per-worker sample (for ``/stats``).

        Per-worker blocks are collected from workers that are *idle*
        at the instant of the call (a stats probe never queues behind
        a long-running query); ``sampled`` says how many of the
        ``workers`` answered.  Aggregate cache/serving counters are
        summed over the sampled workers.
        """
        with self._lock:
            info: dict[str, Any] = {
                "workers": self._workers,
                "requests": self._requests,
                "crashes": self._crashes,
                "respawns": self._respawns,
                "watchdog_kills": self._watchdog_kills,
            }
        handles = []
        while True:
            try:
                handles.append(self._idle.get_nowait())
            except queue.Empty:
                break
        per_worker = []
        aggregate = {
            "served_queries": 0,
            "served_batches": 0,
            "plan_cache": {
                "hits": 0, "misses": 0, "evictions": 0, "compiles": 0,
            },
        }
        probe_deadline = time.monotonic() + self.grace_seconds
        for handle in handles:
            try:
                handle.conn.send(("stats",))
                block = self._unwrap(self._recv(handle, probe_deadline))
            except (_WorkerDied, _WorkerHung, BrokenPipeError, OSError,
                    WorkerCrashError):
                # A worker found dead during a probe is respawned like
                # any other crash; the probe itself is best-effort.
                try:
                    self._respawn(handle)
                except ReproError:  # pragma: no cover - respawn failed
                    pass
                continue
            self._idle.put(handle)
            per_worker.append(block)
            aggregate["served_queries"] += block["served_queries"]
            aggregate["served_batches"] += block["served_batches"]
            for key in aggregate["plan_cache"]:
                aggregate["plan_cache"][key] += block["plan_cache"][key]
        info["sampled"] = len(per_worker)
        info["aggregate"] = aggregate
        info["per_worker"] = per_worker
        return info

    def __repr__(self):
        return "WorkerPool(workers=%d, snapshot=%r)" % (
            self._workers, self.snapshot_path,
        )
