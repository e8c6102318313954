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

A parent thread waits on a worker in one place,
:meth:`WorkerPool._recv`, which polls the pipe with a short interval
so it can notice four things between frames: the reply arriving, the
worker *dying* (``is_alive`` goes false → respawn with exponential
backoff and retry the request on a sibling — queries are pure, so the
retry is idempotent), the request overrunning its deadline plus a
grace period (the worker is presumed wedged, killed, respawned, and
the caller gets :class:`~repro.errors.DeadlineExceededError`), and
the request outliving ``watchdog_seconds`` (the waiting thread kills
the worker itself, and the request is retried as after a crash).  A
fresh worker's ready handshake is waited for there too.

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
import pickle
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
    QueryEngine,
    VectorizedBatchStats,
)
from ..lru import CacheStats
from . import faults
from .protocol import plan_cache_record, result_cache_record

#: Cap, in seconds, of the exponential backoff between a worker's
#: crash and its respawn.
MAX_BACKOFF = 2.0

#: Pipe polling granularity in seconds: how soon the parent notices a
#: reply, a dead worker, an overrun deadline or an overrun watchdog
#: limit.
POLL_INTERVAL = 0.05

#: Seconds a fresh worker has to attach and send its ready handshake.
START_TIMEOUT = 60.0


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
                reply = ("ok", {
                    "pid": os.getpid(),
                    "served_queries": served_queries,
                    "served_batches": served_batches,
                    "rss_mb": _rss_mb(),
                    "pss_mb": _pss_mb(),
                    "plan_cache": plan_cache_record(engine.cache_stats()),
                    "result_cache": result_cache_record(
                        engine.result_cache_stats()
                    ),
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

    __slots__ = ("index", "process", "conn", "crashes")

    def __init__(self, index, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        #: Consecutive crashes at this slot (drives respawn backoff;
        #: reset by the first successful reply).
        self.crashes = 0


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
    respawn_backoff:
        Exponential backoff between a crash and the respawn: the n-th
        consecutive crash of a slot waits ``respawn_backoff * 2**(n-1)``
        seconds, capped at :data:`MAX_BACKOFF`.
    grace_seconds:
        Extra wall-clock allowance past a request's deadline before
        the worker is presumed wedged and killed.
    max_retries:
        How many times one request may be retried across crashes
        before :class:`~repro.errors.WorkerCrashError` surfaces.
    watchdog_seconds:
        When set, the thread waiting for a request's reply hard-kills
        a worker that has been busy on that request for longer than
        this; the request is then retried on a respawned worker, as
        after any crash.  This is what reclaims a wedged worker
        holding a request *without* a deadline.  A request whose
        deadline plus grace comes first overruns it instead (a
        :class:`~repro.errors.DeadlineExceededError`, not a kill
        counted here).  None disables it.
    """

    def __init__(self, snapshot_path: Any,
                 engine_kwargs: dict | None = None,
                 workers: int = 2,
                 respawn_backoff: float = 0.05,
                 grace_seconds: float = 10.0,
                 max_retries: int = 2,
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
        self.grace_seconds = grace_seconds
        self.max_retries = max_retries
        self.watchdog_seconds = watchdog_seconds
        self._watchdog_kills = 0
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

    # -- lifecycle ---------------------------------------------------------------

    @property
    def workers(self) -> int:
        return self._workers

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down once its request in flight is answered.

        Shard batches drain first.  Then ``close`` waits, up to
        ``timeout`` seconds, for every checked-out worker to come back
        idle, so a reply a worker has sent still reaches its caller; a
        worker busy past that is killed under its request, which then
        fails with :class:`~repro.errors.WorkerCrashError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=True)
        give_up = time.monotonic() + timeout
        idle: list[_WorkerHandle] = []
        while len(idle) < self._workers:
            try:
                idle.append(self._idle.get(
                    timeout=max(give_up - time.monotonic(), 0)
                ))
            except queue.Empty:
                break
        with self._lock:
            handles = list(self._handles)
        for handle in handles:
            if handle not in idle:
                # Busy for the whole timeout already: joining it for
                # another one would double close's bound.
                handle.process.kill()
                continue
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
        # A request already waiting in _checkout when close began
        # takes a closed worker and fails as on any closed pool.
        for handle in idle:
            self._idle.put(handle)

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
        handle = _WorkerHandle(index, process, parent_conn)
        try:
            kind, detail = self._recv(
                handle, time.monotonic() + START_TIMEOUT
            )
        except (_WorkerDied, _WorkerHung):
            self._kill(handle)
            raise WorkerCrashError(
                "pool worker %d died or hung before its ready handshake"
                % index
            ) from None
        if kind != "ready":
            self._kill(handle)
            raise SnapshotError(
                "pool worker %d could not attach %s: %s"
                % (index, self.snapshot_path, detail)
            )
        return handle

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
        reaches the caller.  A pool closed during the backoff or the
        spawn kills the fresh worker instead of registering it:
        ``close()`` shuts down only the handles registered when it ran.
        """
        self._kill(handle)
        with self._lock:
            self._crashes += 1
            handle.crashes += 1
            crashes = handle.crashes
            closed = self._closed
        if closed:
            # Back on the idle queue, where close() counts it in.
            self._idle.put(handle)
            raise WorkerCrashError("pool is closed")
        delay = min(
            self.respawn_backoff * (2 ** (crashes - 1)), MAX_BACKOFF
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
            closed = self._closed
            if not closed:
                self._handles[handle.index] = fresh
                self._respawns += 1
        if closed:
            self._kill(fresh)
            self._idle.put(handle)
            raise WorkerCrashError("pool is closed")
        self._idle.put(fresh)

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

    def _recv(self, handle, deadline, kill_at=None):
        """Wait for ``handle``'s next frame; the one place a parent
        thread waits on a worker.

        Past ``deadline`` it raises :class:`_WorkerHung`.  Past
        ``kill_at`` (the request's watchdog limit) it kills the worker,
        counts a watchdog kill and raises :class:`_WorkerDied`, so the
        caller respawns the worker and retries as after any crash.
        A worker whose process ends raises :class:`_WorkerDied`.
        """
        conn = handle.conn
        process = handle.process
        while True:
            now = time.monotonic()
            if deadline is not None and now > deadline:
                raise _WorkerHung()
            if kill_at is not None and now > kill_at:
                process.kill()
                with self._lock:
                    self._watchdog_kills += 1
                raise _WorkerDied()
            try:
                if conn.poll(POLL_INTERVAL):
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
        :class:`DeadlineExceededError`.  Each attempt's watchdog limit
        is ``watchdog_seconds`` from its checkout; a worker past it is
        killed by :meth:`_recv` and counts as a crash.

        The request is pickled once, to bytes, before the first
        attempt: every retry sends the same bytes, and a send that
        fails on a dead worker leaves no pickle buffer behind.
        """
        payload = pickle.dumps(message)
        attempts = 0
        while True:
            handle = self._checkout(deadline)
            kill_at = (
                None if self.watchdog_seconds is None
                else time.monotonic() + self.watchdog_seconds
            )
            try:
                handle.conn.send_bytes(payload)
                reply = self._recv(handle, deadline, kill_at)
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
                self._idle.put(handle)
                raise
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
        plan_stats = result_cache_stats = CacheStats()
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
            result_cache_stats = result_cache_stats + part.result_cache_stats
            group_stats = group_stats + part.stats
        if errors:
            raise errors[0]
        return BatchResult(
            results=results,
            seconds=time.perf_counter() - start,
            cache_stats=plan_stats,
            result_cache_stats=result_cache_stats,
            workers=max(shard_count, 1),
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
            "plan_cache": plan_cache_record(CacheStats()),
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
