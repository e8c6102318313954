"""The multi-graph registry behind the query service.

A long-lived service owns many graphs at once — one per tenant,
dataset or snapshot generation — and must amortise compilation across
every request that hits the same graph.  :class:`GraphRegistry` does
exactly that: each registered name is bound once to a compiled
:class:`~repro.engine.IndexedGraph` wrapped in a
:class:`~repro.engine.QueryEngine` (which carries the thread-safe LRU
plan cache), plus a :class:`GraphStats` block of serving counters.

Registration accepts a mutable :class:`~repro.graphs.dbgraph.DbGraph`
(compiled here), an already-compiled view, or a snapshot path
(:func:`~repro.service.snapshot.load_snapshot` — the warm-start path).
A registry that runs worker pools serves every graph through one
pooled path: a graph registered from memory (:meth:`register`, whatever
the graph is) is spooled to a snapshot file first, a snapshot path
(:meth:`register_snapshot`) is served as it stands, and the parent's
engine and every pool worker then attach that one file, so each
pooled graph has one physical copy.  The registry marks nothing on a
caller's graph and never deletes a caller's file.  Eviction drops the
engine, its plan cache and its stats atomically, and deletes the file
the registry spooled for the graph.  All operations lock internally;
the registry is shared by every request handler of the server.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

from ..errors import ServiceError
from ..engine import IndexedGraph, QueryEngine
from . import faults
from . import snapshot as snapshots
from .protocol import plan_cache_record, result_cache_record

if TYPE_CHECKING:
    from ..engine.engine import BatchResult, EngineResult
    from .workers import WorkerPool


def _safe_name(name: str) -> str:
    """A filesystem-safe slug of a graph name (spool file naming)."""
    return "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in name[:48]
    )


def _trim_heap() -> None:
    """Hand the C heap's free pages back to the OS (glibc only).

    glibc keeps a freed block that was too small for its own mapping
    in the heap, and returns heap pages only from the top, so whether
    a freed compile leaves the process depends on where later blocks
    happened to land.  ``malloc_trim(0)`` releases every free page.
    Only pooled registration trims, so only it loads :mod:`ctypes`.
    """
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):  # not glibc: nothing to trim
        return
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    trim(0)


def _discard(path: str) -> None:
    """Delete a spool file the registry wrote (best effort: a file that
    is already gone, or cannot be removed, must not fail an eviction)."""
    try:
        os.unlink(path)
    except OSError:
        pass


@dataclass
class GraphStats:
    """Serving counters for one registered graph."""

    #: "compiled" (from a DbGraph), "indexed" (from an IndexedGraph)
    #: or "snapshot".
    source: str = "compiled"
    #: Seconds spent compiling or thawing the indexed view.
    prepare_seconds: float = 0.0
    registered_at: float = field(default_factory=time.time)
    queries: int = 0
    batches: int = 0
    found: int = 0
    errors: int = 0
    busy_seconds: float = 0.0
    #: Requests that exhausted the pool's crash-retry budget
    #: (surfaced to clients as 503 + Retry-After).
    worker_crashes: int = 0
    #: Requests answered below full service (degradation ladder > 0).
    degraded: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "prepare_seconds": self.prepare_seconds,
            "registered_at": self.registered_at,
            "queries": self.queries,
            "batches": self.batches,
            "found": self.found,
            "errors": self.errors,
            "busy_seconds": self.busy_seconds,
            "worker_crashes": self.worker_crashes,
            "degraded": self.degraded,
        }


class RegisteredGraph:
    """One registry entry: name, engine, serving stats, optional pool.

    When the registry runs with ``worker_processes > 0``, ``pool`` is
    the entry's pre-fork :class:`~repro.service.workers.WorkerPool`
    (workers attached to the graph's shared snapshot, which the
    parent's ``engine`` serves from too); the server dispatches
    ``/query`` and ``/batch`` to it instead of the in-process engine.
    ``spool_path`` is the snapshot the registry spooled for the graph
    (None for a graph registered from the caller's snapshot file, or
    served in process); :meth:`close` deletes it.
    """

    __slots__ = ("name", "engine", "stats", "pool", "spool_path", "_lock")

    def __init__(self, name: str, engine: QueryEngine,
                 stats: GraphStats,
                 pool: "WorkerPool | None" = None,
                 spool_path: str | None = None) -> None:
        self.name = name
        self.engine = engine
        self.stats = stats
        self.pool = pool
        self.spool_path = spool_path
        self._lock = threading.Lock()

    def close(self) -> None:
        """Release serving resources: the worker pool and the spooled
        snapshot, if any.

        Deleting the spool file does not disturb the parent's attached
        engine (POSIX keeps the inode alive under its mapping).
        """
        try:
            if self.pool is not None:
                self.pool.close()
        finally:
            if self.spool_path is not None:
                _discard(self.spool_path)

    def record_batch(self, batch: BatchResult) -> None:
        """Fold one :class:`BatchResult` into the serving counters."""
        with self._lock:
            self.stats.batches += 1
            self.stats.queries += len(batch)
            self.stats.found += batch.found_count
            self.stats.errors += batch.error_count
            self.stats.busy_seconds += batch.seconds

    def record_query(self, result: EngineResult, seconds: float) -> None:
        """Fold one :class:`EngineResult` into the serving counters."""
        with self._lock:
            self.stats.queries += 1
            if result.found:
                self.stats.found += 1
            if result.error is not None:
                self.stats.errors += 1
            self.stats.busy_seconds += seconds

    def record_query_failure(self, seconds: float) -> None:
        """One query that raised before producing a result."""
        with self._lock:
            self.stats.queries += 1
            self.stats.errors += 1
            self.stats.busy_seconds += seconds

    def record_worker_crash(self) -> None:
        """One request lost to a crashed pool worker (after retries)."""
        with self._lock:
            self.stats.worker_crashes += 1

    def record_degraded(self) -> None:
        """One request answered below full service quality."""
        with self._lock:
            self.stats.degraded += 1

    def describe(self) -> dict[str, Any]:
        """A JSON-safe stats dict (graph shape + serving counters)."""
        graph = self.engine.graph
        plan_cache = self.engine.cache_stats()
        with self._lock:
            stats = self.stats.as_dict()
        stats.update(
            name=self.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            labels="".join(sorted(graph.labels())),
            graph_view="csr",
            plan_cache=plan_cache_record(plan_cache),
            result_cache=result_cache_record(
                self.engine.result_cache_stats()
            ),
            reachability_index=self.engine.reachability_info(),
            portfolio={
                "enabled": self.engine.portfolio,
                "failure_probability": (
                    self.engine.portfolio_failure_probability
                ),
                "seed": self.engine.portfolio_seed,
            },
        )
        if self.pool is not None:
            # Pool-served graphs report both sides: the shared
            # parent-side counters above and the per-worker
            # cache/serving counters below.
            stats["workers"] = self.pool.stats()
            stats["snapshot_path"] = self.pool.snapshot_path
        return stats


class GraphRegistry:
    """Thread-safe name → compiled graph + engine + stats mapping.

    Parameters
    ----------
    engine_kwargs:
        :class:`~repro.engine.QueryEngine` constructor kwargs for the
        engine of every graph registered here (and for its pool's
        workers), passed through unchanged; the engine declares,
        defaults and validates them.  Individual requests can still
        override the per-query ones (deadline, budget, portfolio).
    max_graphs:
        Optional cap on simultaneously registered graphs; registering
        beyond it raises :class:`~repro.errors.ServiceError` (evict
        first — the registry never silently drops a graph).
    worker_processes:
        When > 0, every registered graph gets a pre-fork
        :class:`~repro.service.workers.WorkerPool` of this many
        processes, and the server answers ``/query`` and ``/batch``
        from the pool.  The parent's engine and every worker attach
        read-only to one snapshot file, so the graph has one physical
        copy however many processes serve it.  Graphs registered from
        memory (:meth:`register`) are spooled to ``spool_dir`` first.
        ``0`` (the default) keeps the classic in-process serving path:
        each engine serves its own compile.
    spool_dir:
        Where pool snapshots for memory-registered graphs land; each
        is deleted when its graph is evicted or the registry closes.
        ``None`` creates a private temporary directory, removed by
        :meth:`close`.
    pool_kwargs:
        Extra :class:`~repro.service.workers.WorkerPool` constructor
        kwargs applied to every pool this registry builds (e.g.
        ``watchdog_seconds``, ``grace_seconds``); ignored when
        ``worker_processes`` is 0.
    """

    def __init__(self, engine_kwargs: Mapping[str, Any] | None = None,
                 max_graphs: int | None = None,
                 worker_processes: int = 0,
                 spool_dir: Any = None,
                 pool_kwargs: dict | None = None) -> None:
        if max_graphs is not None and max_graphs < 1:
            raise ValueError(
                "max_graphs must be >= 1 or None, got %r" % (max_graphs,)
            )
        if worker_processes < 0:
            raise ValueError(
                "worker_processes must be >= 0, got %d" % worker_processes
            )
        self.max_graphs = max_graphs
        self.worker_processes = worker_processes
        # Read-only after construction (applied to every engine and
        # pool build).
        self.engine_kwargs = MappingProxyType(dict(engine_kwargs or {}))
        self.pool_kwargs = MappingProxyType(dict(pool_kwargs or {}))
        self._spool_dir = None if spool_dir is None else os.fspath(spool_dir)
        self._spool_owned = False
        self._spool_counter = 0
        self._entries: dict[str, RegisteredGraph] = {}
        self._lock = threading.Lock()

    # -- worker pools ------------------------------------------------------------

    def _ensure_spool_dir(self) -> str:
        with self._lock:
            if self._spool_dir is None:
                self._spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
                self._spool_owned = True
            else:
                os.makedirs(self._spool_dir, exist_ok=True)
            return self._spool_dir

    def _spool(self, name: str, graph: Any) -> str:
        """Write ``graph`` to a fresh spool snapshot; returns its path.

        :func:`~repro.service.snapshot.save_snapshot` compiles a
        :class:`DbGraph` and its reach parts for the write alone, so
        nothing of that compile outlives this call.
        """
        directory = self._ensure_spool_dir()
        with self._lock:
            self._spool_counter += 1
            count = self._spool_counter
        path = os.path.join(
            directory, "graph-%04d-%s.snap" % (count, _safe_name(name))
        )
        try:
            faults.spool_fault(path)
            snapshots.save_snapshot(graph, path)
        except OSError as err:
            # Spool-dir IO failure (disk full, permissions, or an
            # injected fault): a clean 503 the client can retry, not a
            # stack trace — and no half-written snapshot (save_snapshot
            # writes via rename).
            raise ServiceError(
                "could not spool snapshot for graph %r: %s" % (name, err),
                status=503,
                retry_after=1.0,
                error_type="spool_io",
            ) from err
        return path

    def _serve_pooled(self, name: str, path: str, source: str,
                      start: float, spooled: bool) -> RegisteredGraph:
        """The one pooled path: the parent and its pool attach ``path``.

        The parent's engine serves from the same read-only mapping its
        workers attach (it resolves vertices and answers reach-only
        degraded queries), so the graph has one physical copy.  A file
        the registry spooled belongs to the entry; a registration that
        fails here deletes it.
        """
        from .workers import WorkerPool

        try:
            engine = QueryEngine(
                snapshots.attach_snapshot(path), **self.engine_kwargs
            )
            pool = WorkerPool(
                path,
                engine_kwargs=self.engine_kwargs,
                workers=self.worker_processes,
                **self.pool_kwargs,
            )
        except BaseException:
            if spooled:
                _discard(path)
            raise
        stats = GraphStats(
            source=source, prepare_seconds=time.perf_counter() - start
        )
        return self._install(
            name, engine, stats, pool, path if spooled else None
        )

    def close(self) -> None:
        """Shut down every entry's worker pool and drop the registry.

        A pool-less registry needs no teardown; with pools this must
        run before interpreter exit so workers exit cleanly and an
        owned spool directory is removed.
        """
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            spool_dir = self._spool_dir if self._spool_owned else None
            self._spool_dir = None if self._spool_owned else self._spool_dir
            self._spool_owned = False
        for entry in entries:
            entry.close()
        if spool_dir is not None:
            shutil.rmtree(spool_dir, ignore_errors=True)

    # -- registration -----------------------------------------------------------

    # invariant: holds-lock
    def _admit(self, name: str) -> None:
        if name in self._entries:
            raise ServiceError(
                "graph %r is already registered (evict it first)" % name,
                status=409,
            )
        if self.max_graphs is not None and (
            len(self._entries) >= self.max_graphs
        ):
            raise ServiceError(
                "registry is full (%d graphs); evict one before "
                "registering %r" % (len(self._entries), name),
                status=409,
            )

    def _install(self, name: str, engine: QueryEngine,
                 stats: GraphStats, pool: Any = None,
                 spool_path: str | None = None) -> RegisteredGraph:
        entry = RegisteredGraph(name, engine, stats, pool, spool_path)
        try:
            with self._lock:
                self._admit(name)
                self._entries[name] = entry
        except BaseException:
            # A raced duplicate must not leak its pool or its spool file.
            entry.close()
            raise
        return entry

    def register(self, name: str, graph: Any) -> RegisteredGraph:
        """Register ``graph`` under ``name``, compiling it if needed.

        Accepts a :class:`DbGraph` (compiled to an indexed view here)
        or a pre-compiled :class:`IndexedGraph` (e.g. one thawed from a
        snapshot by the caller).  Returns the :class:`RegisteredGraph`.

        In process (``worker_processes == 0``) the engine serves its
        own compile.  With worker pools, ``graph`` is always written
        straight to a spool snapshot, the registry drops it and
        collects, and the spooled file is then served like
        :meth:`register_snapshot` serves a file: the parent and every
        worker attach it.  A graph the caller passes as a temporary
        (the CLI and ``POST /graphs`` do) is then freed before the
        workers fork.  The spool file belongs to the entry, and
        nothing marks the caller's graph, so the graph can be
        registered again after an evict.  To serve an existing
        snapshot file without a spool, use :meth:`register_snapshot`.
        """
        with self._lock:
            self._admit(name)  # fail fast before paying for the compile
        start = time.perf_counter()
        source = "indexed" if isinstance(graph, IndexedGraph) else "compiled"
        if not self.worker_processes:
            engine = QueryEngine(graph, **self.engine_kwargs)
            stats = GraphStats(
                source=source, prepare_seconds=time.perf_counter() - start
            )
            return self._install(name, engine, stats)
        path = self._spool(name, graph)
        del graph
        # One full collection after the compile is dropped and before
        # the attach.  Freed compile objects otherwise sit in CPython's
        # freelists and pin allocator arenas, which the parent's
        # long-lived state then fills and every forked worker
        # inherits.  On perfbench's point-pool graph (19,200 vertices,
        # 2-vCPU host) this collection freed 4.9-6.0 MB of the
        # server's RSS, and the summed PSS of the server and its two
        # workers (mem_mb) read 71.4-72.0 MB without it and 68.3-68.4
        # MB with it.  Collecting at each fork instead read 76.3-76.4 MB.
        gc.collect()
        # The compile's large buffers go back to the C heap, which
        # keeps them or not by layout alone: on that graph the
        # server's heap held 6.3-6.5 MB or 15.8-16.2 MB depending only
        # on the graph's name, and trimming left 6.5-6.9 MB either way.
        _trim_heap()
        return self._serve_pooled(name, path, source, start, spooled=True)

    def register_snapshot(self, name: str, path: Any) -> RegisteredGraph:
        """Warm-start ``name`` from a snapshot file on disk.

        In process the arrays are loaded into private memory.  With
        worker pools this is the one pooled path :meth:`register` also
        takes: the parent *attaches* the snapshot instead of copying it
        and starts the pool on the same file, so the parent and every
        worker share one physical copy of the graph.  The file stays
        the caller's: the registry never deletes it.
        """
        with self._lock:
            self._admit(name)
        start = time.perf_counter()
        if self.worker_processes:
            return self._serve_pooled(
                name, os.fspath(path), "snapshot", start, spooled=False
            )
        engine = QueryEngine(
            snapshots.load_snapshot(path), **self.engine_kwargs
        )
        stats = GraphStats(
            source="snapshot", prepare_seconds=time.perf_counter() - start
        )
        return self._install(name, engine, stats)

    def evict(self, name: str) -> RegisteredGraph:
        """Drop ``name`` (engine, plan cache, pool and stats go with it)."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise ServiceError("unknown graph %r" % name, status=404)
        entry.close()
        return entry

    # -- lookup ------------------------------------------------------------------

    def get(self, name: str) -> RegisteredGraph:
        """The :class:`RegisteredGraph` for ``name`` (404 if unknown)."""
        with self._lock:
            entry = self._entries.get(name)
            known = sorted(self._entries) if entry is None else []
        if entry is None:
            raise ServiceError(
                "unknown graph %r (registered: %s)"
                % (name, ", ".join(known) or "none"),
                status=404,
            )
        return entry

    def resolve(self, name: str | None) -> RegisteredGraph:
        """Like :meth:`get`, but ``None`` picks the sole graph if any.

        A single-graph deployment should not need to spell the name in
        every request; with two or more graphs the name is required.
        """
        if name is not None:
            return self.get(name)
        with self._lock:
            if len(self._entries) == 1:
                return next(iter(self._entries.values()))
            count = len(self._entries)
        raise ServiceError(
            "request names no graph and the registry holds %d — pass "
            "'graph'" % count,
            status=400,
        )

    def engine(self, name: str) -> QueryEngine:
        return self.get(name).engine

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def describe(self) -> list[dict[str, Any]]:
        """JSON-safe stats for every registered graph (sorted by name)."""
        with self._lock:
            entries = sorted(self._entries.items())
        return [entry.describe() for _name, entry in entries]
