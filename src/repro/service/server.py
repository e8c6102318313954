"""Stdlib-only asyncio JSON-over-HTTP query server (``repro serve``).

One :class:`QueryService` wraps a
:class:`~repro.service.registry.GraphRegistry` and serves it over a
minimal HTTP/1.1 implementation built directly on
:func:`asyncio.start_server` — no third-party web framework, because
the serving tier must run wherever the solvers do.

Endpoints (all request/response bodies are JSON):

``GET /healthz``
    Liveness: status, graph count, in-flight queries.
``GET /stats``
    Service counters (requests, rejections, errors, uptime) plus
    per-graph serving stats and plan-cache counters.
``GET /graphs``
    The per-graph stats list on its own.
``POST /graphs``  ``{"name": ..., "graph_text": ...}``
    Register a graph from the :mod:`repro.graphs.io` text format
    (compiled on arrival).  409 if the name is taken.
``DELETE /graphs/<name>``
    Evict a graph (engine, plan cache and stats drop together).
``POST /query``
    ``{"graph"?, "language", "source", "target", "deadline_seconds"?,
    "budget"?, "portfolio"?, "max_path_edges"?}`` — one RSPQ.  The
    optional per-request deadline/budget
    map onto the query's :class:`~repro.execution.ExecutionContext`;
    non-positive values and non-finite deadlines are rejected upfront
    with 400 (an already-expired deadline can never admit work, and a
    NaN or infinite one could never fire).  ``portfolio``
    (boolean) overrides the engine's default hard-regime ladder
    routing; ``max_path_edges`` (int >= 0) bounds the answer to
    simple paths of at most that many edges (k-RSPQ).  Result records
    carry ``confidence`` / ``failure_bound`` for ladder answers.
``POST /batch``
    ``{"graph"?, "queries": [[language, source, target], ...],
    "workers"?, "deadline_seconds"?, "budget"?, "portfolio"?,
    "max_path_edges"?}`` — a batch answered by
    :meth:`QueryEngine.run_batch` in the server process, or sharded
    over the graph's worker pool when it has one.  ``workers``
    (default 1) caps that fan-out; it is clamped to the pool's
    processes, so a graph without a pool always answers with
    ``"workers": 1``.  Queries sharing a plan are decided together
    by a walk sweep where it can prove them NOT_FOUND; the response's
    ``vectorized_stats`` block reports groups, sweeps and peels.
    Per-query failures stay isolated inside the 200 response (each
    result record carries its own ``error`` field), exactly like the
    library contract.
``POST /classify``
    ``{"language": ...}`` — trichotomy classification plus the solver
    strategy the engine would dispatch to (plan-cached service-side).

``/query`` and ``/batch`` share one read path: the payload's
overrides, the graph's circuit breaker, the degradation ladder,
admission, one executor call to the graph's worker pool or engine, and
one map from errors to statuses: 400 bad input, 404 unknown graph, 422
budget exhausted, 429 shed by admission, 503 ``circuit_open`` while
the graph's breaker is open, 503 ``worker_crash`` when a pool worker
is lost past its retries or cannot be respawned, and 504 deadline
exceeded.  A batch's per-query failures stay inside its 200.  At
ladder level 2 (reach-only) a query gets a reachability-index-certified
negative or 503 ``degraded_reach_only``; a batch always gets the 503.

Connections: HTTP/1.1 keep-alive.  One connection carries any number
of requests, answered in order.  Each request has one ``read_timeout``
deadline, counted from the previous response (or the accept), for the
wait and the whole read (request line, headers and body).  A
connection on which no byte of a new request arrives by then, or that
the client closes, is closed without a response.  A response carries
``connection: close``, and the connection then closes, when:

* the client sent ``Connection: close`` or spoke HTTP/1.0;
* the request's framing cannot be trusted, so the start of the next
  request is unknown: a malformed request line, a header section past
  ``MAX_HEADER_LINES`` / ``MAX_HEADER_BYTES``, a Content-Length that
  is not plain ASCII digits or that repeats with different values, any
  Transfer-Encoding (only Content-Length bodies are read), a body past
  ``MAX_BODY_BYTES`` (413), or a read that ended early or ran out of
  time;
* shutdown has begun.

An error answer to a well-framed request (400 for a bad JSON value,
404, 405, 409, 422, 429, 500, 503, 504) leaves the connection open.

Shutdown (:meth:`QueryService.close`, and :meth:`QueryService.shutdown`
on SIGTERM): the listening socket closes, no connection reads a new
request, idle connections close at once, and a busy connection sends
its current response with ``connection: close`` and then closes.
Connections still busy after ``drain_timeout`` are cut off.

Admission control: the service bounds **in-flight queries** (not
connections).  A single query weighs 1, a batch weighs its query
count; when accepting a request would push the total past
``max_inflight`` it is rejected *immediately* with 429 — bounded
queueing beats unbounded latency.  Consequently a batch larger than
``max_inflight`` can never be admitted; split it client-side.

Solving happens in a thread-pool executor so the event loop stays free
to answer health checks while long queries run; registration,
eviction and the registry's stats run there too, since each may wait
on a worker pool.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import signal
import time
from typing import TYPE_CHECKING, Any
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from threading import Event, Thread
from urllib.parse import unquote

from ..errors import (
    BudgetExceededError,
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    SnapshotError,
    WorkerCrashError,
)
from ..engine.plan import QueryPlan, plan_key
from ..graphs import io as graph_io
from ..lru import LruCache
from . import faults
from .protocol import batch_record, result_record
from .resilience import (
    LEVEL_PORTFOLIO,
    LEVEL_REACH_ONLY,
    BreakerConfig,
    CircuitBreaker,
    DegradationLadder,
    LadderConfig,
    LoadShedder,
    ShedConfig,
)

if TYPE_CHECKING:
    from .registry import GraphRegistry

#: Bytes of request body the server is willing to read.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Header-section bounds — a client streaming endless header lines
#: must exhaust its welcome, not the server's memory.
MAX_HEADER_LINES = 100
MAX_HEADER_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServiceConfig:
    """Ops knobs for one :class:`QueryService`.

    Parameters
    ----------
    workers:
        Size of the solve executor: the threads that run queries and
        batches off the event loop.
    max_inflight:
        Admission-control bound on simultaneously in-flight queries.
    read_timeout:
        Seconds a connection has, from its previous response (or the
        accept), to deliver its next whole request (request line,
        headers and body).  A connection idle that long is closed
        without a response; a request cut off by it gets 400.
    soft_inflight:
        Load-shedding watermark (see
        :class:`~repro.service.resilience.LoadShedder`): on top of the
        ``max_inflight`` cap the shedder always sheds doomed-deadline
        work, and above ``soft_inflight`` it sheds cheap-to-retry
        requests first.  Unset (the default), the soft band is empty.
    breaker_threshold / breaker_cooldown / breaker_max_cooldown /
    breaker_jitter:
        Per-graph circuit-breaker knobs (see
        :class:`~repro.service.resilience.CircuitBreaker`): after
        ``breaker_threshold`` consecutive worker-crash failures a
        graph's circuit opens for a seeded-jittered exponential
        cooldown; one half-open probe decides recovery.
    degrade_crash_threshold / degrade_shed_threshold /
    degrade_recovery_seconds:
        Graceful-degradation ladder knobs (see
        :class:`~repro.service.resilience.DegradationLadder`); the
        ladder counts failures over the default
        :class:`~repro.service.resilience.LadderConfig` window.
    drain_timeout:
        Seconds :meth:`QueryService.close` and
        :meth:`QueryService.shutdown` wait for busy connections to
        send their responses before cutting them off.
    """

    workers: int = 4
    max_inflight: int = 64
    read_timeout: float = 30.0
    soft_inflight: int | None = None
    breaker_threshold: int = 5
    breaker_cooldown: float = 1.0
    breaker_max_cooldown: float = 30.0
    breaker_jitter: float = 0.1
    degrade_crash_threshold: int = 3
    degrade_shed_threshold: int = 16
    degrade_recovery_seconds: float = 5.0
    drain_timeout: float = 10.0

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1, got %d" % self.workers)
        if self.max_inflight < 1:
            raise ValueError(
                "max_inflight must be >= 1, got %d" % self.max_inflight
            )
        if self.read_timeout <= 0:
            raise ValueError(
                "read_timeout must be positive, got %r"
                % (self.read_timeout,)
            )
        if self.drain_timeout < 0:
            raise ValueError(
                "drain_timeout must be >= 0, got %r"
                % (self.drain_timeout,)
            )
        # The resilience configs validate their own knobs eagerly so a
        # bad flag fails at construction, not at the first overload.
        self.shed_config()
        self.breaker_config()
        self.ladder_config()

    def shed_config(self) -> ShedConfig:
        return ShedConfig(
            max_inflight=self.max_inflight,
            workers=self.workers,
            soft_inflight=self.soft_inflight,
        )

    def breaker_config(self) -> BreakerConfig:
        return BreakerConfig(
            failure_threshold=self.breaker_threshold,
            cooldown_seconds=self.breaker_cooldown,
            max_cooldown_seconds=self.breaker_max_cooldown,
            jitter=self.breaker_jitter,
        )

    def ladder_config(self) -> LadderConfig:
        return LadderConfig(
            crash_threshold=self.degrade_crash_threshold,
            shed_threshold=self.degrade_shed_threshold,
            recovery_seconds=self.degrade_recovery_seconds,
        )


def _resolve_vertex(graph, value, side):
    """Map a JSON endpoint onto the graph's vertex universe.

    JSON cannot express "the int 3" vs "the string '3'" ambiguity a
    curl user faces, so when the literal value is unknown the other
    spelling is tried before giving up (the engine still raises its
    own :class:`GraphError` for genuinely unknown vertices).
    """
    if not isinstance(value, (int, str)) or isinstance(value, bool):
        raise ServiceError(
            "%s must be an int or string vertex name, got %r"
            % (side, value)
        )
    if graph.has_vertex(value):
        return value
    if isinstance(value, int) and graph.has_vertex(str(value)):
        return str(value)
    if isinstance(value, str):
        try:
            as_int = int(value)
        except ValueError:
            pass
        else:
            if graph.has_vertex(as_int):
                return as_int
    return value


def _checked_language(value):
    if not isinstance(value, str) or not value.strip():
        raise ServiceError(
            "'language' must be a non-empty regex string, got %r" % (value,)
        )
    return value


def _checked_overrides(payload):
    """Validated (deadline_seconds, budget) from a request payload."""
    deadline = payload.get("deadline_seconds")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(
            deadline, bool
        ):
            raise ServiceError(
                "'deadline_seconds' must be a number, got %r" % (deadline,)
            )
        if not 0 < deadline < math.inf:
            raise ServiceError(
                "'deadline_seconds' must be positive and finite, got "
                "%r — an already-expired deadline can never admit "
                "work, and a NaN or infinite one never fires"
                % (deadline,)
            )
    budget = payload.get("budget")
    if budget is not None:
        if not isinstance(budget, int) or isinstance(budget, bool):
            raise ServiceError(
                "'budget' must be an integer, got %r" % (budget,)
            )
        if budget <= 0:
            raise ServiceError(
                "'budget' must be a positive step count, got %r" % (budget,)
            )
    return deadline, budget


def _checked_portfolio_knobs(payload):
    """Validated (portfolio, max_path_edges) from a request payload."""
    portfolio = payload.get("portfolio")
    if portfolio is not None and not isinstance(portfolio, bool):
        raise ServiceError(
            "'portfolio' must be a boolean, got %r" % (portfolio,)
        )
    max_path_edges = payload.get("max_path_edges")
    if max_path_edges is not None:
        if not isinstance(max_path_edges, int) or isinstance(
            max_path_edges, bool
        ) or max_path_edges < 0:
            raise ServiceError(
                "'max_path_edges' must be an integer >= 0, got %r"
                % (max_path_edges,)
            )
    return portfolio, max_path_edges


def _error_payload(err):
    """``(status, payload)`` answering a request that raised ``err``.

    A :class:`ServiceError` carries its status and a structured body:
    machine-readable type and retry hint beside the human message (the
    server mirrors the hint in a Retry-After header for header-only
    clients).  Anything else is a 500: one bad request never kills the
    acceptor.
    """
    if not isinstance(err, ServiceError):
        return 500, {
            "error": "internal error: %s" % err,
            "error_type": type(err).__name__,
        }
    payload = {"error": str(err)}
    if err.error_type is not None:
        payload["error_type"] = err.error_type
    if err.retry_after is not None:
        payload["retry_after"] = round(max(err.retry_after, 0.0), 3)
    return err.status, payload


class QueryService:
    """The serving tier: registry + admission control + HTTP front end."""

    def __init__(self, registry: "GraphRegistry",
                 config: "ServiceConfig | None" = None) -> None:
        self.registry = registry
        self.config = config or ServiceConfig()
        self._requests = 0
        self._rejected = 0
        self._errors = 0
        self._started_at = time.time()
        self._executor: Any = None
        self._server: Any = None
        # Graph-independent plans for /classify (small, service-wide).
        self._classify_cache: LruCache[tuple, QueryPlan] = LruCache(64)
        # Resilience state: one shedder and one degradation ladder for
        # the whole service, one circuit breaker per graph (created
        # lazily; all accessed from the event loop, internally locked).
        self.shedder = LoadShedder(self.config.shed_config())
        self.ladder = DegradationLadder(self.config.ladder_config())
        self._breakers: dict[str, CircuitBreaker] = {}
        self._worker_crashes = 0
        # Connections (event-loop state): accepted since start, every
        # open one's handler task and writer, and the writers of those
        # waiting for their next request.
        self._connections = 0
        self._open: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 8080) -> "asyncio.AbstractServer":
        """Bind the listening socket; returns the asyncio server."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        self._server = await asyncio.start_server(
            self._handle_client, host, port
        )
        self._started_at = time.time()
        return self._server

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`; supports ``port=0``)."""
        return self._server.sockets[0].getsockname()[1]

    async def close(self, drain_timeout: "float | None" = None) -> None:
        """Stop serving; the registry stays open.

        Closes the listening socket and every idle connection at once,
        then waits up to ``drain_timeout`` (default: the config's) for
        busy connections to send their responses, which carry
        ``connection: close``.  Connections still busy after that are
        cut off.  Finally the executor shuts down, which waits for the
        work it is running.
        """
        timeout = (
            self.config.drain_timeout if drain_timeout is None
            else drain_timeout
        )
        if self._server is not None:
            self._closing = True
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            if self._open:
                _done, busy = await asyncio.wait(
                    set(self._open), timeout=timeout
                )
                for task in busy:
                    self._open[task].transport.abort()
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._open:
            # Cut-off handlers end once their executor work has.
            await asyncio.wait(set(self._open), timeout=timeout)

    async def shutdown(self, drain_timeout: "float | None" = None) -> None:
        """Graceful teardown: :meth:`close`, then close the registry.

        Worker pools exit cleanly and owned spool directories are
        removed.  This is what ``repro serve`` runs on SIGTERM/SIGINT.
        """
        await self.close(drain_timeout)
        self.registry.close()

    async def serve_until_interrupted(
            self, host: str = "127.0.0.1", port: int = 8080,
            ready: "Any | None" = None) -> None:
        """Serve until SIGTERM/SIGINT, then drain and close cleanly.

        ``ready``, when given, is called with the bound port once the
        socket is listening (``port=0`` deployments need the real
        one).  Falls back to plain serving when the platform or the
        calling thread cannot install loop signal handlers.
        """
        await self.start(host, port)
        if ready is not None:
            ready(self.port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                continue  # non-main thread or platform without support
            installed.append(signum)
        try:
            await stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.shutdown()

    # -- HTTP plumbing -----------------------------------------------------------

    async def _handle_client(self, reader, writer):
        self._connections += 1
        task = asyncio.current_task()
        self._open[task] = writer
        try:
            while await self._serve_next(reader, writer):
                pass
        except ConnectionError:
            pass
        finally:
            del self._open[task]
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _serve_next(self, reader, writer):
        """Answer the connection's next request; False once it must close.

        One ``read_timeout`` deadline, counted from the previous
        response (or the accept), covers the wait for the request and
        the whole read.  The wait for its first byte is the
        connection's idle time: shutdown closes idle connections, and a
        connection that idles past the deadline, or that the client
        closes, ends without a response.
        """
        if self._closing:
            return False
        first = b""
        keep_alive = False
        try:
            async with asyncio.timeout(self.config.read_timeout):
                self._idle.add(writer)
                try:
                    first = await reader.read(1)
                finally:
                    self._idle.discard(writer)
                if not first or self._closing:
                    return False
                method, path, keep_alive, body = await self._read_request(
                    reader, first
                )
        except (TimeoutError, asyncio.IncompleteReadError):
            if not first:
                return False
            status, payload = 400, {"error": "incomplete request"}
        except ConnectionError:
            return False  # reset by the client: nobody to answer
        except Exception as err:
            status, payload = _error_payload(err)
        else:
            try:
                status, payload = await self._route(method, path, body)
            except Exception as err:
                status, payload = _error_payload(err)
        keep_alive = keep_alive and not self._closing
        self._requests += 1
        if status == 429:
            self._rejected += 1
        elif status >= 400:
            self._errors += 1
        body = json.dumps(payload).encode("utf-8")
        head = (
            "HTTP/1.1 %d %s\r\n"
            "content-type: application/json\r\n"
            "content-length: %d\r\n"
            % (status, _REASONS.get(status, "Error"), len(body))
        )
        retry_after = payload.get("retry_after")
        if retry_after is not None and status in (429, 503):
            # HTTP Retry-After is integer seconds; round up so the
            # header never promises an earlier retry than the body.
            head += "retry-after: %d\r\n" % math.ceil(retry_after)
        if not keep_alive:
            head += "connection: close\r\n"
        writer.write((head + "\r\n").encode("ascii") + body)
        await writer.drain()
        return keep_alive

    async def _read_request(self, reader, first):
        """``(method, path, keep_alive, body)`` of the request that
        starts with the byte ``first``.

        Raises :class:`ServiceError` (or ``IncompleteReadError``) when
        the request's framing cannot be trusted; the caller answers and
        closes the connection, since the next request's start is
        unknown.
        """
        try:
            request_line = first + await reader.readline()
            header_lines = []
            header_bytes = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if not line.endswith(b"\n"):
                    raise asyncio.IncompleteReadError(line, None)
                header_bytes += len(line)
                if len(header_lines) >= MAX_HEADER_LINES or (
                    header_bytes > MAX_HEADER_BYTES
                ):
                    raise ValueError
                header_lines.append(line)
        except ValueError:
            # Past the caps, or one line past the stream's buffer limit.
            raise ServiceError(
                "request header section exceeds %d lines / %d bytes"
                % (MAX_HEADER_LINES, MAX_HEADER_BYTES),
                status=400,
            ) from None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ServiceError("malformed request line", status=400)
        method, path = parts[0].upper(), parts[1]
        close = len(parts) < 3 or parts[2] != "HTTP/1.1"
        length = None
        for line in header_lines:
            name, _sep, value = line.partition(b":")
            name = name.strip().lower()
            value = value.strip(b" \t\r\n")
            if name == b"content-length":
                # ASCII digits only, and every copy the same: anything
                # else leaves the end of the body a guess.
                if not value.isdigit() or length not in (None, value):
                    raise ServiceError("bad content-length", status=400)
                length = value
            elif name == b"transfer-encoding":
                raise ServiceError(
                    "transfer-encoding is not supported; send the body "
                    "with a content-length",
                    status=400,
                )
            elif name == b"connection":
                close = close or b"close" in (
                    token.strip().lower() for token in value.split(b",")
                )
        size = 0 if length is None else int(length)
        if size > MAX_BODY_BYTES:
            raise ServiceError(
                "request body exceeds %d bytes" % MAX_BODY_BYTES,
                status=413,
            )
        body = await reader.readexactly(size) if size else b""
        return method, path, not close, body

    @staticmethod
    def _json_body(body):
        if not body:
            raise ServiceError("request needs a JSON body", status=400)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ServiceError("bad JSON body: %s" % err, status=400) from err
        if not isinstance(payload, dict):
            raise ServiceError(
                "JSON body must be an object, got %s"
                % type(payload).__name__,
                status=400,
            )
        return payload

    async def _route(self, method, path, body):
        if path == "/healthz" and method == "GET":
            return 200, self._healthz()
        if path == "/stats" and method == "GET":
            return 200, await self._stats()
        if path == "/graphs" and method == "GET":
            return 200, {
                "graphs": await self._in_executor(self.registry.describe)
            }
        if path == "/graphs" and method == "POST":
            return await self._register_graph(self._json_body(body))
        if path.startswith("/graphs/") and method == "DELETE":
            return await self._evict_graph(unquote(path[len("/graphs/"):]))
        if path == "/query" and method == "POST":
            return await self._query(self._json_body(body))
        if path == "/batch" and method == "POST":
            return await self._batch(self._json_body(body))
        if path == "/classify" and method == "POST":
            return await self._classify(self._json_body(body))
        if path in ("/healthz", "/stats", "/graphs", "/query", "/batch",
                    "/classify") or path.startswith("/graphs/"):
            raise ServiceError(
                "%s does not support %s" % (path, method), status=405
            )
        raise ServiceError("no such endpoint %r" % path, status=404)

    # -- admission control -------------------------------------------------------

    def _breaker(self, name):
        """The (lazily created) circuit breaker for graph ``name``."""
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker_config())
            self._breakers[name] = breaker
        return breaker

    async def _in_executor(self, fn):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn)

    # -- endpoints ---------------------------------------------------------------

    def _healthz(self):
        level = self.ladder.level
        return {
            "status": "ok" if level == 0 else "degraded",
            "graphs": len(self.registry),
            "inflight": self.shedder.inflight,
            "degradation": {
                "level": level,
                "level_name": self.ladder.level_name,
            },
            "uptime_seconds": time.time() - self._started_at,
        }

    async def _stats(self):
        # The service counters and the breakers are event-loop state:
        # read them here.  The registry's part may wait on worker
        # pools (and respawn a dead idle worker), so it runs off the
        # loop.
        from .workers import _pss_mb

        stats = {
            "service": {
                "uptime_seconds": time.time() - self._started_at,
                "pss_mb": _pss_mb(),
                "inflight": self.shedder.inflight,
                "max_inflight": self.config.max_inflight,
                "workers": self.config.workers,
                "requests": self._requests,
                "connections": self._connections,
                "open_connections": len(self._open),
                "rejected": self._rejected,
                "errors": self._errors,
                "worker_crashes": self._worker_crashes,
            },
            "resilience": {
                "shedder": self.shedder.describe(),
                "ladder": self.ladder.describe(),
                "breakers": {
                    name: breaker.describe()
                    for name, breaker in sorted(self._breakers.items())
                },
            },
        }
        stats["graphs"] = await self._in_executor(self.registry.describe)
        return stats

    async def _register_graph(self, payload):
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ServiceError("'name' must be a non-empty string")
        text = payload.get("graph_text")
        if not isinstance(text, str):
            raise ServiceError(
                "'graph_text' must carry the graph in the text format "
                "(e source label target / v vertex, one per line)"
            )

        def work():
            # Parse + compile off the event loop: a large registration
            # must not stall health checks or in-flight responses.
            return self.registry.register(name, graph_io.loads(text))

        try:
            entry = await self._in_executor(work)
        except ServiceError:
            raise  # already carries its status (409 duplicate/full)
        except ReproError as err:
            raise ServiceError(str(err), status=400) from err
        return 200, {"registered": name, "stats": entry.describe()}

    async def _evict_graph(self, name):
        def work():
            # Closing a pooled graph joins its workers, which may first
            # finish a slow query: keep that off the event loop.
            return self.registry.evict(name).describe()

        return 200, {"evicted": name, "stats": await self._in_executor(work)}

    async def _query(self, payload):
        entry = self.registry.resolve(payload.get("graph"))
        graph = entry.engine.graph
        language = _checked_language(payload.get("language"))
        if "source" not in payload or "target" not in payload:
            raise ServiceError("'source' and 'target' are required")
        query = (
            language,
            _resolve_vertex(graph, payload["source"], "source"),
            _resolve_vertex(graph, payload["target"], "target"),
        )
        return await self._read(entry, payload, [query])

    async def _batch(self, payload):
        entry = self.registry.resolve(payload.get("graph"))
        graph = entry.engine.graph
        raw_queries = payload.get("queries")
        if not isinstance(raw_queries, list) or not raw_queries:
            raise ServiceError(
                "'queries' must be a non-empty list of "
                "[language, source, target] triples"
            )
        triples = []
        for index, item in enumerate(raw_queries):
            if (not isinstance(item, (list, tuple))) or len(item) != 3:
                raise ServiceError(
                    "queries[%d] is not a [language, source, target] "
                    "triple: %r" % (index, item)
                )
            lang, source, target = item
            triples.append((
                _checked_language(lang),
                _resolve_vertex(graph, source, "source"),
                _resolve_vertex(graph, target, "target"),
            ))
        workers = payload.get("workers", 1)
        if not isinstance(workers, int) or isinstance(workers, bool) or (
            workers < 1
        ):
            raise ServiceError(
                "'workers' must be a positive integer, got %r" % (workers,)
            )
        return await self._read(entry, payload, triples, workers)

    async def _read(self, entry, payload, queries, workers=None):
        """Answer ``queries`` on ``entry``'s graph: the one request
        protocol of ``/query`` (``workers`` None, one query) and
        ``/batch``.

        In order: the payload's overrides, the graph's circuit breaker,
        the degradation ladder, admission by weight (one per query),
        one executor call to the graph's pool or engine, one map from
        errors to statuses, and the success accounting.
        """
        deadline, budget = _checked_overrides(payload)
        portfolio, max_path_edges = _checked_portfolio_knobs(payload)
        deadline = faults.skewed_deadline(deadline)
        single = workers is None
        breaker = self._breaker(entry.name)
        retry_in = breaker.admit()
        if retry_in is not None:
            raise ServiceError(
                "graph %r circuit is open after repeated worker "
                "failures; retry in %.3fs" % (entry.name, retry_in),
                status=503,
                retry_after=retry_in,
                error_type="circuit_open",
            )
        # Past this point the request may hold the breaker's single
        # half-open probe slot.  Every exit path must either resolve
        # the probe (record_success / record_failure) or hand it back
        # — a request shed by admission, rejected for bad input, or
        # timed out says nothing about the graph's health, and a
        # leaked slot would 503 the graph forever.
        try:
            level = self.ladder.level
            degraded = level >= LEVEL_PORTFOLIO
            reach_only = level >= LEVEL_REACH_ONLY
            if degraded and portfolio is None:
                # Ladder level 1: hard-regime queries go through the
                # anytime portfolio by default (an explicit per-request
                # override still wins).  Finite/tractable plans are
                # unaffected — the engine routes only hard plans
                # through the ladder, so easy queries stay certified.
                portfolio = True
            knobs = {
                "deadline_seconds": deadline,
                "budget": budget,
                "portfolio": portfolio,
                "max_path_edges": max_path_edges,
            }
            engine, pool = entry.engine, entry.pool
            if reach_only:
                # Ladder level 2 never runs a solver: the reachability
                # index either *proves* NOT_FOUND (served degraded,
                # still certified) or the query is shed below — a wrong
                # answer is never an option.  It cannot bound a whole
                # batch's work, so batches are shed until the service
                # steps back down.
                if not single:
                    raise ServiceError(
                        "service is in reach-only degraded mode; batches "
                        "are shed until recovery — retry later or resend "
                        "as individual queries",
                        status=503,
                        retry_after=self.config.degrade_recovery_seconds,
                        error_type="degraded_reach_only",
                    )
                run = functools.partial(
                    engine.reach_only_result, *queries[0]
                )
            elif single:
                # Pool-backed graphs answer on a pre-forked worker
                # process (shared-snapshot memory model); the executor
                # thread only waits on the worker's pipe, so the GIL
                # stays free.
                run_query = engine.query if pool is None else pool.query
                run = functools.partial(run_query, *queries[0], **knobs)
            elif pool is None:
                run = functools.partial(engine.run_batch, queries, **knobs)
            else:
                # Sharded across the pre-forked workers attached to
                # the shared snapshot.
                run = functools.partial(
                    pool.run_batch, queries, workers=workers, **knobs
                )
            weight = len(queries)
            try:
                self.shedder.admit(weight, None if reach_only else deadline)
            except ServiceOverloadedError:
                self.ladder.record_shed()
                raise
            start = time.perf_counter()
            try:
                answer = await self._in_executor(run)
            except ReproError as err:
                if single:
                    # Counted in the per-graph stats as it would be
                    # inside a batch (queries and errors both move).
                    entry.record_query_failure(time.perf_counter() - start)
                if isinstance(err, (WorkerCrashError, SnapshotError)):
                    # A pool worker lost past its retries, or one that
                    # cannot be respawned (its snapshot will not
                    # attach), is a server fault, not a bad request:
                    # 503 + Retry-After, counted per graph, fed to the
                    # breaker and the ladder.
                    self._worker_crashes += 1
                    entry.record_worker_crash()
                    breaker.record_failure()
                    if breaker.state != "closed":
                        self.ladder.record_breaker_open()
                    else:
                        self.ladder.record_crash()
                    raise ServiceError(
                        "worker pool lost the request to a crashed "
                        "worker: %s" % err,
                        status=503,
                        retry_after=1.0,
                        error_type="worker_crash",
                    ) from err
                if isinstance(err, DeadlineExceededError):
                    raise ServiceError(
                        "query exceeded its deadline: %s" % err, status=504
                    ) from err
                if isinstance(err, BudgetExceededError):
                    raise ServiceError(
                        "query exhausted its step budget: %s" % err,
                        status=422,
                    ) from err
                raise ServiceError(str(err), status=400) from err
            finally:
                self.shedder.release(weight)
            seconds = time.perf_counter() - start
            if answer is None:
                raise ServiceError(
                    "service is in reach-only degraded mode and the "
                    "reachability index cannot certify this query; retry "
                    "after recovery",
                    status=503,
                    retry_after=self.config.degrade_recovery_seconds,
                    error_type="degraded_reach_only",
                )
            if not reach_only:
                self.shedder.observe(seconds, weight)
            # A served request closes a half-open breaker — a certified
            # reach-only negative too, or a service stuck at reach-only
            # could never re-close circuits.
            breaker.record_success()
            self.ladder.record_ok()
            if degraded:
                entry.record_degraded()
            if single:
                entry.record_query(answer, seconds)
                return 200, result_record(answer, degraded=degraded)
            entry.record_batch(answer)
            return 200, batch_record(answer, degraded=degraded)
        finally:
            breaker.release_probe()

    async def _classify(self, payload):
        regex = _checked_language(payload.get("language"))

        def work():
            plan, _hit = self._classify_cache.get_or_build(
                plan_key(regex), lambda key: QueryPlan.compile(regex, key=key)
            )
            lang = plan.language
            classification = plan.classification
            return {
                "language": regex,
                "num_states": lang.num_states,
                "alphabet": "".join(sorted(lang.alphabet)),
                "finite": classification.finite,
                "in_trc": classification.in_trc,
                "complexity_class": classification.complexity_class.value,
                "strategy": plan.strategy,
                "decompose_failed": plan.decompose_failed,
            }

        try:
            return 200, await self._in_executor(work)
        except ReproError as err:
            raise ServiceError(str(err), status=400) from err


class ServiceThread:
    """Run a :class:`QueryService` on a background event-loop thread.

    The harness tests, benchmarks and load generators use: enter the
    context manager, read :attr:`port` (``port=0`` picks a free one),
    drive the server over real sockets, and the exit path shuts the
    loop down cleanly.
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._ready = Event()
        self._loop: Any = None
        self._stop: Any = None
        self._startup_error: Exception | None = None
        self._thread = Thread(
            target=self._run, name="repro-service", daemon=True
        )

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.service.start(self.host, self._requested_port)
        except Exception as err:
            self._startup_error = err
            self._ready.set()
            return
        self.port = self.service.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            # Not ``async with server``: its exit waits for every open
            # connection (Python 3.12+), and close() first ends the idle
            # kept-alive ones.
            await self.service.close()

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if not self._ready.is_set():
            raise RuntimeError("service thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Signal shutdown and join; safe after failed or no startup."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed (startup-failure path)
        if self._thread.ident is not None:
            self._thread.join(timeout=30)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False
