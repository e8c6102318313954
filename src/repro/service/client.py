"""Stdlib HTTP client and load generator for the query service.

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.server` over :mod:`http.client`, with HTTP/1.1
keep-alive.  One client keeps a lock-guarded stack of idle
connections, shared by every thread that uses it: a call takes the
most recently used idle connection, or opens a new one, and puts it
back once the response is read (unless the server answered
``connection: close``).  N threads on one client hold at most N
connections.

The server closes a connection that stays idle for its
``read_timeout``, and every idle connection when it shuts down.
Before reusing an idle connection the client checks, without waiting,
whether its socket is readable: an idle socket with something to read
was closed by the server, so the client drops it.  If a reused
connection still fails before the first byte of the response arrives,
an idempotent call is re-sent once on a new connection; that re-send
does not count toward :attr:`ServiceClient.retries`.  Registration and
eviction are never re-sent, because the server may already have
applied them.  :meth:`ServiceClient.close` closes the idle
connections; a client dropped without it closes them when it is
garbage-collected.

Non-2xx responses raise :class:`~repro.errors.ServiceError` carrying
the HTTP status (:class:`~repro.errors.ServiceOverloadedError` for
429), so load generators can distinguish shed load from failures.

:func:`run_load` drives a live server with a workload (the seeded
generators in ``benchmarks/workloads.py`` are the intended source) and
:func:`verify_against_direct` replays the same queries through direct
:func:`~repro.core.solver.solve_rspq` calls, comparing **path for
path** — found flag, strategy, vertex sequence and label word must all
match.  This is the service-level analogue of the differential tests
that pin the engine to the solvers: the network, the JSON codec and
the serving tier may not change a single answer.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import threading
import time
import weakref
from typing import Any, Iterable, Sequence
from urllib.parse import quote

from ..core.solver import solve_rspq
from ..errors import ServiceError, ServiceOverloadedError


def _idempotent(method, path):
    """Whether re-sending ``method path`` after a lost response is safe.

    It is for every call except registration and eviction: the client
    cannot tell a lost request from a lost response, and re-sending a
    registration or eviction the server already applied turns one
    transient fault into a duplicate-name 409 or a 404.
    """
    return method == "GET" or not path.startswith("/graphs")


def _close_all(connections):
    while connections:
        connections.pop().close()


class ServiceClient:
    """Minimal JSON client for one service address.

    Parameters
    ----------
    timeout:
        Legacy single knob: used for both connect and read when the
        split knobs below are not given.
    connect_timeout / read_timeout:
        Separate TCP-connect and response-read timeouts; a wedged
        server can no longer hold a client for the full combined
        window during connect.
    max_retries:
        How many times a 429/503 response (or, for idempotent calls
        only, a connection failure) is retried before the error
        propagates.  0 — the default, for backward compatibility and
        for load generators that *measure* shedding — surfaces every
        rejection immediately.  Registration and eviction never retry
        on connection failures: the request may already have been
        applied.  The one re-send of an idempotent call whose reused
        connection turned out closed (module docstring) is not a
        retry.
    backoff_seconds / backoff_cap / backoff_jitter / retry_seed:
        Capped exponential backoff between retries: attempt n sleeps
        ``backoff_seconds * 2**(n-1)`` (capped) with seeded
        ``±backoff_jitter`` fractional jitter.  A server-provided
        ``Retry-After`` (header or structured body) overrides the
        computed delay — the server knows its own drain rate better.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 timeout: float = 60.0,
                 connect_timeout: "float | None" = None,
                 read_timeout: "float | None" = None,
                 max_retries: int = 0,
                 backoff_seconds: float = 0.05,
                 backoff_cap: float = 2.0,
                 backoff_jitter: float = 0.1,
                 retry_seed: int = 0) -> None:
        if max_retries < 0:
            raise ValueError(
                "max_retries must be >= 0, got %d" % max_retries
            )
        if backoff_seconds <= 0 or backoff_cap <= 0:
            raise ValueError("backoff knobs must be positive")
        if not 0.0 <= backoff_jitter < 1.0:
            raise ValueError(
                "backoff_jitter must be in [0, 1), got %r"
                % (backoff_jitter,)
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = (
            timeout if connect_timeout is None else connect_timeout
        )
        self.read_timeout = (
            timeout if read_timeout is None else read_timeout
        )
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        self._rng = random.Random(retry_seed)
        self.retries = 0
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._idle)

    # -- transport ---------------------------------------------------------------

    def close(self) -> None:
        """Close the idle connections (the client stays usable)."""
        with self._lock:
            idle = self._idle[:]
            self._idle.clear()
        _close_all(idle)

    def _connect(self):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout
        )
        connection.connect()
        # The connect timeout bounded the handshake; from here on the
        # read timeout governs every response wait.
        connection.sock.settimeout(self.read_timeout)
        return connection

    def _checkout(self):
        """``(connection, reused)``: the most recently used idle
        connection the server has not closed, or a new one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                connection = self._idle.pop()
            if not select.select([connection.sock], [], [], 0)[0]:
                return connection, True
            connection.close()  # readable while idle: closed by the server
        return self._connect(), False

    def request(self, method: str, path: str,
                payload: Any = None) -> tuple[int, Any]:
        """One HTTP round-trip; returns ``(status, parsed_body)``."""
        status, parsed, _headers = self.request_full(method, path, payload)
        return status, parsed

    def request_full(self, method: str, path: str,
                     payload: Any = None) -> tuple[int, Any, dict]:
        """One HTTP round-trip: ``(status, parsed_body, headers)``."""
        body: str | None = None
        headers: dict[str, str] = {}
        if payload is not None:
            body = json.dumps(payload)
            headers["content-type"] = "application/json"
        connection, reused = self._checkout()
        try:
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except ConnectionError:
                # The server closed the reused connection after the
                # readability check, and no byte of a response came
                # back.
                if not (reused and _idempotent(method, path)):
                    raise
                connection.close()
                connection = self._connect()
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.append(connection)
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = {"error": "unparseable response body"}
        response_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        return response.status, parsed, response_headers

    def _retry_delay(self, attempt, parsed, headers):
        """Seconds to sleep before retry ``attempt`` (1-based).

        Honors the server's Retry-After (structured body first — it
        keeps sub-second precision — then the integer header), falling
        back to capped exponential backoff with seeded jitter.
        """
        hinted = None
        if isinstance(parsed, dict):
            hinted = parsed.get("retry_after")
        if hinted is None and headers:
            raw = headers.get("retry-after")
            if raw is not None:
                try:
                    hinted = float(raw)
                except ValueError:
                    hinted = None
        if isinstance(hinted, (int, float)) and not isinstance(
            hinted, bool
        ) and hinted >= 0:
            delay = float(hinted)
        else:
            delay = min(
                self.backoff_seconds * (2 ** (attempt - 1)),
                self.backoff_cap,
            )
        if self.backoff_jitter:
            delay *= 1.0 + self.backoff_jitter * self._rng.uniform(
                -1.0, 1.0
            )
        return max(delay, 0.0)

    def _checked(self, method, path, payload=None):
        attempt = 0
        while True:
            try:
                status, parsed, headers = self.request_full(
                    method, path, payload
                )
            except OSError:
                # Connect/read failure: retryable like a 503, but only
                # for idempotent calls (see _idempotent).  A 429/503
                # *response* below is always safe to retry: it proves
                # the server refused the request without applying it.
                if (not _idempotent(method, path)
                        or attempt >= self.max_retries):
                    raise
                parsed = headers = None
            else:
                if status not in (429, 503) or attempt >= self.max_retries:
                    break
            attempt += 1
            with self._lock:
                self.retries += 1
            time.sleep(self._retry_delay(attempt, parsed, headers))
        if status == 429:
            raise ServiceOverloadedError(
                (parsed or {}).get("error", "server overloaded"),
                retry_after=(parsed or {}).get("retry_after"),
                error_type=(parsed or {}).get("error_type"),
            )
        if status >= 400:
            raise ServiceError(
                (parsed or {}).get("error", "request failed"),
                status=status,
                retry_after=(parsed or {}).get("retry_after"),
                error_type=(parsed or {}).get("error_type"),
            )
        return parsed

    # -- endpoints ---------------------------------------------------------------

    def healthz(self) -> Any:
        return self._checked("GET", "/healthz")

    def stats(self) -> Any:
        return self._checked("GET", "/stats")

    def graphs(self) -> Any:
        return self._checked("GET", "/graphs")["graphs"]

    def register_graph(self, name: str, graph_text: str) -> Any:
        # Not idempotent (see _idempotent): connection failures surface
        # instead of retrying; 429/503 responses still retry.
        return self._checked(
            "POST", "/graphs", {"name": name, "graph_text": graph_text}
        )

    def evict_graph(self, name: str) -> Any:
        # Percent-escape so names with spaces/slashes survive the URL
        # (the server unquotes the path segment).  Not idempotent.
        return self._checked("DELETE", "/graphs/%s" % quote(name, safe=""))

    def classify(self, language: str) -> Any:
        return self._checked("POST", "/classify", {"language": language})

    def query(self, language: str, source: Any, target: Any,
              graph: str | None = None,
              deadline_seconds: float | None = None,
              budget: int | None = None,
              portfolio: bool | None = None,
              max_path_edges: int | None = None) -> Any:
        payload: dict[str, Any] = {
            "language": language, "source": source, "target": target,
        }
        if graph is not None:
            payload["graph"] = graph
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        if budget is not None:
            payload["budget"] = budget
        if portfolio is not None:
            payload["portfolio"] = portfolio
        if max_path_edges is not None:
            payload["max_path_edges"] = max_path_edges
        return self._checked("POST", "/query", payload)

    def batch(self, queries: Iterable[tuple], graph: str | None = None,
              workers: int | None = None,
              deadline_seconds: float | None = None,
              budget: int | None = None,
              portfolio: bool | None = None,
              max_path_edges: int | None = None) -> Any:
        payload: dict[str, Any] = {
            "queries": [
                [language, source, target]
                for language, source, target in queries
            ]
        }
        if graph is not None:
            payload["graph"] = graph
        if workers is not None:
            payload["workers"] = workers
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        if budget is not None:
            payload["budget"] = budget
        if portfolio is not None:
            payload["portfolio"] = portfolio
        if max_path_edges is not None:
            payload["max_path_edges"] = max_path_edges
        return self._checked("POST", "/batch", payload)


def run_load(client: ServiceClient, queries: Iterable[tuple],
             graph: str | None = None, batch_size: int = 32,
             workers: int | None = None) -> list[dict]:
    """Drive the server with ``queries``; result records in input order.

    The workload is chunked into ``/batch`` requests of at most
    ``batch_size`` queries (keep it at or under the server's
    ``max_inflight``).  Returns the flat list of result records, one
    per input query, in input order.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1, got %d" % batch_size)
    query_list = list(queries)
    records: list[dict] = []
    for offset in range(0, len(query_list), batch_size):
        chunk = query_list[offset:offset + batch_size]
        response = client.batch(chunk, graph=graph, workers=workers)
        records.extend(response["results"])
    return records


def verify_against_direct(
    graph: Any, queries: Sequence[tuple], records: list[dict]
) -> list[tuple]:
    """Mismatches between served records and direct solver answers.

    Replays every query through :func:`solve_rspq` on ``graph`` (the
    raw :class:`DbGraph` or a compiled view) and compares path for
    path.  Returns a list of ``(index, field, direct_value,
    served_value)`` tuples — empty means the service answered every
    query exactly as the library would.
    """
    if len(queries) != len(records):
        raise ValueError(
            "got %d records for %d queries" % (len(records), len(queries))
        )
    mismatches: list[tuple] = []
    for index, ((language, source, target), record) in enumerate(
        zip(queries, records)
    ):
        direct = solve_rspq(language, graph, source, target)
        checks = [
            ("error", None, record.get("error")),
            ("found", direct.found, record.get("found")),
            ("strategy", direct.strategy, record.get("strategy")),
            (
                "path",
                None if direct.path is None else list(direct.path.vertices),
                record.get("path"),
            ),
            (
                "word",
                None if direct.path is None else direct.path.word,
                record.get("word"),
            ),
        ]
        for field, expected, actual in checks:
            if expected != actual:
                mismatches.append((index, field, expected, actual))
    return mismatches
