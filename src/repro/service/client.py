"""Stdlib HTTP client and load generator for the query service.

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.server` over :mod:`http.client` — one connection
per request, matching the server's ``connection: close`` discipline.
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
import socket
import time
from typing import Any, Iterable, Sequence
from urllib.parse import quote

from ..core.solver import solve_rspq
from ..errors import ServiceError, ServiceOverloadedError


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
        applied.
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

    # -- transport ---------------------------------------------------------------

    def request(self, method: str, path: str,
                payload: Any = None) -> tuple[int, Any]:
        """One HTTP round-trip; returns ``(status, parsed_body)``."""
        status, parsed, _headers = self.request_full(method, path, payload)
        return status, parsed

    def request_full(self, method: str, path: str,
                     payload: Any = None) -> tuple[int, Any, dict]:
        """One HTTP round-trip: ``(status, parsed_body, headers)``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout
        )
        try:
            body: str | None = None
            headers: dict[str, str] = {}
            if payload is not None:
                body = json.dumps(payload)
                headers["content-type"] = "application/json"
            connection.connect()
            if connection.sock is not None:
                # The connect timeout bounded the handshake; from here
                # on the read timeout governs the response wait.
                connection.sock.settimeout(self.read_timeout)
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                parsed = json.loads(raw.decode("utf-8")) if raw else None
            except (UnicodeDecodeError, json.JSONDecodeError):
                parsed = {"error": "unparseable response body"}
            response_headers = {
                name.lower(): value
                for name, value in response.getheaders()
            }
            return response.status, parsed, response_headers
        finally:
            connection.close()

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

    def _checked(self, method, path, payload=None, idempotent=True):
        attempt = 0
        while True:
            try:
                status, parsed, headers = self.request_full(
                    method, path, payload
                )
            except (ConnectionError, socket.timeout, socket.gaierror,
                    OSError):
                # Connect/read failure: retryable like a 503, but only
                # for idempotent calls — after a send, the client
                # cannot tell a lost request from a lost response, and
                # re-sending a registration or eviction the server
                # already applied turns one transient fault into a
                # duplicate-name 409 or a double eviction.  (A 429/503
                # *response* below is always safe to retry: it proves
                # the server refused the request without applying it.)
                if not idempotent or attempt >= self.max_retries:
                    raise
                attempt += 1
                self.retries += 1
                time.sleep(self._retry_delay(attempt, None, None))
                continue
            if status in (429, 503) and attempt < self.max_retries:
                attempt += 1
                self.retries += 1
                time.sleep(self._retry_delay(attempt, parsed, headers))
                continue
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
        # Not idempotent: a re-sent registration the server already
        # applied answers 409, so connection failures surface instead
        # of retrying (429/503 responses still retry — see _checked).
        return self._checked(
            "POST", "/graphs", {"name": name, "graph_text": graph_text},
            idempotent=False,
        )

    def evict_graph(self, name: str) -> Any:
        # Percent-escape so names with spaces/slashes survive the URL
        # (the server unquotes the path segment).  Not idempotent: a
        # re-sent eviction after a lost response 404s.
        return self._checked(
            "DELETE", "/graphs/%s" % quote(name, safe=""),
            idempotent=False,
        )

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
