"""The serving tier: registry semantics, HTTP endpoints, admission.

Server tests run against a real socket (:class:`ServiceThread` on an
ephemeral port) — the JSON codec, the HTTP framing and the executor
dispatch are all in the loop, exactly as in production.  Deadline and
budget behaviour is made deterministic by construction: the heavy
query walks an odd labeled cycle long enough that the exact solver
must charge >256 context steps (one full deadline-check interval),
while the light queries finish in a handful of charges and never even
look at the clock.
"""

import http.client
import json
import os
import socket

import pytest

from tests.conftest import read_http_response
from repro.errors import ServiceError, ServiceOverloadedError
from repro.engine import IndexedGraph
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import labeled_cycle, random_labeled_graph
from repro.graphs import io as graph_io
from repro.service import (
    GraphRegistry,
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    save_snapshot,
)


@pytest.fixture
def graph():
    return random_labeled_graph(20, 60, "abc", seed=9)


@pytest.fixture
def registry(graph):
    reg = GraphRegistry()
    reg.register("main", graph)
    return reg


@pytest.fixture
def live(registry):
    service = QueryService(
        registry, ServiceConfig(workers=2, max_inflight=8)
    )
    with ServiceThread(service) as running:
        yield ServiceClient(port=running.port), registry


class TestGraphRegistry:
    def test_register_and_lookup(self, graph):
        registry = GraphRegistry()
        entry = registry.register("g", graph)
        assert registry.get("g") is entry
        assert "g" in registry
        assert len(registry) == 1
        assert registry.names() == ["g"]
        assert entry.stats.source == "compiled"

    def test_register_precompiled_indexed_graph(self, graph):
        registry = GraphRegistry()
        entry = registry.register("g", IndexedGraph(graph))
        assert entry.stats.source == "indexed"

    def test_duplicate_name_is_conflict(self, graph):
        registry = GraphRegistry()
        registry.register("g", graph)
        with pytest.raises(ServiceError) as info:
            registry.register("g", graph)
        assert info.value.status == 409

    def test_unknown_graph_is_404(self):
        registry = GraphRegistry()
        with pytest.raises(ServiceError) as info:
            registry.get("nope")
        assert info.value.status == 404

    def test_evict(self, graph):
        registry = GraphRegistry()
        registry.register("g", graph)
        registry.evict("g")
        assert "g" not in registry
        with pytest.raises(ServiceError):
            registry.evict("g")

    def test_capacity_bound(self, graph):
        registry = GraphRegistry(max_graphs=1)
        registry.register("one", graph)
        with pytest.raises(ServiceError, match="full"):
            registry.register("two", graph)
        registry.evict("one")
        registry.register("two", graph)

    def test_resolve_sole_graph_without_name(self, graph):
        registry = GraphRegistry()
        registry.register("only", graph)
        assert registry.resolve(None).name == "only"
        registry.register("second", graph)
        with pytest.raises(ServiceError, match="names no graph"):
            registry.resolve(None)

    def test_register_snapshot_warm_start(self, tmp_path, graph):
        path = str(tmp_path / "g.snap")
        save_snapshot(IndexedGraph(graph), path)
        registry = GraphRegistry()
        entry = registry.register_snapshot("warm", path)
        assert entry.stats.source == "snapshot"
        assert entry.engine.graph.num_edges == graph.num_edges

    def test_describe_carries_shape_and_counters(self, graph):
        registry = GraphRegistry()
        registry.register("g", graph)
        (described,) = registry.describe()
        assert described["name"] == "g"
        assert described["num_vertices"] == graph.num_vertices
        assert described["queries"] == 0
        assert described["plan_cache"]["compiles"] == 0


class TestHttpEndpoints:
    def test_healthz(self, live):
        client, _registry = live
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["graphs"] == 1

    def test_query_roundtrip_matches_direct(self, live, graph):
        client, _registry = live
        from repro.core.solver import solve_rspq

        record = client.query("a*(bb^+ + eps)c*", 0, 5, graph="main")
        direct = solve_rspq("a*(bb^+ + eps)c*", graph, 0, 5)
        assert record["found"] == direct.found
        assert record["strategy"] == direct.strategy
        if direct.path is not None:
            assert record["path"] == list(direct.path.vertices)
            assert record["word"] == direct.path.word

    def test_query_without_graph_name_uses_sole_graph(self, live):
        client, _registry = live
        assert client.query("a*", 0, 1)["language"] == "a*"

    def test_string_vertex_coercion(self, live):
        # JSON-side "0" resolves onto the int vertex 0.
        client, _registry = live
        record = client.query("a*", "0", "1")
        assert record["source"] == 0

    def test_unknown_graph_404(self, live):
        client, _registry = live
        with pytest.raises(ServiceError) as info:
            client.query("a*", 0, 1, graph="ghost")
        assert info.value.status == 404

    def test_unknown_vertex_400(self, live):
        client, _registry = live
        with pytest.raises(ServiceError) as info:
            client.query("a*", 999, 1)
        assert info.value.status == 400
        assert "unknown vertex" in str(info.value)

    def test_bad_regex_400(self, live):
        client, _registry = live
        with pytest.raises(ServiceError) as info:
            client.query("a**((", 0, 1)
        assert info.value.status == 400

    def test_batch_matches_serial_order(self, live, graph):
        from repro.service.client import verify_against_direct

        client, _registry = live
        queries = [("a*", 0, 1), ("ab + ba", 2, 3), ("a*ba*", 4, 5)]
        response = client.batch(queries, workers=4)
        results = response["results"]
        assert [r["language"] for r in results] == [
            "a*", "ab + ba", "a*ba*"
        ]
        # A graph without a worker pool answers in-process: the
        # requested fan-out is clamped to the one process available.
        assert response["workers"] == 1
        assert response["error_count"] == 0
        assert verify_against_direct(graph, queries, results) == []

    def test_batch_isolates_per_query_errors(self, live):
        client, _registry = live
        response = client.batch([("a*", 0, 1), ("a*", 999, 1)])
        results = response["results"]
        assert results[0]["error"] is None
        assert "unknown vertex" in results[1]["error"]
        assert response["error_count"] == 1

    def test_classify_endpoint(self, live):
        client, _registry = live
        record = client.classify("a*(bb^+ + eps)c*")
        assert record["in_trc"] is True
        assert record["complexity_class"] == "NL-complete"
        assert record["strategy"] == "trc-nice-path"

    def test_stats_count_served_queries(self, live):
        client, _registry = live
        client.query("a*", 0, 1)
        client.batch([("a*", 0, 1), ("c*", 2, 3)])
        stats = client.stats()
        (graph_stats,) = stats["graphs"]
        assert graph_stats["queries"] == 3
        assert graph_stats["batches"] == 1
        # the /query and /batch requests (the in-flight /stats request
        # is only counted once its own response has been written)
        assert stats["service"]["requests"] >= 2

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/smaps_rollup"),
        reason="PSS needs /proc/<pid>/smaps_rollup",
    )
    def test_stats_report_the_server_pss(self, live):
        from repro.service.workers import _rss_mb

        client, _registry = live
        pss_mb = client.stats()["service"]["pss_mb"]
        # The server thread runs in this process, so its RSS bounds
        # the server's PSS.
        assert 0 < pss_mb <= _rss_mb()

    def test_register_and_evict_over_http(self, live):
        client, _registry = live
        text = graph_io.dumps(
            DbGraph.from_edges([("x", "a", "y"), ("y", "b", "z")])
        )
        client.register_graph("tiny", text)
        record = client.query("ab", "x", "z", graph="tiny")
        assert record["found"] is True
        assert record["word"] == "ab"
        client.evict_graph("tiny")
        with pytest.raises(ServiceError) as info:
            client.query("ab", "x", "z", graph="tiny")
        assert info.value.status == 404

    def test_duplicate_http_registration_conflicts(self, live):
        client, _registry = live
        text = graph_io.dumps(DbGraph.from_edges([("x", "a", "y")]))
        client.register_graph("dup", text)
        with pytest.raises(ServiceError) as info:
            client.register_graph("dup", text)
        assert info.value.status == 409

    def test_unknown_endpoint_404_and_wrong_method_405(self, live):
        client, _registry = live
        status, _body = client.request("GET", "/no-such")
        assert status == 404
        status, _body = client.request("DELETE", "/query")
        assert status == 405

    def test_malformed_graph_text_is_client_error(self, live):
        client, _registry = live
        with pytest.raises(ServiceError) as info:
            client.register_graph("broken", "this is not a graph line")
        assert info.value.status == 400
        assert "broken" not in client.stats()["graphs"][0]["name"]

    def test_graph_name_with_spaces_can_be_evicted(self, live):
        client, _registry = live
        text = graph_io.dumps(DbGraph.from_edges([("x", "a", "y")]))
        client.register_graph("two words", text)
        client.evict_graph("two words")
        names = [g["name"] for g in client.graphs()]
        assert "two words" not in names

    def test_failed_single_query_counts_in_graph_stats(self, live):
        client, _registry = live
        with pytest.raises(ServiceError):
            client.query("a*", 999, 1)  # unknown vertex
        (graph_stats,) = client.stats()["graphs"]
        assert graph_stats["queries"] == 1
        assert graph_stats["errors"] == 1

    def test_service_thread_stop_is_safe_after_failed_start(self, registry):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            runner = ServiceThread(
                QueryService(registry, ServiceConfig()),
                port=port,
            )
            with pytest.raises(OSError):
                runner.start()
            runner.stop()  # must be a clean no-op, not a RuntimeError
        finally:
            blocker.close()
        # and stopping a never-started thread is equally safe
        ServiceThread(QueryService(registry, ServiceConfig())).stop()


class TestAdmissionControl:
    def test_batch_larger_than_capacity_rejected_immediately(self, registry):
        service = QueryService(
            registry, ServiceConfig(workers=2, max_inflight=2)
        )
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            with pytest.raises(ServiceOverloadedError):
                client.batch([("a*", 0, 1)] * 3)
            # Within capacity still works, and the slots were released.
            assert client.batch([("a*", 0, 1)] * 2)["error_count"] == 0
            assert client.stats()["service"]["rejected"] == 1
            assert client.stats()["service"]["inflight"] == 0

    def test_unbounded_header_section_rejected(self, live):
        import socket

        client, _registry = live
        with socket.create_connection(
            (client.host, client.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            # One oversized header line trips the byte bound.
            sock.sendall(b"x-padding: " + b"a" * 20000 + b"\r\n\r\n")
            chunks = []
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
            response = b"".join(chunks).decode("latin-1")
        assert "400" in response.split("\r\n")[0]
        assert "header section" in response

    def test_rejection_is_429(self, registry):
        service = QueryService(
            registry, ServiceConfig(workers=1, max_inflight=1)
        )
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            status, body = client.request(
                "POST",
                "/batch",
                {"queries": [["a*", 0, 1], ["a*", 1, 2]]},
            )
            assert status == 429
            assert "overloaded" in body["error"]


class TestDeadlinesAndBudgets:
    """Per-request limits land on the query's ExecutionContext."""

    @pytest.fixture
    def cycle_registry(self):
        # Odd a-cycle: (aa)* from 0 to 1 has no simple witness, and
        # its even walks (302 edges) are longer than any simple path,
        # so the walk check explores the whole 301-step chain before
        # it proves NOT_FOUND — deterministically >256 context charges
        # (one full deadline-check interval) and >50 budget steps.
        registry = GraphRegistry()
        registry.register("cycle", labeled_cycle("a" * 301))
        return registry

    def test_nonpositive_deadline_rejected_400(self, live):
        client, _registry = live
        for bad in (0, -1.5):
            with pytest.raises(ServiceError) as info:
                client.query("a*", 0, 1, deadline_seconds=bad)
            assert info.value.status == 400
            assert "deadline" in str(info.value)

    def test_nonpositive_budget_rejected_400(self, live):
        client, _registry = live
        for bad in (0, -3):
            with pytest.raises(ServiceError) as info:
                client.query("a*", 0, 1, budget=bad)
            assert info.value.status == 400
            assert "budget" in str(info.value)

    def test_deadline_exceeded_maps_to_504(self, cycle_registry):
        service = QueryService(cycle_registry, ServiceConfig(workers=1))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            with pytest.raises(ServiceError) as info:
                client.query("(aa)*", 0, 1, deadline_seconds=1e-9)
            assert info.value.status == 504

    def test_budget_exhausted_maps_to_422(self, cycle_registry):
        service = QueryService(cycle_registry, ServiceConfig(workers=1))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            with pytest.raises(ServiceError) as info:
                client.query("(aa)*", 0, 1, budget=50)
            assert info.value.status == 422

    def test_generous_limits_answer_normally(self, cycle_registry):
        service = QueryService(cycle_registry, ServiceConfig(workers=1))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            record = client.query(
                "a*", 0, 5, deadline_seconds=60.0, budget=10 ** 9
            )
            assert record["found"] is True
            assert record["word"] == "aaaaa"


    @pytest.mark.parametrize(
        "worker_processes", [0, 1], ids=["in-process", "pooled"]
    )
    def test_non_finite_deadline_rejected_400(self, graph, worker_processes):
        # Raw bodies: json reads NaN and Infinity, and 1e400 overflows
        # to infinity; none of them may mean "no deadline".
        bodies = {
            "/query": '{"language": "a*", "source": 0, "target": 1, '
                      '"deadline_seconds": %s}',
            "/batch": '{"queries": [["a*", 0, 1]], "deadline_seconds": %s}',
        }
        registry = GraphRegistry(worker_processes=worker_processes)
        try:
            registry.register("main", graph)
            service = QueryService(registry, ServiceConfig(workers=2))
            with ServiceThread(service) as running:
                for literal in ("NaN", "Infinity", "1e400"):
                    for path, body in bodies.items():
                        connection = http.client.HTTPConnection(
                            "127.0.0.1", running.port, timeout=30
                        )
                        try:
                            connection.request("POST", path, body % literal)
                            response = connection.getresponse()
                            status = response.status
                            error = json.loads(response.read())["error"]
                        finally:
                            connection.close()
                        assert status == 400, (path, literal)
                        assert "deadline_seconds" in error
        finally:
            registry.close()


class TestDeepRegexes:
    @pytest.mark.parametrize("regex", [
        "(" * 300 + "a" + ")" * 300, "a" + "*" * 2000,
    ], ids=["parentheses", "postfix"])
    def test_query_and_classify_answer_400(self, live, regex):
        client, _registry = live
        for call in (
            lambda: client.query(regex, 0, 1), lambda: client.classify(regex),
        ):
            with pytest.raises(ServiceError) as info:
                call()
            assert info.value.status == 400
            assert "nest deeper" in str(info.value)


class TestPortfolioOverHttp:
    """The /query and /batch portfolio knobs and confidence fields."""

    @pytest.fixture
    def portfolio_live(self):
        # The probabilistic-negative gadget from tests/test_portfolio:
        # an accepting (aa)* walk 0-1-2-3-1-2-4 exists but no simple
        # path does, and padding vertices keep the walk under the cap.
        graph = DbGraph()
        for u, l, v in [
            (0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 1),
            (2, "a", 4),
        ]:
            graph.add_edge(u, l, v)
        graph.add_vertex(5)
        graph.add_vertex(6)
        registry = GraphRegistry(engine_kwargs={"portfolio": True})
        registry.register("gadget", graph)
        service = QueryService(registry, ServiceConfig(workers=2))
        with ServiceThread(service) as running:
            yield ServiceClient(port=running.port), registry

    def test_probabilistic_negative_over_the_wire(self, portfolio_live):
        client, _registry = portfolio_live
        record = client.query("(aa)*", 0, 4)
        assert record["found"] is False
        assert record["strategy"].startswith("portfolio:")
        assert record["confidence"] == "probabilistic"
        assert 0.0 < record["failure_bound"] < 1.0

    def test_per_request_opt_out(self, portfolio_live):
        client, _registry = portfolio_live
        record = client.query("(aa)*", 0, 4, portfolio=False)
        assert record["strategy"] == "exact-backtracking"
        assert record["confidence"] == "certified"
        assert record["failure_bound"] is None

    def test_bounded_query_knob(self, portfolio_live):
        client, _registry = portfolio_live
        record = client.query("(aa)*", 0, 2, max_path_edges=1)
        assert record["found"] is False
        assert record["confidence"] == "certified"

    def test_batch_carries_portfolio_overrides(self, portfolio_live):
        client, _registry = portfolio_live
        response = client.batch(
            [("(aa)*", 0, 4), ("(aa)*", 0, 2)], portfolio=True
        )
        by_target = {
            record["target"]: record for record in response["results"]
        }
        assert by_target[4]["found"] is False
        assert by_target[2]["found"] is True
        assert by_target[2]["confidence"] == "certified"

    def test_invalid_knobs_rejected_400(self, portfolio_live):
        client, _registry = portfolio_live
        for payload in (
            {"language": "a*", "source": 0, "target": 1,
             "max_path_edges": -1},
            {"language": "a*", "source": 0, "target": 1,
             "max_path_edges": 1.5},
            {"language": "a*", "source": 0, "target": 1,
             "portfolio": "yes"},
        ):
            status, _body = client.request("POST", "/query", payload)
            assert status == 400, payload

    def test_stats_report_the_ladder_config(self, portfolio_live):
        client, _registry = portfolio_live
        graphs = client.stats()["graphs"]
        assert graphs[0]["portfolio"] == {
            "enabled": True,
            "failure_probability": 1e-3,
            "seed": 0,
        }


class TestCsrDbGraphDifferentialOverHttp:
    """The served (CSR-backed) answers ≡ direct DbGraph evaluation.

    The HTTP leg of the ISSUE-4 differential suite: random regexes
    spanning all three trichotomy regimes are answered by a live
    server — whose engine walks the compiled CSR view — and replayed
    through ``solve_rspq`` on the raw ``DbGraph``, path for path.
    """

    def _random_queries(self, graph, count=24, seed=123):
        import random

        from benchmarks.workloads import MIXED_LANGUAGES, random_regexes

        rng = random.Random(seed)
        vertices = list(graph.vertices())
        languages = list(MIXED_LANGUAGES) + random_regexes(
            8, seed=seed, alphabet="abc", max_depth=2
        )
        return [
            (
                languages[index % len(languages)],
                rng.choice(vertices),
                rng.choice(vertices),
            )
            for index in range(count)
        ]

    def test_served_queries_match_dbgraph_direct(self, live, graph):
        from repro.service.client import run_load, verify_against_direct

        queries = self._random_queries(graph)
        client, _registry = live
        records = run_load(
            client, queries, graph="main", batch_size=8, workers=2
        )
        assert verify_against_direct(graph, queries, records) == []

    def test_snapshot_served_queries_match_dbgraph_direct(
        self, tmp_path, graph
    ):
        from repro.service.client import run_load, verify_against_direct

        snap = str(tmp_path / "main.snap")
        save_snapshot(IndexedGraph(graph), snap)
        registry = GraphRegistry()
        registry.register_snapshot("thawed", snap)
        service = QueryService(registry, ServiceConfig(workers=2))
        queries = self._random_queries(graph, seed=321)
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            records = run_load(
                client, queries, graph="thawed", batch_size=8, workers=2
            )
            stats = client.stats()
        assert verify_against_direct(graph, queries, records) == []
        (graph_stats,) = stats["graphs"]
        assert graph_stats["graph_view"] == "csr"
        assert graph_stats["source"] == "snapshot"


# ---------------------------------------------------------------------------
# Keep-alive: one connection carries many requests.
# ---------------------------------------------------------------------------


def _raw_request(method, path, body=None, headers=(), version="HTTP/1.1"):
    """The bytes of one request; ``headers`` are extra raw header lines."""
    lines = ["%s %s %s" % (method, path, version), "host: test"]
    lines.extend(headers)
    if body is not None:
        lines.append("content-length: %d" % len(body))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (
        body or b""
    )


@pytest.fixture
def served(registry):
    """``(service, port)`` of a live server on the seed-9 graph."""
    service = QueryService(
        registry, ServiceConfig(workers=2, max_inflight=8)
    )
    with ServiceThread(service) as running:
        yield service, running.port


def _open(port, timeout=10):
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    return sock, sock.makefile("rb")


class TestKeepAlive:
    def test_pipelined_requests_answered_in_order(self, served):
        _service, port = served
        query = json.dumps(
            {"language": "a*", "source": 0, "target": 1}
        ).encode()
        sock, stream = _open(port)
        with sock, stream:
            sock.sendall(
                _raw_request("GET", "/healthz")
                + _raw_request("POST", "/classify", b'{"language": "(aa)*"}')
            )
            status, headers, body = read_http_response(stream)
            assert (status, body["status"]) == (200, "ok")
            assert "connection" not in headers
            status, headers, body = read_http_response(stream)
            assert (status, body["language"]) == (200, "(aa)*")
            assert "connection" not in headers
            # ... and the connection still carries a third request.
            sock.sendall(_raw_request("POST", "/query", query))
            status, _headers, body = read_http_response(stream)
            assert (status, body["language"]) == (200, "a*")

    @pytest.mark.parametrize("request_bytes", [
        _raw_request("GET", "/healthz", headers=["Connection: close"]),
        _raw_request("GET", "/healthz", headers=["connection: keep-alive, Close"]),
        _raw_request("GET", "/healthz", version="HTTP/1.0"),
    ], ids=["connection-close", "close-token", "http-1.0"])
    def test_close_requests_get_connection_close_then_eof(
            self, served, request_bytes):
        _service, port = served
        sock, stream = _open(port)
        with sock, stream:
            sock.sendall(request_bytes)
            status, headers, _body = read_http_response(stream)
            assert status == 200
            assert headers["connection"] == "close"
            assert stream.read() == b""

    def test_application_errors_keep_the_connection(self, served):
        _service, port = served
        sock, stream = _open(port)
        with sock, stream:
            for request, expected in [
                (_raw_request("GET", "/no-such"), 404),
                (_raw_request("DELETE", "/query"), 405),
                (_raw_request("POST", "/query", b"{not json"), 400),
                (_raw_request("POST", "/query", b'{"language": 5}'), 400),
                (_raw_request("GET", "/healthz"), 200),
            ]:
                sock.sendall(request)
                status, headers, _body = read_http_response(stream)
                assert status == expected
                assert "connection" not in headers

    def test_idle_connection_closes_after_read_timeout(self, registry):
        import time

        service = QueryService(
            registry, ServiceConfig(workers=1, read_timeout=0.3)
        )
        with ServiceThread(service) as running:
            for prime in (False, True):
                sock, stream = _open(running.port)
                with sock, stream:
                    if prime:  # a kept-alive connection idles out too
                        sock.sendall(_raw_request("GET", "/healthz"))
                        assert read_http_response(stream)[0] == 200
                    start = time.monotonic()
                    assert stream.read() == b""
                    assert time.monotonic() - start < 5.0

    def test_request_cut_off_by_the_deadline_is_400(self, registry):
        service = QueryService(
            registry, ServiceConfig(workers=1, read_timeout=0.3)
        )
        with ServiceThread(service) as running:
            sock, stream = _open(running.port)
            with sock, stream:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nhost: test\r\n")
                status, headers, body = read_http_response(stream)
                assert status == 400
                assert body["error"] == "incomplete request"
                assert headers["connection"] == "close"
                assert stream.read() == b""

    def test_reset_idle_connection_is_not_an_error(self, served):
        import struct
        import time

        service, port = served
        sock, stream = _open(port)
        with sock, stream:
            sock.sendall(_raw_request("GET", "/healthz"))
            assert read_http_response(stream)[0] == 200
            # SO_LINGER with a zero timeout: close() sends a reset.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        give_up = time.monotonic() + 5.0
        while service._open:
            assert time.monotonic() < give_up
            time.sleep(0.01)
        assert (service._requests, service._errors) == (1, 0)

    def test_connections_in_stats(self, live):
        observer, _registry = live
        before = observer.stats()["service"]
        assert before["open_connections"] == 1
        client = ServiceClient(port=observer.port)
        for _ in range(10):
            client.healthz()
            client.query("a*", 0, 1)
        after = observer.stats()["service"]
        assert after["connections"] == before["connections"] + 1
        assert after["open_connections"] == 2
        assert after["requests"] == before["requests"] + 21
        client.close()


class TestStrictFraming:
    """A request whose framing cannot be trusted is answered and its
    connection closed: the next request's start would be a guess."""

    #: A valid 16-byte body: a lenient parser that reads it answers 200.
    BODY = b'{"language":"a"}'

    @pytest.mark.parametrize("headers, status", [
        (["content-length: -5"], 400),
        (["content-length: +16"], 400),
        (["content-length: 1_6"], 400),
        (["content-length: 0x10"], 400),
        (["content-length: \x0c16"], 400),
        (["content-length: \xb2"], 400),
        (["content-length:"], 400),
        (["content-length: 16", "content-length: 17"], 400),
        (["transfer-encoding: chunked"], 400),
        (["Transfer-Encoding: identity", "content-length: 16"], 400),
        (["content-length: %d" % (32 * 1024 * 1024 + 1)], 413),
    ], ids=[
        "negative", "plus-sign", "underscore", "hex", "form-feed",
        "superscript-digit", "empty", "conflicting", "chunked",
        "any-transfer-encoding", "oversized",
    ])
    def test_bad_framing_answers_then_closes(self, served, headers, status):
        _service, port = served
        sock, stream = _open(port)
        with sock, stream:
            sock.sendall(
                _raw_request("POST", "/classify", headers=headers)
                + self.BODY
            )
            got, response_headers, body = read_http_response(stream)
            assert got == status, body
            assert response_headers["connection"] == "close"
            assert stream.read() == b""

    def test_malformed_request_line_closes(self, served):
        _service, port = served
        sock, stream = _open(port)
        with sock, stream:
            sock.sendall(b"NONSENSE\r\n\r\n")
            status, headers, body = read_http_response(stream)
            assert status == 400
            assert "malformed request line" in body["error"]
            assert headers["connection"] == "close"
            assert stream.read() == b""

    def test_repeated_equal_content_length_is_accepted(self, served):
        _service, port = served
        sock, stream = _open(port)
        with sock, stream:
            sock.sendall(_raw_request(
                "POST", "/classify", self.BODY,
                headers=["content-length: %d" % len(self.BODY)],
            ))
            status, headers, parsed = read_http_response(stream)
            assert status == 200
            assert parsed["language"] == "a"
            assert "connection" not in headers

    def test_request_cut_short_is_incomplete(self, served):
        _service, port = served
        sock, stream = _open(port)
        with sock, stream:
            sock.sendall(b"POST /classify HTTP/1.1\r\ncontent-length: 50\r\n"
                         b"\r\n{\"language\"")
            sock.shutdown(1)  # SHUT_WR: the body never completes
            status, headers, body = read_http_response(stream)
            assert status == 400
            assert body["error"] == "incomplete request"
            assert headers["connection"] == "close"


class _AnswerOnceServer:
    """A fake server: on each connection it answers the first request
    with ``200 {}``, then reads the next request and closes without
    answering.  ``accepted`` counts connections."""

    def __init__(self):
        import socket
        import threading

        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self.accepted = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                sock, _address = self.listener.accept()
            except TimeoutError:
                continue
            sock.settimeout(10)
            self.accepted += 1
            with sock, sock.makefile("rb") as stream:
                self._read_request(stream)
                sock.sendall(
                    b"HTTP/1.1 200 OK\r\ncontent-type: application/json"
                    b"\r\ncontent-length: 2\r\n\r\n{}"
                )
                self._read_request(stream)

    @staticmethod
    def _read_request(stream):
        length = 0
        while True:
            line = stream.readline()
            if line in (b"\r\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        stream.read(length)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=10)
        self.listener.close()


class TestClientConnections:
    def test_threads_share_a_bounded_set_of_connections(self, live, graph):
        import sys
        import threading

        from repro.service.client import verify_against_direct

        client, _registry = live
        queries = [
            (language, source, (source * 7 + 3) % 20)
            for source in range(20)
            for language in ("a*", "ab + ba", "a*ba*", "(a+b)*c", "c*a", "b*",
                             "a*(bb^+ + eps)c*", "(ab)*", "abc", "a + c")
        ]
        assert len(queries) == 200
        records = [None] * len(queries)

        def work(offset):
            for index in range(offset, len(queries), 8):
                records[index] = client.query(*queries[index])

        threads = [
            threading.Thread(target=work, args=(offset,)) for offset in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the idle-stack updates
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert verify_against_direct(graph, queries, records) == []
        service = client.stats()["service"]
        assert service["connections"] <= 8
        # Every connection the server still holds open is back on the
        # client's idle stack: none was lost between threads.
        assert service["open_connections"] == len(client._idle)
        assert client.retries == 0

    def test_reconnects_after_the_server_closes_an_idle_connection(
            self, registry):
        import time

        service = QueryService(
            registry, ServiceConfig(workers=1, read_timeout=0.2)
        )
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            client.healthz()
            time.sleep(0.6)  # the server closes the idle connection
            assert client.healthz()["status"] == "ok"
            assert client.retries == 0
            assert client.stats()["service"]["connections"] == 2
            client.close()

    def test_lost_reply_on_a_reused_connection(self):
        fake = _AnswerOnceServer()
        try:
            client = ServiceClient(port=fake.port, timeout=10)
            client.healthz()
            # The reused connection closes unanswered: an idempotent
            # call is re-sent once on a new connection, not retried.
            assert client.query("a*", 0, 1) == {}
            assert fake.accepted == 2
            assert client.retries == 0
            client.close()
        finally:
            fake.close()
        fake = _AnswerOnceServer()
        try:
            client = ServiceClient(port=fake.port, timeout=10, max_retries=3)
            client.healthz()
            # A registration may already have been applied: never re-sent.
            with pytest.raises(ConnectionError):
                client.register_graph("g", "v 0\n")
            assert fake.accepted == 1
            assert client.retries == 0
            client.close()
        finally:
            fake.close()

    def test_close_closes_idle_connections(self, live):
        import time

        observer, _registry = live
        client = ServiceClient(port=observer.port)
        client.healthz()
        assert observer.stats()["service"]["open_connections"] == 2
        client.close()
        give_up = time.monotonic() + 5.0
        while observer.stats()["service"]["open_connections"] != 1:
            assert time.monotonic() < give_up
            time.sleep(0.01)
        # Still usable: the next call opens a new connection.
        assert client.healthz()["status"] == "ok"
        client.close()

    def test_dropped_client_leaks_no_socket(self, live):
        import gc
        import warnings

        observer, _registry = live
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client = ServiceClient(port=observer.port)
            client.healthz()
            del client
            gc.collect()
        assert not [
            warning for warning in caught
            if issubclass(warning.category, ResourceWarning)
        ]


class TestShutdown:
    def test_stop_with_idle_kept_alive_client_is_prompt(
            self, registry, caplog):
        import logging
        import time

        service = QueryService(registry, ServiceConfig(workers=1))
        running = ServiceThread(service).start()
        client = ServiceClient(port=running.port)
        client.healthz()  # one idle kept-alive connection
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            start = time.monotonic()
            running.stop()
            elapsed = time.monotonic() - start
        assert elapsed < 1.0
        assert not running._thread.is_alive()
        assert not [
            record for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        client.close()
