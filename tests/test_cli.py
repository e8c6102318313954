"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graphs import io as graph_io
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import figure4_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = DbGraph.from_edges(
        [("s", "a", "m"), ("m", "b", "n"), ("n", "b", "o"), ("o", "c", "t")]
    )
    target = tmp_path / "graph.txt"
    graph_io.dump(graph, target)
    return str(target)


class TestClassify:
    def test_tractable(self, capsys):
        assert main(["classify", "a*(bb+ + eps)c*"]) == 0
        out = capsys.readouterr().out
        assert "NL-complete" in out
        assert "in trC     : True" in out

    def test_hard(self, capsys):
        assert main(["classify", "a*ba*"]) == 0
        assert "NP-complete" in capsys.readouterr().out

    def test_finite(self, capsys):
        assert main(["classify", "ab + ba"]) == 0
        assert "AC0" in capsys.readouterr().out


class TestWitness:
    def test_hard_language(self, capsys):
        assert main(["witness", "(aa)*"]) == 0
        out = capsys.readouterr().out
        assert "w1 =" in out and "wr =" in out

    def test_tractable_language(self, capsys):
        assert main(["witness", "a*"]) == 1
        assert "tractable" in capsys.readouterr().out


class TestPsitr:
    def test_decomposition_printed(self, capsys):
        assert main(["psitr", "a*(bb+ + eps)c*"]) == 0
        out = capsys.readouterr().out
        assert ">=" in out

    def test_hard_language_fails_cleanly(self, capsys):
        assert main(["psitr", "a*ba*"]) == 2
        assert "error" in capsys.readouterr().err

    def test_factored_decomposition_prints_one_sequence_per_line(self, capsys):
        assert main(["psitr", "c*a^+"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "  (c(c + ε) + ε)a(a(a + ε) + ε)"
        assert len(lines) == 4
        assert all(line.startswith("+ ") for line in lines[1:])


class TestSolve:
    def test_found(self, capsys, graph_file):
        code = main(["solve", "a*(bb+ + eps)c*", graph_file, "s", "t"])
        assert code == 0
        out = capsys.readouterr().out
        assert "word    : abbc" in out
        assert "trc-nice-path" in out

    def test_not_found(self, capsys, graph_file):
        code = main(["solve", "c*", graph_file, "s", "t"])
        assert code == 1
        assert "no simple path" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        code = main(["solve", "a*", "/nonexistent/graph.txt", "0", "1"])
        assert code == 2

    def test_budget_caps_the_whole_query(self, capsys, tmp_path):
        # Figure 4 (k = 6) costs 100 steps: walk nodes plus the
        # anchored DFS.  --budget caps both, as batch and serve do.
        graph, source, target = figure4_graph(6)
        path = str(tmp_path / "fig4.txt")
        graph_io.dump(graph, path)
        query = ["solve", "a*(bb+ + eps)c*", path, source, target]
        for budget in ("1", "99"):
            assert main(query + ["--budget", budget]) == 2
            assert "budget" in capsys.readouterr().err
        assert main(query + ["--budget", "100"]) == 1
        assert "no simple path" in capsys.readouterr().out

    def test_bad_regex(self, capsys):
        assert main(["classify", "(((("]) == 2


class TestBatch:
    @pytest.fixture
    def queries_file(self, tmp_path):
        target = tmp_path / "queries.txt"
        target.write_text(
            "# mixed workload — regexes may contain spaces\n"
            "\n"
            "s t a*(bb+ + eps)c*\n"
            "s t ab + ba\n"
            "s o a*ba*\n"
            "s t a*(bb+ + eps)c*\n"
        )
        return str(target)

    def test_batch_runs_all_queries(self, capsys, graph_file, queries_file):
        code = main(["batch", graph_file, queries_file])
        out = capsys.readouterr().out
        assert code == 1  # some queries found no path
        assert "4 queries" in out
        assert "trc-nice-path" in out
        assert "exact-backtracking" in out
        assert "cache hits" in out

    def test_batch_reuses_plans(self, capsys, graph_file, queries_file):
        main(["batch", graph_file, queries_file])
        out = capsys.readouterr().out
        # 3 distinct languages over 4 queries: one plan is reused.
        assert "3 compiled, 1 cache hits" in out

    def test_batch_stats_flag(self, capsys, graph_file, queries_file):
        code = main(["batch", graph_file, queries_file, "--stats"])
        assert code == 1
        out = capsys.readouterr().out
        assert "plan_cache_hit=True" in out
        assert "steps=" in out

    def test_batch_all_found_exits_zero(self, capsys, graph_file, tmp_path):
        queries = tmp_path / "ok.txt"
        queries.write_text("s t a*(bb+ + eps)c*\n")
        assert main(["batch", graph_file, str(queries)]) == 0

    @pytest.fixture
    def gadget_files(self, tmp_path):
        # (aa)* from 0 to 4: accepting walk 0-1-2-3-1-2-4 but no
        # simple path; padding keeps the walk under the n-1 cap, so
        # the portfolio answers with a probabilistic negative.
        graph = DbGraph()
        for u, l, v in [
            ("0", "a", "1"), ("1", "a", "2"), ("2", "a", "3"),
            ("3", "a", "1"), ("2", "a", "4"),
        ]:
            graph.add_edge(u, l, v)
        graph.add_vertex("5")
        graph.add_vertex("6")
        graph_path = tmp_path / "gadget.txt"
        graph_io.dump(graph, graph_path)
        queries = tmp_path / "hard.txt"
        queries.write_text("0 4 (aa)*\n0 2 (aa)*\n")
        return str(graph_path), str(queries)

    def test_batch_portfolio_flag(self, capsys, gadget_files):
        graph_path, queries_path = gadget_files
        code = main(["batch", graph_path, queries_path, "--portfolio"])
        out = capsys.readouterr().out
        assert code == 1  # the hard query finds no path
        assert "portfolio:" in out
        assert "probabilistic, failure bound" in out

    def test_batch_max_path_edges_flag(self, capsys, gadget_files):
        graph_path, queries_path = gadget_files
        code = main(
            ["batch", graph_path, queries_path, "--max-path-edges", "1"]
        )
        assert code == 1
        assert "no path" in capsys.readouterr().out

    def test_batch_bad_portfolio_knobs(self, capsys, gadget_files):
        graph_path, queries_path = gadget_files
        assert main(
            ["batch", graph_path, queries_path, "--max-path-edges", "-1"]
        ) == 2
        assert main(
            ["batch", graph_path, queries_path,
             "--portfolio-failure-probability", "1.5"]
        ) == 2

    def test_batch_malformed_line(self, capsys, graph_file, tmp_path):
        queries = tmp_path / "bad.txt"
        queries.write_text("s t\n")
        assert main(["batch", graph_file, str(queries)]) == 2
        assert "error" in capsys.readouterr().err

    def test_batch_missing_file(self, capsys, graph_file):
        assert main(["batch", graph_file, "/nonexistent/queries.txt"]) == 2

    def test_batch_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "batch" in capsys.readouterr().out

    def test_batch_bad_cache_size(self, capsys, graph_file, tmp_path):
        queries = tmp_path / "one.txt"
        queries.write_text("s t a*\n")
        code = main(
            ["batch", graph_file, str(queries), "--plan-cache-size", "0"]
        )
        assert code == 2
        assert "plan-cache-size" in capsys.readouterr().err

    def test_batch_result_cache_size_zero_turns_the_cache_off(
        self, capsys, graph_file, tmp_path
    ):
        queries = tmp_path / "repeated.txt"
        queries.write_text("s t a*(bb+ + eps)c*\n" * 2)
        argv = ["batch", graph_file, str(queries), "--result-cache-size"]
        assert main(argv + ["-1"]) == 2
        assert "result-cache-size must be >= 0" in capsys.readouterr().err
        assert main(argv + ["1"]) == 0
        assert "results: 1 cache hits" in capsys.readouterr().out
        assert main(argv + ["0"]) == 0
        assert "results:" not in capsys.readouterr().out

    def test_batch_query_error_isolated(self, capsys, graph_file, tmp_path):
        queries = tmp_path / "mixed.txt"
        queries.write_text("zzz t a*\ns t a*(bb+ + eps)c*\n")
        code = main(["batch", graph_file, str(queries)])
        assert code == 2
        out = capsys.readouterr().out
        assert "error: unknown vertex 'zzz'" in out
        assert "word abbc" in out  # the good query still ran
        assert "1 errors" in out

    def test_batch_workers_same_answers(
        self, capsys, monkeypatch, tmp_path, graph_file, queries_file
    ):
        import tempfile

        from repro.engine import QueryEngine
        from repro.service.workers import WorkerPool

        serial_code = main(["batch", graph_file, queries_file])
        serial_out = capsys.readouterr().out
        pooled = []
        original = WorkerPool.run_batch

        def spy(pool, *args, **kwargs):
            pooled.append((pool.workers, pool.snapshot_path))
            return original(pool, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "run_batch", spy)
        # Workers build their engines after the fork, in their own
        # memory, so only this process's constructions land here.
        engines = []
        original_init = QueryEngine.__init__

        def counting_init(engine, *args, **kwargs):
            engines.append(engine)
            original_init(engine, *args, **kwargs)

        monkeypatch.setattr(QueryEngine, "__init__", counting_init)
        spool = tmp_path / "spool"
        spool.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool))
        parallel_code = main(
            ["batch", graph_file, queries_file, "--workers", "3"]
        )
        parallel_out = capsys.readouterr().out
        # The batch ran on a 3-process pool attached to a snapshot
        # spooled under the temporary directory.
        ((workers, snapshot),) = pooled
        assert workers == 3
        assert snapshot.startswith(str(spool))
        assert engines == []
        assert parallel_code == serial_code
        # Per-query lines are identical; only the summary (timing,
        # worker count) may differ.
        assert parallel_out.splitlines()[:-1] == serial_out.splitlines()[:-1]
        assert "3 workers" in parallel_out
        # The pool's temporary snapshot is gone with the pool.
        assert list(spool.iterdir()) == []

    def test_batch_nonpositive_budget_is_usage_error(
        self, capsys, graph_file, queries_file
    ):
        for bad in ("0", "-1"):
            code = main(
                ["batch", graph_file, queries_file, "--budget", bad]
            )
            assert code == 2
            assert "--budget" in capsys.readouterr().err

    def test_solve_nonpositive_budget_is_usage_error(
        self, capsys, graph_file
    ):
        code = main(["solve", "a*ba*", graph_file, "s", "t", "--budget", "0"])
        assert code == 2
        assert "--budget" in capsys.readouterr().err

    def test_batch_bad_workers(self, capsys, graph_file, queries_file):
        code = main(
            ["batch", graph_file, queries_file, "--workers", "0"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_batch_jsonl(self, capsys, graph_file, queries_file, tmp_path):
        out_path = tmp_path / "results.jsonl"
        main(["batch", graph_file, queries_file, "--jsonl", str(out_path)])
        capsys.readouterr()
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 4
        records = [json.loads(line) for line in lines]
        found = [r for r in records if r["found"]]
        assert found, records
        first = found[0]
        assert first["word"] == "abbc"
        assert first["length"] == 4
        assert first["strategy"] == "trc-nice-path"
        assert first["steps"] >= 1
        assert first["seconds"] >= 0
        assert first["error"] is None
        assert {"plan_cache_hit", "path", "source", "target"} <= set(first)

    def test_batch_jsonl_field_order_is_documented(
        self, capsys, graph_file, queries_file, tmp_path
    ):
        from repro.service.protocol import RESULT_FIELDS

        out_path = tmp_path / "results.jsonl"
        main(["batch", graph_file, queries_file, "--jsonl", str(out_path)])
        capsys.readouterr()
        for line in out_path.read_text().strip().splitlines():
            record = json.loads(line)
            # insertion order survives json round-trips, so the wire
            # order is exactly the documented RESULT_FIELDS order
            assert list(record) == list(RESULT_FIELDS)

    def test_batch_jsonl_is_deterministic(
        self, capsys, graph_file, queries_file, tmp_path
    ):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        main(["batch", graph_file, queries_file, "--jsonl", str(first)])
        main(["batch", graph_file, queries_file, "--jsonl", str(second)])
        capsys.readouterr()

        def stable(path):
            # all fields except the per-run timing
            records = []
            for line in path.read_text().strip().splitlines():
                record = json.loads(line)
                record.pop("seconds")
                records.append(record)
            return records

        assert stable(first) == stable(second)

    def test_batch_jsonl_roundtrips_the_batch_result(
        self, capsys, graph_file, queries_file, tmp_path
    ):
        # write → parse → compare to a fresh equivalent BatchResult
        from repro.cli import _parse_queries
        from repro.engine import QueryEngine
        from repro.graphs import io as gio

        out_path = tmp_path / "results.jsonl"
        main(["batch", graph_file, queries_file, "--jsonl", str(out_path)])
        capsys.readouterr()
        parsed = [
            json.loads(line)
            for line in out_path.read_text().strip().splitlines()
        ]
        batch = QueryEngine(gio.load(graph_file)).run_batch(
            _parse_queries(queries_file)
        )
        assert len(parsed) == len(batch.results)
        for record, result in zip(parsed, batch.results):
            assert record["language"] == str(result.language)
            assert record["source"] == result.source
            assert record["target"] == result.target
            assert record["strategy"] == result.strategy
            assert record["found"] == result.found
            assert record["length"] == result.length
            assert record["word"] == (
                None if result.path is None else result.path.word
            )
            assert record["path"] == (
                None if result.path is None else list(result.path.vertices)
            )
            assert record["decompose_failed"] == result.decompose_failed
            assert record["steps"] == result.stats.steps
            assert record["error"] == result.error

    def test_batch_jsonl_error_row(self, capsys, graph_file, tmp_path):
        queries = tmp_path / "mixed.txt"
        queries.write_text("zzz t a*\ns t a*(bb+ + eps)c*\n")
        out_path = tmp_path / "results.jsonl"
        main(["batch", graph_file, str(queries), "--jsonl", str(out_path)])
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in out_path.read_text().strip().splitlines()
        ]
        assert len(records) == 2
        assert "unknown vertex" in records[0]["error"]
        assert records[0]["strategy"] == "error"
        assert records[0]["found"] is False
        assert records[1]["error"] is None


class TestSnapshotCommand:
    def test_snapshot_then_warm_load(self, capsys, graph_file, tmp_path):
        snap = tmp_path / "graph.snap"
        assert main(["snapshot", graph_file, str(snap)]) == 0
        out = capsys.readouterr().out
        assert "|V|=5" in out and "bytes" in out

        from repro.service import load_snapshot

        thawed = load_snapshot(str(snap))
        assert thawed.num_vertices == 5
        assert thawed.has_vertex("s")

    def test_snapshot_missing_graph(self, capsys, tmp_path):
        code = main(
            ["snapshot", "/nonexistent/graph.txt", str(tmp_path / "x.snap")]
        )
        assert code == 2


class TestServeCommand:
    def test_serve_requires_a_graph(self, capsys):
        assert main(["serve"]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_serve_rejects_malformed_pair(self, capsys, graph_file):
        assert main(["serve", "--graph", graph_file]) == 2
        assert "NAME=PATH" in capsys.readouterr().err

    def test_serve_rejects_nonpositive_max_graphs(self, capsys, graph_file):
        code = main([
            "serve", "--graph", "g=%s" % graph_file, "--max-graphs", "0",
        ])
        assert code == 2
        assert "--max-graphs" in capsys.readouterr().err

    def test_cli_import_stays_light(self):
        # The CLI needs only the wire protocol; the asyncio server and
        # HTTP client must load lazily, not on every `repro classify`.
        import subprocess
        import sys

        subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro.cli, sys; "
                "assert 'repro.service.server' not in sys.modules; "
                "assert 'repro.service.client' not in sys.modules",
            ],
            check=True,
        )

    def test_serve_in_help(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "serve" in out and "snapshot" in out


class TestExplain:
    def test_tractable_plan(self, capsys):
        assert main(["explain", "a*(bb+ + eps)c*"]) == 0
        out = capsys.readouterr().out
        assert "strategy       : trc-nice-path" in out
        assert "in trC         : True" in out
        assert "NL-complete" in out
        assert "Ψtr anchored search" in out
        assert "plan key kind  : regex" in out
        assert "plan compile" in out

    def test_hard_plan_without_graph_names_both_views(self, capsys):
        assert main(["explain", "a*ba*"]) == 0
        out = capsys.readouterr().out
        assert "strategy       : exact-backtracking" in out
        assert "NP-complete" in out
        assert "csr (IndexedGraph)" in out
        assert "direct solve_rspq walks the DbGraph's memoised compile" in out

    def test_finite_plan(self, capsys):
        assert main(["explain", "ab + ba"]) == 0
        out = capsys.readouterr().out
        assert "strategy       : finite-AC0" in out
        assert "finite         : True" in out

    def test_hard_plan_reports_the_ladder(self, capsys):
        assert main(["explain", "(aa)*"]) == 0
        out = capsys.readouterr().out
        assert (
            "portfolio      : walk-probe -> color-coding -> algebraic "
            "-> exact" in out
        )
        assert "budget split" in out
        assert "exact=30%" in out
        assert "failure bound 0.001" in out

    def test_synthesized_plan_reports_k_and_chains(self, capsys):
        assert main(["explain", "c*a^+"]) == 0
        out = capsys.readouterr().out
        assert "Ψtr            : synthesized from the minimal DFA, k=1, " \
            "3 chain(s)" in out
        assert "  sequences    :   (c(c + ε) + ε)a(a(a + ε) + ε)" in out

    def test_extracted_plan_reports_its_sequences(self, capsys):
        assert main(["explain", "a*(bb+ + eps)c*"]) == 0
        out = capsys.readouterr().out
        assert "Ψtr            : extracted from the regex, 1 sequence(s)" in out
        assert "([a]>=1 + ε) ([b]>=2 + ε) ([c]>=1 + ε)" in out

    def test_tractable_plan_has_no_ladder(self, capsys):
        assert main(["explain", "a*c*"]) == 0
        assert "portfolio      :" not in capsys.readouterr().out

    def test_graph_option_reports_compiled_view(self, capsys, graph_file):
        assert main(["explain", "a*", "--graph", graph_file]) == 0
        out = capsys.readouterr().out
        assert "graph view     : csr (IndexedGraph over" in out
        assert "|V|=5 |E|=4" in out
        assert "one CSR per direction" in out

    def test_never_executes_a_search(self, capsys, graph_file, monkeypatch):
        # explain must not touch a solver's search entry points.
        from repro.core.solver import RspqSolver

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("explain executed a search")

        monkeypatch.setattr(RspqSolver, "shortest_simple_path", boom)
        assert main(["explain", "a*ba*", "--graph", graph_file]) == 0

    def test_bad_regex_is_usage_error(self, capsys):
        assert main(["explain", "a*("]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_graph_file_is_usage_error(self, capsys):
        assert main(["explain", "a*", "--graph", "/no/such/file"]) == 2
        assert "error" in capsys.readouterr().err

    def test_label_mask_and_coverage(self, capsys, graph_file):
        assert main(["explain", "a*b", "--graph", graph_file]) == 0
        out = capsys.readouterr().out
        assert "label mask     : {a, b}" in out
        assert "label coverage : 2/3 graph labels usable by L" in out
        assert "components" in out

    def test_index_verdict_reachable(self, capsys, graph_file):
        assert main([
            "explain", "a*(bb+ + eps)c*", "--graph", graph_file,
            "--source", "s", "--target", "t",
        ]) == 0
        out = capsys.readouterr().out
        assert "index verdict  : reachable under L's label mask" in out
        assert (
            "the walk check runs first; the trc-nice-path solver runs "
            "only if the shortest walk is not simple" in out
        )

    def test_index_verdict_reachable_finite(self, capsys, graph_file):
        # Finite languages keep their word search: no walk check.
        assert main([
            "explain", "abbc", "--graph", graph_file,
            "--source", "s", "--target", "t",
        ]) == 0
        out = capsys.readouterr().out
        assert "the finite-AC0 solver would run" in out
        assert "walk check" not in out

    def test_index_verdict_short_circuit(self, capsys, graph_file):
        # t has no outgoing edges: nothing is reachable from it.
        assert main([
            "explain", "a*", "--graph", graph_file,
            "--source", "t", "--target", "s",
        ]) == 0
        out = capsys.readouterr().out
        assert "index verdict  : short_circuit: unreachable" in out
        assert "NOT_FOUND" in out

    def test_verdict_never_executes_a_search(self, capsys, graph_file,
                                             monkeypatch):
        from repro.core.solver import RspqSolver

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("explain executed a search")

        monkeypatch.setattr(RspqSolver, "shortest_simple_path", boom)
        assert main([
            "explain", "a*ba*", "--graph", graph_file,
            "--source", "s", "--target", "t",
        ]) == 0

    def test_source_without_target_is_usage_error(self, capsys,
                                                  graph_file):
        assert main([
            "explain", "a*", "--graph", graph_file, "--source", "s",
        ]) == 2
        assert "together" in capsys.readouterr().err

    def test_source_without_graph_is_usage_error(self, capsys):
        assert main([
            "explain", "a*", "--source", "s", "--target", "t",
        ]) == 2
        assert "--graph" in capsys.readouterr().err

    def test_unknown_vertex_is_usage_error(self, capsys, graph_file):
        assert main([
            "explain", "a*", "--graph", graph_file,
            "--source", "nope", "--target", "t",
        ]) == 2
        assert "unknown vertex" in capsys.readouterr().err
