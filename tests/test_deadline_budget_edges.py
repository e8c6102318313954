"""Deadline/budget edge cases: mid-batch isolation and upfront rejection.

Two families of guarantees:

* **Isolation** — a query that dies mid-batch on
  :class:`DeadlineExceededError` or an exhausted step budget poisons
  only itself: every other query in the batch completes with its
  normal answer, in input order, in process and on a worker pool.  The heavy
  query is deterministic by construction: ``(aa)*`` from 0 to 1 on an
  odd 301-vertex a-cycle forces the exact solver through >256 context
  charges (a full deadline-check interval) with no simple witness,
  while the light queries finish in a handful of charges and never
  reach a deadline check.
* **Rejection** — a zero or negative budget, or a negative/expired
  engine deadline, can never admit any work, so it is rejected with a
  clear :class:`ValueError` at construction time instead of failing
  every query one by one; a NaN or infinite deadline can never fire,
  so it is rejected the same way, and so is a plan cache of no entries
  or a result cache of negative size, all before the graph compile.
"""

import math

import pytest

from repro.engine import IndexedGraph, QueryEngine
from repro.execution import ExecutionContext
from repro.graphs.generators import labeled_cycle
from repro.service import save_snapshot
from repro.service.workers import WorkerPool

#: Light companions for the heavy query: a finite language and a
#: one-hop tractable reach, both confined to the tiny p/q/r component
#: of the fixture graph — a handful of context charges, far below the
#: 256-charge deadline-check interval.
LIGHT_BEFORE = ("ab + ba", "p", "r")
HEAVY = ("(aa)*", 0, 1)
LIGHT_AFTER = ("a*", "p", "q")


@pytest.fixture
def cycle():
    # The 301-cycle carries the heavy query; the disjoint 3-vertex
    # component keeps the light queries' exploration tiny.
    graph = labeled_cycle("a" * 301)
    graph.add_edge("p", "a", "q")
    graph.add_edge("q", "b", "r")
    return graph


def run_batch(runner, graph, tmp_path, engine_kwargs, queries):
    """``queries`` as one batch, in process or on a 2-worker pool."""
    if runner == "engine":
        return QueryEngine(graph, **engine_kwargs).run_batch(queries)
    path = str(tmp_path / "graph.snap")
    save_snapshot(graph, path)
    with WorkerPool(path, engine_kwargs=engine_kwargs, workers=2) as pool:
        return pool.run_batch(queries)


class TestMidBatchIsolation:
    @pytest.mark.parametrize("runner", ["engine", "pool"])
    def test_budget_exhaustion_isolates_offender(self, cycle, tmp_path,
                                                 runner):
        batch = run_batch(
            runner, cycle, tmp_path, {"exact_budget": 50},
            [LIGHT_BEFORE, HEAVY, LIGHT_AFTER],
        )
        before, heavy, after = batch.results
        assert heavy.error is not None
        assert "budget" in heavy.error
        assert heavy.strategy == "error"
        assert before.error is None
        assert after.error is None
        assert after.found and after.path.word == "a"
        assert batch.error_count == 1

    @pytest.mark.parametrize("runner", ["engine", "pool"])
    def test_deadline_isolates_offender(self, cycle, tmp_path, runner):
        # 1ns deadline: any query charging past one deadline-check
        # interval (256 charges) dies; the light queries charge far
        # fewer times and never look at the clock.
        batch = run_batch(
            runner, cycle, tmp_path, {"deadline_seconds": 1e-9},
            [LIGHT_BEFORE, HEAVY, LIGHT_AFTER],
        )
        before, heavy, after = batch.results
        assert heavy.error is not None
        assert "deadline" in heavy.error
        assert before.error is None
        assert after.error is None
        assert batch.error_count == 1

    def test_per_batch_override_beats_engine_default(self, cycle):
        engine = QueryEngine(cycle)  # no default budget
        batch = engine.run_batch(
            [LIGHT_BEFORE, HEAVY, LIGHT_AFTER], budget=50
        )
        assert batch.results[1].error is not None
        assert "budget" in batch.results[1].error
        assert batch.error_count == 1
        # And without the override the same batch completes cleanly.
        assert engine.run_batch([LIGHT_BEFORE, LIGHT_AFTER]).error_count == 0

    def test_single_query_raises_instead_of_isolating(self, cycle):
        from repro.errors import BudgetExceededError, DeadlineExceededError

        engine = QueryEngine(cycle)
        with pytest.raises(BudgetExceededError):
            engine.query(*HEAVY, budget=50)
        with pytest.raises(DeadlineExceededError):
            engine.query(*HEAVY, deadline_seconds=1e-9)


class TestUpfrontRejection:
    @pytest.mark.parametrize("bad_budget", [0, -1, -100])
    def test_context_rejects_nonpositive_budget(self, bad_budget):
        with pytest.raises(ValueError, match="budget"):
            ExecutionContext(budget=bad_budget)

    def test_context_rejects_negative_deadline(self):
        with pytest.raises(ValueError, match="deadline_seconds"):
            ExecutionContext(deadline_seconds=-0.5)

    def test_context_keeps_zero_deadline_as_already_expired(self):
        # Legacy contract: 0.0 means "expired on arrival", used by
        # tests to make deadlines bite deterministically.
        ctx = ExecutionContext(deadline_seconds=0.0)
        assert ctx.deadline is not None

    @pytest.mark.parametrize("bad_budget", [0, -5])
    def test_engine_rejects_nonpositive_budget(self, cycle, bad_budget):
        with pytest.raises(ValueError, match="exact_budget"):
            QueryEngine(cycle, exact_budget=bad_budget)

    def test_engine_validates_before_compiling_the_graph(self):
        # A misconfigured engine must fail before paying for the
        # O(V+E) compile: with validation first, the bogus graph
        # object is never touched (no AttributeError).
        with pytest.raises(ValueError, match="exact_budget"):
            QueryEngine(object(), exact_budget=0)

    @pytest.mark.parametrize("size, name", [
        ({"plan_cache_size": 0}, "plan_cache_size"),
        ({"result_cache_size": -1}, "result_cache_size"),
    ], ids=["plan", "result"])
    def test_cache_sizes_are_checked_before_the_graph_compile(
        self, cycle, monkeypatch, size, name
    ):
        compiles = []
        compile_graph = IndexedGraph.__init__

        def counted(self, *args, **kwargs):
            compiles.append(self)
            compile_graph(self, *args, **kwargs)

        monkeypatch.setattr(IndexedGraph, "__init__", counted)
        with pytest.raises(ValueError, match=name):
            QueryEngine(cycle, **size)
        assert compiles == []

    @pytest.mark.parametrize("bad_deadline", [0, 0.0, -1.0])
    def test_engine_rejects_nonpositive_default_deadline(
        self, cycle, bad_deadline
    ):
        with pytest.raises(ValueError, match="deadline_seconds"):
            QueryEngine(cycle, deadline_seconds=bad_deadline)

    def test_engine_rejects_bad_overrides_before_any_query_runs(self, cycle):
        engine = QueryEngine(cycle)
        with pytest.raises(ValueError, match="budget"):
            engine.run_batch([LIGHT_AFTER], budget=0)
        with pytest.raises(ValueError, match="deadline"):
            engine.run_batch([LIGHT_AFTER], deadline_seconds=-1.0)
        with pytest.raises(ValueError, match="budget"):
            engine.query(*LIGHT_AFTER, budget=-2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_deadlines_are_rejected(self, cycle, bad):
        with pytest.raises(ValueError, match="deadline_seconds"):
            ExecutionContext(deadline_seconds=bad)
        with pytest.raises(ValueError, match="deadline_seconds"):
            QueryEngine(cycle, deadline_seconds=bad)
        engine = QueryEngine(cycle)
        with pytest.raises(ValueError, match="deadline_seconds"):
            engine.query(*LIGHT_AFTER, deadline_seconds=bad)
        with pytest.raises(ValueError, match="deadline_seconds"):
            engine.run_batch([LIGHT_AFTER], deadline_seconds=bad)

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
    def test_cli_serve_rejects_non_finite_deadline(self, tmp_path, capsys,
                                                   monkeypatch, bad):
        from repro.cli import main
        from repro.graphs import io as graph_io
        from repro.graphs.dbgraph import DbGraph
        from repro.service import QueryService

        def refuse(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("serve started with a bad deadline")

        # Accepting the deadline would serve forever; fail instead.
        monkeypatch.setattr(QueryService, "serve_until_interrupted", refuse)
        path = tmp_path / "g.txt"
        graph_io.dump(DbGraph.from_edges([("x", "a", "y")]), str(path))
        code = main([
            "serve", "--graph", "g=%s" % path, "--deadline-seconds", bad,
        ])
        assert code == 2
        assert "--deadline-seconds" in capsys.readouterr().err

    def test_cli_serve_rejects_nonpositive_budget(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graphs import io as graph_io
        from repro.graphs.dbgraph import DbGraph

        path = tmp_path / "g.txt"
        graph_io.dump(DbGraph.from_edges([("x", "a", "y")]), str(path))
        code = main([
            "serve", "--graph", "g=%s" % path, "--budget", "0",
        ])
        assert code == 2
        assert "budget" in capsys.readouterr().err
