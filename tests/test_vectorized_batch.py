"""Vectorized batch execution: grouped CSR sweeps ≡ per-query solving.

The contract under test, end to end: ``run_batch`` with vectorization
on answers every query **identically** — found/path/strategy/error,
field for field — to the strictly per-query path, in process and on a
worker pool.  The sweep may only change *how* an answer is produced
(proven negatives skip the solver; positives fall back to it), never
*what* the answer is.

Structure:

* unit tests for :func:`group_by_plan` and :func:`sweep_group` (the
  sweep core in isolation: positives, proven negatives, the ε-case,
  per-member budget expiry, witness-walk validity);
* deterministic differential tests on a hand-built graph where each
  outcome class (fallback positive, swept negative, peeled
  short-circuit, deferred duplicate) is forced by construction;
* hypothesis/randomized differential sweeps over mixed-regime
  workloads comparing the vectorized, per-query and pooled paths;
* serving-counter parity: a vectorized registry reports the same
  plan-cache / result-cache / per-graph counters as a serial one;
* the knob surface: engine + ``run_batch`` validation, ``/batch``
  payload keys, ``vectorized_stats`` in the wire record, CLI flags.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.workloads import mixed_workload

from repro.cli import main
from repro.engine import (
    IndexedGraph,
    QueryEngine,
    VectorizedBatchStats,
    group_by_plan,
)
from repro.engine.vectorized import iter_members, sweep_group
from repro.errors import ServiceError
from repro.execution import ExecutionContext, GroupExecution
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import labeled_cycle
from repro.graphs import io as graph_io
from repro.service import (
    GraphRegistry,
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    save_snapshot,
)
from repro.service.protocol import RESULT_FIELDS, batch_record
from repro.service.workers import WorkerPool


def assert_same_answers(reference, results, include_stats=False):
    """Field-for-field identity of two result lists.

    Every comparison pins the plan-cache flag: each path runs the same
    prefix (plan, result cache, short-circuit), so a query sees a warm
    plan exactly when its serial twin does, errors included.
    ``include_stats`` additionally pins steps and per-query flags —
    used between the in-process and pooled runs of the *same*
    execution strategy, where even the accounting must not depend on
    worker count.
    """
    assert len(results) == len(reference)
    for ref, res in zip(reference, results):
        assert res.language == ref.language
        assert res.source == ref.source
        assert res.target == ref.target
        assert res.strategy == ref.strategy
        assert res.found == ref.found
        assert res.length == ref.length
        assert res.decompose_failed == ref.decompose_failed
        assert res.error == ref.error
        assert res.stats.plan_cache_hit == ref.stats.plan_cache_hit
        if ref.path is None:
            assert res.path is None
        else:
            assert res.path is not None
            assert res.path.word == ref.path.word
            assert list(res.path.vertices) == list(ref.path.vertices)
        if include_stats:
            assert res.stats.steps == ref.stats.steps
            assert res.stats.vectorized == ref.stats.vectorized
            assert res.stats.result_cache_hit == ref.stats.result_cache_hit
            assert res.stats.short_circuit == ref.stats.short_circuit


def pooled_batch(graph, tmp_path, queries):
    """``queries`` run on a 2-worker pool over a snapshot of ``graph``."""
    path = str(tmp_path / "graph.snap")
    save_snapshot(graph, path)
    with WorkerPool(path, workers=2) as pool:
        return pool.run_batch(queries)


def sweep_graph():
    """A graph where ``ab`` forces each sweep outcome by construction.

    ``0 -b-> 1 -a-> 2`` is label-closure reachable from 0 to 2 (both
    letters occur on the walk) but carries no ``ab``-ordered walk, so
    the reachability index cannot short-circuit 0→2 while the sweep
    proves it negative.  ``0 -a-> 3 -b-> 4`` gives a genuine positive.
    ``5`` is isolated, so 0→5 is short-circuited by the index.
    """
    return DbGraph.from_edges([
        (0, "b", 1), (1, "a", 2),
        (0, "a", 3), (3, "b", 4),
        (5, "c", 5),
    ])


#: One of each outcome class, plus a duplicate of the positive.
SWEEP_QUERIES = [
    ("ab", 0, 4),   # positive: sweep witnesses, solver answers
    ("ab", 0, 2),   # sweep-proven negative (index cannot see it)
    ("ab", 0, 5),   # reachability-index short-circuit, peeled pre-sweep
    ("ab", 0, 4),   # duplicate pair: deferred, replayed from the cache
    ("c*", 5, 5),   # second group, below the default min size
]


class TestGroupByPlan:
    def test_groups_share_a_key_and_keep_positions(self):
        pairs = list(enumerate([
            ("a*", 0, 1), ("b", 2, 3), ("a*", 4, 5), ("a*", 0, 1),
        ]))
        groups, ungroupable = group_by_plan(pairs)
        assert ungroupable == []
        sizes = sorted(len(members) for members in groups.values())
        assert sizes == [1, 3]
        (a_star,) = [g for g in groups.values() if len(g) == 3]
        assert [position for position, _query in a_star] == [0, 2, 3]
        assert a_star[1][1] == ("a*", 4, 5)

    def test_equivalent_languages_share_a_group(self):
        from repro.languages import language

        pairs = [(0, (language("a|b"), 0, 1)), (1, (language("b|a"), 2, 3))]
        groups, ungroupable = group_by_plan(pairs)
        assert ungroupable == []
        assert len(groups) == 1

    def test_unkeyable_language_is_ungroupable(self):
        pairs = [(0, ("a*", 0, 1)), (1, (123, 0, 1)), (2, ("a*", 2, 3))]
        groups, ungroupable = group_by_plan(pairs)
        assert len(groups) == 1
        (members,) = groups.values()
        assert [position for position, _query in members] == [0, 2]
        assert ungroupable == [(1, (123, 0, 1))]


class TestSweepGroupUnit:
    @pytest.fixture(scope="class")
    def compiled(self):
        graph = IndexedGraph(sweep_graph())
        engine = QueryEngine(graph)
        return graph, engine

    def run_sweep(self, compiled, regex, endpoints, contexts=None):
        graph, engine = compiled
        plan, _hit = engine.plan_for(regex)
        view = graph.view()
        pending = [
            (member, graph.vertex_id(source), graph.vertex_id(target))
            for member, (source, target) in enumerate(endpoints)
        ]
        if contexts is None:
            contexts = {
                member: ExecutionContext() for member, _s, _t in pending
            }
        group = GroupExecution(contexts)
        return sweep_group(view, plan, pending, group), plan, graph

    def test_positive_and_proven_negative(self, compiled):
        outcome, _plan, _graph = self.run_sweep(
            compiled, "ab", [(0, 4), (0, 2)]
        )
        assert outcome.positives == [0]
        assert outcome.negatives == [1]
        assert outcome.expired == {}
        # Both members rode every round until decided.
        assert outcome.rounds >= 1
        assert outcome.steps_of(0) >= 1
        assert outcome.steps_of(1) >= 1

    def test_witness_walk_is_a_real_accepting_walk(self, compiled):
        outcome, plan, graph = self.run_sweep(compiled, "ab", [(0, 4)])
        vertices, labels = outcome.witness_walk(0)
        view = graph.view()
        assert vertices[0] == graph.vertex_id(0)
        assert vertices[-1] == graph.vertex_id(4)
        assert len(labels) == len(vertices) - 1
        # Every step is a real edge with the claimed label...
        for here, label_id, there in zip(vertices, labels, vertices[1:]):
            indptr, targets = view.out_csr(label_id)
            row = targets[indptr[here]:indptr[here + 1]]
            assert there in row
        # ...and the word the labels spell is in the language.
        word = "".join(view.label_at(label_id) for label_id in labels)
        assert plan.solver.language.dfa.accepts(word)

    def test_epsilon_self_query_is_an_immediate_positive(self, compiled):
        outcome, _plan, _graph = self.run_sweep(compiled, "a*", [(2, 2)])
        assert outcome.positives == [0]
        assert outcome.rounds == 0
        assert outcome.steps_of(0) == 0

    def test_unreachable_member_is_negative_without_a_witness(
        self, compiled
    ):
        outcome, _plan, _graph = self.run_sweep(compiled, "ab", [(4, 0)])
        assert outcome.negatives == [0]
        with pytest.raises(KeyError):
            outcome.witness_walk(0)

    def test_budget_expiry_peels_only_the_budgeted_member(self):
        # An 11-a cycle: "a*b" never accepts (no b edge), so both
        # members sweep until their frontier dies — unless their own
        # budget trips first.
        graph = IndexedGraph(labeled_cycle("a" * 11))
        engine = QueryEngine(graph, use_reach_index=False)
        plan, _hit = engine.plan_for("a*b")
        contexts = {0: ExecutionContext(budget=3), 1: ExecutionContext()}
        group = GroupExecution(contexts)
        outcome = sweep_group(
            graph.view(), plan, [(0, 0, 5), (1, 0, 5)], group
        )
        assert list(outcome.expired) == [0]
        assert "budget" in str(outcome.expired[0])
        assert outcome.negatives == [1]
        # The tripping charge is counted, exactly as a serial context.
        assert outcome.steps_of(0) == 4
        assert outcome.steps_of(1) > 4   # kept sweeping alone

    def test_iter_members_decodes_bitmaps(self):
        assert list(iter_members(0)) == []
        assert list(iter_members(0b1011)) == [0, 1, 3]
        assert list(iter_members(1 << 70)) == [70]


class TestGroupedMatchesSerialDeterministic:
    @pytest.fixture
    def graph(self):
        return sweep_graph()

    def test_answers_identical_and_outcomes_as_constructed(self, graph):
        serial = QueryEngine(graph).run_batch(
            SWEEP_QUERIES, vectorize=False
        )
        vectorized = QueryEngine(graph).run_batch(SWEEP_QUERIES)
        assert serial.stats is None
        assert_same_answers(serial.results, vectorized.results)

        positive, negative, short, duplicate, small = vectorized.results
        assert positive.found and not positive.stats.vectorized
        assert not negative.found and negative.stats.vectorized
        assert negative.error is None
        assert short.stats.short_circuit and not short.stats.vectorized
        assert duplicate.stats.result_cache_hit
        assert not small.stats.vectorized  # group of 1 never sweeps

        stats = vectorized.stats
        assert isinstance(stats, VectorizedBatchStats)
        assert stats.groups == 2
        assert stats.sweeps == 1
        assert stats.grouped_queries == len(SWEEP_QUERIES)
        assert stats.peeled_short_circuits == 1
        assert stats.swept_negatives == 1
        assert stats.deferred_duplicates == 1
        assert stats.fallback_solves >= 1
        assert "1 sweeps over 2 groups" in vectorized.summary()

    def test_error_members_match_serial(self, graph):
        # An unknown vertex in the "ab" group, whose plan the members
        # before it already compiled (an error after a plan-cache
        # hit), and an unparseable regex (an error before any plan).
        queries = SWEEP_QUERIES + [("ab", 0, 99), ("a(b", 0, 1)]
        serial = QueryEngine(graph).run_batch(queries, vectorize=False)
        vectorized = QueryEngine(graph).run_batch(queries)
        assert_same_answers(serial.results, vectorized.results)
        unknown, unparseable = vectorized.results[-2:]
        assert "unknown vertex" in unknown.error
        assert unknown.stats.plan_cache_hit is True
        assert unparseable.error is not None
        assert unparseable.stats.plan_cache_hit is False

    def test_duplicate_cache_accounting_matches_serial(self, graph):
        batch = [("ab", 0, 4)] * 3
        serial_engine = QueryEngine(graph)
        serial = serial_engine.run_batch(batch, vectorize=False)
        vec_engine = QueryEngine(graph)
        vectorized = vec_engine.run_batch(batch)
        assert_same_answers(serial.results, vectorized.results)
        flags = [r.stats.result_cache_hit for r in vectorized.results]
        assert flags == [
            r.stats.result_cache_hit for r in serial.results
        ]
        assert flags == [False, True, True]
        assert (
            vec_engine.result_cache_stats().hits
            == serial_engine.result_cache_stats().hits
        )

    def test_warm_result_cache_peels_before_the_sweep(self, graph):
        engine = QueryEngine(graph)
        engine.query("ab", 0, 2)
        batch = engine.run_batch([("ab", 0, 2), ("ab", 1, 2)])
        assert batch.stats.peeled_cache_hits == 1
        assert batch.results[0].stats.result_cache_hit

    def test_schedulers_agree_with_serial_vectorized(self, graph,
                                                     tmp_path):
        queries = SWEEP_QUERIES * 3
        reference = QueryEngine(graph).run_batch(queries)
        batch = pooled_batch(graph, tmp_path, queries)
        assert_same_answers(
            reference.results, batch.results, include_stats=True
        )
        assert batch.stats is not None
        assert (
            batch.stats.swept_negatives
            == reference.stats.swept_negatives
        )


class TestBudgetsAndDeadlines:
    """Per-query contracts bite exactly as serial: an effective budget
    or deadline disables group sweeps, so mid-batch expiry isolation is
    *the same code path* — pinned here against the serial engine."""

    @pytest.fixture
    def cycle(self):
        graph = labeled_cycle("a" * 301)
        graph.add_edge("p", "a", "q")
        graph.add_edge("q", "b", "r")
        return graph

    HEAVY_BATCH = [("ab + ba", "p", "r"), ("(aa)*", 0, 1), ("a*", "p", "q")]

    def test_engine_budget_disables_sweeps_and_matches_serial(self, cycle):
        vectorized = QueryEngine(cycle, exact_budget=50).run_batch(
            self.HEAVY_BATCH
        )
        serial = QueryEngine(cycle, exact_budget=50).run_batch(
            self.HEAVY_BATCH, vectorize=False
        )
        assert vectorized.stats.sweeps == 0
        assert_same_answers(
            serial.results, vectorized.results, include_stats=True
        )
        heavy = vectorized.results[1]
        assert heavy.error is not None and "budget" in heavy.error
        assert vectorized.results[0].error is None
        assert vectorized.results[2].error is None

    def test_batch_budget_override_disables_sweeps(self, cycle):
        batch = QueryEngine(cycle).run_batch(
            self.HEAVY_BATCH, budget=50
        )
        assert batch.stats.sweeps == 0
        assert batch.results[1].error is not None

    def test_batch_deadline_override_disables_sweeps(self):
        batch = QueryEngine(sweep_graph()).run_batch(
            SWEEP_QUERIES, deadline_seconds=60.0
        )
        assert batch.stats.sweeps == 0
        assert_same_answers(
            QueryEngine(sweep_graph())
            .run_batch(SWEEP_QUERIES, vectorize=False).results,
            batch.results,
        )


class TestFallbacks:
    def test_group_min_size_above_group_sizes_never_sweeps(self):
        batch = QueryEngine(sweep_graph()).run_batch(
            SWEEP_QUERIES, group_min_size=100
        )
        assert batch.stats.sweeps == 0
        assert batch.stats.groups == 2

    def test_without_reach_index_solver_keeps_its_own_errors(self):
        # Unresolved vertex ids disable the sweep per member; the
        # solver still owns vertex validation and its error text.
        graph = sweep_graph()
        vectorized = QueryEngine(graph, use_reach_index=False).run_batch(
            [("ab", 0, 2), ("ab", 99, 2)]
        )
        serial = QueryEngine(graph, use_reach_index=False).run_batch(
            [("ab", 0, 2), ("ab", 99, 2)], vectorize=False
        )
        assert_same_answers(serial.results, vectorized.results)
        assert "unknown vertex" in vectorized.results[1].error


class TestKnobValidation:
    def test_engine_rejects_nonpositive_group_min_size(self):
        for bad in (0, -2):
            with pytest.raises(ValueError, match="group_min_size"):
                QueryEngine(sweep_graph(), group_min_size=bad)

    def test_run_batch_rejects_nonpositive_group_min_size(self):
        engine = QueryEngine(sweep_graph())
        with pytest.raises(ValueError, match="group_min_size"):
            engine.run_batch([("a*", 0, 1)], group_min_size=0)

    def test_run_batch_overrides_engine_defaults(self):
        # No result cache: the first batch must not pre-answer the
        # second, which needs a live group to sweep.  Distinct
        # endpoints keep both members in the group (a duplicate pair
        # would defer, dropping the group below the min size).
        engine = QueryEngine(
            sweep_graph(), vectorize=False, result_cache=False
        )
        queries = [("ab", 0, 2), ("ab", 1, 2)]
        assert engine.run_batch(queries).stats is None
        overridden = engine.run_batch(queries, vectorize=True)
        assert overridden.stats is not None
        assert overridden.stats.sweeps == 1


class TestRandomizedDifferential:
    """The vectorized, per-query and pooled paths agree on random
    mixed-regime workloads."""

    @pytest.fixture(scope="class")
    def workload(self):
        return mixed_workload(
            num_queries=48,
            seed=11,
            num_vertices=22,
            num_edges=66,
            hot_language="a*(bb^+ + eps)c*",
            hot_every=2,
        )

    def test_vectorized_matches_per_query(self, workload):
        graph, queries = workload
        serial = QueryEngine(graph).run_batch(queries, vectorize=False)
        vectorized = QueryEngine(graph).run_batch(queries)
        assert_same_answers(serial.results, vectorized.results)
        assert vectorized.stats.grouped_queries == len(queries)

    def test_pool_matches_serial_vectorized(self, workload, tmp_path):
        graph, queries = workload
        reference = QueryEngine(graph).run_batch(queries)
        pooled = pooled_batch(graph, tmp_path, queries)
        assert_same_answers(
            reference.results, pooled.results, include_stats=True
        )
        assert pooled.stats == reference.stats

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_workloads_agree(self, seed):
        graph, queries = mixed_workload(
            num_queries=16, seed=seed, num_vertices=10, num_edges=26,
        )
        serial = QueryEngine(graph).run_batch(queries, vectorize=False)
        vectorized = QueryEngine(graph).run_batch(queries)
        assert_same_answers(serial.results, vectorized.results)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_random_workloads_agree_under_a_budget(self, seed):
        # An effective budget keeps per-query contracts authoritative
        # (sweeps off) — expiry and isolation must stay identical.
        graph, queries = mixed_workload(
            num_queries=12, seed=seed, num_vertices=10, num_edges=26,
        )
        serial = QueryEngine(graph).run_batch(
            queries, vectorize=False, budget=5
        )
        vectorized = QueryEngine(graph).run_batch(queries, budget=5)
        assert vectorized.stats.sweeps == 0
        assert_same_answers(
            serial.results, vectorized.results, include_stats=True
        )


class TestServingCounterParity:
    """Vectorized serving increments per-graph counters exactly as
    serial serving does — cache hits and short-circuits inside a group
    are attributed identically (the PR-5 counter contract)."""

    def run_through_registry(self, **registry_kwargs):
        registry = GraphRegistry(**registry_kwargs)
        entry = registry.register("main", sweep_graph())
        for _round in range(2):  # second round exercises warm caches
            batch = entry.engine.run_batch(SWEEP_QUERIES)
            entry.record_batch(batch)
        description = entry.describe()
        return {
            key: description[key]
            for key in (
                "queries", "batches", "found", "errors",
                "plan_cache", "result_cache",
            )
        }

    def test_counters_identical_to_serial(self):
        vectorized = self.run_through_registry()
        serial = self.run_through_registry(vectorize=False)
        assert vectorized == serial

    def test_describe_reports_the_knobs(self):
        registry = GraphRegistry(vectorize=False, group_min_size=7)
        entry = registry.register("main", sweep_graph())
        assert entry.describe()["vectorized"] == {
            "enabled": False, "group_min_size": 7,
        }


class TestWireFormat:
    def test_result_fields_pin_the_vectorized_flag(self):
        assert "vectorized" in RESULT_FIELDS
        batch = QueryEngine(sweep_graph()).run_batch(SWEEP_QUERIES)
        record = batch_record(batch)
        for row in record["results"]:
            assert tuple(row) == RESULT_FIELDS
        assert record["vectorized_stats"] == batch.stats.as_dict()
        assert record["vectorized_stats"]["sweeps"] == 1

    def test_vectorized_stats_absent_when_disabled(self):
        batch = QueryEngine(sweep_graph()).run_batch(
            SWEEP_QUERIES, vectorize=False
        )
        assert "vectorized_stats" not in batch_record(batch)


class TestServiceSurface:
    @pytest.fixture
    def live(self):
        registry = GraphRegistry()
        registry.register("main", sweep_graph())
        service = QueryService(
            registry, ServiceConfig(workers=2, max_inflight=8)
        )
        with ServiceThread(service) as running:
            yield ServiceClient(port=running.port)

    def test_batch_carries_vectorized_stats(self, live):
        response = live.batch(SWEEP_QUERIES)
        assert response["vectorized_stats"]["sweeps"] == 1
        rows = response["results"]
        assert [row["vectorized"] for row in rows] == [
            False, True, False, False, False,
        ]

    def test_batch_vectorize_false_drops_the_stats(self, live):
        response = live.batch(SWEEP_QUERIES, vectorize=False)
        assert "vectorized_stats" not in response
        assert all(not row["vectorized"] for row in response["results"])

    def test_batch_group_min_size_is_honored(self, live):
        response = live.batch(SWEEP_QUERIES, group_min_size=100)
        assert response["vectorized_stats"]["sweeps"] == 0

    def test_bad_vectorize_payloads_are_400(self, live):
        for payload_patch in (
            {"vectorize": "yes"},
            {"group_min_size": 0},
            {"group_min_size": True},
            {"group_min_size": "2"},
        ):
            with pytest.raises(ServiceError) as info:
                live._checked("POST", "/batch", {
                    "queries": [["a*", 0, 2]], **payload_patch,
                })
            assert info.value.status == 400


class TestCliFlags:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "graph.txt"
        graph_io.dump(sweep_graph(), path)
        return str(path)

    @pytest.fixture
    def queries_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "".join(
                "%s %s %s\n" % (source, target, regex)
                for regex, source, target in SWEEP_QUERIES
            )
        )
        return str(path)

    def test_no_vectorize_gives_the_same_answers(
        self, capsys, graph_file, queries_file
    ):
        default_code = main(["batch", graph_file, queries_file])
        default_out = capsys.readouterr().out
        serial_code = main(
            ["batch", graph_file, queries_file, "--no-vectorize"]
        )
        serial_out = capsys.readouterr().out
        assert default_code == serial_code
        assert "vectorized: 1 sweeps over 2 groups" in default_out
        assert "sweeps over" not in serial_out

    def test_stats_flag_reports_the_vectorized_flag(
        self, capsys, graph_file, queries_file
    ):
        main(["batch", graph_file, queries_file, "--stats"])
        out = capsys.readouterr().out
        assert "vectorized=True" in out
        assert "vectorized=False" in out

    def test_nonpositive_group_min_size_is_usage_error(
        self, capsys, graph_file, queries_file
    ):
        code = main([
            "batch", graph_file, queries_file, "--group-min-size", "0",
        ])
        assert code == 2
        assert "--group-min-size" in capsys.readouterr().err
