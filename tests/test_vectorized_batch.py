"""Vectorized batch execution: grouped CSR sweeps ≡ per-query solving.

The contract under test, end to end: ``run_batch`` answers every query
**identically** — found/path/strategy/error, field for field — to
``engine.query`` asked one query at a time (the :func:`per_query`
reference), in process and on a worker pool.  The sweep may only
change *how* an answer is produced (proven negatives skip the solver;
positives fall back to it), never *what* the answer is.

Structure:

* unit tests for :func:`group_by_plan` and :func:`sweep_group` (the
  sweep core in isolation: positives, proven negatives, the ε-case);
* the walk certificate pinned to the paper's semantics: certified
  negative ⇔ no accepting walk, and ⇒ no simple path, with the BFS
  sweep splitting every pair the same way;
* deterministic differential tests on a hand-built graph where each
  outcome class (fallback positive, swept negative, peeled
  short-circuit, deferred duplicate) is forced by construction;
* hypothesis/randomized differential sweeps over mixed-regime
  workloads comparing the batch, per-query and pooled paths;
* serving-counter parity: batches move the same plan-cache /
  result-cache / per-graph counters as per-query serving;
* the surface: ``vectorized_stats`` in the wire record and ``/batch``
  responses, the CLI's ``--stats`` flag and summary line.
"""

from collections import deque

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.workloads import MIXED_LANGUAGES, mixed_workload, random_regexes

from repro.algorithms.exact import ExactSolver
from repro.cli import main
from repro.core.trichotomy import ComplexityClass, classify
from repro.engine import (
    IndexedGraph,
    QueryEngine,
    VectorizedBatchStats,
    group_by_plan,
)
from repro.engine.vectorized import (
    CertificateCache,
    WalkCertificate,
    build_cost,
    iter_members,
    sweep_group,
)
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import labeled_cycle, random_labeled_graph
from repro.graphs import io as graph_io
from repro.languages import language
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

from tests.conftest import per_query


def assert_same_answers(reference, results, include_stats=False,
                        plan_flags=True):
    """Field-for-field identity of ``results`` with ``reference``.

    ``reference`` is a result list or :func:`per_query` answers, whose
    ``str`` entries are the error text the batch must report.  Each
    path runs the same prefix (plan, result cache, short-circuit), so
    a query sees a warm plan exactly when its reference twin does;
    ``plan_flags=False`` drops that check for a batch dealt over
    several pool workers, each with its own plan cache.
    ``include_stats`` additionally pins steps and per-query flags —
    between runs whose groups and caches match, such as an
    in-process batch and the same batch on one pool shard.
    """
    assert len(results) == len(reference)
    for ref, res in zip(reference, results):
        if isinstance(ref, str):
            assert res.error == ref
            continue
        assert res.language == ref.language
        assert res.source == ref.source
        assert res.target == ref.target
        assert res.strategy == ref.strategy
        assert res.found == ref.found
        assert res.length == ref.length
        assert res.decompose_failed == ref.decompose_failed
        assert res.error == ref.error
        assert res.confidence == ref.confidence
        if plan_flags:
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


def pooled_batches(graph, tmp_path, queries):
    """``queries`` on a fresh 2-worker pool over a snapshot of
    ``graph``: first as one shard, then dealt over both workers."""
    path = str(tmp_path / "graph.snap")
    save_snapshot(graph, path)
    with WorkerPool(path, workers=2) as pool:
        return pool.run_batch(queries, workers=1), pool.run_batch(queries)


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

    def run_sweep(self, compiled, regex, endpoints, certify=False):
        graph, engine = compiled
        plan, _hit = engine.plan_for(regex)
        view = graph.view()
        pending = [
            (member, graph.vertex_id(source), graph.vertex_id(target))
            for member, (source, target) in enumerate(endpoints)
        ]
        certificate = (
            WalkCertificate(view, plan.solver.language.dfa)
            if certify else None
        )
        return sweep_group(view, plan, pending, certificate), plan, graph

    def test_positive_and_proven_negative(self, compiled):
        outcome, _plan, _graph = self.run_sweep(
            compiled, "ab", [(0, 4), (0, 2)]
        )
        assert outcome.positives == [0]
        assert outcome.negatives == [1]
        # Both members rode every round until decided.
        assert outcome.rounds >= 1
        assert outcome.steps[0] >= 1
        assert outcome.steps[1] >= 1
        assert outcome.expansions >= 1

    def test_epsilon_self_query_is_an_immediate_positive(self, compiled):
        outcome, _plan, _graph = self.run_sweep(compiled, "a*", [(2, 2)])
        assert outcome.positives == [0]
        assert outcome.rounds == 0
        assert outcome.steps[0] == 0

    def test_unreachable_member_is_negative_without_a_witness(
        self, compiled
    ):
        outcome, _plan, _graph = self.run_sweep(compiled, "ab", [(4, 0)])
        assert outcome.negatives == [0]

    def test_certificate_decides_with_lookups_and_no_steps(self, compiled):
        outcome, _plan, _graph = self.run_sweep(
            compiled, "ab", [(0, 4), (0, 2)], certify=True
        )
        assert outcome.positives == [0]
        assert outcome.negatives == [1]
        assert outcome.steps == {1: 0}
        assert outcome.rounds == outcome.expansions == 0

    def test_iter_members_decodes_bitmaps(self):
        assert list(iter_members(0)) == []
        assert list(iter_members(0b1011)) == [0, 1, 3]
        assert list(iter_members(1 << 70)) == [70]


def accepting_walk_pairs(graph, dfa):
    """Every ``(source, target)`` joined by an L-labeled walk (the
    empty walk included): a plain BFS over (vertex, DFA state)."""
    pairs = set()
    for source in graph.vertices():
        seen = {(source, dfa.initial)}
        queue = deque(seen)
        while queue:
            vertex, state = queue.popleft()
            if state in dfa.accepting:
                pairs.add((source, vertex))
            for label, target in graph.out_edges(vertex):
                if label in dfa.alphabet:
                    node = (target, dfa.transition(state, label))
                    if node not in seen:
                        seen.add(node)
                        queue.append(node)
    return pairs


def _walk_cases():
    """(graph, regex) pairs: hand cases, then seeded random ones."""
    cases = [
        (random_labeled_graph(5, 9, "ab", seed=3), "(aa)*"),  # ε, s = t
        (random_labeled_graph(5, 9, "ab", seed=4), "∅"),
        (random_labeled_graph(5, 9, "ab", seed=5), "a*c"),  # no c edge
        (labeled_cycle("aaaa"), "a*"),
    ]
    regexes = random_regexes(36, seed=16, max_depth=2)
    for index, regex in enumerate(regexes):
        graph = random_labeled_graph(
            2 + index % 6, 3 + 2 * (index % 6), "abc", seed=index
        )
        cases.append((graph, regex))
    return cases


WALK_CASES = _walk_cases()


class TestWalkCertificateDifferential:
    """The certificate pinned to the paper's semantics on every ordered
    pair of small random graphs, in all three regimes."""

    def test_random_cases_cover_all_three_regimes(self):
        classes = {
            classify(language(regex), with_witness=False).complexity_class
            for _graph, regex in WALK_CASES
        }
        assert classes == set(ComplexityClass)

    @pytest.mark.parametrize("graph, regex", WALK_CASES)
    def test_negative_iff_no_accepting_walk(self, graph, regex):
        engine = QueryEngine(graph)
        dfa = engine.plan_for(regex)[0].solver.language.dfa
        certificate = WalkCertificate(engine.view, dfa)
        walks = accepting_walk_pairs(graph, dfa)
        exact = ExactSolver(regex)
        vertices = list(graph.vertices())
        for source in vertices:
            for target in vertices:
                certified = certificate.accepts(
                    engine.view.vertex_id(source),
                    engine.view.vertex_id(target),
                )
                assert certified == ((source, target) in walks)
                if not certified:
                    assert exact.shortest_simple_path(
                        graph, source, target
                    ) is None

    @pytest.mark.parametrize("graph, regex", WALK_CASES)
    def test_bfs_sweep_splits_pairs_alike(self, graph, regex, monkeypatch):
        # Certificates bought as soon as a sweep opened the account,
        # then never (cap 0): every pair splits alike, and as walks do.
        vertices = list(graph.vertices())
        queries = [(regex, s, t) for s in vertices for t in vertices]
        monkeypatch.setattr("repro.engine.vectorized.BUILD_COST_PER_UNIT", 0)
        splits = []
        for cap in (1 << 26, 0):
            monkeypatch.setattr(
                "repro.engine.vectorized.CERTIFICATE_BIT_CAP", cap
            )
            engine = QueryEngine(graph, result_cache_size=0)
            engine.run_batch(queries)  # a first batch always sweeps
            splits.append([
                result.stats.vectorized or result.stats.short_circuit
                for result in engine.run_batch(queries).results
            ])
        dfa = QueryEngine(graph).plan_for(regex)[0].solver.language.dfa
        walks = accepting_walk_pairs(graph, dfa)
        assert splits[0] == splits[1] == [
            (source, target) not in walks for _r, source, target in queries
        ]


class TestCertificateCache:
    """When the engine buys a plan's certificate: after its sweeps have
    paid for a build (ski-rental), only under the bit cap, and for at
    most ``MAX_CERTIFICATES`` plans."""

    def test_sweeps_pay_for_the_certificate_then_lookups_decide(self):
        engine = QueryEngine(sweep_graph(), result_cache_size=0)
        plan = engine.plan_for("ab")[0]
        ids = engine.view.vertex_id
        pending = [(0, ids(0), ids(4)), (1, ids(0), ids(2))]
        sweep = sweep_group(engine.view, plan, pending)
        cost = build_cost(engine.view, plan.solver.language.dfa)
        paid_for = -(-cost // sweep.expansions)  # sweeps until spent >= cost
        steps = []
        for _batch in range(paid_for + 2):
            batch = engine.run_batch([("ab", 0, 4), ("ab", 0, 2)])
            negative = batch.results[1]
            assert negative.stats.vectorized and not negative.found
            steps.append(negative.stats.steps)
        assert steps == [sweep.steps[1]] * paid_for + [0, 0]
        assert sweep.steps[1] >= 1

    def test_point_pool_sized_product_never_builds(self, monkeypatch):
        # 19,200 vertices, as many as point-pool's community graph:
        # P >= 19,200, so P² is far over the cap for every plan.
        graph = DbGraph.from_edges([
            edge
            for base in range(0, 19_200, 3)
            for edge in (
                (base, "a", base + 1),
                (base + 1, "b", base + 2),
                (base + 2, "c", base),
            )
        ])
        engine = QueryEngine(graph, result_cache_size=0)
        for regex in MIXED_LANGUAGES + ("ab",):
            dfa = engine.plan_for(regex)[0].solver.language.dfa
            assert build_cost(engine.view, dfa) is None
        monkeypatch.setattr("repro.engine.vectorized.BUILD_COST_PER_UNIT", 0)
        for _batch in range(3):
            batch = engine.run_batch([("ab", 0, 1), ("ab", 3, 4)])
            assert all(
                result.stats.vectorized and result.stats.steps >= 1
                for result in batch
            )

    def test_accounts_are_lru_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.engine.vectorized.BUILD_COST_PER_UNIT", 0)
        monkeypatch.setattr("repro.engine.vectorized.MAX_CERTIFICATES", 1)
        engine = QueryEngine(sweep_graph())
        first, second = (engine.plan_for(regex)[0] for regex in ("ab", "ba"))
        cache = CertificateCache(engine.view)
        cache.charge(first, 1)
        assert cache.lookup(first) is not None
        cache.charge(second, 1)
        assert cache.lookup(first) is None
        assert cache.lookup(second) is not None


class TestGroupedMatchesSerialDeterministic:
    @pytest.fixture
    def graph(self):
        return sweep_graph()

    def test_answers_identical_and_outcomes_as_constructed(self, graph):
        reference = per_query(QueryEngine(graph), SWEEP_QUERIES)
        vectorized = QueryEngine(graph).run_batch(SWEEP_QUERIES)
        assert_same_answers(reference, vectorized.results)

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
        reference = per_query(QueryEngine(graph), queries)
        vectorized = QueryEngine(graph).run_batch(queries)
        assert_same_answers(reference, vectorized.results)
        unknown, unparseable = vectorized.results[-2:]
        assert "unknown vertex" in unknown.error
        assert unknown.stats.plan_cache_hit is True
        assert unparseable.error is not None
        assert unparseable.stats.plan_cache_hit is False

    def test_duplicate_cache_accounting_matches_serial(self, graph):
        batch = [("ab", 0, 4)] * 3
        serial_engine = QueryEngine(graph)
        serial = per_query(serial_engine, batch)
        vec_engine = QueryEngine(graph)
        vectorized = vec_engine.run_batch(batch)
        assert_same_answers(serial, vectorized.results)
        flags = [r.stats.result_cache_hit for r in vectorized.results]
        assert flags == [r.stats.result_cache_hit for r in serial]
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
        single, sharded = pooled_batches(graph, tmp_path, queries)
        assert_same_answers(
            reference.results, single.results, include_stats=True
        )
        assert single.stats == reference.stats
        assert sharded.workers == 2
        assert_same_answers(
            reference.results, sharded.results, plan_flags=False
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
        serial = per_query(
            QueryEngine(cycle, exact_budget=50), self.HEAVY_BATCH
        )
        assert vectorized.stats.sweeps == 0
        assert_same_answers(serial, vectorized.results, include_stats=True)
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
            per_query(QueryEngine(sweep_graph()), SWEEP_QUERIES),
            batch.results,
        )


class TestFallbacks:
    def test_unknown_vertex_errors_as_per_query_while_group_mates_answer(
        self,
    ):
        # The prefix resolves every member's endpoints: an unknown
        # vertex fails its own member with the per-query error text,
        # and the rest of the group is still swept and solved.
        graph = sweep_graph()
        queries = [("ab", 0, 2), ("ab", 99, 2), ("ab", 0, 4)]
        vectorized = QueryEngine(graph).run_batch(queries)
        serial = per_query(QueryEngine(graph), queries)
        assert_same_answers(serial, vectorized.results)
        assert "unknown vertex" in vectorized.results[1].error
        assert [result.found for result in vectorized.results] == [
            False, False, True,
        ]
        assert vectorized.stats.sweeps == 1
        assert vectorized.stats.swept_negatives == 1


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
        serial = per_query(QueryEngine(graph), queries)
        vectorized = QueryEngine(graph).run_batch(queries)
        assert_same_answers(serial, vectorized.results)
        assert vectorized.stats.grouped_queries == len(queries)

    def test_pool_matches_serial_vectorized(self, workload, tmp_path):
        graph, queries = workload
        reference = QueryEngine(graph).run_batch(queries)
        single, sharded = pooled_batches(graph, tmp_path, queries)
        assert_same_answers(
            reference.results, single.results, include_stats=True
        )
        assert single.stats == reference.stats
        assert single.cache_stats == reference.cache_stats
        assert single.result_cache_stats == reference.result_cache_stats
        assert_same_answers(
            reference.results, sharded.results, plan_flags=False
        )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_workloads_agree(self, seed):
        graph, queries = mixed_workload(
            num_queries=16, seed=seed, num_vertices=10, num_edges=26,
        )
        serial = per_query(QueryEngine(graph), queries)
        vectorized = QueryEngine(graph).run_batch(queries)
        assert_same_answers(serial, vectorized.results)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_random_workloads_agree_under_a_budget(self, seed):
        # An effective budget keeps per-query contracts authoritative
        # (sweeps off) — expiry and isolation must stay identical.
        graph, queries = mixed_workload(
            num_queries=12, seed=seed, num_vertices=10, num_edges=26,
        )
        serial = per_query(QueryEngine(graph), queries, budget=5)
        vectorized = QueryEngine(graph).run_batch(queries, budget=5)
        assert vectorized.stats.sweeps == 0
        assert_same_answers(serial, vectorized.results, include_stats=True)


class TestServingCounterParity:
    """Batched serving increments per-graph counters exactly as
    per-query serving does — cache hits and short-circuits inside a
    group are attributed identically."""

    def run_through_registry(self, batched):
        registry = GraphRegistry()
        entry = registry.register("main", sweep_graph())
        for _round in range(2):  # second round exercises warm caches
            if batched:
                entry.record_batch(entry.engine.run_batch(SWEEP_QUERIES))
            else:
                for result in per_query(entry.engine, SWEEP_QUERIES):
                    entry.record_query(result, result.stats.seconds)
        description = entry.describe()
        return {
            key: description[key]
            for key in (
                "queries", "found", "errors", "plan_cache", "result_cache",
            )
        }

    def test_counters_identical_to_serial(self):
        assert self.run_through_registry(batched=True) == (
            self.run_through_registry(batched=False)
        )


class TestWireFormat:
    def test_result_fields_pin_the_vectorized_flag(self):
        assert "vectorized" in RESULT_FIELDS
        batch = QueryEngine(sweep_graph()).run_batch(SWEEP_QUERIES)
        record = batch_record(batch)
        for row in record["results"]:
            assert tuple(row) == RESULT_FIELDS
        assert record["vectorized_stats"] == batch.stats.as_dict()
        assert record["vectorized_stats"]["sweeps"] == 1


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

    def test_stats_flag_reports_the_vectorized_flag(
        self, capsys, graph_file, queries_file
    ):
        main(["batch", graph_file, queries_file, "--stats"])
        out = capsys.readouterr().out
        assert "vectorized=True" in out
        assert "vectorized=False" in out
        assert "vectorized: 1 sweeps over 2 groups" in out
