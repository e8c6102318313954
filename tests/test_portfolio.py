"""The hard-regime solver portfolio: ladder, anytime budgets, caching.

Three layers under test:

* the ladder of :meth:`~repro.core.solver.RspqSolver.solve` with
  ``portfolio=True`` — which rung answers, what confidence it reports,
  how budget slices escalate;
* the certified-equals-exact contract, differentially and with
  hypothesis: whenever the portfolio reports ``certified`` it must
  agree with the exact solver answer-for-answer;
* the engine integration — per-query opt-in, bounded k-RSPQ, and the
  acceptance-criterion regression: a probabilistic NOT_FOUND must
  never be served from the result cache as definitive.

The deterministic probabilistic-negative gadget used throughout: an
odd a-cycle with two padding vertices, so the shortest accepting
``(aa)*`` walk (6 edges) fits the n-1 cap but revisits vertices, no
simple accepting path exists, and both randomized rungs run to
completion.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.exact import ExactSolver
from repro.core.product import walk_check
from repro.core.solver import (
    BUDGET_SPLIT,
    LADDER,
    RspqSolver,
    ladder_shares,
)
from repro.engine import (
    CONFIDENCE_CERTIFIED,
    CONFIDENCE_PROBABILISTIC,
    IndexedGraph,
    QueryEngine,
    QueryPlan,
)
from repro.errors import BudgetExceededError
from repro.execution import ExecutionContext
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import labeled_path, random_labeled_graph
from repro.languages import language
from repro.service.protocol import RESULT_FIELDS, result_record

from tests.conftest import random_instance


def hard_negative_gadget():
    """Graph where ``(aa)*`` 0→4 has an accepting walk but no simple path.

    The walk 0-1-2-3-1-2-4 (6 edges, even) revisits 1 and 2; the only
    simple route 0-1-2-4 has 3 edges (odd).  Padding vertices 5 and 6
    raise the simple-path cap to 6 so the walk probe cannot certify.
    """
    graph = DbGraph()
    for u, l, v in [
        (0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 1), (2, "a", 4),
    ]:
        graph.add_edge(u, l, v)
    graph.add_vertex(5)
    graph.add_vertex(6)
    return graph


def ladder(regex, view, source, target, seed=0, failure_probability=1e-3,
           **kwargs):
    """One query through the portfolio ladder of a fresh solver."""
    return RspqSolver(
        regex, seed=seed, failure_probability=failure_probability
    ).solve(view, source, target, portfolio=True, **kwargs)


class TestLadderRungs:
    def test_walk_probe_certifies_easy_positive(self):
        graph = labeled_path("aa")
        outcome = ladder("(aa)*", IndexedGraph(graph), 0, 2)
        assert outcome.found
        assert outcome.confidence == CONFIDENCE_CERTIFIED
        assert outcome.failure_bound is None
        assert outcome.strategy == "portfolio:walk-probe"
        assert outcome.path.word == "aa"

    def test_walk_probe_certifies_absence_without_a_walk(self):
        graph = labeled_path("ab")
        outcome = ladder("(aa)*", IndexedGraph(graph), 0, 2)
        assert not outcome.found
        assert outcome.confidence == CONFIDENCE_CERTIFIED
        assert outcome.strategy == "portfolio:walk-probe"

    def test_source_equals_target_is_the_empty_path(self):
        view = IndexedGraph(labeled_path("a"))
        assert ladder("a*", view, 0, 0).found
        negative = ladder("aa*", view, 0, 0)
        assert not negative.found
        assert negative.confidence == CONFIDENCE_CERTIFIED

    def test_probabilistic_negative_reports_combined_bound(self):
        # Color rung complete (cap 6 <= 7) and algebraic rung negative:
        # independent streams multiply the one-sided bounds.
        view = IndexedGraph(hard_negative_gadget())
        outcome = ladder("(aa)*", view, 0, 4, failure_probability=1e-3)
        assert not outcome.found
        assert outcome.confidence == CONFIDENCE_PROBABILISTIC
        assert outcome.failure_bound == pytest.approx(1e-6)
        assert outcome.strategy == "portfolio:algebraic"

    def test_rungs_charge_the_query_context(self):
        # The middle rungs run on slices folded back into the query's
        # context, so their work shows in its steps: more than the
        # walk check alone charges.
        view = IndexedGraph(hard_negative_gadget())
        solver = RspqSolver("(aa)*")
        walk_only = ExecutionContext()
        walk_check(
            solver.language.dfa, view, 0, 4, view.num_vertices - 1, walk_only
        )
        ctx = ExecutionContext()
        solver.solve(view, 0, 4, ctx=ctx, portfolio=True)
        assert ctx.steps > walk_only.steps > 0

    def test_max_path_edges_validation(self):
        view = IndexedGraph(labeled_path("a"))
        with pytest.raises(ValueError):
            ladder("a*", view, 0, 1, max_path_edges=-1)

    def test_bounded_negative_is_certified_by_the_walk_probe(self):
        # Bound 1: no accepting (aa)* walk with one edge exists at all.
        view = IndexedGraph(labeled_path("aa"))
        outcome = ladder("(aa)*", view, 0, 2, max_path_edges=1)
        assert not outcome.found
        assert outcome.confidence == CONFIDENCE_CERTIFIED

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RspqSolver("a*", failure_probability=0.0)
        with pytest.raises(ValueError):
            RspqSolver("a*", failure_probability=1.0)


class TestBudgetLadder:
    def test_starved_rungs_escalate_to_exact(self):
        # A small budget exhausts both randomized slices; the exact
        # rung gets the remainder and still certifies the negative.
        view = IndexedGraph(hard_negative_gadget())
        ctx = ExecutionContext(budget=400)
        outcome = ladder("(aa)*", view, 0, 4, ctx=ctx)
        assert not outcome.found
        assert outcome.confidence == CONFIDENCE_CERTIFIED
        assert outcome.strategy == "portfolio:exact"

    def test_anytime_negative_survives_exact_exhaustion(self):
        # Enough budget for the color rung to complete but not for
        # more: the probabilistic negative is the anytime answer.
        view = IndexedGraph(hard_negative_gadget())
        ctx = ExecutionContext(budget=6400)
        outcome = ladder("(aa)*", view, 0, 4, ctx=ctx)
        assert not outcome.found
        assert outcome.confidence == CONFIDENCE_PROBABILISTIC
        assert outcome.failure_bound is not None

    def test_no_answer_in_hand_reraises(self):
        # A budget that dies before any rung concludes must surface
        # the exhaustion rather than invent an answer.
        view = IndexedGraph(hard_negative_gadget())
        ctx = ExecutionContext(budget=20)
        with pytest.raises(BudgetExceededError):
            ladder("(aa)*", view, 0, 4, ctx=ctx)

    def test_budget_split_report_partitions_the_unit(self):
        shares = ladder_shares()
        assert set(shares) == set(LADDER)
        assert shares["walk-probe"] == 0.0
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_ladder_shares_are_json_safe(self):
        import json

        assert LADDER[0] == "walk-probe"
        assert isinstance(BUDGET_SPLIT, tuple)
        json.dumps(ladder_shares())


class TestCertifiedEqualsExact:
    @pytest.mark.parametrize("regex", ["(aa)*", "a*ba*c*", "(ab)*a"])
    def test_differential_on_random_graphs(self, regex):
        lang = language(regex)
        portfolio = RspqSolver(lang, seed=3)
        exact = ExactSolver(lang)
        alphabet = sorted(lang.alphabet)
        for seed in range(12):
            graph, x, y = random_instance(seed, alphabet, max_vertices=8)
            view = IndexedGraph(graph)
            truth = exact.shortest_simple_path(view, x, y)
            outcome = portfolio.solve(view, x, y, portfolio=True)
            if outcome.confidence == CONFIDENCE_CERTIFIED:
                assert outcome.found == (truth is not None), (regex, seed)
                if truth is not None:
                    assert len(outcome.path) == len(truth), (regex, seed)
                    assert outcome.path.is_simple()
                    assert lang.accepts(outcome.path.word)
            else:
                # A probabilistic miss would fail here with
                # probability < 1e-3 per instance.
                assert not outcome.found
                assert truth is None, (regex, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_vertices=st.integers(2, 7),
        bound=st.integers(0, 5),
    )
    def test_hypothesis_bounded_portfolio_equals_exact(
        self, seed, num_vertices, bound
    ):
        lang = language("(aa)*")
        graph = random_labeled_graph(
            num_vertices, 2 * num_vertices, "ab", seed=seed
        )
        view = IndexedGraph(graph)
        x, y = 0, num_vertices - 1
        truth = ExactSolver(lang).shortest_simple_path(view, x, y)
        if truth is not None and len(truth) > bound:
            truth = None
        outcome = ladder(lang, view, x, y, seed=seed, max_path_edges=bound)
        if outcome.confidence == CONFIDENCE_CERTIFIED:
            assert outcome.found == (truth is not None)
            if truth is not None:
                assert len(outcome.path) == len(truth)
        else:
            assert not outcome.found
            assert truth is None


class TestPlanAttachment:
    def test_exact_plans_carry_a_ladder(self):
        plan = QueryPlan.compile("(aa)*", seed=5, failure_probability=0.01)
        assert plan.solver.has_ladder
        assert plan.solver.failure_probability == 0.01
        assert plan.language.accepts("aaaa")

    def test_tractable_plans_do_not(self):
        assert not QueryPlan.compile("a*c*").solver.has_ladder
        assert not QueryPlan.compile("abc").solver.has_ladder


class TestEngineIntegration:
    def test_per_query_opt_in_on_a_default_engine(self):
        engine = QueryEngine(hard_negative_gadget())
        classic = engine.query("(aa)*", 0, 4)
        assert classic.strategy == "exact-backtracking"
        assert classic.confidence == CONFIDENCE_CERTIFIED
        routed = engine.query("(aa)*", 0, 4, portfolio=True)
        assert routed.strategy.startswith("portfolio:")
        assert not routed.found

    def test_engine_default_with_per_query_opt_out(self):
        engine = QueryEngine(hard_negative_gadget(), portfolio=True)
        routed = engine.query("(aa)*", 0, 4)
        assert routed.strategy.startswith("portfolio:")
        classic = engine.query("(aa)*", 0, 4, portfolio=False)
        assert classic.strategy == "exact-backtracking"
        assert classic.confidence == CONFIDENCE_CERTIFIED

    def test_portfolio_flag_is_inert_for_tractable_plans(self):
        graph = labeled_path("aca")
        engine = QueryEngine(graph, portfolio=True)
        result = engine.query("a*c*", 0, 2)
        assert result.strategy == "trc-nice-path"
        assert result.found
        assert result.confidence == CONFIDENCE_CERTIFIED

    def test_certified_portfolio_agrees_with_classic_path_for_path(self):
        graph = random_labeled_graph(10, 28, "ab", seed=5)
        baseline = QueryEngine(graph)
        routed = QueryEngine(graph, portfolio=True)
        for x in range(5):
            for y in range(5, 10):
                classic = baseline.query("(aa)*", x, y)
                result = routed.query("(aa)*", x, y)
                if result.confidence == CONFIDENCE_CERTIFIED:
                    assert result.found == classic.found, (x, y)
                    if classic.found:
                        assert result.length == classic.length, (x, y)
                else:
                    assert not result.found
                    assert not classic.found, (x, y)

    def test_bounded_classic_query_prunes_by_shortest(self):
        # The classic solver returns a shortest path, so a bound under
        # its length is a certified negative and a bound at it passes.
        graph = labeled_path("aaaa")
        engine = QueryEngine(graph)
        full = engine.query("(aa)*", 0, 4)
        assert full.found and full.length == 4
        cut = engine.query("(aa)*", 0, 4, max_path_edges=3)
        assert not cut.found
        assert cut.confidence == CONFIDENCE_CERTIFIED
        kept = engine.query("(aa)*", 0, 4, max_path_edges=4)
        assert kept.found and kept.length == 4

    @pytest.mark.parametrize("portfolio", [False, True])
    def test_bounded_negative_is_certified_by_the_walk_check(
        self, monkeypatch, portfolio
    ):
        # A chain of diamonds with odd arms: every simple route is odd,
        # a self-loop lets a walk flip parity, and every walk has at
        # least 5 edges.  Under a bound of 4 the capped walk check
        # decides the (aa)* query on either path, so no exact search
        # runs.
        graph = DbGraph()
        for i in range(5):
            graph.add_edge(("d", i), "a", ("d", i))
            graph.add_edge(("d", i), "a", ("d", i + 1))
            graph.add_edge(("d", i), "a", ("u", i))
            graph.add_edge(("u", i), "a", ("v", i))
            graph.add_edge(("v", i), "a", ("d", i + 1))
        engine = QueryEngine(graph)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the exact search ran")

        monkeypatch.setattr(ExactSolver, "shortest_simple_path", forbidden)
        result = engine.query(
            "(aa)*", ("d", 0), ("d", 5), portfolio=portfolio,
            max_path_edges=4,
        )
        assert not result.found
        assert result.confidence == CONFIDENCE_CERTIFIED
        assert result.strategy == (
            "portfolio:walk-probe" if portfolio else "exact-backtracking"
        )

    def test_override_validation(self):
        engine = QueryEngine(labeled_path("a"))
        with pytest.raises(ValueError):
            engine.query("a*", 0, 1, max_path_edges=-1)
        with pytest.raises(ValueError):
            QueryEngine(labeled_path("a"), portfolio_failure_probability=0.0)

    def test_batch_routes_hard_queries_through_the_ladder(self):
        engine = QueryEngine(hard_negative_gadget(), portfolio=True)
        batch = engine.run_batch(
            [("(aa)*", 0, 4), ("(aa)*", 0, 2), ("a*", 0, 4)]
        )
        by_query = {
            (r.source, r.target, str(r.language)): r
            for r in batch.results
        }
        hard = by_query[(0, 4, "(aa)*")]
        assert not hard.found
        easy = by_query[(0, 2, "(aa)*")]
        assert easy.found and easy.confidence == CONFIDENCE_CERTIFIED
        tractable = by_query[(0, 4, "a*")]
        assert tractable.found

    @pytest.mark.parametrize("portfolio", [False, True])
    def test_swept_batch_negatives_carry_the_per_query_strategy(
        self, portfolio
    ):
        # An odd-length hop along an a-path: no (aa)* walk, so the
        # batch's group sweep decides all 15 queries at once, where a
        # lone query is decided by the solver's walk check.
        graph = labeled_path("a" * 30)
        queries = [("(aa)*", start, start + 1) for start in range(15)]
        engine = QueryEngine(graph, portfolio=portfolio)
        batch = engine.run_batch(queries)
        assert batch.stats.swept_negatives == len(queries)
        lone = QueryEngine(graph, portfolio=portfolio)
        expected = [lone.query(*query).strategy for query in queries]
        assert expected == [
            "portfolio:walk-probe" if portfolio else "exact-backtracking"
        ] * len(queries)
        assert [result.strategy for result in batch.results] == expected
        assert [result.stats.strategy for result in batch.results] == (
            expected
        )
        # The swept answers replay from the result cache unchanged.
        replay = engine.query(*queries[0])
        assert replay.stats.result_cache_hit
        assert replay.strategy == expected[0]


class TestResultCachePolicy:
    def test_probabilistic_negatives_are_never_cached(self):
        # The acceptance-criterion regression: replaying a randomized
        # NOT_FOUND as definitive would launder δ into certainty.
        engine = QueryEngine(hard_negative_gadget(), portfolio=True)
        first = engine.query("(aa)*", 0, 4)
        assert first.confidence == CONFIDENCE_PROBABILISTIC
        assert not first.stats.result_cache_hit
        second = engine.query("(aa)*", 0, 4)
        assert second.confidence == CONFIDENCE_PROBABILISTIC
        assert not second.stats.result_cache_hit

    def test_certified_portfolio_answers_replay(self):
        graph = labeled_path("aa")
        engine = QueryEngine(graph, portfolio=True)
        first = engine.query("(aa)*", 0, 2)
        assert first.confidence == CONFIDENCE_CERTIFIED
        second = engine.query("(aa)*", 0, 2)
        assert second.stats.result_cache_hit
        assert second.confidence == CONFIDENCE_CERTIFIED
        assert second.found and second.length == first.length

    def test_portfolio_and_classic_answers_use_distinct_keys(self):
        # A certified portfolio answer must not replay for a classic
        # query of the same triple (and vice versa): the modes differ
        # in strategy labeling and bounded semantics.
        engine = QueryEngine(labeled_path("aa"))
        engine.query("(aa)*", 0, 2, portfolio=True)
        classic = engine.query("(aa)*", 0, 2)
        assert not classic.stats.result_cache_hit
        assert classic.strategy == "exact-backtracking"

    def test_bounded_queries_key_on_their_bound(self):
        graph = labeled_path("aaaa")
        engine = QueryEngine(graph)
        cut = engine.query("(aa)*", 0, 4, max_path_edges=3)
        assert not cut.found
        kept = engine.query("(aa)*", 0, 4, max_path_edges=4)
        assert kept.found
        replay = engine.query("(aa)*", 0, 4, max_path_edges=3)
        assert replay.stats.result_cache_hit
        assert not replay.found


class TestProtocol:
    def test_result_record_carries_confidence_fields(self):
        assert "confidence" in RESULT_FIELDS
        assert "failure_bound" in RESULT_FIELDS
        engine = QueryEngine(hard_negative_gadget(), portfolio=True)
        record = result_record(engine.query("(aa)*", 0, 4))
        assert list(record) == list(RESULT_FIELDS)
        assert record["confidence"] == CONFIDENCE_PROBABILISTIC
        assert 0.0 < record["failure_bound"] < 1.0

    def test_certified_records_have_null_bound(self):
        engine = QueryEngine(labeled_path("aa"))
        record = result_record(engine.query("(aa)*", 0, 2))
        assert record["confidence"] == CONFIDENCE_CERTIFIED
        assert record["failure_bound"] is None
