"""Tests for the indexed-adjacency query engine (repro.engine)."""

import threading
import time

import pytest

from tests.conftest import random_instance

from repro import catalog
from repro.algorithms.bounded import FiniteLanguageSolver
from repro.algorithms.exact import ExactSolver
from repro.core.nice_paths import TractableSolver
from repro.core.solver import solve_rspq
from repro.engine import (
    IndexedGraph,
    QueryEngine,
    QueryPlan,
    plan_key,
)
from repro.errors import GraphError
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import random_labeled_graph
from repro.languages import language
from repro.lru import CacheStats, LruCache


@pytest.fixture
def graph():
    return random_labeled_graph(25, 75, "abc", seed=11)


def wait_until(condition, timeout=10.0):
    give_up = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up
        time.sleep(0.001)


class TestIndexedGraph:
    def test_read_api_matches_dbgraph(self, graph):
        indexed = IndexedGraph(graph)
        assert indexed.num_vertices == graph.num_vertices
        assert indexed.num_edges == graph.num_edges
        assert indexed.labels() == graph.labels()
        assert list(indexed.vertices()) == list(graph.vertices())
        back = indexed.to_dbgraph()
        assert list(back.edges()) == list(graph.edges())
        for vertex in graph.vertices():
            assert sorted(back.out_edges(vertex)) == sorted(
                graph.out_edges(vertex)
            )
            assert sorted(back.in_edges(vertex)) == sorted(
                graph.in_edges(vertex)
            )
            vertex_id = indexed.vertex_id(vertex)
            assert len(indexed.out(vertex_id)) == graph.out_degree(vertex)
            assert len(indexed.in_pairs(vertex_id)) == (
                graph.in_degree(vertex)
            )

    def test_vertex_ids_are_contiguous_and_ordered(self, graph):
        indexed = IndexedGraph(graph)
        ordered = list(graph.vertices())
        for index, vertex in enumerate(ordered):
            assert indexed.vertex_id(vertex) == index
            assert indexed.vertex_at(index) == vertex

    def test_csr_neighbor_ids(self, graph):
        indexed = IndexedGraph(graph)
        for label in graph.labels():
            label_id = indexed.label_id(label)
            for vertex in graph.vertices():
                via_csr = {
                    indexed.vertex_at(target_id)
                    for edge_label, target_id in indexed.out(
                        indexed.vertex_id(vertex)
                    )
                    if edge_label == label_id
                }
                assert via_csr == graph.successors(vertex, label)

    def test_has_edge_and_is_path(self, graph):
        back = IndexedGraph(graph).to_dbgraph()
        for source, label, target in graph.edges():
            assert back.has_edge(source, label, target)
        assert not back.has_edge("nope", "a", "nada")
        path = solve_rspq("a*", graph, 0, 1).path
        if path is not None:
            assert back.is_path(path)

    def test_unknown_vertex_raises(self, graph):
        indexed = IndexedGraph(graph)
        assert not indexed.has_vertex("missing")
        with pytest.raises(GraphError):
            indexed.vertex_id("missing")

    def test_to_dbgraph_roundtrip(self, graph):
        back = IndexedGraph(graph).to_dbgraph()
        assert list(back.edges()) == list(graph.edges())
        assert set(back.vertices()) == set(graph.vertices())

    def test_double_compile_rejected(self, graph):
        indexed = IndexedGraph(graph)
        with pytest.raises(GraphError):
            IndexedGraph(indexed)


class TestSolversOnIndexedView:
    """Every solver returns bit-identical paths on the compiled view."""

    def test_exact_solver_identical_paths(self):
        solver = ExactSolver("a*ba*")
        for seed in range(8):
            graph, x, y = random_instance(seed, "ab", max_vertices=9)
            on_dict = solver.shortest_simple_path(graph, x, y)
            on_indexed = solver.shortest_simple_path(
                IndexedGraph(graph), x, y
            )
            assert on_dict == on_indexed, seed

    def test_tractable_solver_identical_paths(self):
        solver = TractableSolver(language("a*(bb^+ + eps)c*"))
        for seed in range(8):
            graph, x, y = random_instance(seed, "abc", max_vertices=9)
            on_dict = solver.shortest_simple_path(graph, x, y)
            on_indexed = solver.shortest_simple_path(
                IndexedGraph(graph), x, y
            )
            assert on_dict == on_indexed, seed

    def test_finite_solver_identical_paths(self):
        solver = FiniteLanguageSolver(language("ab + ba + abc"))
        for seed in range(8):
            graph, x, y = random_instance(seed, "abc", max_vertices=9)
            on_dict = solver.shortest_simple_path(graph, x, y)
            on_indexed = solver.shortest_simple_path(
                IndexedGraph(graph), x, y
            )
            assert on_dict == on_indexed, seed


class TestPlanKey:
    def test_regex_strings_key_by_text(self):
        assert plan_key("a*") == plan_key("a*")
        assert plan_key("a*") != plan_key("(a*)*")

    def test_languages_key_by_canonical_dfa(self):
        # Different regexes, same language: one plan.
        assert plan_key(language("a*")) == plan_key(language("(a*)*"))
        assert plan_key(language("a*")) != plan_key(language("a^+"))

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            plan_key(42)

    def test_dead_state_representation_is_normalised(self):
        # One language, two minimal DFAs: completing over a larger
        # alphabet grows a dead sink state and transitions into it.
        # The canonical signature erases the dead part, so the two
        # spellings share a plan (the ISSUE-4 collision-hazard fix).
        assert plan_key(language("a*")) == plan_key(
            language("a*", alphabet="ab")
        )
        assert plan_key(language("ab + ba")) == plan_key(
            language("ab + ba", alphabet="abcd")
        )
        assert plan_key(language("a*ba*")) == plan_key(
            language("a*ba*", alphabet="abc")
        )

    def test_distinct_languages_never_share_a_key(self):
        specs = [
            language("a*"),
            language("a^+"),
            language("b*", alphabet="ab"),
            language("ab + ba"),
            language("(aa)*"),
            language("a*ba*"),
        ]
        keys = [plan_key(lang) for lang in specs]
        assert len(set(keys)) == len(keys)

    def test_all_empty_languages_share_one_key(self):
        # Same answers everywhere (no path, ever) — one plan suffices.
        from repro.languages import DFA

        empty_ab = language(
            DFA(1, "ab", {(0, "a"): 0, (0, "b"): 0}, 0, ())
        )
        empty_c = language(DFA(1, "c", {(0, "c"): 0}, 0, ()))
        assert plan_key(empty_ab) == plan_key(empty_c)

    def test_dead_state_variants_share_one_engine_plan(self):
        graph = DbGraph.from_edges(
            [(0, "a", 1), (1, "a", 2), (2, "b", 3)]
        )
        engine = QueryEngine(graph)
        narrow = engine.query(language("a*"), 0, 2)
        wide = engine.query(language("a*", alphabet="ab"), 0, 2)
        assert engine.cache_stats().inserts == 1
        assert wide.found == narrow.found
        assert wide.path == narrow.path
        assert wide.strategy == narrow.strategy


class TestLruCache:
    def test_lru_order_and_eviction_count(self):
        cache = LruCache(capacity=2)
        plans = {
            regex: QueryPlan.compile(regex) for regex in ("a", "b", "c")
        }
        cache.put(plan_key("a"), plans["a"])
        cache.put(plan_key("b"), plans["b"])
        assert cache.get(plan_key("a")) is plans["a"]  # refresh 'a'
        cache.put(plan_key("c"), plans["c"])  # evicts 'b', not 'a'
        assert cache.get(plan_key("b")) is None
        assert cache.get(plan_key("a")) is plans["a"]
        assert cache.get(plan_key("c")) is plans["c"]
        assert cache.stats().evictions == 1
        assert len(cache) == 2

    def test_counters_since_and_sum(self):
        cache = LruCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("a", 2)  # a stored key is not inserted again
        before = cache.stats()
        assert cache.get("a") == 2
        assert cache.get_or_build("b", lambda key: key * 2) == ("bb", False)
        assert cache.get_or_build("b", lambda key: "unused") == ("bb", True)
        stats = cache.stats()
        assert stats == CacheStats(
            hits=2, misses=2, inserts=2, evictions=0, size=2, capacity=4,
        )
        assert (stats.lookups, stats.hit_rate, stats.enabled) == (4, 0.5, True)
        assert stats.since(before) == CacheStats(
            hits=2, misses=1, inserts=1, evictions=0, size=2, capacity=4,
        )
        assert stats + CacheStats(hits=1, size=1, capacity=9) == CacheStats(
            hits=3, misses=2, inserts=2, evictions=0, size=3, capacity=9,
        )

    def test_zero_capacity_stores_and_counts_nothing(self):
        cache = LruCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        builds = []
        for _ in range(2):
            value, hit = cache.get_or_build("b", builds.append)
            assert (value, hit) == (None, False)
        assert builds == ["b", "b"]
        assert len(cache) == 0
        assert cache.stats() == CacheStats()
        assert not cache.stats().enabled

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            LruCache(capacity=-1)

    def test_racing_threads_build_one_key_once(self):
        cache = LruCache(capacity=4)
        barrier = threading.Barrier(8)
        release = threading.Event()
        builds = []
        outcomes = []

        def build(key):
            builds.append(key)
            assert release.wait(timeout=10)
            return key.upper()

        def ask():
            barrier.wait(timeout=10)
            outcomes.append(cache.get_or_build("k", build))

        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Every thread has looked the key up and found it missing.
        wait_until(lambda: cache.stats().misses == 8)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert builds == ["k"]
        assert sorted(outcomes) == [("K", False)] + [("K", True)] * 7
        assert cache.stats() == CacheStats(
            hits=7, misses=8, inserts=1, size=1, capacity=4,
        )

    def test_waiter_builds_for_itself_after_a_failed_build(self):
        cache = LruCache(capacity=4)
        leading = threading.Event()
        release = threading.Event()
        errors = []

        def failing_build(key):
            leading.set()
            assert release.wait(timeout=10)
            raise KeyError("leader")

        def lead():
            try:
                cache.get_or_build("k", failing_build)
            except KeyError as err:
                errors.append(err.args[0])

        def waiter_build(key):
            raise LookupError("waiter")

        def wait():
            try:
                cache.get_or_build("k", waiter_build)
            except LookupError as err:
                errors.append(err.args[0])

        leader = threading.Thread(target=lead)
        leader.start()
        assert leading.wait(timeout=10)
        waiter = threading.Thread(target=wait)
        waiter.start()
        # The waiter has counted its miss and found the key in flight.
        wait_until(lambda: cache.stats().misses == 2)
        release.set()
        for thread in (leader, waiter):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert sorted(errors) == ["leader", "waiter"]
        assert len(cache) == 0
        assert cache.get_or_build("k", lambda key: 1) == (1, False)


class TestQueryEngine:
    def test_matches_solve_rspq_path_for_path(self, graph):
        engine = QueryEngine(graph)
        regexes = ["a*", "ab + ba", "a*ba*", "a*(bb^+ + eps)c*"]
        for index, regex in enumerate(regexes * 3):
            source = index % graph.num_vertices
            target = (index * 3 + 1) % graph.num_vertices
            mine = engine.query(regex, source, target)
            reference = solve_rspq(regex, graph, source, target)
            assert mine.found == reference.found
            assert mine.path == reference.path
            assert mine.strategy == reference.strategy

    def test_plan_reuse_within_batch(self, graph):
        engine = QueryEngine(graph)
        queries = [("a*", 0, index) for index in range(1, 11)]
        batch = engine.run_batch(queries)
        assert batch.plans_compiled == 1
        assert batch.plan_cache_hits == 9
        assert len(batch) == 10

    def test_warm_cache_compiles_nothing(self, graph):
        engine = QueryEngine(graph)
        queries = [("a*", 0, 1), ("ab", 0, 2), ("a*ba*", 0, 3)]
        engine.run_batch(queries)
        batch = engine.run_batch(queries)
        assert batch.plans_compiled == 0
        assert batch.plan_cache_hits == 3

    def test_per_query_stats(self, graph):
        engine = QueryEngine(graph)
        result = engine.query("a*", 0, 1)
        assert result.stats.strategy == result.strategy
        assert result.stats.steps is not None and result.stats.steps >= 0
        assert result.stats.plan_cache_hit is False
        assert result.stats.seconds >= 0
        again = engine.query("a*", 0, 1)
        assert again.stats.plan_cache_hit is True
        assert again.path == result.path

    def test_accepts_precompiled_graph(self, graph):
        indexed = IndexedGraph(graph)
        engine = QueryEngine(indexed)
        assert engine.graph is indexed
        assert engine.query("a*", 0, 1).found == (
            solve_rspq("a*", graph, 0, 1).found
        )

    def test_accepts_language_objects(self, graph):
        engine = QueryEngine(graph)
        lang = language("a*")
        first = engine.query(lang, 0, 1)
        second = engine.query(language("(a*)*"), 0, 1)  # same language
        assert second.stats.plan_cache_hit is True
        assert first.path == second.path

    def test_exists(self, graph):
        engine = QueryEngine(graph)
        assert engine.exists("a*", 0, 1) == (
            engine.query("a*", 0, 1).found
        )

    def test_batch_summary_mentions_counts(self, graph):
        engine = QueryEngine(graph)
        batch = engine.run_batch([("a*", 0, 1), ("ab", 0, 2)])
        text = batch.summary()
        assert "2 queries" in text
        assert "compiled" in text

    def test_strategy_counts(self, graph):
        engine = QueryEngine(graph)
        batch = engine.run_batch(
            [("a*", 0, 1), ("ab", 0, 2), ("a*ba*", 0, 3)]
        )
        counts = batch.strategy_counts()
        assert sum(counts.values()) == 3
        assert len(counts) == 3

    def test_lru_bounded_engine_still_correct(self, graph):
        # Cache of 2 with 3 cycling languages: thrashes but stays right.
        engine = QueryEngine(graph, plan_cache_size=2)
        regexes = ["a*", "ab", "a*ba*"] * 3
        for index, regex in enumerate(regexes):
            mine = engine.query(regex, 0, (index % 5) + 1)
            reference = solve_rspq(regex, graph, 0, (index % 5) + 1)
            assert mine.path == reference.path
        assert engine.cache_stats().evictions > 0


class TestCacheStats:
    def test_engine_lifetime_counters(self, graph):
        engine = QueryEngine(graph)
        engine.query("a*", 0, 1)
        engine.query("a*", 0, 2)
        engine.query("ab", 0, 3)
        stats = engine.cache_stats()
        assert stats.inserts == 2
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.evictions == 0
        assert stats.lookups == 3

    def test_snapshot_is_independent(self, graph):
        engine = QueryEngine(graph)
        before = engine.cache_stats()
        engine.query("a*", 0, 1)
        assert before.inserts == 0
        assert engine.cache_stats().inserts == 1

    def test_batch_delta_counts_only_this_batch(self, graph):
        engine = QueryEngine(graph)
        engine.run_batch([("a*", 0, 1), ("ab", 0, 2)])
        batch = engine.run_batch([("a*", 0, 1), ("ab", 0, 2)])
        assert batch.cache_stats.inserts == 0
        assert batch.cache_stats.hits == 2
        assert engine.cache_stats().inserts == 2

    def test_eviction_recompile_counted(self, graph):
        engine = QueryEngine(graph, plan_cache_size=1)
        engine.query("a*", 0, 1)
        engine.query("ab", 0, 2)  # evicts a*
        engine.query("a*", 0, 3)  # recompiles a*
        stats = engine.cache_stats()
        assert stats.inserts == 3
        assert stats.evictions == 2

    def test_summary_shows_real_counters(self, graph):
        engine = QueryEngine(graph)
        batch = engine.run_batch([("a*", 0, 1), ("a*", "nope", 2)])
        text = batch.summary()
        assert "1 compiled" in text
        assert "misses" in text and "evictions" in text


class TestCatalogAgreement:
    """Engine answers match the dispatcher on every catalog language."""

    @pytest.mark.parametrize(
        "entry", catalog.entries(), ids=lambda e: e.name
    )
    def test_catalog_language(self, entry):
        lang = entry.language()
        alphabet = sorted(lang.alphabet) or ["a"]
        graph, x, y = random_instance(3, alphabet, max_vertices=8)
        engine = QueryEngine(graph)
        mine = engine.query(lang, x, y)
        reference = solve_rspq(lang, graph, x, y)
        assert mine.found == reference.found
        assert mine.path == reference.path
        assert mine.strategy == reference.strategy
        assert mine.decompose_failed == reference.decompose_failed


class TestBatchErrorIsolation:
    """One failing query must not discard the rest of the batch."""

    def test_unknown_vertex_isolated(self, graph):
        engine = QueryEngine(graph)
        batch = engine.run_batch(
            [("a*", 0, 1), ("a*", "nope", 1), ("a*", 0, 2)]
        )
        assert len(batch) == 3
        assert batch.error_count == 1
        failed = batch.results[1]
        assert failed.error is not None and "nope" in failed.error
        assert failed.found is False and failed.path is None
        assert failed.strategy == "error"
        assert batch.results[0].error is None
        assert batch.results[2].error is None

    def test_bad_regex_isolated(self, graph):
        engine = QueryEngine(graph)
        batch = engine.run_batch([("((((", 0, 1), ("a*", 0, 1)]) 
        assert batch.error_count == 1
        assert batch.results[1].error is None

    def test_budget_exceeded_isolated(self):
        from repro.graphs.generators import labeled_cycle

        graph = labeled_cycle("a" * 9)
        engine = QueryEngine(graph, exact_budget=3)
        # The budget caps every strategy's search; the finite query
        # tries one word and stays inside it.
        batch = engine.run_batch([("(aa)*", 0, 1), ("a", 0, 1)])
        assert batch.results[0].error is not None
        assert "budget" in batch.results[0].error
        assert batch.results[1].found

    def test_errors_in_summary(self, graph):
        engine = QueryEngine(graph)
        batch = engine.run_batch([("a*", "nope", 1)])
        assert "1 errors" in batch.summary()
        # The plan WAS compiled even though the query then failed on
        # the unknown vertex; real cache counters must say so.
        assert batch.plans_compiled == 1
        assert batch.cache_stats.inserts == 1
        assert batch.cache_stats.hits == 0

    def test_error_after_cache_hit_still_counted_as_hit(self, graph):
        engine = QueryEngine(graph)
        batch = engine.run_batch([("a*", 0, 1), ("a*", "nope", 1)])
        assert batch.plans_compiled == 1
        assert batch.cache_stats.hits == 1
        failed = batch.results[1]
        assert failed.error is not None
        assert failed.stats.plan_cache_hit is True

    def test_single_query_api_still_raises(self, graph):
        engine = QueryEngine(graph)
        with pytest.raises(GraphError):
            engine.query("a*", "nope", 1)

    def test_result_carries_language(self, graph):
        engine = QueryEngine(graph)
        batch = engine.run_batch([("a*", 0, 1), ("ab", 0, 2)])
        assert [result.language for result in batch.results] == ["a*", "ab"]
