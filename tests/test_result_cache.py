"""The engine result cache (ISSUE-5): repeated queries replay for free.

Covers the cache contract (hits return the identical answer, counters
move, LRU bounds hold), a zero capacity turning it off, batch
integration, and the frozen-graph edge: the engine serves a compiled
copy, so a ``DbGraph`` mutation after compiling reaches neither the
answers nor the cache.
"""

import threading

import pytest

from repro.core.solver import RspqSolver
from repro.engine import QueryEngine
from repro.graphs.dbgraph import DbGraph
from repro.lru import CacheStats
from repro.service.protocol import batch_record


def _graph():
    graph = DbGraph()
    for source, label, target in [
        (0, "a", 1), (1, "a", 2), (2, "b", 3), (3, "a", 0), (1, "b", 3),
    ]:
        graph.add_edge(source, label, target)
    return graph


class TestResultCacheHits:
    def test_second_identical_query_is_a_hit_with_identical_answer(self):
        engine = QueryEngine(_graph())
        first = engine.query("a*b", 0, 3)
        second = engine.query("a*b", 0, 3)
        assert first.stats.result_cache_hit is False
        assert second.stats.result_cache_hit is True
        assert second.found == first.found
        assert second.path == first.path
        assert second.strategy == first.strategy
        assert second.stats.steps == 0
        assert second.stats.plan_cache_hit is True
        stats = engine.result_cache_stats()
        assert stats.enabled is True
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.size == 1

    def test_negative_answers_are_cached_too(self):
        engine = QueryEngine(_graph())
        first = engine.query("b*a", 3, 1)
        second = engine.query("b*a", 3, 1)
        assert first.found == second.found
        assert second.stats.result_cache_hit is True

    def test_short_circuit_results_are_cached(self):
        graph = _graph()
        graph.add_edge(7, "a", 8)  # disconnected island
        engine = QueryEngine(graph)
        first = engine.query("a*", 7, 0)
        second = engine.query("a*", 7, 0)
        assert first.stats.short_circuit is True
        assert second.stats.result_cache_hit is True
        assert second.stats.short_circuit is True
        assert second.found is False

    def test_different_endpoints_do_not_collide(self):
        engine = QueryEngine(_graph())
        engine.query("a*b", 0, 3)
        other = engine.query("a*b", 1, 3)
        assert other.stats.result_cache_hit is False

    def test_equivalent_languages_share_a_cache_entry(self):
        from repro.languages import Language

        engine = QueryEngine(_graph())
        engine.query(Language("a*b"), 0, 3)
        # Same language, different spelling: the plan key is the
        # canonical DFA signature, so the result replays.
        again = engine.query(Language("a*b", alphabet="ab"), 0, 3)
        assert again.stats.result_cache_hit is True

    def test_errors_are_never_cached(self):
        engine = QueryEngine(_graph())
        with pytest.raises(Exception):
            engine.query("a*b", 0, 99)  # unknown vertex
        stats = engine.result_cache_stats()
        assert stats.size == 0

    def test_hit_ignores_budget_and_deadline_overrides(self):
        # A cache hit consumes ~no resources, so work guards do not
        # apply to it: the engine returns the known-correct answer.
        engine = QueryEngine(_graph())
        first = engine.query("a*b", 0, 3)
        replay = engine.query("a*b", 0, 3, budget=1)
        assert replay.stats.result_cache_hit is True
        assert replay.path == first.path


class TestResultCacheKnobs:
    def test_disable_flag(self):
        engine = QueryEngine(_graph(), result_cache_size=0)
        engine.query("a*b", 0, 3)
        second = engine.query("a*b", 0, 3)
        assert second.stats.result_cache_hit is False
        stats = engine.result_cache_stats()
        assert stats.enabled is False
        assert stats.hits == 0

    def test_capacity_is_validated(self):
        with pytest.raises(ValueError, match="result_cache_size"):
            QueryEngine(_graph(), result_cache_size=-1)

    def test_lru_eviction_keeps_the_cache_bounded(self):
        engine = QueryEngine(_graph(), result_cache_size=2)
        engine.query("a*b", 0, 3)
        engine.query("a*b", 1, 3)
        engine.query("a*b", 2, 3)  # evicts (0, 3)
        assert engine.result_cache_stats().size == 2
        evicted = engine.query("a*b", 0, 3)
        assert evicted.stats.result_cache_hit is False
        kept = engine.query("a*b", 2, 3)
        assert kept.stats.result_cache_hit is True

    def test_stats_since_delta(self):
        engine = QueryEngine(_graph())
        engine.query("a*b", 0, 3)
        before = engine.result_cache_stats()
        engine.query("a*b", 0, 3)
        delta = engine.result_cache_stats().since(before)
        assert delta.hits == 1
        assert delta.misses == 0
        assert isinstance(delta, CacheStats)


class TestBatchIntegration:
    def test_repeated_queries_in_one_batch_hit_the_cache(self):
        engine = QueryEngine(_graph())
        batch = engine.run_batch([
            ("a*b", 0, 3),
            ("a*b", 0, 3),
            ("a*b", 0, 3),
        ])
        hits = [result.stats.result_cache_hit for result in batch]
        assert hits == [False, True, True]
        assert batch.result_cache_stats.enabled
        assert batch.result_cache_stats.hits == 2
        assert "results: 2 cache hits" in batch.summary()

    def test_batch_results_identical_to_direct_solver(self):
        graph = _graph()
        engine = QueryEngine(graph)
        queries = [("a*b", 0, 3), ("a*b", 0, 3), ("(aa)*", 0, 2)]
        batch = engine.run_batch(queries)
        for (regex, source, target), result in zip(queries, batch):
            direct = RspqSolver(regex).solve(graph, source, target)
            assert result.found == direct.found
            assert result.path == direct.path

    def test_disabled_cache_reports_none_on_batches(self):
        engine = QueryEngine(_graph(), result_cache_size=0)
        batch = engine.run_batch([("a*b", 0, 3), ("a*b", 0, 3)])
        assert batch.result_cache_stats == CacheStats()
        assert not batch.result_cache_stats.enabled
        assert "result_cache_stats" not in batch_record(batch)

    def test_threaded_batch_shares_the_cache(self):
        """Twelve identical queries from four threads at once share
        one cache: every lookup after the racing first ones hits."""
        engine = QueryEngine(_graph())
        barrier = threading.Barrier(4)
        results = []

        def worker():
            barrier.wait(timeout=10)
            for _ in range(3):
                results.append(engine.query("a*b", 0, 3))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(results) == 12
        assert all(result.found for result in results)
        # All but the racers (at most one first lookup per thread).
        assert engine.result_cache_stats().hits >= 8


class TestMutationInvalidation:
    """The engine serves a frozen compiled graph."""

    def test_compiled_engine_is_a_frozen_snapshot(self):
        # The compiled path intentionally does NOT track mutations —
        # the compiled view is a snapshot (documented contract).
        graph = DbGraph()
        graph.add_edge(0, "a", 1)
        graph.add_vertex(2)
        engine = QueryEngine(graph)
        engine.query("ab", 0, 2)
        graph.add_edge(1, "b", 2)
        frozen = engine.query("ab", 0, 2)
        assert frozen.found is False
        assert frozen.stats.result_cache_hit is True


class TestServiceSurface:
    def test_registry_describe_carries_result_cache_and_index(self):
        from repro.service import GraphRegistry

        registry = GraphRegistry()
        registry.register("g", _graph())
        registry.engine("g").query("a*b", 0, 3)
        registry.engine("g").query("a*b", 0, 3)
        described = registry.get("g").describe()
        assert described["result_cache"]["hits"] == 1
        assert described["result_cache"]["enabled"] is True
        assert described["reachability_index"]["num_components"] >= 1

    def test_registry_knobs_flow_into_engines(self):
        from repro.service import GraphRegistry

        registry = GraphRegistry(engine_kwargs={
            "result_cache_size": 0, "plan_cache_size": 3,
        })
        registry.register("g", _graph())
        engine = registry.engine("g")
        assert engine.result_cache_stats().enabled is False
        assert engine.plan_cache.capacity == 3
        assert engine.reachability_info()["num_components"] >= 1
