"""The label-constrained reachability index (ISSUE-5 tentpole).

Three layers of guarantees:

* **Index soundness** — ``can_reach`` is an overapproximation of
  label-restricted reachability (never ``False`` for a truly reachable
  pair) and *exact* for the full label mask, on random graphs.
* **Pruning keeps answers** — the hypothesis differential suite: the
  pruned solver's path is a shortest simple L-labelled path, checked
  against brute-force enumeration of simple paths across random
  graphs × random regexes spanning all three trichotomy regimes, on
  the DbGraph's own compile and on a separate one; the two compiles
  give the same path and the same work counter (both condense to the
  same component partition).
* **Engine short-circuit** — provably unreachable queries answer
  NOT_FOUND with ``short_circuit=True`` and zero solver steps, and the
  answer matches a direct solve.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.workloads import random_regex

from repro.core.solver import RspqSolver
from repro.engine import IndexedGraph, QueryEngine
from repro.execution import ExecutionContext
from repro.graphs.dbgraph import DbGraph
from repro.graphs.reach import condense
from repro.languages.analysis import useful_symbols
from repro.languages import language

from tests.conftest import brute_force_length


@st.composite
def random_graph(draw, alphabet="abc", max_vertices=9):
    num_vertices = draw(st.integers(2, max_vertices))
    letters = sorted(alphabet)
    num_edges = draw(st.integers(0, 3 * num_vertices))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vertices - 1),
                st.sampled_from(letters),
                st.integers(0, num_vertices - 1),
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    graph = DbGraph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex)
    for source, label, target in edges:
        graph.add_edge(source, label, target)
    return graph


def _chain_graph():
    graph = DbGraph()
    for source, label, target in [
        (0, "a", 1), (1, "a", 0),    # SCC {0, 1}
        (1, "b", 2),                  # bridge
        (2, "a", 3), (3, "a", 2),    # SCC {2, 3}
        (4, "c", 5),                  # island 4 -> 5
    ]:
        graph.add_edge(source, label, target)
    return graph


class TestCondense:
    def test_partition_and_reverse_topological_numbering(self):
        graph = _chain_graph()
        view = graph.view()
        comp_of, num_comps, label_edges = condense(
            view.num_vertices, view.out
        )
        ids = {vertex: view.vertex_id(vertex) for vertex in range(6)}
        assert comp_of[ids[0]] == comp_of[ids[1]]
        assert comp_of[ids[2]] == comp_of[ids[3]]
        assert comp_of[ids[0]] != comp_of[ids[2]]
        assert num_comps == 4
        # Every inter-component edge points to a smaller component id.
        for edges in label_edges:
            for comp_from, comp_to in edges:
                assert comp_to < comp_from

    def test_both_view_backends_condense_identically(self):
        graph = _chain_graph()
        indexed = IndexedGraph(graph)
        db_index = graph.view().reachability()
        csr_index = indexed.view().reachability()
        assert list(db_index.comp_of) == list(csr_index.comp_of)
        assert db_index.num_comps == csr_index.num_comps

    def test_empty_graph(self):
        comp_of, num_comps, label_edges = condense(0, lambda v: ())
        assert len(comp_of) == 0
        assert num_comps == 0
        assert label_edges == ()


class TestIndexSoundness:
    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_full_mask_is_exact_reachability(self, graph):
        view = graph.view()
        index = view.reachability()
        for source in graph.vertices():
            truth = graph.reachable_within(source)
            source_id = view.vertex_id(source)
            for target in graph.vertices():
                target_id = view.vertex_id(target)
                assert index.can_reach(source_id, target_id) == (
                    target in truth
                ), (source, target)

    @given(random_graph(), st.sets(st.sampled_from("abc"), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_masked_reachability_is_a_sound_overapproximation(
        self, graph, allowed
    ):
        view = graph.view()
        index = view.reachability()
        mask = view.label_mask(allowed)
        restricted = graph.restricted_to_labels(allowed)
        for source in graph.vertices():
            truth = restricted.reachable_within(source)
            source_id = view.vertex_id(source)
            for target in graph.vertices():
                if target in truth:
                    # Never claim unreachable for a reachable pair.
                    assert index.can_reach(
                        source_id, target_id=view.vertex_id(target),
                        mask=mask,
                    ), (source, target, allowed)

    @given(random_graph(), st.sets(st.sampled_from("abc"), max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_filters_agree_with_can_reach(self, graph, allowed):
        view = graph.view()
        index = view.reachability()
        mask = view.label_mask(allowed)
        for source in graph.vertices():
            source_id = view.vertex_id(source)
            from_source = index.comps_from(source_id, mask)
            for target in graph.vertices():
                target_id = view.vertex_id(target)
                to_target = index.comps_to(target_id, mask)
                expected = index.can_reach(source_id, target_id, mask)
                assert bool(
                    from_source[index.comp_of[target_id]]
                ) == expected
                assert bool(
                    to_target[index.comp_of[source_id]]
                ) == expected


def _index_reachable(indexed, vertex, mask=None):
    """Vertices the index says ``vertex`` may reach under ``mask``."""
    index = indexed.reachability()
    reachable = index.comps_from(indexed.vertex_id(vertex), mask)
    return {
        indexed.vertex_at(vertex_id)
        for vertex_id in range(indexed.num_vertices)
        if reachable[index.comp_of[vertex_id]]
    }


class TestIndexAgainstReachableWithin:
    """``comps_from`` / ``can_reach`` against ``DbGraph.reachable_within``."""

    @given(random_graph())
    @settings(max_examples=40, deadline=None)
    def test_unrestricted_matches_dbgraph(self, graph):
        indexed = IndexedGraph(graph)
        index = indexed.reachability()
        for vertex in graph.vertices():
            truth = graph.reachable_within(vertex)
            assert _index_reachable(indexed, vertex) == truth
            for other in graph.vertices():
                assert index.can_reach(
                    indexed.vertex_id(vertex), indexed.vertex_id(other)
                ) == (other in truth)

    @given(random_graph(), st.sets(st.sampled_from("abc"), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_restricted_is_overapproximated(self, graph, allowed):
        indexed = IndexedGraph(graph)
        mask = indexed.label_mask(allowed)
        for vertex in graph.vertices():
            assert graph.reachable_within(
                vertex, allowed_labels=allowed
            ) <= _index_reachable(indexed, vertex, mask)

    def test_superset_label_filter_is_exact(self):
        graph = _chain_graph()
        indexed = IndexedGraph(graph)
        # {a, b, c, z} covers every edge label: index-exact.
        assert _index_reachable(
            indexed, 0, indexed.label_mask({"a", "b", "c", "z"})
        ) == graph.reachable_within(0)


class TestUsefulSymbols:
    @pytest.mark.parametrize("regex, expected", [
        ("a*b", {"a", "b"}),
        ("a*", {"a"}),
        ("ab + ba", {"a", "b"}),
        ("(aa)*", {"a"}),
    ])
    def test_examples(self, regex, expected):
        assert useful_symbols(language(regex).dfa) == frozenset(expected)

    def test_completion_symbols_are_not_useful(self):
        # 'b' only exists as dead-state plumbing of the completion.
        lang = language("a*", alphabet="ab")
        assert useful_symbols(lang.dfa) == frozenset("a")

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_letters_of_short_words(self, seed):
        regex = random_regex(random.Random(seed), alphabet="ab", max_depth=2)
        lang = language(regex)
        useful = useful_symbols(lang.dfa)
        seen = set()
        for word in lang.words(6, limit=500):
            seen.update(word)
        # Every letter of a real word is useful (the converse needs
        # longer words than we enumerate, so only this direction).
        assert seen <= useful


REGEX_SEEDS = st.integers(0, 10 ** 6)


def _seeded_regex(seed, alphabet="abc"):
    return random_regex(random.Random(seed), alphabet=alphabet, max_depth=2)


@st.composite
def graph_and_query(draw):
    graph = draw(random_graph())
    vertices = sorted(graph.vertices(), key=repr)
    source = draw(st.sampled_from(vertices))
    target = draw(st.sampled_from(vertices))
    return graph, source, target


class TestPrunedSolverDifferential:
    """Index-pruned solving against brute force, on two compiles.

    Across random graphs × random regexes, the pruned solver finds a
    path exactly when enumerating every simple path finds one, and its
    path is a shortest simple L-labelled one (pruning only ever removes
    provably dead work).  The DbGraph's own compile and a separate
    ``IndexedGraph`` give the same path and the same work counter (both
    condense identically, so they prune identically).
    """

    @given(graph_and_query(), REGEX_SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_paths_identical_and_counters_view_independent(
        self, instance, seed
    ):
        graph, source, target = instance
        regex = _seeded_regex(seed)
        solver = RspqSolver(regex)
        truth = brute_force_length(
            graph, solver.language.dfa, source, target
        )

        contexts = {}
        results = {}
        for name, backing in [("db", graph), ("csr", IndexedGraph(graph))]:
            ctx = ExecutionContext()
            path = solver.shortest_simple_path(
                backing, source, target, ctx=ctx
            )
            assert (path is None) == (truth is None), (name, regex)
            if path is not None:
                assert len(path) == truth, (name, regex)
                assert path.is_simple(), (name, regex)
                assert solver.language.accepts(path.word), (name, regex)
            results[name] = path
            contexts[name] = ctx

        if results["db"] is not None:
            assert results["csr"].vertices == results["db"].vertices
            assert results["csr"].word == results["db"].word
        # Pruned work identical across backends (partition canonical).
        assert contexts["db"].steps == contexts["csr"].steps


class TestEngineShortCircuit:
    def test_unreachable_query_short_circuits(self):
        graph = _chain_graph()
        engine = QueryEngine(graph, result_cache_size=0)
        result = engine.query("a*b", 4, 0)  # island cannot reach the chain
        assert result.found is False
        assert result.path is None
        assert result.stats.short_circuit is True
        assert result.stats.steps == 0
        # Identical to the solver's own answer.
        direct = RspqSolver("a*b").solve(graph, 4, 0)
        assert direct.found is False
        assert result.strategy == direct.strategy

    def test_label_mask_short_circuits_beyond_connectivity(self):
        # 4 -> 5 exists but only via 'c'; L = a*b can never use it.
        graph = _chain_graph()
        engine = QueryEngine(graph, result_cache_size=0)
        result = engine.query("a*b", 4, 5)
        assert result.found is False
        assert result.stats.short_circuit is True

    def test_reachable_query_runs_the_solver(self):
        graph = _chain_graph()
        engine = QueryEngine(graph, result_cache_size=0)
        result = engine.query("a*ba*", 0, 3)
        assert result.found is True
        assert result.stats.short_circuit is False

    def test_self_query_is_never_short_circuited(self):
        graph = _chain_graph()
        engine = QueryEngine(graph, result_cache_size=0)
        result = engine.query("a*", 4, 4)
        assert result.found is True  # empty word
        assert result.stats.short_circuit is False

    def test_exists_short_circuits(self):
        graph = _chain_graph()
        engine = QueryEngine(graph, result_cache_size=0)
        assert engine.exists("a*b", 4, 0) is False
        assert engine.exists("a*ba*", 0, 3) is True

    @given(graph_and_query(), REGEX_SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_engine_matches_direct_solver_on_random_inputs(
        self, instance, seed
    ):
        graph, source, target = instance
        regex = _seeded_regex(seed)
        engine = QueryEngine(graph)
        result = engine.query(regex, source, target)
        direct = RspqSolver(regex).solve(graph, source, target)
        assert result.found == direct.found
        if direct.path is None:
            assert result.path is None
        else:
            assert result.path.vertices == direct.path.vertices
            assert result.path.word == direct.path.word

    def test_batch_reports_short_circuits(self):
        graph = _chain_graph()
        engine = QueryEngine(graph)
        batch = engine.run_batch([
            ("a*b", 4, 0),
            ("a*ba*", 0, 3),
            ("a*b", 4, 1),
        ])
        flags = [result.stats.short_circuit for result in batch]
        assert flags == [True, False, True]
        assert batch.found_count == 1


class TestSnapshotReachParts:
    """The persisted condensation equals a fresh one (format v3)."""

    def test_thawed_parts_equal_compiled_parts(self, tmp_path):
        from repro.service.snapshot import load_snapshot, save_snapshot

        graph = _chain_graph()
        compiled = IndexedGraph(graph)
        path = str(tmp_path / "g.snap")
        save_snapshot(compiled, path)
        thawed = load_snapshot(path)
        fresh_comp, fresh_n, fresh_edges = compiled.reach_parts()
        thawed_comp, thawed_n, thawed_edges = thawed.reach_parts()
        assert list(thawed_comp) == list(fresh_comp)
        assert thawed_n == fresh_n
        assert thawed_edges == fresh_edges
        # And the thawed index answers like the fresh one.
        view = thawed.view()
        fresh_view = compiled.view()
        for source in range(6):
            for target in range(6):
                assert view.reachability().can_reach(
                    view.vertex_id(source), view.vertex_id(target)
                ) == fresh_view.reachability().can_reach(
                    fresh_view.vertex_id(source),
                    fresh_view.vertex_id(target),
                )


def test_index_reuse_is_memoised_per_view():
    graph = _chain_graph()
    view = graph.view()
    assert view.reachability() is view.reachability()
    graph.add_edge(5, "c", 4)
    new_view = graph.view()
    assert new_view is not view  # generation bumped
    # New view, new index over the merged SCC.
    index = new_view.reachability()
    assert index.comp_of[new_view.vertex_id(4)] == (
        index.comp_of[new_view.vertex_id(5)]
    )


def test_reachability_index_describe_shape():
    graph = _chain_graph()
    index = IndexedGraph(graph).reachability()
    info = index.describe()
    assert info["num_components"] == 4
    assert info["condensation_edges"] >= 2


def test_memos_stay_bounded_and_answer_as_an_unbounded_index(monkeypatch):
    # Edges only climb, so each of the 24 vertices is its own
    # component, and the 16 masks over four labels outnumber the two
    # closure tables and two filters of each kind the index may keep.
    rng = random.Random(5)
    graph = DbGraph()
    for vertex in range(24):
        graph.add_vertex(vertex)
    for _ in range(60):
        source, target = sorted(rng.sample(range(24), 2))
        graph.add_edge(source, rng.choice("abcd"), target)
    unbounded = IndexedGraph(graph).reachability()
    monkeypatch.setattr("repro.graphs.reach.MAX_MASK_TABLES", 2)
    monkeypatch.setattr("repro.graphs.reach.MAX_FILTERS", 2)
    bounded = IndexedGraph(graph).reachability()
    memos = (bounded._mask_reach, bounded._to_filters, bounded._from_filters)
    for mask in [None, *range(16)]:
        for _ in range(6):
            source, target = rng.randrange(24), rng.randrange(24)
            assert bounded.can_reach(source, target, mask) == (
                unbounded.can_reach(source, target, mask)
            )
            assert bounded.comps_to(target, mask) == (
                unbounded.comps_to(target, mask)
            )
            assert bounded.comps_from(source, mask) == (
                unbounded.comps_from(source, mask)
            )
            assert bounded.describe()["masks_cached"] <= 2
            assert all(len(memo) <= 2 for memo in memos)
    assert all(memo.stats().evictions > 0 for memo in memos)
    assert unbounded.describe()["masks_cached"] == 16
