"""Property-based cross-validation of the solvers (hypothesis).

The single most important invariant in the repository: on arbitrary
graphs, the polynomial trC solver, the finite-language solver and the
dispatching solver all agree with the exponential exact solver — same
yes/no answer and same shortest length.

The differential engine suite extends the same idea one layer up, in
the spirit of configuration fuzzing: random graphs × random regexes
(the seeded generator from ``benchmarks/workloads.py``), asserting
that :class:`~repro.engine.QueryEngine` — single queries and batches
alike — returns results **path-for-path identical** to direct
per-query :class:`RspqSolver` evaluation.  Not just the same yes/no
answer: the same vertices, the same label word, the same dispatched
strategy.  (Pooled batches are pinned to the same answers in
``tests/test_worker_pool.py``.)
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.workloads import MIXED_LANGUAGES, random_regex

from repro.algorithms.exact import ExactSolver
from repro.core.nice_paths import TractableSolver
from repro.core.solver import RspqSolver
from repro.engine import IndexedGraph, QueryEngine
from repro.graphs.dbgraph import DbGraph
from repro.languages import language


@st.composite
def small_graph_and_query(draw, alphabet):
    """A random db-graph (≤ 8 vertices) with a query pair."""
    num_vertices = draw(st.integers(2, 8))
    letters = sorted(alphabet)
    num_edges = draw(st.integers(1, 3 * num_vertices))
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
    x = draw(st.integers(0, num_vertices - 1))
    y = draw(st.integers(0, num_vertices - 1))
    return graph, x, y


class TestTractableSolverAgreement:
    @given(small_graph_and_query("abc"))
    @settings(max_examples=60, deadline=None)
    def test_example1_language(self, instance):
        graph, x, y = instance
        lang = language("a*(bb^+ + eps)c*")
        mine = TractableSolver(lang).shortest_simple_path(graph, x, y)
        truth = ExactSolver(lang).shortest_simple_path(graph, x, y)
        assert (mine is None) == (truth is None)
        if mine is not None:
            assert len(mine) == len(truth)

    @given(small_graph_and_query("ab"))
    @settings(max_examples=60, deadline=None)
    def test_two_star_language(self, instance):
        graph, x, y = instance
        lang = language("a*(b + eps)a*b*")
        # Only run when the language is actually tractable (it is).
        mine = TractableSolver(lang).shortest_simple_path(graph, x, y)
        truth = ExactSolver(lang).shortest_simple_path(graph, x, y)
        assert (mine is None) == (truth is None)
        if mine is not None:
            assert len(mine) == len(truth)


class TestDispatcherAgreement:
    @given(
        small_graph_and_query("ab"),
        st.sampled_from(["(aa)*", "a*ba*", "ab + ba", "a*"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_strategies(self, instance, regex):
        graph, x, y = instance
        lang = language(regex)
        mine = RspqSolver(lang).shortest_simple_path(graph, x, y)
        truth = ExactSolver(lang).shortest_simple_path(graph, x, y)
        assert (mine is None) == (truth is None)
        if mine is not None:
            assert len(mine) == len(truth)


#: Seeds for the deterministic random-regex generator; hypothesis
#: shrinks over the seed, the regex reproduces from it alone.
REGEX_SEEDS = st.integers(0, 10 ** 6)


def _seeded_regex(seed, alphabet="ab"):
    return random_regex(random.Random(seed), alphabet=alphabet, max_depth=2)


def _assert_identical(engine_result, direct_result):
    """Engine answer == direct solver answer, path for path."""
    assert engine_result.error is None
    assert engine_result.found == direct_result.found
    assert engine_result.strategy == direct_result.strategy
    assert engine_result.decompose_failed == direct_result.decompose_failed
    if direct_result.path is None:
        assert engine_result.path is None
    else:
        assert engine_result.path.vertices == direct_result.path.vertices
        assert engine_result.path.word == direct_result.path.word


@st.composite
def differential_workload(draw):
    """A random graph plus a mixed curated/random query list."""
    graph, x, y = draw(small_graph_and_query("abc"))
    vertices = list(graph.vertices())
    languages = list(draw(st.lists(
        st.sampled_from(MIXED_LANGUAGES), min_size=2, max_size=5
    )))
    languages.append(_seeded_regex(draw(REGEX_SEEDS), alphabet="abc"))
    queries = []
    for index, regex in enumerate(languages):
        source = vertices[(x + index) % len(vertices)]
        target = vertices[(y + 2 * index) % len(vertices)]
        queries.append((regex, source, target))
    return graph, queries


class TestEngineDifferential:
    """QueryEngine ≡ direct RspqSolver on random graphs × regexes."""

    @given(small_graph_and_query("ab"), REGEX_SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_query_matches_direct_solver(self, instance, seed):
        graph, x, y = instance
        regex = _seeded_regex(seed)
        engine = QueryEngine(graph)
        result = engine.query(regex, x, y)
        direct = RspqSolver(regex).solve(graph, x, y)
        _assert_identical(result, direct)


class TestCsrDbGraphDifferential:
    """One solver, two entry points, bit-identical behavior.

    Across random graphs × random regexes spanning all three
    trichotomy regimes, solving on a ``DbGraph`` (which hands the
    solver its memoised compile, ``DbGraph.view()``) and on a
    separately compiled ``IndexedGraph`` must agree *exactly* —
    found/path/strategy/decompose_failed, and even the per-query work
    counters, because every compile iterates adjacency in the same
    canonical order.
    """

    @given(small_graph_and_query("abc"), REGEX_SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_solver_cores_identical_on_both_views(self, instance, seed):
        from repro.execution import ExecutionContext

        graph, x, y = instance
        regex = _seeded_regex(seed, alphabet="abc")
        solver = RspqSolver(regex)
        indexed = IndexedGraph(graph)
        db_ctx = ExecutionContext()
        csr_ctx = ExecutionContext()
        db_result = solver.solve(graph, x, y, ctx=db_ctx)
        csr_result = solver.solve(indexed, x, y, ctx=csr_ctx)
        assert csr_result.found == db_result.found
        assert csr_result.path == db_result.path
        assert csr_result.strategy == db_result.strategy
        assert csr_result.decompose_failed == db_result.decompose_failed
        # Same expansion order on both compiles — identical work, not
        # merely identical answers.
        assert csr_ctx.steps == db_ctx.steps

    @given(differential_workload())
    @settings(max_examples=10, deadline=None)
    def test_engine_and_batches_match_dbgraph_direct(self, workload):
        graph, queries = workload
        engine = QueryEngine(graph)  # CSR view end to end
        batch = engine.run_batch(queries)
        for (regex, source, target), result in zip(queries, batch):
            direct = RspqSolver(regex).solve(graph, source, target)
            _assert_identical(result, direct)
            single = engine.query(regex, source, target)
            _assert_identical(single, direct)


class TestSolutionValidity:
    @given(small_graph_and_query("abc"))
    @settings(max_examples=40, deadline=None)
    def test_paths_are_simple_graph_paths_in_l(self, instance):
        graph, x, y = instance
        lang = language("a*(bb^+ + eps)c*")
        path = TractableSolver(lang).shortest_simple_path(graph, x, y)
        if path is None:
            return
        assert path.source == x
        assert path.target == y
        assert path.is_simple()
        assert graph.is_path(path)
        assert lang.accepts(path.word)
