"""Walk first: the shortest-walk check in front of the simple-path solvers.

Every simple path is a walk, so :class:`RspqSolver` runs one
shortest-walk BFS per trC or NP-hard query before any simple-path
search: no walk answers NOT_FOUND, a simple shortest walk is the
answer, and anything else goes on to the strategy's solver.  These
tests pin that the check never changes an answer (against the exact
solver run alone), that neither its dead-state pruning nor the
backward BFS that stops it on negatives changes the walk, that a
negative costs only the smaller side's work, that it is charged to the
query's budget and deadline while the fallback solvers still get the
context, and that Figure 4's instances, where a walk exists but no
simple path does, still come back NOT_FOUND.  The deep-path cases pin
the explicit-stack searches: queries thousands of vertices deep are
answered at every layer.
"""

import random
from collections import deque

import pytest

from benchmarks.workloads import random_regexes
from repro.algorithms.exact import ExactSolver
from repro.algorithms.semantics import SemanticsEvaluator
from repro.core.product import shortest_walk, transition_rows, walk_check
from repro.core.solver import STRATEGY_EXACT, RspqSolver
from repro.engine import IndexedGraph, QueryEngine
from repro.errors import BudgetExceededError, DeadlineExceededError
from repro.execution import ExecutionContext
from repro.graphs.generators import (
    figure4_graph,
    labeled_cycle,
    labeled_path,
    random_labeled_graph,
)
from repro.languages import Language, language
from repro.service import (
    GraphRegistry,
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    save_snapshot,
)
from repro.service.workers import WorkerPool

#: Infinite languages drawn from the seeded regex generator.
INFINITE_REGEXES = [
    regex for regex in random_regexes(60, seed=22, max_depth=2)
    if not Language(regex).is_finite()
]

#: Example 1's language, the one Figure 4 is drawn for.
EXAMPLE1 = "a*(bb^+ + eps)c*"


def _unpruned_walk(dfa, view, source_id, target_id, max_edges=None):
    """The forward product BFS alone, without pruning (the reference)."""
    num_states = dfa.num_states
    if source_id == target_id and dfa.initial in dfa.accepting:
        return (source_id,), ()
    rows = transition_rows(dfa, view)
    start = source_id * num_states + dfa.initial
    parents = {start: None}
    frontier = [start]
    depth = 0
    while frontier and (max_edges is None or depth < max_edges):
        depth += 1
        next_frontier = []
        for node in frontier:
            vertex_id, state = divmod(node, num_states)
            for label_id, nxt in view.out(vertex_id):
                row = rows[label_id]
                if row is None:
                    continue
                next_node = nxt * num_states + row[state]
                if next_node in parents:
                    continue
                parents[next_node] = (node, label_id)
                if nxt == target_id and row[state] in dfa.accepting:
                    vertices, labels = deque(), deque()
                    node = next_node
                    while parents[node] is not None:
                        parent, label = parents[node]
                        vertices.appendleft(node // num_states)
                        labels.appendleft(label)
                        node = parent
                    vertices.appendleft(node // num_states)
                    return tuple(vertices), tuple(labels)
                next_frontier.append(next_node)
        frontier = next_frontier
    return None


def _random_cases(count, seed):
    """``count`` reproducible (graph, source, target) triples."""
    rand = random.Random(seed)
    for case in range(count):
        n = rand.randint(5, 14)
        graph = random_labeled_graph(
            n, rand.randint(n, 3 * n), "abc", seed=seed * 1000 + case
        )
        yield graph, rand.randrange(n), rand.randrange(n)


def _is_simple(walk):
    vertices, _labels = walk
    return len(set(vertices)) == len(vertices)


def _answer(path):
    """``(found, length)`` of a solver's path."""
    return path is not None, None if path is None else len(path)


class TestSameAnswers:
    def test_found_and_length_match_the_exact_solver(self):
        decided_by_walk = fell_back = 0
        for index, regex in enumerate(INFINITE_REGEXES):
            solver = RspqSolver(regex)
            exact = ExactSolver(regex)
            dfa = solver.language.dfa
            for graph, source, target in _random_cases(6, index):
                path = solver.shortest_simple_path(graph, source, target)
                assert _answer(path) == _answer(exact.shortest_simple_path(
                    graph, source, target
                )), (regex, source, target)
                if path is not None:
                    assert path.is_simple()
                    assert solver.language.accepts(path.word)
                view = graph.view()
                walk = shortest_walk(
                    dfa, view, view.vertex_id(source), view.vertex_id(target)
                )
                if walk is None or _is_simple(walk):
                    decided_by_walk += 1
                else:
                    fell_back += 1
        # Both branches of the check ran.
        assert decided_by_walk > 100 and fell_back > 10

    def test_exists_matches_the_exact_solver(self):
        for index, regex in enumerate(INFINITE_REGEXES[:12]):
            solver = RspqSolver(regex)
            exact = ExactSolver(regex)
            for graph, source, target in _random_cases(4, 100 + index):
                assert solver.exists(graph, source, target) == exact.exists(
                    graph, source, target
                ), (regex, source, target)


class TestSamePaths:
    def test_views_give_identical_paths(self):
        for index, regex in enumerate(INFINITE_REGEXES[:20]):
            solver = RspqSolver(regex)
            for graph, source, target in _random_cases(4, 200 + index):
                answers = {
                    (
                        None if path is None
                        else (tuple(path.vertices), path.word)
                    )
                    for view in (graph, IndexedGraph(graph))
                    for path in [
                        solver.shortest_simple_path(view, source, target)
                    ]
                }
                assert len(answers) == 1, (regex, source, target, answers)

    def test_prunings_never_change_the_walk(self):
        for index, regex in enumerate(INFINITE_REGEXES):
            dfa = Language(regex).dfa
            for graph, source, target in _random_cases(4, 300 + index):
                counts = []
                for view in (graph.view(), IndexedGraph(graph)):
                    source_id = view.vertex_id(source)
                    target_id = view.vertex_id(target)
                    for cap in (None, 2, 5):
                        ctx = ExecutionContext()
                        assert shortest_walk(
                            dfa, view, source_id, target_id, cap, ctx
                        ) == _unpruned_walk(
                            dfa, view, source_id, target_id, cap
                        )
                        counts.append(ctx.steps)
                # The backward side expands whole layers, so the charged
                # steps do not depend on the view's in-edge order.
                assert counts[:3] == counts[3:]

    def test_dead_states_are_pruned(self):
        # The c-edges out of 0 lead a*bc into its dead state: unpruned,
        # the BFS would expand all 40 c-successors before the goal.
        graph = labeled_path("abc", start=100)
        graph.add_edge(0, "a", 100)
        for vertex in range(1, 41):
            graph.add_edge(0, "c", vertex)
        dfa = language("a*bc").dfa
        view = graph.view()
        ctx = ExecutionContext()
        walk = shortest_walk(dfa, view, view.vertex_id(0),
                             view.vertex_id(103), ctx=ctx)
        assert walk == _unpruned_walk(dfa, view, view.vertex_id(0),
                                      view.vertex_id(103))
        assert len(walk[1]) == 4
        # Four forward nodes, one per vertex of the walk but the
        # target, and two backward ones before the sides meet at 101.
        assert ctx.steps == 6


def _loop_before_target(edges):
    """An ``a``-path of ``edges`` edges with an ``a`` self-loop on the
    vertex before the target: for odd ``edges`` the shortest (aa)*-walk
    takes the loop, and no simple (aa)*-path exists.  Two isolated
    vertices lift the walk check's cap (|V| - 1 edges) to the walk's
    ``edges + 1`` edges, so the check cannot decide the query."""
    graph = labeled_path("a" * edges)
    graph.add_edge(edges - 1, "a", edges - 1)
    graph.add_vertex("pad-1")
    graph.add_vertex("pad-2")
    return graph


def _cycle_with_exit(length):
    """An ``a``-cycle on 0 .. ``length - 1`` with one ``b`` edge from 0
    into ``"sink"``: every vertex reaches every other, so the
    reachability index proves no ``(aa)*b`` query absent."""
    graph = labeled_cycle("a" * length)
    graph.add_edge(0, "b", "sink")
    return graph


class TestNegatives:
    """A query with no walk stops when either BFS side runs dry."""

    def test_backward_side_stops_a_wide_forward_search(self):
        # No edge into 20 ends an (aa)*b word, so the backward side
        # runs dry after one node, while the forward side alone would
        # expand all 80 (vertex, parity) nodes of the cycle.
        graph = _cycle_with_exit(40)
        solver = RspqSolver("(aa)*b")
        assert solver.strategy == STRATEGY_EXACT
        ctx = ExecutionContext()
        assert solver.shortest_simple_path(graph, 0, 20, ctx=ctx) is None
        assert ctx.steps == 2
        assert not solver.exists(graph, 0, 20, ctx=ExecutionContext(budget=2))

    def test_forward_side_stops_a_wide_backward_search(self):
        # Many paths end in the target, none starts at the source.
        graph = labeled_path("a" * 30 + "b")
        graph.add_edge("lonely", "c", 0)
        solver = RspqSolver("a*ba*")
        ctx = ExecutionContext()
        assert solver.shortest_simple_path(graph, 5, 31, ctx=ctx) is not None
        ctx = ExecutionContext()
        assert solver.shortest_simple_path(
            graph, "lonely", 31, ctx=ctx
        ) is None
        assert ctx.steps <= 2

    def test_a_budget_below_the_forward_region_still_answers(self):
        graph = _cycle_with_exit(40)
        negatives = [("(aa)*b", source, source + 20) for source in range(5)]
        engine = QueryEngine(graph, exact_budget=5)
        for language, source, target in negatives:
            result = engine.query(language, source, target)
            assert result.error is None and not result.found
            assert result.stats.steps <= 5
        # A budget turns the batch sweep off: each query meets it alone.
        batch = QueryEngine(graph).run_batch(negatives, budget=5)
        assert [(r.found, r.error) for r in batch.results] == [
            (False, None)
        ] * len(negatives)

    def test_no_walk_within_the_simple_path_cap(self, monkeypatch):
        # The only (aa)*-walks from 0 to 9 take the loop on 8: 10 edges
        # or more, longer than any simple path on 10 vertices.  The
        # walk check, capped at |V| - 1 edges, proves NOT_FOUND and no
        # exact search runs.
        graph = labeled_path("a" * 9)
        graph.add_edge(8, "a", 8)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the exact search ran")

        monkeypatch.setattr(ExactSolver, "shortest_simple_path", forbidden)
        monkeypatch.setattr(ExactSolver, "exists", forbidden)
        solver = RspqSolver("(aa)*")
        assert solver.shortest_simple_path(graph, 0, 9) is None
        assert not solver.exists(graph, 0, 9)
        assert not QueryEngine(graph).query("(aa)*", 0, 9).found

    def test_same_answers_on_sparse_negatives(self):
        # Sparse graphs make most pairs negatives; the walk must still
        # match the forward BFS alone, cap or no cap.
        for index, regex in enumerate(INFINITE_REGEXES):
            dfa = Language(regex).dfa
            rand = random.Random(400 + index)
            for case in range(4):
                n = rand.randint(8, 20)
                graph = random_labeled_graph(
                    n, n, "abc", seed=4000 + 10 * index + case
                )
                view = graph.view()
                source_id = view.vertex_id(rand.randrange(n))
                target_id = view.vertex_id(rand.randrange(n))
                for cap in (None, 3):
                    assert shortest_walk(
                        dfa, view, source_id, target_id, cap
                    ) == _unpruned_walk(
                        dfa, view, source_id, target_id, cap
                    ), (regex, case, cap)


class TestCharging:
    @pytest.mark.parametrize("regex,target", [("a*", 2), ("a*ba*", 5)])
    def test_budget_of_one_bounds_the_walk_check(self, regex, target):
        graph = labeled_path("aabaa")
        solver = RspqSolver(regex)
        with pytest.raises(BudgetExceededError):
            solver.shortest_simple_path(
                graph, 0, target, ctx=ExecutionContext(budget=1)
            )
        with pytest.raises(BudgetExceededError):
            solver.exists(graph, 0, target, ctx=ExecutionContext(budget=1))

    @pytest.mark.parametrize("regex,target", [("a*", 300), ("a*ba*", 601)])
    def test_expired_deadline_stops_the_walk_check(self, regex, target):
        # 300 or more expansions pass the default deadline-check interval.
        graph = labeled_path("a" * 300 + "b" + "a" * 300)
        solver = RspqSolver(regex)
        with pytest.raises(DeadlineExceededError):
            solver.shortest_simple_path(
                graph, 0, target, ctx=ExecutionContext(deadline_seconds=0.0)
            )

    def test_context_less_call_is_budgeted(self):
        # Without a context, exact_budget caps the whole query: the
        # walk check alone overruns a budget of 1.
        with pytest.raises(BudgetExceededError):
            RspqSolver("a*ba*", exact_budget=1).shortest_simple_path(
                labeled_path("aabaa"), 0, 5
            )

    def test_walk_answer_reports_its_steps(self):
        solver = RspqSolver("a*ba*")
        ctx = ExecutionContext()
        path = solver.shortest_simple_path(labeled_path("aba"), 0, 3, ctx=ctx)
        assert path.word == "aba"
        # Three forward and two backward walk nodes; the exact search
        # never ran.
        assert ctx.steps == 5

    def test_budget_past_the_walk_stops_the_tractable_search(self):
        # Figure 4's walk repeats vertices, so the anchored DFS runs on
        # the same context and charges the same steps after the walk.
        graph, source, target = figure4_graph(3)
        solver = RspqSolver(EXAMPLE1)
        view = graph.view()
        walk_ctx = ExecutionContext()
        walk_check(
            solver.language.dfa, view, view.vertex_id(source),
            view.vertex_id(target), view.num_vertices - 1, walk_ctx,
        )
        walk_steps = walk_ctx.steps
        ctx = ExecutionContext()
        assert solver.shortest_simple_path(graph, source, target, ctx=ctx) \
            is None
        assert ctx.steps > 2 * walk_steps > 0
        # The walk spends the whole budget; the first DFS step overruns
        # it.
        budgeted = ExecutionContext(budget=walk_steps)
        with pytest.raises(BudgetExceededError):
            solver.shortest_simple_path(graph, source, target, ctx=budgeted)
        assert budgeted.steps == walk_steps + 1
        # A budget of exactly the query's steps answers.
        exact = ExecutionContext(budget=ctx.steps)
        assert solver.shortest_simple_path(
            graph, source, target, ctx=exact
        ) is None
        assert exact.steps == ctx.steps

    def test_budget_past_the_walk_stops_the_exact_search(self):
        graph = _loop_before_target(9)
        solver = RspqSolver("(aa)*")
        view = graph.view()
        walk_ctx = ExecutionContext()
        walk = shortest_walk(solver.language.dfa, view, view.vertex_id(0),
                             view.vertex_id(9), ctx=walk_ctx)
        assert not _is_simple(walk)
        walk_steps = walk_ctx.steps
        for ask in (solver.shortest_simple_path, solver.exists):
            ctx = ExecutionContext()
            assert not ask(graph, 0, 9, ctx=ctx)
            # The exact search ran on the same context after the walk.
            assert ctx.steps > walk_steps
            with pytest.raises(BudgetExceededError):
                ask(graph, 0, 9, ctx=ExecutionContext(budget=walk_steps))
        with pytest.raises(BudgetExceededError):
            QueryEngine(graph, exact_budget=walk_steps).query("(aa)*", 0, 9)
        assert QueryEngine(graph).query("(aa)*", 0, 9).stats.steps > (
            walk_steps
        )


class TestFigure4:
    @pytest.mark.parametrize("k", [3, 6])
    def test_a_walk_is_never_taken_for_a_simple_path(self, k):
        graph, source, target = figure4_graph(k)
        solver = RspqSolver(EXAMPLE1)
        view = graph.view()
        walk = shortest_walk(
            solver.language.dfa, view, view.vertex_id(source),
            view.vertex_id(target),
        )
        # An L-walk exists, so the check cannot decide the query.
        assert walk is not None and not _is_simple(walk)
        for backing in (graph, IndexedGraph(graph)):
            assert solver.shortest_simple_path(backing, source, target) is None
            assert not solver.exists(backing, source, target)
        assert not QueryEngine(graph).query(EXAMPLE1, source, target).found


#: Deep queries: (graph, language, source, target, found, length).
DEEP_HALF = 2500
DEEP_CASES = {
    "loop": (_loop_before_target(2001), "(aa)*", 0, 2001, False, None),
    "path": (
        labeled_path("a" * DEEP_HALF + "b" + "a" * (DEEP_HALF - 1)),
        "a*ba*", 0, 2 * DEEP_HALF, True, 2 * DEEP_HALF,
    ),
}


@pytest.fixture(params=sorted(DEEP_CASES))
def deep(request):
    return DEEP_CASES[request.param]


class TestDeepQueries:
    def test_loop_case_needs_the_exact_search(self):
        graph, regex, source, target, _found, _length = DEEP_CASES["loop"]
        solver = RspqSolver(regex)
        assert solver.strategy == STRATEGY_EXACT
        view = graph.view()
        walk = shortest_walk(solver.language.dfa, view,
                             view.vertex_id(source), view.vertex_id(target))
        assert walk is not None and not _is_simple(walk)
        assert len(walk[1]) == 2002
        ctx = ExecutionContext()
        assert ExactSolver(regex).shortest_simple_path(
            graph, source, target, ctx=ctx
        ) is None
        # The search descended the whole path, one step per vertex.
        assert ctx.steps >= 2001

    def test_direct(self, deep):
        graph, regex, source, target, found, length = deep
        solver = RspqSolver(regex)
        for backing in (graph, IndexedGraph(graph)):
            assert _answer(solver.shortest_simple_path(
                backing, source, target
            )) == (found, length)
            assert solver.exists(backing, source, target) is found
        assert _answer(ExactSolver(regex).shortest_simple_path(
            graph, source, target
        )) == (found, length)

    def test_engine_and_batch(self, deep):
        graph, regex, source, target, found, length = deep
        result = QueryEngine(graph).query(regex, source, target)
        assert (result.found, result.length) == (found, length)
        # From vertex 1 both deep queries are positives.
        batch = QueryEngine(graph).run_batch(
            [(regex, source, target), ("a*", 0, 7), (regex, 1, target)]
        )
        assert [r.error for r in batch.results] == [None] * 3
        assert [(r.found, r.length) for r in batch.results[:2]] == [
            (found, length), (True, 7),
        ]
        assert batch.results[2].found

    def test_worker_pool(self, deep, tmp_path):
        graph, regex, source, target, found, length = deep
        snap = str(tmp_path / "deep.snap")
        save_snapshot(IndexedGraph(graph), snap)
        with WorkerPool(snap, workers=1) as pool:
            result = pool.query(regex, source, target)
            assert (result.found, result.length) == (found, length)
            batch = pool.run_batch([(regex, source, target), ("a*", 0, 7)])
            assert [r.error for r in batch.results] == [None, None]
            assert [(r.found, r.length) for r in batch.results] == [
                (found, length), (True, 7),
            ]

    @pytest.mark.parametrize(
        "worker_processes", [0, 1], ids=["in-process", "pooled"]
    )
    def test_http(self, deep, worker_processes):
        graph, regex, source, target, found, length = deep
        registry = GraphRegistry(worker_processes=worker_processes)
        try:
            registry.register("deep", graph)
            service = QueryService(registry, ServiceConfig(workers=2))
            with ServiceThread(service) as running:
                client = ServiceClient(port=running.port)
                record = client.query(regex, source, target, graph="deep")
                assert (record["found"], record["length"]) == (found, length)
                response = client.batch(
                    [(regex, source, target), ("a*", 0, 7)], graph="deep"
                )
                assert response["error_count"] == 0
                assert [
                    (r["found"], r["length"]) for r in response["results"]
                ] == [(found, length), (True, 7)]
        finally:
            registry.close()

    def test_counting_on_a_deep_path(self):
        graph = labeled_path("a" * 3000)
        assert ExactSolver("a*").count_simple_paths(graph, 0, 3000) == 1
        assert SemanticsEvaluator("a*").count_trails(graph, 0, 3000) == 1
