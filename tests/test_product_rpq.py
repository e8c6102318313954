"""Tests for the walk layer (``repro.core.product``) and walk-semantics RPQ."""

import random
from collections import deque

import pytest

from benchmarks.workloads import random_regexes
from repro.algorithms.exact import ExactSolver
from repro.algorithms.rpq import RpqSolver
from repro.core.product import (
    reverse_transition_index,
    shortest_walk,
    walk_distances,
    walk_targets,
)
from repro.engine import IndexedGraph
from repro.errors import GraphError
from repro.execution import ExecutionContext
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import (
    labeled_cycle,
    labeled_path,
    random_labeled_graph,
)
from repro.graphs.view import as_graph_view
from repro.languages import language


class _NaiveProduct:
    """The string-level product ``G × A_L`` the walk layer replaced,
    kept as the test oracle: nodes ``(vertex, state)`` by name, every
    DFA state scanned per backward step."""

    def __init__(self, graph, dfa):
        self.graph = graph
        self.dfa = dfa

    def forward_reachable(self, vertex, state):
        seen = {(vertex, state)}
        queue = deque(seen)
        while queue:
            vertex, state = queue.popleft()
            for label, target in self.graph.out_edges(vertex):
                if label not in self.dfa.alphabet:
                    continue
                node = (target, self.dfa.transition(state, label))
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
        return seen

    def live_states(self, target):
        """Product nodes from which some accepting ``(target, f)`` is
        reachable."""
        live = {(target, final) for final in self.dfa.accepting}
        queue = deque(live)
        while queue:
            vertex, state = queue.popleft()
            for label, source in self.graph.in_edges(vertex):
                if label not in self.dfa.alphabet:
                    continue
                for state_before in self.dfa.states():
                    if self.dfa.transition(state_before, label) != state:
                        continue
                    node = (source, state_before)
                    if node not in live:
                        live.add(node)
                        queue.append(node)
        return live

    def reachable(self, source):
        return {
            vertex
            for vertex, state in self.forward_reachable(
                source, self.dfa.initial
            )
            if state in self.dfa.accepting
        }

    def shortest_walk_length(self, source, target):
        """Edges on a shortest L-labelled walk, or None."""
        if source == target and self.dfa.initial in self.dfa.accepting:
            return 0
        start = (source, self.dfa.initial)
        depth = {start: 0}
        queue = deque([start])
        while queue:
            vertex, state = queue.popleft()
            for label, nxt in self.graph.out_edges(vertex):
                if label not in self.dfa.alphabet:
                    continue
                node = (nxt, self.dfa.transition(state, label))
                if node in depth:
                    continue
                depth[node] = depth[(vertex, state)] + 1
                if nxt == target and node[1] in self.dfa.accepting:
                    return depth[node]
                queue.append(node)
        return None


def _backed(graph, backing):
    """A separate compile ("csr") or the DbGraph's own ("dbgraph")."""
    return IndexedGraph(graph) if backing == "csr" else as_graph_view(graph)


def _assert_walk(graph, dfa, view, walk, source, target):
    """``walk`` is an L-labelled walk of ``graph`` from source to target."""
    path = view.path(*walk)
    assert path.source == source and path.target == target
    for (u, v), label in zip(zip(path.vertices, path.vertices[1:]),
                             path.labels):
        assert v in graph.successors(u, label)
    assert dfa.accepts(path.word)
    return path


class TestWalkTargets:
    def test_straight_line(self):
        graph = labeled_path("ab")
        assert RpqSolver("ab").reachable_set(graph, 0) == {2}

    def test_walks_may_repeat_vertices(self):
        # (aa)* on a 3-cycle reaches everything eventually.
        graph = labeled_cycle("aaa")
        assert RpqSolver("(aa)*").reachable_set(graph, 0) == {0, 1, 2}

    def test_empty_language(self):
        graph = labeled_path("a")
        solver = RpqSolver(language("∅", alphabet={"a"}))
        assert solver.reachable_set(graph, 0) == set()

    def test_epsilon_reaches_self(self):
        graph = labeled_path("a")
        assert 0 in RpqSolver("a*").reachable_set(graph, 0)

    def test_ids_on_both_backings(self):
        graph = labeled_path("ab")
        dfa = language("a*b").dfa
        for backing in ("dbgraph", "csr"):
            view = _backed(graph, backing)
            assert walk_targets(dfa, view, view.vertex_id(0)) == {
                view.vertex_id(2)
            }


class TestShortestWalk:
    def test_shortest_walk_length(self):
        graph = labeled_cycle("aaa")
        walk = RpqSolver("(aa)*").shortest_walk(graph, 0, 2)
        assert walk is not None
        assert len(walk) == 2
        assert walk.word == "aa"

    def test_walk_can_be_non_simple(self):
        # 0 -> 1 -> 0 -> 1: (aaa)* needs a multiple of three edges, so
        # no simple path on the 2-cycle reaches vertex 1; a walk does.
        graph = labeled_cycle("aa")
        walk = RpqSolver("(aaa)*").shortest_walk(graph, 0, 1)
        assert walk is not None
        assert len(walk) == 3
        assert not walk.is_simple()

    def test_no_walk(self):
        graph = labeled_path("ab")
        assert RpqSolver("ba").shortest_walk(graph, 0, 2) is None

    def test_trivial_walk(self):
        graph = labeled_path("a")
        walk = RpqSolver("a*").shortest_walk(graph, 0, 0)
        assert walk is not None and len(walk) == 0

    def test_closed_walk_without_epsilon(self):
        # ε ∉ a^+: from a vertex to itself the answer is a closed walk.
        graph = labeled_cycle("aaa")
        walk = RpqSolver("a^+").shortest_walk(graph, 0, 0)
        assert walk is not None
        assert walk.vertices == (0, 1, 2, 0)
        assert RpqSolver("a^+").shortest_walk(labeled_path("a"), 0, 0) is None

    def test_edge_cap(self):
        graph = labeled_cycle("aaa")
        view = as_graph_view(graph)
        dfa = language("(aa)*").dfa
        assert shortest_walk(dfa, view, 0, 1, max_edges=3) is None
        walk = shortest_walk(dfa, view, 0, 1, max_edges=4)
        assert walk is not None and len(walk[1]) == 4
        # The empty walk needs no edge.
        assert shortest_walk(dfa, view, 0, 0, max_edges=0) == ((0,), ())

    def test_charges_the_context(self):
        view = as_graph_view(labeled_path("aaaa"))
        ctx = ExecutionContext()
        walk = shortest_walk(language("a*").dfa, view, 0, 4, ctx=ctx)
        assert len(walk[1]) == 4
        # Four forward nodes (0 to 3) and two backward ones (4, 3):
        # the backward side stops once it reaches vertex 2, which the
        # forward side has already found.
        assert ctx.steps == 6


class TestWalkDistances:
    def test_forward_backward_consistency(self):
        graph = labeled_path("aab")
        dfa = language("a*b").dfa
        view = as_graph_view(graph)
        # The target is walk-reachable from the source ...
        assert 3 in walk_targets(dfa, view, 0)
        # ... so the start node is live for it, three edges away.
        distances = walk_distances(dfa, view, 3, reverse_transition_index(dfa))
        assert distances[0 * dfa.num_states + dfa.initial] == 3

    def test_live_states_prune(self):
        graph = DbGraph.from_edges([(0, "a", 1), (0, "b", 2)])
        dfa = language("a").dfa
        view = as_graph_view(graph)
        live = walk_distances(
            dfa, view, view.vertex_id(1), reverse_transition_index(dfa)
        )
        assert view.vertex_id(0) * dfa.num_states + dfa.initial in live
        assert all(
            view.vertex_at(node // dfa.num_states) != 2 for node in live
        )


REGEXES = random_regexes(16, seed=19, max_depth=2) + [
    "a*", "(aa)*", "a^+", "eps", "ab + ba", "a*(bb^+ + eps)c*",
]


@pytest.mark.parametrize("backing", ["dbgraph", "csr"])
@pytest.mark.parametrize("regex", REGEXES)
def test_walk_layer_matches_naive_product(backing, regex):
    dfa = language(regex).dfa
    reverse = reverse_transition_index(dfa)
    num_states = dfa.num_states
    for seed in range(4):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        graph = random_labeled_graph(n, rng.randint(n, 3 * n), "abc",
                                     seed=seed)
        view = _backed(graph, backing)
        naive = _NaiveProduct(graph, dfa)
        pairs = [(0, 0), (0, n - 1), (n - 1, 0), (rng.randrange(n),) * 2]
        for source, target in pairs:
            source_id = view.vertex_id(source)
            target_id = view.vertex_id(target)
            case = (regex, backing, seed, source, target)
            targets = walk_targets(dfa, view, source_id)
            assert {view.vertex_at(v) for v in targets} == (
                naive.reachable(source)
            ), case
            live = walk_distances(dfa, view, target_id, reverse)
            assert {
                (view.vertex_at(node // num_states), node % num_states)
                for node in live
            } == naive.live_states(target), case
            walk = shortest_walk(dfa, view, source_id, target_id)
            length = naive.shortest_walk_length(source, target)
            if length is None:
                assert walk is None, case
                assert target_id not in targets, case
            else:
                path = _assert_walk(graph, dfa, view, walk, source, target)
                assert len(path) == length, case
                if source != target:
                    assert target_id in targets, case


class TestRpqSolver:
    def test_evaluate_all_pairs(self):
        graph = labeled_path("aa")
        pairs = RpqSolver("a^+").evaluate_all_pairs(graph)
        assert pairs == {(0, 1), (1, 2), (0, 2)}

    def test_walk_vs_simple_divergence(self):
        # The motivating gap: (aa)* on an odd cycle.
        graph = labeled_cycle("aaa")
        assert RpqSolver("(aa)*").exists(graph, 0, 1)
        assert not ExactSolver("(aa)*").exists(graph, 0, 1)

    def test_unknown_vertex_raises(self):
        graph = labeled_cycle("ab")
        solver = RpqSolver("a*")
        with pytest.raises(GraphError):
            solver.exists(graph, 0, 99)
        with pytest.raises(GraphError):
            solver.exists(graph, 99, 0)
        with pytest.raises(GraphError):
            solver.shortest_walk(graph, 0, 99)
        with pytest.raises(GraphError):
            solver.reachable_set(graph, 99)
