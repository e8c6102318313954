"""The DFA × GraphView product: every L-labelled-walk search.

The product ``G × A_L`` of a graph view with the minimal DFA has nodes
``(vertex, state)``, packed as ``vertex_id * |Q| + state``, and an edge
``(v, q) -> (w, δ(q, a))`` for every graph edge ``(v, a, w)``.  A BFS
over it answers a regular path query under *walk* semantics (vertices
may repeat) in ``O(|G| · |A_L|)``.  Every simple path is a walk, so
the same searches are the sound pruning under every simple-path
solver.  The three searches:

* :func:`walk_targets` — the forward closure: the vertices some
  L-labelled walk from the source ends on;
* :func:`walk_distances` — the backward BFS from the accepting target
  nodes: each live product node's walk distance to the goal;
* :func:`shortest_walk` — the forward BFS with parent pointers and an
  optional edge cap: a shortest L-labelled walk.

The per-label transition rows they expand through, and the live-state
row, are shared with the vectorized batch executor
(:mod:`repro.engine.vectorized`) and the randomized solvers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from ..execution import ExecutionContext
    from ..graphs.view import GraphView
    from ..languages.dfa import DFA

#: ``index[label][state_after] -> states_before`` (see
#: :func:`reverse_transition_index`).
ReverseIndex = dict[str, list[tuple[int, ...]]]

#: An id-level walk: ``(vertex_ids, label_ids)``.
IdWalk = tuple[tuple[int, ...], tuple[int, ...]]


def transition_rows(dfa: "DFA", view: "GraphView") -> list[list[int] | None]:
    """Per-label transition rows: ``rows[label_id][state] -> state'``.

    ``None`` rows mark graph labels outside the DFA alphabet — a word
    using such a label is not in L, so product expansion skips the
    whole label with one ``is None`` test.
    """
    states = range(dfa.num_states)
    rows: list[list[int] | None] = []
    for label_id in range(view.num_labels):
        label = view.label_at(label_id)
        if label in dfa.alphabet:
            rows.append([dfa.transition(state, label) for state in states])
        else:
            rows.append(None)
    return rows


def reverse_transition_index(dfa: "DFA") -> ReverseIndex:
    """``index[label][state_after] -> states_before`` over the alphabet.

    Built once per language (solvers keep it): a backward product step
    then costs one lookup per in-edge, not a scan of every DFA state.
    """
    index: dict[str, list[list[int]]] = {
        label: [[] for _ in range(dfa.num_states)] for label in dfa.alphabet
    }
    for state_before, label, state_after in dfa.transitions():
        index[label][state_after].append(state_before)
    return {
        label: [tuple(befores) for befores in rows]
        for label, rows in index.items()
    }


def live_state_row(dfa: "DFA") -> bytearray:
    """Flat 0/1 row over DFA states: 1 = some accepting state is reachable.

    Product states whose DFA component is dead (``row[state] == 0``)
    can never complete a word of L, so expansions drop them on sight.
    """
    live = bytearray(dfa.num_states)
    for state in dfa.co_reachable_states():
        live[state] = 1
    return live


# invariant: hot-loop
def walk_targets(dfa: "DFA", view: "GraphView", source_id: int) -> set[int]:
    """Vertex ids on which some L-labelled walk from ``source_id`` ends.

    The forward closure of ``(source_id, initial)`` in the product,
    read off at its accepting nodes; the source itself is included
    when ε ∈ L.
    """
    num_states = dfa.num_states
    rows = transition_rows(dfa, view)
    out = view.out
    start = source_id * num_states + dfa.initial
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        vertex_id, state = divmod(node, num_states)
        for label_id, nxt in out(vertex_id):
            row = rows[label_id]
            if row is None:
                continue
            next_node = nxt * num_states + row[state]
            if next_node not in seen:
                seen.add(next_node)
                stack.append(next_node)
    accepting = dfa.accepting
    return {
        node // num_states for node in seen
        if node % num_states in accepting
    }


# invariant: hot-loop
def walk_distances(dfa: "DFA", view: "GraphView", target_id: int,
                   reverse_transitions: ReverseIndex,
                   from_source: "bytearray | None" = None,
                   comp_of: "Sequence[int] | None" = None) -> dict[int, int]:
    """BFS distance from every product node to an accepting target
    node, ignoring simplicity (an admissible bound; absent = dead).

    The backward BFS walks the view's reverse adjacency (a precompiled
    reverse CSR on compiled graphs) through ``reverse_transitions``
    (:func:`reverse_transition_index`).  The keys are the product
    nodes from which some L-labelled walk reaches ``target_id``.

    ``from_source`` (a component filter from the reachability index,
    with ``comp_of`` its vertex -> component map) drops product nodes
    whose graph vertex the source can never reach under L's usable
    labels: a forward search from that source only ever visits
    source-reachable vertices, so the dropped entries could never be
    read — same answers, smaller backward BFS.  The restricted
    distances stay admissible: every completion of a partial path
    lies inside the source-reachable region, so its walk distance
    there lower-bounds the remaining length.
    """
    num_states = dfa.num_states
    distances = {}
    queue = deque()
    for final in dfa.accepting:
        node = target_id * num_states + final
        distances[node] = 0
        queue.append(node)
    # Per label id; None for a label outside the DFA alphabet.
    reverse_rows = [
        reverse_transitions.get(view.label_at(label_id))
        for label_id in range(view.num_labels)
    ]
    in_pairs = view.in_pairs
    while queue:
        node = queue.popleft()
        vertex_id, state = divmod(node, num_states)
        base = distances[node] + 1
        for label_id, source_id in in_pairs(vertex_id):
            row = reverse_rows[label_id]
            if row is None:
                continue
            if from_source is not None and not (
                from_source[comp_of[source_id]]
            ):
                continue
            for state_before in row[state]:
                previous = source_id * num_states + state_before
                if previous not in distances:
                    distances[previous] = base
                    queue.append(previous)
    return distances


# invariant: hot-loop
def shortest_walk(dfa: "DFA", view: "GraphView", source_id: int,
                  target_id: int, max_edges: "int | None" = None,
                  ctx: "ExecutionContext | None" = None) -> IdWalk | None:
    """A shortest L-labelled walk with at most ``max_edges`` edges.

    Layered BFS over the product with parent pointers; returns
    ``(vertex_ids, label_ids)`` or ``None`` when no such walk exists.
    The walk need not be simple.  From a vertex to itself it is the
    empty walk when ε ∈ L and a shortest closed walk otherwise.
    ``ctx``, when given, is charged one step per expanded node.
    """
    num_states = dfa.num_states
    accepting = dfa.accepting
    if source_id == target_id and dfa.initial in accepting:
        return (source_id,), ()
    rows = transition_rows(dfa, view)
    out = view.out
    start = source_id * num_states + dfa.initial
    parents: dict[int, "tuple[int, int] | None"] = {start: None}
    frontier = [start]
    goal = None
    depth = 0
    while frontier and goal is None and (
        max_edges is None or depth < max_edges
    ):
        depth += 1
        next_frontier: list[int] = []
        for node in frontier:
            if ctx is not None:
                ctx.charge_step()
            vertex_id, state = divmod(node, num_states)
            for label_id, nxt in out(vertex_id):
                row = rows[label_id]
                if row is None:
                    continue
                next_node = nxt * num_states + row[state]
                if next_node in parents:
                    continue
                parents[next_node] = (node, label_id)
                if nxt == target_id and row[state] in accepting:
                    goal = next_node
                    break
                next_frontier.append(next_node)
            if goal is not None:
                break
        frontier = next_frontier
    if goal is None:
        return None
    vertex_ids = []
    label_ids = []
    node = goal
    step = parents[node]
    while step is not None:
        parent, label_id = step
        vertex_ids.append(node // num_states)
        label_ids.append(label_id)
        node = parent
        step = parents[node]
    vertex_ids.append(node // num_states)
    vertex_ids.reverse()
    label_ids.reverse()
    return tuple(vertex_ids), tuple(label_ids)
