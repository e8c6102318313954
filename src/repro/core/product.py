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
  optional edge cap: a shortest L-labelled walk.  A backward BFS from
  the goal runs alongside it only to stop early when no walk exists.

:func:`walk_check` turns :func:`shortest_walk` into the *walk check*
every trC or NP-hard query passes before a simple-path search
(:class:`~repro.core.solver.RspqSolver`, with the query's edge cap).
It is sound because every simple path is a walk: no L-labelled walk
within the cap proves NOT_FOUND, and a shortest walk that visits no
vertex twice is a shortest simple path.  It is a check and
not a solver: in the paper's Figure 4 the only L-labelled walks repeat
vertices and no simple L-path exists, so a walk that is not simple
decides nothing.

The per-label transition rows they expand through, and the live-state
row, are shared with the vectorized batch executor
(:mod:`repro.engine.vectorized`) and the randomized solvers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from ..execution import ExecutionContext
    from ..graphs.dbgraph import Path
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
    It stops at the first accepting target node it reaches.  The walk
    need not be simple.  From a vertex to itself it is the empty walk
    when ε ∈ L and a shortest closed walk otherwise.  ``ctx``, when
    given, is charged one step per expanded node.

    Product nodes in a dead DFA state (:func:`live_state_row`) are
    never entered.  They cannot reach the goal, and a node that can is
    first discovered from a parent that can too, so the pruning does
    not change the walk returned.

    A backward BFS from the accepting target nodes runs alongside.  Each
    round advances, by one whole layer, the side with the smaller
    frontier (on a tie, the side with fewer layers, else the forward
    one), so the steps charged do not depend on the order of the
    view's in-edges.  The backward side only ever answers "no walk":
    if it runs dry, or completes ``max_edges`` layers, before it
    discovers a node the forward side has discovered, the source
    cannot reach the goal within the cap.  Once the two sides meet it
    stops, and the forward BFS alone picks the walk.  A missing walk
    thus costs about twice the narrower side, where the forward BFS
    alone would exhaust the source's whole region.
    """
    num_states = dfa.num_states
    accepting = dfa.accepting
    if source_id == target_id and dfa.initial in accepting:
        return (source_id,), ()
    live = live_state_row(dfa)
    if not live[dfa.initial]:
        return None
    # Per label id: the successor state, -1 for a dead one.
    rows = [
        None if row is None else [state if live[state] else -1
                                  for state in row]
        for row in transition_rows(dfa, view)
    ]
    out_indptr = view.out_indptr
    out_labels = view.out_labels
    out_targets = view.out_targets
    start = source_id * num_states + dfa.initial
    parents: dict[int, "tuple[int, int] | None"] = {start: None}
    frontier = [start]
    depth = 0
    # The backward side; None once it has met the forward side.
    back_frontier: "list[int] | None" = [
        target_id * num_states + final for final in accepting
    ]
    back_seen = set(back_frontier)
    # Per label id: the states before each state, as in walk_distances.
    back_rows: "list[list[tuple[int, ...]] | None] | None" = None
    back_depth = 0
    in_indptr = view.in_indptr
    in_labels = view.in_labels
    in_sources = view.in_sources
    goal = None
    while frontier and goal is None and (
        max_edges is None or depth < max_edges
    ):
        if back_frontier is not None and (
            len(back_frontier) < len(frontier)
            or (len(back_frontier) == len(frontier) and back_depth < depth)
        ):
            if back_rows is None:
                reverse = reverse_transition_index(dfa)
                back_rows = [
                    reverse.get(view.label_at(label_id))
                    for label_id in range(view.num_labels)
                ]
            back_depth += 1
            next_back: list[int] = []
            for node in back_frontier:
                if ctx is not None:
                    ctx.charge_step()
                vertex_id, state = divmod(node, num_states)
                for slot in range(in_indptr[vertex_id],
                                  in_indptr[vertex_id + 1]):
                    befores = back_rows[in_labels[slot]]
                    if befores is None:
                        continue
                    previous_id = in_sources[slot]
                    for state_before in befores[state]:
                        previous = previous_id * num_states + state_before
                        if previous not in back_seen:
                            back_seen.add(previous)
                            next_back.append(previous)
            if not parents.keys().isdisjoint(next_back):
                back_frontier = None
            elif not next_back or (
                max_edges is not None and back_depth >= max_edges
            ):
                return None
            else:
                back_frontier = next_back
            continue
        depth += 1
        next_frontier: list[int] = []
        for node in frontier:
            if ctx is not None:
                ctx.charge_step()
            vertex_id, state = divmod(node, num_states)
            for slot in range(out_indptr[vertex_id],
                              out_indptr[vertex_id + 1]):
                label_id = out_labels[slot]
                row = rows[label_id]
                if row is None:
                    continue
                next_state = row[state]
                if next_state < 0:
                    continue
                nxt = out_targets[slot]
                next_node = nxt * num_states + next_state
                if next_node in parents:
                    continue
                parents[next_node] = (node, label_id)
                if nxt == target_id and next_state in accepting:
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


def walk_check(dfa: "DFA", view: "GraphView", source_id: int,
               target_id: int, max_edges: "int | None" = None,
               ctx: "ExecutionContext | None" = None,
               ) -> "tuple[bool, Path | None, int | None]":
    """Decide a simple-path query by its shortest L-walk when that is
    enough: ``(decided, path, walk_edges)``.

    ``(True, None, None)`` when no L-walk of at most ``max_edges``
    edges exists (nor, from a vertex to itself with ε ∉ L, any simple
    path); ``(True, path, n)`` when the shortest walk is simple, which
    makes it a shortest simple path; ``(False, None, n)`` when the walk
    repeats a vertex, ``n`` its edge count (a lower bound on any simple
    answer).  ``ctx`` is charged as by :func:`shortest_walk`.
    """
    if source_id == target_id and dfa.initial not in dfa.accepting:
        # The only simple path from a vertex to itself is empty.
        return True, None, None
    walk = shortest_walk(dfa, view, source_id, target_id, max_edges, ctx)
    if walk is None:
        return True, None, None
    vertex_ids, label_ids = walk
    if len(set(vertex_ids)) < len(vertex_ids):
        return False, None, len(label_ids)
    return True, view.path(vertex_ids, label_ids), len(label_ids)
