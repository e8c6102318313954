"""Structural analysis of DFAs: components, loops, aperiodicity.

These are the automaton-level notions Section 3 of the paper works with:

* strongly connected *components* of (the graph of) ``A_L``, found by
  the graph layer's Tarjan (:func:`repro.graphs.reach.condense`),
* ``Loop(q)`` — the non-empty words that loop on state ``q``,
* the *internal alphabet* ``Σ_C`` of a component (Notation 1),
* aperiodicity (the definition used in Preliminaries),
* ``Loop_a(q)`` — loops whose last letter is ``a`` (Notation 2, used by
  the vertex-labeled variant).
"""

from __future__ import annotations

from collections import deque

from ..errors import AutomatonError
from ..graphs.reach import condense
from .nfa import NFA


def strongly_connected_components(dfa):
    """SCCs of the DFA's transition graph in topological order.

    Returns a list of frozensets of states.  The order is topological:
    if a transition leads from component ``C_i`` to ``C_j`` with
    ``i != j`` then ``i < j``.  The components come from the one Tarjan
    in the code base, :func:`repro.graphs.reach.condense`, run over the
    distinct successors of each state in ascending order; it numbers
    them in reverse topological order, so the list reads its numbering
    backwards.
    """
    # condense walks (label_id, target) pairs; one dummy label suffices.
    successors = [
        [
            (0, target)
            for target in sorted(
                {dfa.transition(state, symbol) for symbol in dfa.alphabet}
            )
        ]
        for state in dfa.states()
    ]
    comp_of, num_comps, _ = condense(dfa.num_states, successors.__getitem__)
    components = [set() for _ in range(num_comps)]
    for state, comp in enumerate(comp_of):
        components[comp].add(state)
    return [frozenset(component) for component in reversed(components)]


def useful_symbols(dfa):
    """Symbols that occur in at least one word of ``L(dfa)``.

    A symbol ``a`` is *useful* iff some transition ``q --a--> r`` has
    ``q`` reachable from the initial state and ``r`` co-accessible (able
    to reach an accepting state): the word ``w1·a·w2`` through that
    transition is then in L.  Everything else is dead-state plumbing the
    completion added — no L-labeled path can ever use it, which is what
    lets the reachability index bound a query by the frozenset returned
    here (the query's *label mask*).
    """
    live = dfa.co_reachable_states()
    return frozenset(
        symbol
        for state in dfa.reachable_states()
        for symbol in dfa.alphabet
        if dfa.transition(state, symbol) in live
    )


def component_of(components, state):
    """The component (frozenset) containing ``state``."""
    for component in components:
        if state in component:
            return component
    raise AutomatonError("state %r not in any component" % (state,))


def has_loop(dfa, state):
    """True iff ``Loop(state) ≠ ∅`` — the state lies on a non-trivial cycle
    or has a self-loop: some state reachable from it moves back to it."""
    return any(
        dfa.transition(p, symbol) == state
        for p in dfa.reachable_states(state)
        for symbol in dfa.alphabet
    )


def looping_states(dfa):
    """Set of states ``q`` with ``Loop(q) ≠ ∅``.

    A state loops iff its SCC contains an internal transition (always the
    case for SCCs with ≥ 2 states; singleton SCCs need a self-loop).
    """
    result = set()
    for component in strongly_connected_components(dfa):
        if len(component) > 1:
            result |= component
            continue
        (state,) = component
        if any(
            dfa.transition(state, symbol) == state for symbol in dfa.alphabet
        ):
            result.add(state)
    return result


def internal_alphabet(dfa, component):
    """``Σ_C``: letters moving between two states of ``component``."""
    letters = set()
    for state in component:
        for symbol in dfa.alphabet:
            if dfa.transition(state, symbol) in component:
                letters.add(symbol)
    return frozenset(letters)


def has_loop_with_last_letter(dfa, state, letter):
    """True iff ``Loop_a(state) ≠ ∅`` for ``a = letter``.

    There is a non-empty loop on ``state`` ending with ``letter`` iff some
    state ``p`` reachable from ``state`` satisfies ``δ(p, letter) = state``.
    """
    reachable = dfa.reachable_states(state)
    return any(
        dfa.transition(p, letter) == state for p in reachable
    )


def loop_nfa(dfa, state, min_loops=1):
    """NFA for ``Loop(state)^min_loops`` — ``min_loops`` consecutive
    non-empty loops on ``state``.

    States of the result are pairs ``(copy, q)``: ``copy`` counts how many
    complete loops have been read so far.  Reading a letter from
    ``(copy, q)`` moves to ``(copy, δ(q, a))`` unless that closes a loop
    (``δ(q, a) == state``), which moves to ``(copy + 1, state)``.
    Accepting state: ``(min_loops, state)``; since each copy switch
    consumes at least one letter, every accepted word is a concatenation
    of ``min_loops`` non-empty loops.  Returning to ``state`` mid-word is
    a nondeterministic choice: it may close the current loop (advance a
    copy) or be an interior visit of a longer loop (stay in the copy).
    """
    if min_loops < 1:
        raise ValueError("min_loops must be >= 1")
    states = set()
    transitions = {}
    for copy in range(min_loops):
        for q in dfa.states():
            source = (copy, q)
            states.add(source)
            arcs = []
            for symbol in dfa.alphabet:
                target_q = dfa.transition(q, symbol)
                arcs.append((symbol, (copy, target_q)))
                if target_q == state:
                    arcs.append((symbol, (copy + 1, state)))
            transitions[source] = arcs
    final = (min_loops, state)
    states.add(final)
    transitions[final] = []
    return NFA(
        states,
        dfa.alphabet,
        transitions,
        initial=[(0, state)],
        accepting=[final],
    )


def loop_with_last_letter_nfa(dfa, state, letter, min_loops=1):
    """NFA for ``(Loop_letter(state))^min_loops`` — loops ending in
    ``letter`` (the vertex-labeled variant's ``Loop_a``)."""
    if min_loops < 1:
        raise ValueError("min_loops must be >= 1")
    states = set()
    transitions = {}
    for copy in range(min_loops):
        for q in dfa.states():
            source = (copy, q)
            states.add(source)
            arcs = []
            for symbol in dfa.alphabet:
                target_q = dfa.transition(q, symbol)
                if target_q == state and symbol == letter:
                    # Closing the loop with the required last letter
                    # advances a copy; closing it with another letter is a
                    # "wrong" loop, but the word may still be a single
                    # longer loop that eventually ends in `letter`, so we
                    # stay in the current copy.
                    arcs.append((symbol, (copy + 1, state)))
                    arcs.append((symbol, (copy, target_q)))
                else:
                    arcs.append((symbol, (copy, target_q)))
            transitions[source] = arcs
    final = (min_loops, state)
    states.add(final)
    transitions[final] = []
    return NFA(
        states,
        dfa.alphabet,
        transitions,
        initial=[(0, state)],
        accepting=[final],
    )


# -- aperiodicity ---------------------------------------------------------------


def transition_monoid(dfa, max_size=200000):
    """The transition monoid of the DFA.

    Elements are tuples ``f`` with ``f[q] = Δ(q, w)`` for some word ``w``;
    the monoid is generated by the letter actions under composition.
    Raises :class:`AutomatonError` when the monoid would exceed
    ``max_size`` elements (a safety valve — minimal DFAs in this project
    are small).
    """
    identity = tuple(range(dfa.num_states))
    generators = []
    for symbol in sorted(dfa.alphabet):
        generators.append(
            tuple(dfa.transition(q, symbol) for q in dfa.states())
        )
    elements = {identity}
    queue = deque([identity])
    while queue:
        f = queue.popleft()
        for g in generators:
            composed = tuple(g[f[q]] for q in dfa.states())
            if composed not in elements:
                if len(elements) >= max_size:
                    raise AutomatonError(
                        "transition monoid exceeds %d elements" % max_size
                    )
                elements.add(composed)
                queue.append(composed)
    return elements


def is_aperiodic(dfa, max_monoid_size=200000):
    """Aperiodicity test (the paper's definition, via the monoid).

    ``L`` is aperiodic iff for every state ``q``, word ``w`` and ``k ≥ 1``,
    ``Δ(q, w^k) = q`` implies ``Δ(q, w) = q``.  Equivalently every element
    of the transition monoid has eventual period 1 (``f^{m+1} = f^m`` for
    some ``m``).  The automaton should be minimal and trimmed for the test
    to reflect the *language* (callers normally pass ``minimized()``).
    """
    monoid = transition_monoid(dfa, max_size=max_monoid_size)
    for f in monoid:
        # Iterate f until the power sequence cycles; aperiodic iff the
        # cycle is a fixed point.
        seen = {}
        current = f
        step = 0
        while current not in seen:
            seen[current] = step
            current = tuple(current[f[q]] for q in dfa.states())
            step += 1
        cycle_length = step - seen[current]
        if cycle_length != 1:
            return False
    return True
