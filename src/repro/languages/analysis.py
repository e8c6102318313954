"""Structural analysis of DFAs: components, loops, aperiodicity.

These are the automaton-level notions Section 3 of the paper works with:

* strongly connected *components* of (the graph of) ``A_L``, found by
  the graph layer's Tarjan (:func:`repro.graphs.reach.condense`),
* ``Loop(q)`` — the non-empty words that loop on state ``q``,
* the *internal alphabet* ``Σ_C`` of a component (Notation 1),
* aperiodicity (the definition used in Preliminaries).

``Loop_a(q)``, the loops whose last letter is ``a`` (Notation 2), is
read off the trC decision's pair closure
(:func:`repro.core.trc.violating_pairs`).
"""

from __future__ import annotations

from collections import deque

from ..errors import AutomatonError
from ..graphs.reach import condense


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
