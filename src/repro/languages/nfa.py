"""Nondeterministic finite automata with ε-transitions.

This module provides the NFA data structure used as the bridge between
regular expressions and DFAs, plus the automaton combinators the paper's
constructions require (concatenation powers for bounded repetition,
products with DFAs for emptiness tests without determinization,
reversal, ...).

States are opaque hashable objects; the combinators generate fresh
integer states internally.  ``None`` is the ε symbol.
"""

from __future__ import annotations

from collections import deque

from ..errors import AutomatonError
from .regex import ast as rx

EPSILON = None


class NFA:
    """An NFA with ε-moves.

    Parameters
    ----------
    states:
        Iterable of hashable state identifiers.
    alphabet:
        Iterable of one-character symbols (ε excluded).
    transitions:
        Mapping ``state -> iterable of (symbol_or_None, target)`` pairs.
    initial:
        Iterable of initial states.
    accepting:
        Iterable of accepting states.
    """

    def __init__(self, states, alphabet, transitions, initial, accepting):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self._moves = {state: [] for state in self.states}
        for state, arcs in transitions.items():
            if state not in self._moves:
                raise AutomatonError("transition from unknown state %r" % (state,))
            for symbol, target in arcs:
                if target not in self.states:
                    raise AutomatonError(
                        "transition to unknown state %r" % (target,)
                    )
                if symbol is not EPSILON and symbol not in self.alphabet:
                    raise AutomatonError("unknown symbol %r" % (symbol,))
                self._moves[state].append((symbol, target))
        missing = (self.initial | self.accepting) - self.states
        if missing:
            raise AutomatonError("unknown initial/accepting states %r" % (missing,))

    # -- basic queries -------------------------------------------------------

    def arcs_from(self, state):
        """List of ``(symbol, target)`` pairs leaving ``state``."""
        return list(self._moves[state])

    def num_states(self):
        return len(self.states)

    def epsilon_closure(self, states):
        """All states reachable from ``states`` by ε-moves alone."""
        closure = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for symbol, target in self._moves[state]:
                if symbol is EPSILON and target not in closure:
                    closure.add(target)
                    stack.append(target)
        return frozenset(closure)

    def step(self, states, symbol):
        """ε-closure of the states reachable by one ``symbol`` move."""
        direct = set()
        for state in states:
            for move_symbol, target in self._moves[state]:
                if move_symbol == symbol:
                    direct.add(target)
        return self.epsilon_closure(direct)

    def accepts(self, word):
        """Membership test by on-the-fly subset simulation."""
        current = self.epsilon_closure(self.initial)
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self.accepting)

    # -- language queries ----------------------------------------------------

    def is_empty(self):
        """True iff the recognised language is empty."""
        return self.shortest_accepted() is None

    def shortest_accepted(self):
        """A shortest accepted word, or ``None`` if the language is empty.

        Uses 0-1 BFS: ε-arcs cost nothing and are expanded first so words
        are discovered in nondecreasing length order.
        """
        best = {}
        queue = deque()
        for state in self.epsilon_closure(self.initial):
            best[state] = ""
            queue.append(state)
        while queue:
            state = queue.popleft()
            word = best[state]
            if state in self.accepting:
                return word
            for symbol, target in self._moves[state]:
                next_word = word if symbol is EPSILON else word + symbol
                if target in best and len(best[target]) <= len(next_word):
                    continue
                best[target] = next_word
                if symbol is EPSILON:
                    queue.appendleft(target)
                else:
                    queue.append(target)
        return None

    # -- combinators ----------------------------------------------------------

    def reverse(self):
        """NFA for the reversed language."""
        transitions = {state: [] for state in self.states}
        for state in self.states:
            for symbol, target in self._moves[state]:
                transitions[target].append((symbol, state))
        return NFA(
            self.states,
            self.alphabet,
            transitions,
            initial=self.accepting,
            accepting=self.initial,
        )

    def _relabel(self, offset):
        """Copy with integer states shifted by ``offset`` (internal)."""
        mapping = {}
        for index, state in enumerate(sorted(self.states, key=repr)):
            mapping[state] = offset + index
        transitions = {}
        for state in self.states:
            transitions[mapping[state]] = [
                (symbol, mapping[target]) for symbol, target in self._moves[state]
            ]
        return (
            NFA(
                mapping.values(),
                self.alphabet,
                transitions,
                initial={mapping[s] for s in self.initial},
                accepting={mapping[s] for s in self.accepting},
            ),
            offset + len(mapping),
        )

    def concat(self, other):
        """NFA for the concatenation ``L(self) · L(other)``."""
        left, next_id = self._relabel(0)
        right, _ = other._relabel(next_id)
        transitions = {}
        for nfa in (left, right):
            for state in nfa.states:
                transitions[state] = list(nfa._moves[state])
        for state in left.accepting:
            for target in right.initial:
                transitions[state].append((EPSILON, target))
        return NFA(
            left.states | right.states,
            self.alphabet | other.alphabet,
            transitions,
            initial=left.initial,
            accepting=right.accepting,
        )

    def union(self, other):
        """NFA for ``L(self) ∪ L(other)``."""
        left, next_id = self._relabel(0)
        right, _ = other._relabel(next_id)
        transitions = {}
        for nfa in (left, right):
            for state in nfa.states:
                transitions[state] = list(nfa._moves[state])
        return NFA(
            left.states | right.states,
            self.alphabet | other.alphabet,
            transitions,
            initial=left.initial | right.initial,
            accepting=left.accepting | right.accepting,
        )

    def power(self, exponent):
        """NFA for ``L(self)^exponent`` (``exponent >= 0``)."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if exponent == 0:
            return NFA([0], self.alphabet, {0: []}, initial=[0], accepting=[0])
        result = self
        for _ in range(exponent - 1):
            result = result.concat(self)
        return result

    def intersect_dfa(self, dfa, dfa_initial=None, dfa_accepting=None):
        """NFA for ``L(self) ∩ L'`` where ``L'`` is a DFA language.

        ``dfa_initial``/``dfa_accepting`` override the DFA's own initial
        state and accepting set, which lets callers intersect with a
        quotient language ``L_q`` or its complement without building new
        DFA objects.
        """
        start_q = dfa.initial if dfa_initial is None else dfa_initial
        finals = dfa.accepting if dfa_accepting is None else frozenset(dfa_accepting)
        start_states = {(s, start_q) for s in self.initial}
        states = set(start_states)
        transitions = {state: [] for state in start_states}
        queue = deque(start_states)
        while queue:
            nfa_state, dfa_state = queue.popleft()
            for symbol, target in self._moves[nfa_state]:
                if symbol is EPSILON:
                    pair = (target, dfa_state)
                else:
                    if symbol not in dfa.alphabet:
                        continue
                    pair = (target, dfa.transition(dfa_state, symbol))
                if pair not in states:
                    states.add(pair)
                    transitions[pair] = []
                    queue.append(pair)
                transitions[(nfa_state, dfa_state)].append((symbol, pair))
        accepting = {
            (nfa_state, dfa_state)
            for (nfa_state, dfa_state) in states
            if nfa_state in self.accepting and dfa_state in finals
        }
        return NFA(states, self.alphabet, transitions, start_states, accepting)


def literal_nfa(symbol):
    """NFA recognising the single-letter word ``symbol``."""
    return NFA(
        [0, 1], [symbol], {0: [(symbol, 1)], 1: []}, initial=[0], accepting=[1]
    )


def epsilon_nfa():
    """NFA recognising {ε}."""
    return NFA([0], [], {0: []}, initial=[0], accepting=[0])


def empty_nfa():
    """NFA recognising the empty language."""
    return NFA([0], [], {0: []}, initial=[0], accepting=[])


def word_nfa(word):
    """NFA recognising exactly ``word``."""
    if not word:
        return epsilon_nfa()
    states = list(range(len(word) + 1))
    transitions = {i: [] for i in states}
    for i, symbol in enumerate(word):
        transitions[i].append((symbol, i + 1))
    return NFA(states, set(word), transitions, initial=[0], accepting=[len(word)])


def star_nfa(inner):
    """NFA for ``L(inner)*`` (fresh initial+accepting hub state)."""
    shifted, next_id = inner._relabel(0)
    hub = next_id
    transitions = {state: list(shifted._moves[state]) for state in shifted.states}
    transitions[hub] = [(EPSILON, target) for target in shifted.initial]
    for state in shifted.accepting:
        transitions[state].append((EPSILON, hub))
    return NFA(
        shifted.states | {hub},
        inner.alphabet,
        transitions,
        initial=[hub],
        accepting=[hub],
    )


def nfa_from_ast(node):
    """Thompson-style construction: regex AST -> NFA."""
    if isinstance(node, rx.Empty):
        return empty_nfa()
    if isinstance(node, rx.Epsilon):
        return epsilon_nfa()
    if isinstance(node, rx.Literal):
        return literal_nfa(node.symbol)
    if isinstance(node, rx.CharClass):
        result = literal_nfa(node.symbols[0])
        for symbol in node.symbols[1:]:
            result = result.union(literal_nfa(symbol))
        return result
    if isinstance(node, rx.Concat):
        result = nfa_from_ast(node.parts[0])
        for part in node.parts[1:]:
            result = result.concat(nfa_from_ast(part))
        return result
    if isinstance(node, rx.Union):
        result = nfa_from_ast(node.parts[0])
        for part in node.parts[1:]:
            result = result.union(nfa_from_ast(part))
        return result
    if isinstance(node, rx.Star):
        return star_nfa(nfa_from_ast(node.inner))
    if isinstance(node, rx.Plus):
        inner = nfa_from_ast(node.inner)
        return inner.concat(star_nfa(inner))
    if isinstance(node, rx.Optional):
        return nfa_from_ast(node.inner).union(epsilon_nfa())
    if isinstance(node, rx.Repeat):
        inner = nfa_from_ast(node.inner)
        required = inner.power(node.low)
        if node.high is None:
            return required.concat(star_nfa(inner))
        optional_tail = epsilon_nfa()
        for _ in range(node.high - node.low):
            optional_tail = epsilon_nfa().union(inner.concat(optional_tail))
        return required.concat(optional_tail)
    raise AutomatonError("unknown regex node %r" % (node,))
