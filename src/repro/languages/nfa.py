"""Nondeterministic finite automata with ε-transitions.

This module provides the NFA data structure used as the bridge between
regular expressions and DFAs, plus the automaton combinators the paper's
constructions require (concatenation powers for bounded repetition,
products with DFAs for emptiness tests without determinization,
reversal, ...).

States of an NFA handed to the constructor are opaque hashable objects;
``None`` is the ε symbol.  The Thompson construction and every
combinator build through an :class:`NfaBuilder` instead: it numbers
states 0, 1, 2, … as it makes them and appends their arcs to one list,
each regex node and each operand goes in once, and nothing it builds
is validated again.  Building an automaton therefore takes time linear
in its size: a word of n letters has n + 1 states, ``(a+b){n}`` has
2n + 1.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Mapping
from functools import partial
from typing import TYPE_CHECKING, Any

from ..errors import AutomatonError
from .regex import ast as rx

if TYPE_CHECKING:
    from .dfa import DFA

EPSILON = None

#: One ``(symbol, target)`` move; the symbol ``None`` is ε.  A state
#: is any hashable object.
Arc = tuple[str | None, Any]

#: Emits a sub-automaton from an entry state of a builder and returns
#: the state it ends in (see :class:`NfaBuilder`).
Emitter = Callable[[int], int]


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

    states: frozenset[Hashable]
    alphabet: frozenset[str]
    initial: frozenset[Hashable]
    accepting: frozenset[Hashable]
    _moves: dict[Any, list[Arc]]

    def __init__(
        self,
        states: Iterable[Hashable],
        alphabet: Iterable[str],
        transitions: Mapping[Any, Iterable[Arc]],
        initial: Iterable[Hashable],
        accepting: Iterable[Hashable],
    ) -> None:
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
                if symbol is not None and symbol not in self.alphabet:
                    raise AutomatonError("unknown symbol %r" % (symbol,))
                self._moves[state].append((symbol, target))
        missing = (self.initial | self.accepting) - self.states
        if missing:
            raise AutomatonError("unknown initial/accepting states %r" % (missing,))

    @classmethod
    def _trusted(
        cls,
        moves: dict[Any, list[Arc]],
        alphabet: Iterable[str],
        initial: Iterable[Hashable],
        accepting: Iterable[Hashable],
    ) -> NFA:
        """An NFA over exactly the states keyed in ``moves``, taken as
        they are: for automata this module derived from valid ones."""
        nfa = cls.__new__(cls)
        nfa.states = frozenset(moves)
        nfa.alphabet = frozenset(alphabet)
        nfa.initial = frozenset(initial)
        nfa.accepting = frozenset(accepting)
        nfa._moves = moves
        return nfa

    # -- basic queries -------------------------------------------------------

    def arcs_from(self, state: Hashable) -> list[Arc]:
        """List of ``(symbol, target)`` pairs leaving ``state``."""
        return list(self._moves[state])

    def num_states(self) -> int:
        return len(self.states)

    def epsilon_closure(self, states: Iterable[Hashable]) -> frozenset[Hashable]:
        """All states reachable from ``states`` by ε-moves alone."""
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for symbol, target in self._moves[state]:
                if symbol is None and target not in closure:
                    closure.add(target)
                    stack.append(target)
        return frozenset(closure)

    def step(self, states: Iterable[Hashable], symbol: str) -> frozenset[Hashable]:
        """ε-closure of the states reachable by one ``symbol`` move."""
        direct = set()
        for state in states:
            for move_symbol, target in self._moves[state]:
                if move_symbol == symbol:
                    direct.add(target)
        return self.epsilon_closure(direct)

    def accepts(self, word: str) -> bool:
        """Membership test by on-the-fly subset simulation."""
        current = self.epsilon_closure(self.initial)
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self.accepting)

    # -- language queries ----------------------------------------------------

    def is_empty(self) -> bool:
        """True iff the recognised language is empty."""
        return self.shortest_accepted() is None

    def shortest_accepted(self) -> str | None:
        """A shortest accepted word, or ``None`` if the language is empty.

        Uses 0-1 BFS: ε-arcs cost nothing and are expanded first so words
        are discovered in nondecreasing length order.
        """
        best: dict[Hashable, str] = {}
        queue: deque[Hashable] = deque()
        for state in self.epsilon_closure(self.initial):
            best[state] = ""
            queue.append(state)
        while queue:
            state = queue.popleft()
            word = best[state]
            if state in self.accepting:
                return word
            for symbol, target in self._moves[state]:
                next_word = word if symbol is None else word + symbol
                if target in best and len(best[target]) <= len(next_word):
                    continue
                best[target] = next_word
                if symbol is None:
                    queue.appendleft(target)
                else:
                    queue.append(target)
        return None

    # -- combinators ----------------------------------------------------------

    def reverse(self) -> NFA:
        """NFA for the reversed language."""
        moves: dict[Any, list[Arc]] = {state: [] for state in self.states}
        for state, arcs in self._moves.items():
            for symbol, target in arcs:
                moves[target].append((symbol, state))
        return NFA._trusted(moves, self.alphabet, self.accepting, self.initial)

    def concat(self, other: NFA) -> NFA:
        """NFA for the concatenation ``L(self) · L(other)``."""
        builder = NfaBuilder()
        initial, left_accepting = builder.copy(self)
        right_initial, accepting = builder.copy(other)
        for state in left_accepting:
            for target in right_initial:
                builder.arc(state, None, target)
        return builder.build(initial, accepting)

    def union(self, other: NFA) -> NFA:
        """NFA for ``L(self) ∪ L(other)``."""
        builder = NfaBuilder()
        left_initial, left_accepting = builder.copy(self)
        right_initial, right_accepting = builder.copy(other)
        return builder.build(
            left_initial + right_initial, left_accepting + right_accepting
        )

    def power(self, exponent: int) -> NFA:
        """NFA for ``L(self)^exponent`` (``exponent >= 0``)."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        builder = NfaBuilder()
        builder.alphabet.update(self.alphabet)
        start = builder.state()
        ends = [start]
        for _ in range(exponent):
            initial, accepting = builder.copy(self)
            for state in ends:
                for target in initial:
                    builder.arc(state, None, target)
            ends = accepting
        return builder.build([start], ends)

    def intersect_dfa(
        self,
        dfa: DFA,
        dfa_initial: int | None = None,
        dfa_accepting: Iterable[int] | None = None,
    ) -> NFA:
        """NFA for ``L(self) ∩ L'`` where ``L'`` is a DFA language.

        ``dfa_initial``/``dfa_accepting`` override the DFA's own initial
        state and accepting set, which lets callers intersect with a
        quotient language ``L_q`` or its complement without building new
        DFA objects.
        """
        start_q = dfa.initial if dfa_initial is None else dfa_initial
        finals = dfa.accepting if dfa_accepting is None else frozenset(dfa_accepting)
        start_states = [(state, start_q) for state in self.initial]
        pairs = list(start_states)
        moves: dict[Any, list[Arc]] = {pair: [] for pair in pairs}
        # Breadth first: the loop also visits the pairs it appends.
        for nfa_state, dfa_state in pairs:
            arcs = moves[nfa_state, dfa_state]
            for symbol, target in self._moves[nfa_state]:
                if symbol is None:
                    pair = (target, dfa_state)
                elif symbol in dfa.alphabet:
                    pair = (target, dfa.transition(dfa_state, symbol))
                else:
                    continue
                if pair not in moves:
                    moves[pair] = []
                    pairs.append(pair)
                arcs.append((symbol, pair))
        accepting = [
            (nfa_state, dfa_state) for nfa_state, dfa_state in pairs
            if nfa_state in self.accepting and dfa_state in finals
        ]
        return NFA._trusted(moves, self.alphabet, start_states, accepting)


class NfaBuilder:
    """Builds one NFA whose states are the integers 0, 1, 2, …

    :meth:`state` makes a state and :meth:`arc` adds a move.  The
    emitting methods (:meth:`emit` for a regex, :meth:`letters`,
    :meth:`union`, :meth:`star`, :meth:`plus` and :meth:`optional`)
    add a sub-automaton that reads its language from a given ``entry``
    state and return the state it ends in.  An emission only adds arcs
    out of ``entry`` or out of states it made, into states it made, so
    a path that leaves ``entry`` through them never comes back to a
    state that existed before: emissions chain into concatenations
    (each one's end is the next one's entry) and share an entry as
    union branches without mixing their languages.  Words on the paths
    from an emission's entry to its end, over its own arcs, are its
    language; a path may pass the end and come back to it.

    :meth:`copy` adds a whole NFA, and :meth:`build` hands the states
    and arcs over to an :class:`NFA`, after which the builder is done.
    """

    def __init__(self) -> None:
        self.moves: list[list[Arc]] = []
        #: The NFA's alphabet: every letter an arc reads, and whatever
        #: callers add (a regex's letters under a zero repetition).
        self.alphabet: set[str] = set()

    def state(self) -> int:
        """A new state with no arcs."""
        self.moves.append([])
        return len(self.moves) - 1

    def arc(self, source: int, symbol: str | None, target: int) -> None:
        """The move ``source --symbol--> target`` (``None``: ε)."""
        self.moves[source].append((symbol, target))
        if symbol is not None:
            self.alphabet.add(symbol)

    def build(self, initial: Iterable[int], accepting: Iterable[int]) -> NFA:
        """The NFA of every state made so far."""
        moves: dict[Any, list[Arc]] = dict(enumerate(self.moves))
        return NFA._trusted(moves, self.alphabet, initial, accepting)

    def copy(self, nfa: NFA) -> tuple[list[int], list[int]]:
        """Add a copy of ``nfa``; its initial and accepting states here."""
        offset = len(self.moves)
        ids = {state: offset + index for index, state in enumerate(nfa.states)}
        self.moves.extend(
            [(symbol, ids[target]) for symbol, target in nfa._moves[state]]
            for state in nfa.states
        )
        self.alphabet.update(nfa.alphabet)
        return (
            [ids[state] for state in nfa.initial],
            [ids[state] for state in nfa.accepting],
        )

    # -- emissions -------------------------------------------------------------

    def letters(self, entry: int, symbols: Iterable[str]) -> int:
        """Emit one letter, any of ``symbols``."""
        end = self.state()
        for symbol in symbols:
            self.arc(entry, symbol, end)
        return end

    def _join(self, mark: int, ends: list[int]) -> int:
        """One end for the emissions ending in ``ends``, all made from
        state ``mark`` on: the first of them that is new and has no arc
        out, else a new state, with an ε-arc from each other end."""
        joined = next(
            (end for end in ends if end >= mark and not self.moves[end]), None
        )
        if joined is None:
            joined = self.state()
        for end in ends:
            if end != joined:
                self.arc(end, None, joined)
        return joined

    def union(self, entry: int, branches: Iterable[Emitter]) -> int:
        """Emit the union of the ``branches``, each from ``entry``."""
        mark = len(self.moves)
        return self._join(mark, [branch(entry) for branch in branches])

    def optional(self, entry: int, body: Emitter) -> int:
        """Emit ``body + ε``."""
        mark = len(self.moves)
        end = body(entry)
        if end == entry:
            return end
        return self._join(mark, [end, entry])

    def _loop(self, entry: int, body: Emitter) -> tuple[int, int]:
        """Emit ``body`` from a new hub state with an ε-arc from its
        end back to the hub; the hub and that end."""
        hub = self.state()
        self.arc(entry, None, hub)
        end = body(hub)
        if end != hub:
            self.arc(end, None, hub)
        return hub, end

    def star(self, entry: int, body: Emitter) -> int:
        """Emit ``body*``: the loop, ending at its hub."""
        return self._loop(entry, body)[0]

    def plus(self, entry: int, body: Emitter) -> int:
        """Emit ``body⁺``: the loop, ending where ``body`` ends."""
        return self._loop(entry, body)[1]

    def emit(self, node: rx.RegexNode, entry: int) -> int:
        """Emit the regex ``node`` (Thompson's construction)."""
        if isinstance(node, rx.Literal):
            return self.letters(entry, node.symbol)
        if isinstance(node, rx.CharClass):
            return self.letters(entry, node.symbols)
        if isinstance(node, rx.Epsilon):
            return entry
        if isinstance(node, rx.Empty):
            return self.state()
        if isinstance(node, rx.Concat):
            for part in node.parts:
                entry = self.emit(part, entry)
            return entry
        if isinstance(node, rx.Union):
            return self.union(
                entry, [partial(self.emit, part) for part in node.parts]
            )
        if isinstance(node, rx.Star):
            return self.star(entry, partial(self.emit, node.inner))
        if isinstance(node, rx.Plus):
            return self.plus(entry, partial(self.emit, node.inner))
        if isinstance(node, rx.Optional):
            return self.optional(entry, partial(self.emit, node.inner))
        if isinstance(node, rx.Repeat):
            for _ in range(node.low):
                entry = self.emit(node.inner, entry)
            if node.high is None:
                return self.star(entry, partial(self.emit, node.inner))
            if node.high == node.low:
                return entry
            # (X(X(…)?)?)? unrolled: each copy may stop at one end state.
            end = self.state()
            for _ in range(node.high - node.low):
                self.arc(entry, None, end)
                entry = self.emit(node.inner, entry)
            self.arc(entry, None, end)
            return end
        raise AutomatonError("unknown regex node %r" % (node,))


def literal_nfa(symbol: str) -> NFA:
    """NFA recognising the single-letter word ``symbol``."""
    builder = NfaBuilder()
    start = builder.state()
    return builder.build([start], [builder.letters(start, [symbol])])


def epsilon_nfa() -> NFA:
    """NFA recognising {ε}."""
    return word_nfa("")


def empty_nfa() -> NFA:
    """NFA recognising the empty language."""
    builder = NfaBuilder()
    return builder.build([builder.state()], [])


def word_nfa(word: str) -> NFA:
    """NFA recognising exactly ``word``."""
    builder = NfaBuilder()
    start = end = builder.state()
    for symbol in word:
        end = builder.letters(end, symbol)
    return builder.build([start], [end])


def star_nfa(inner: NFA) -> NFA:
    """NFA for ``L(inner)*`` (fresh initial+accepting hub state)."""
    builder = NfaBuilder()
    hub = builder.state()
    initial, accepting = builder.copy(inner)
    for target in initial:
        builder.arc(hub, None, target)
    for state in accepting:
        builder.arc(state, None, hub)
    return builder.build([hub], [hub])


def nfa_from_ast(node: rx.RegexNode) -> NFA:
    """Thompson-style construction: regex AST -> NFA, in one emission.

    The alphabet is every letter ``node`` names, read or not (``a{0}``
    keeps ``a``).
    """
    builder = NfaBuilder()
    builder.alphabet.update(node.alphabet())
    start = builder.state()
    end = builder.emit(node, start)
    return builder.build([start], [end])
