"""Complete deterministic finite automata.

The paper's constructions all live on the *complete minimal DFA* ``A_L``
of a language (possibly including a sink state), so this class keeps the
transition function total over a fixed alphabet and offers:

* subset construction from an :class:`~repro.languages.nfa.NFA`,
* Moore partition-refinement minimisation,
* boolean products (∩, ∪, \\) and complement,
* emptiness / finiteness / universality / equivalence,
* quotient languages ``L_q`` (same automaton, different initial state),
* word enumeration and shortest-word extraction.

States are integers ``0 .. num_states-1``.
"""

from __future__ import annotations

from collections import deque

from ..errors import AutomatonError
from .analysis import strongly_connected_components


class DFA:
    """A complete DFA over a fixed alphabet."""

    def __init__(self, num_states, alphabet, transitions, initial, accepting):
        if num_states <= 0:
            raise AutomatonError("a DFA needs at least one state")
        self.num_states = num_states
        self.alphabet = frozenset(alphabet)
        self.initial = initial
        self.accepting = frozenset(accepting)
        self._delta = dict(transitions)
        #: Set by :meth:`minimized` on the automaton it builds, so that
        #: minimising it again returns it unchanged.
        self._minimal = False
        #: :meth:`is_finite`'s answer, once asked.
        self._finite = None
        if not 0 <= initial < num_states:
            raise AutomatonError("initial state out of range")
        for state in self.accepting:
            if not 0 <= state < num_states:
                raise AutomatonError("accepting state %r out of range" % (state,))
        for state in range(num_states):
            for symbol in self.alphabet:
                target = self._delta.get((state, symbol))
                if target is None:
                    raise AutomatonError(
                        "DFA is not complete: no transition (%r, %r)"
                        % (state, symbol)
                    )
                if not 0 <= target < num_states:
                    raise AutomatonError("transition target out of range")

    # -- basic queries -------------------------------------------------------

    def transition(self, state, symbol):
        """δ(state, symbol); raises for symbols outside the alphabet."""
        try:
            return self._delta[(state, symbol)]
        except KeyError:
            raise AutomatonError(
                "symbol %r not in alphabet %r" % (symbol, sorted(self.alphabet))
            ) from None

    def run_from(self, state, word):
        """State reached reading ``word`` from ``state`` (Δ(q, w))."""
        current = state
        for symbol in word:
            current = self.transition(current, symbol)
        return current

    def run(self, word):
        """State reached reading ``word`` from the initial state."""
        return self.run_from(self.initial, word)

    def accepts(self, word):
        """Language membership."""
        return self.run(word) in self.accepting

    def states(self):
        """Iterator over all states."""
        return range(self.num_states)

    def transitions(self):
        """Iterator over ``(state, symbol, target)`` triples."""
        for (state, symbol), target in self._delta.items():
            yield state, symbol, target

    # -- reachability ----------------------------------------------------------

    def reachable_states(self, start=None):
        """States reachable from ``start`` (default: the initial state)."""
        if start is None:
            start = self.initial
        seen = {start}
        queue = deque([start])
        while queue:
            state = queue.popleft()
            for symbol in self.alphabet:
                target = self._delta[(state, symbol)]
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen

    def co_reachable_states(self, targets=None):
        """States from which ``targets`` (default: accepting) are reachable."""
        if targets is None:
            targets = self.accepting
        predecessors = {state: set() for state in range(self.num_states)}
        for (state, _symbol), target in self._delta.items():
            predecessors[target].add(state)
        seen = set(targets)
        queue = deque(targets)
        while queue:
            state = queue.popleft()
            for pred in predecessors[state]:
                if pred not in seen:
                    seen.add(pred)
                    queue.append(pred)
        return seen

    def reaches(self, source, target):
        """True iff ``target`` ∈ Δ(source, Σ*)."""
        return target in self.reachable_states(source)

    # -- language-level predicates ----------------------------------------------

    def is_empty(self):
        """True iff L(A) = ∅."""
        return not (self.reachable_states() & self.accepting)

    def is_universal(self):
        """True iff L(A) = Σ*."""
        return not (
            self.reachable_states() & (set(self.states()) - self.accepting)
        )

    def is_finite(self):
        """True iff L(A) is a finite set of words.

        L is infinite iff some *useful* state (reachable and
        co-reachable) lies on a cycle.  A state lies on a cycle iff it
        has a self-loop or its strongly connected component holds two
        or more states, and every state of a useful state's component
        is useful too, so the cycle stays among useful states.  One
        SCC pass decides it; the answer is cached on the automaton,
        which never changes.
        """
        if self._finite is None:
            on_cycle = {
                state
                for (state, _symbol), target in self._delta.items()
                if state == target
            }
            for component in strongly_connected_components(self):
                if len(component) > 1:
                    on_cycle |= component
            useful = self.reachable_states() & self.co_reachable_states()
            self._finite = not (useful & on_cycle)
        return self._finite

    def shortest_accepted(self, start=None):
        """A shortest word accepted from ``start`` (default initial)."""
        if start is None:
            start = self.initial
        if start in self.accepting:
            return ""
        best = {start: ""}
        queue = deque([start])
        while queue:
            state = queue.popleft()
            for symbol in sorted(self.alphabet):
                target = self._delta[(state, symbol)]
                if target not in best:
                    best[target] = best[state] + symbol
                    if target in self.accepting:
                        return best[target]
                    queue.append(target)
        return None

    def enumerate_words(self, max_length, start=None):
        """Yield all accepted words of length ≤ ``max_length`` in
        length-lexicographic order, lazily.

        One depth-first walk per length on one stack: a prefix is
        extended only into states from which some word of exactly the
        remaining length is accepted, so every prefix visited ends in a
        word and no whole layer of prefixes is ever held.  Still
        exponential when the language itself has exponentially many
        short words.
        """
        if start is None:
            start = self.initial
        # Pushed in descending order, the symbols pop ascending.
        symbols = sorted(self.alphabet, reverse=True)
        rows = [
            [self._delta[(state, symbol)] for symbol in symbols]
            for state in self.states()
        ]
        # finishing[k]: the states from which some word of exactly k
        # letters is accepted.  Once empty it stays empty.
        finishing = [self.accepting]
        for length in range(max_length + 1):
            if length:
                previous = finishing[-1]
                finishing.append(frozenset(
                    state for state, row in enumerate(rows)
                    if not previous.isdisjoint(row)
                ))
            if not finishing[length]:
                return
            if start not in finishing[length]:
                continue
            stack = [("", start, length)]
            while stack:
                word, state, left = stack.pop()
                if not left:
                    yield word
                    continue
                remaining = finishing[left - 1]
                for symbol, target in zip(symbols, rows[state]):
                    if target in remaining:
                        stack.append((word + symbol, target, left - 1))

    def count_words_of_length(self, length, start=None):
        """Number of accepted words of exactly ``length`` letters."""
        if start is None:
            start = self.initial
        counts = {start: 1}
        for _ in range(length):
            next_counts = {}
            for state, count in counts.items():
                for symbol in self.alphabet:
                    target = self._delta[(state, symbol)]
                    next_counts[target] = next_counts.get(target, 0) + count
            counts = next_counts
        return sum(
            count for state, count in counts.items() if state in self.accepting
        )

    # -- derived automata ---------------------------------------------------------

    def with_initial(self, state):
        """Automaton for the quotient language L_q (same states)."""
        return DFA(
            self.num_states, self.alphabet, self._delta, state, self.accepting
        )

    def with_accepting(self, accepting):
        """Same automaton with a different accepting set."""
        return DFA(
            self.num_states, self.alphabet, self._delta, self.initial, accepting
        )

    def complement(self):
        """Automaton for Σ* \\ L (relies on completeness)."""
        others = set(self.states()) - self.accepting
        return self.with_accepting(others)

    def completed(self, alphabet):
        """Extend to a larger alphabet by adding a sink if necessary."""
        alphabet = frozenset(alphabet) | self.alphabet
        extra = alphabet - self.alphabet
        if not extra:
            return self
        sink = self.num_states
        transitions = dict(self._delta)
        for state in range(self.num_states):
            for symbol in extra:
                transitions[(state, symbol)] = sink
        for symbol in alphabet:
            transitions[(sink, symbol)] = sink
        return DFA(
            self.num_states + 1,
            alphabet,
            transitions,
            self.initial,
            self.accepting,
        )

    def product(self, other, combine):
        """Boolean product automaton.

        ``combine(acc_self, acc_other) -> bool`` selects accepting pairs;
        pass ``and`` semantics for intersection, ``or`` for union, etc.
        Both automata are first completed over the joint alphabet.
        """
        alphabet = self.alphabet | other.alphabet
        left = self.completed(alphabet)
        right = other.completed(alphabet)
        index = {}
        transitions = {}
        accepting = set()
        start = (left.initial, right.initial)
        index[start] = 0
        queue = deque([start])
        while queue:
            pair = queue.popleft()
            state = index[pair]
            if combine(pair[0] in left.accepting, pair[1] in right.accepting):
                accepting.add(state)
            for symbol in alphabet:
                next_pair = (
                    left._delta[(pair[0], symbol)],
                    right._delta[(pair[1], symbol)],
                )
                if next_pair not in index:
                    index[next_pair] = len(index)
                    queue.append(next_pair)
                transitions[(state, symbol)] = index[next_pair]
        # Second pass: transitions reference final indices.
        return DFA(len(index), alphabet, transitions, 0, accepting)

    def intersection(self, other):
        """Automaton for L ∩ L'."""
        return self.product(other, lambda a, b: a and b)

    def union(self, other):
        """Automaton for L ∪ L'."""
        return self.product(other, lambda a, b: a or b)

    def difference(self, other):
        """Automaton for L \\ L'."""
        return self.product(other, lambda a, b: a and not b)

    def symmetric_difference(self, other):
        """Automaton for (L \\ L') ∪ (L' \\ L)."""
        return self.product(other, lambda a, b: a != b)

    def equivalent(self, other):
        """Language equality test via symmetric-difference emptiness."""
        return self.symmetric_difference(other).is_empty()

    def contains_language(self, other):
        """True iff L(other) ⊆ L(self)."""
        return other.difference(self).is_empty()

    def reverse_nfa(self):
        """NFA for the reversed language (used for reversal closure tests)."""
        from .nfa import NFA

        transitions = {state: [] for state in self.states()}
        for (state, symbol), target in self._delta.items():
            transitions[target].append((symbol, state))
        return NFA(
            self.states(),
            self.alphabet,
            transitions,
            initial=self.accepting,
            accepting=[self.initial],
        )

    # -- minimisation ----------------------------------------------------------

    def trimmed_complete(self):
        """Restrict to reachable states (keeps completeness)."""
        reachable = sorted(self.reachable_states())
        index = {state: i for i, state in enumerate(reachable)}
        transitions = {}
        for state in reachable:
            for symbol in self.alphabet:
                transitions[(index[state], symbol)] = index[
                    self._delta[(state, symbol)]
                ]
        accepting = {index[s] for s in self.accepting if s in index}
        return DFA(
            len(reachable),
            self.alphabet,
            transitions,
            index[self.initial],
            accepting,
        )

    def minimized(self):
        """The minimal complete DFA for the same language.

        Moore partition refinement over the reachable part.  States of the
        result are numbered in BFS order from the initial state so the
        output is canonical for a fixed alphabet ordering.  The result
        records that it is minimal: minimising it again returns it
        (the same canonical automaton a second pass would rebuild).
        """
        if self._minimal:
            return self
        trimmed = self.trimmed_complete()
        symbols = sorted(trimmed.alphabet)
        # Initial partition: accepting vs non-accepting.
        block_of = [
            0 if state in trimmed.accepting else 1
            for state in range(trimmed.num_states)
        ]
        if not trimmed.accepting:
            block_of = [0] * trimmed.num_states
        while True:
            signatures = {}
            new_block_of = [0] * trimmed.num_states
            for state in range(trimmed.num_states):
                signature = (
                    block_of[state],
                    tuple(
                        block_of[trimmed._delta[(state, symbol)]]
                        for symbol in symbols
                    ),
                )
                if signature not in signatures:
                    signatures[signature] = len(signatures)
                new_block_of[state] = signatures[signature]
            if new_block_of == block_of:
                break
            block_of = new_block_of
        # Renumber canonically by BFS from the initial block.
        order = {}
        queue = deque([block_of[trimmed.initial]])
        order[block_of[trimmed.initial]] = 0
        representatives = {}
        for state in range(trimmed.num_states):
            representatives.setdefault(block_of[state], state)
        while queue:
            block = queue.popleft()
            rep = representatives[block]
            for symbol in symbols:
                next_block = block_of[trimmed._delta[(rep, symbol)]]
                if next_block not in order:
                    order[next_block] = len(order)
                    queue.append(next_block)
        transitions = {}
        accepting = set()
        for block, position in order.items():
            rep = representatives[block]
            if rep in trimmed.accepting:
                accepting.add(position)
            for symbol in symbols:
                target_block = block_of[trimmed._delta[(rep, symbol)]]
                transitions[(position, symbol)] = order[target_block]
        minimal = DFA(
            len(order),
            trimmed.alphabet,
            transitions,
            0,
            accepting,
        )
        minimal._minimal = True
        return minimal

    def is_minimal(self):
        """True iff this automaton is already minimal (state count check)."""
        return self.minimized().num_states == self.num_states == len(
            self.reachable_states()
        )

    # -- misc --------------------------------------------------------------------

    def __repr__(self):
        return "DFA(states=%d, alphabet=%s, accepting=%s)" % (
            self.num_states,
            "".join(sorted(self.alphabet)),
            sorted(self.accepting),
        )


def from_nfa(nfa, alphabet=None):
    """Subset construction: NFA -> complete DFA.

    ``alphabet`` may extend the NFA's own alphabet (a sink absorbs the
    extra symbols).  The result is *not* minimised.
    """
    if alphabet is None:
        alphabet = nfa.alphabet
    alphabet = frozenset(alphabet) | nfa.alphabet
    if not alphabet:
        # Degenerate case: language over the empty alphabet is {} or {ε}.
        accepting = [0] if not nfa.is_empty() else []
        return DFA(1, [], {}, 0, accepting)
    start = nfa.epsilon_closure(nfa.initial)
    index = {start: 0}
    transitions = {}
    accepting = set()
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        state = index[subset]
        if subset & nfa.accepting:
            accepting.add(state)
        for symbol in alphabet:
            target = nfa.step(subset, symbol)
            if target not in index:
                index[target] = len(index)
                queue.append(target)
            transitions[(state, symbol)] = index[target]
    return DFA(len(index), alphabet, transitions, 0, accepting)


def dfa_from_words(words, alphabet=None):
    """Minimal DFA for a finite language given as an iterable of words."""
    from .nfa import word_nfa, empty_nfa

    words = list(words)
    if alphabet is None:
        alphabet = {symbol for word in words for symbol in word}
    if not words:
        return from_nfa(empty_nfa(), alphabet).minimized()
    nfa = word_nfa(words[0])
    for word in words[1:]:
        nfa = nfa.union(word_nfa(word))
    return from_nfa(nfa, alphabet).minimized()
