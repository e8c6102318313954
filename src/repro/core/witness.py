"""Property-(1) witnesses for languages outside trC (Lemma 4).

A *hardness witness* is a tuple ``(q1, q2, wl, w1, wm, w2, wr)`` of
states and words of the minimal DFA such that

1. ``Δ(i_L, wl) = q1``,
2. ``w1 ∈ Loop(q1)`` (non-empty),
3. ``Δ(q1, wm) = q2`` with ``wm`` non-empty,
4. ``w2 ∈ Loop(q2)`` (non-empty),
5. ``Δ(q2, wr) ∈ F_L``  (hence ``wl w1^j wm w2^i wr ∈ L`` for all i, j),
6. ``(w1 + w2)* wr ∩ L_{q1} = ∅``.

Conditions 5 and 6 are exactly Property (1) of Lemma 4 instantiated so
the Lemma-5 reduction from Vertex-Disjoint-Path goes through verbatim;
:mod:`repro.algorithms.reductions` consumes these witnesses.  Lemma 4
guarantees a witness exists whenever ``L ∉ trC``.

The search is guided: candidate loop words per state (shortest loop
through each outgoing letter, their powers, and shortest *common* loops
for same-SCC state pairs), shortest connecting words, and candidate
``wr`` of the form ``w2^j · u``.  Every candidate is *verified*
exactly, by walks on the DFA, so a returned witness is always correct;
the guided enumeration is validated against the whole catalog in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..errors import ReproError
from ..languages.analysis import looping_states
from .trc import _as_minimal_dfa, is_in_trc


@dataclass(frozen=True)
class HardnessWitness:
    """A verified Property-(1) witness; see the module docstring."""

    q1: int
    q2: int
    wl: str
    w1: str
    wm: str
    w2: str
    wr: str

    def words(self):
        """The word components ``(wl, w1, wm, w2, wr)``."""
        return (self.wl, self.w1, self.wm, self.w2, self.wr)

    def __str__(self):
        return (
            "HardnessWitness(wl=%r, w1=%r, wm=%r, w2=%r, wr=%r; "
            "q1=%d, q2=%d)"
            % (self.wl, self.w1, self.wm, self.w2, self.wr, self.q1, self.q2)
        )


def verify_witness(dfa, witness):
    """Check all six witness conditions exactly; returns bool."""
    q1, q2 = witness.q1, witness.q2
    wl, w1, wm, w2, wr = witness.words()
    if not w1 or not wm or not w2:
        return False
    if dfa.run(wl) != q1:
        return False
    if dfa.run_from(q1, w1) != q1:
        return False
    if dfa.run_from(q1, wm) != q2:
        return False
    if dfa.run_from(q2, w2) != q2:
        return False
    if dfa.run_from(q2, wr) not in dfa.accepting:
        return False
    return _loops_then_wr_avoids(dfa, q1, w1, w2, wr)


def _loops_then_wr_avoids(dfa, q1, w1, w2, wr):
    """True iff ``(w1 + w2)* wr ∩ L_{q1} = ∅`` (condition 6): no state
    that ``(w1 + w2)*`` leads to from ``q1`` reads ``wr`` into an
    accepting state.  Those states are the closure of ``{q1}`` under
    reading ``w1`` and reading ``w2``: at most ``|Q|`` of them."""
    seen = {q1}
    stack = [q1]
    while stack:
        state = stack.pop()
        if dfa.run_from(state, wr) in dfa.accepting:
            return False
        for loop in (w1, w2):
            after = dfa.run_from(state, loop)
            if after not in seen:
                seen.add(after)
                stack.append(after)
    return True


def _shortest_word_between(dfa, source, target, require_nonempty=False):
    """Shortest word with ``Δ(source, word) = target`` (or ``None``)."""
    if source == target and not require_nonempty:
        return ""
    best = {source: ""}
    from collections import deque

    queue = deque([source])
    # Standard BFS, except the start state may be re-entered (loops).
    while queue:
        state = queue.popleft()
        for symbol in sorted(dfa.alphabet):
            next_state = dfa.transition(state, symbol)
            word = best[state] + symbol
            if next_state == target:
                return word
            if next_state not in best:
                best[next_state] = word
                queue.append(next_state)
    return None


def _loop_candidates(dfa, state, max_power):
    """Candidate loop words for ``state``: the shortest loop through each
    outgoing letter, plus powers up to ``max_power``."""
    basics = []
    for symbol in sorted(dfa.alphabet):
        after = dfa.transition(state, symbol)
        back = _shortest_word_between(dfa, after, state)
        if back is not None:
            loop = symbol + back
            if loop not in basics:
                basics.append(loop)
    candidates = []
    for loop in basics:
        for power in range(1, max_power + 1):
            word = loop * power
            if word not in candidates:
                candidates.append(word)
    return candidates


def _common_loop(dfa, state_a, state_b, length_bound):
    """Shortest non-empty word looping on *both* states, or ``None``.

    BFS over state pairs from ``(state_a, state_b)`` back to itself.
    """
    from collections import deque

    start = (state_a, state_b)
    best = {start: ""}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        word = best[pair]
        if len(word) >= length_bound:
            continue
        for symbol in sorted(dfa.alphabet):
            next_pair = (
                dfa.transition(pair[0], symbol),
                dfa.transition(pair[1], symbol),
            )
            next_word = word + symbol
            if next_pair == start:
                return next_word
            if next_pair not in best:
                best[next_pair] = next_word
                queue.append(next_pair)
    return None


def _wr_candidates(dfa, q2, w2, max_loops, per_target=3):
    """Candidate ``wr`` words: ``w2^j · u`` with ``Δ(q2, u) ∈ F``.

    ``u`` ranges over a few shortest accepted words from ``Δ(q2, w2^j)``
    (= ``q2``), gathered by BFS with multiple targets.
    """
    suffixes = []
    shortest = dfa.shortest_accepted(start=q2)
    if shortest is not None:
        suffixes.append(shortest)
    # A couple of longer alternatives: shortest through each first letter.
    for symbol in sorted(dfa.alphabet):
        after = dfa.transition(q2, symbol)
        tail = dfa.shortest_accepted(start=after)
        if tail is not None:
            candidate = symbol + tail
            if candidate not in suffixes:
                suffixes.append(candidate)
        if len(suffixes) >= per_target + 1:
            break
    words = []
    for loops in range(max_loops + 1):
        for suffix in suffixes:
            word = w2 * loops + suffix
            if word not in words:
                words.append(word)
    return words


def find_hardness_witness(lang_or_dfa, max_power=None):
    """Find and verify a Property-(1) witness for ``L ∉ trC``.

    Returns a :class:`HardnessWitness`, or ``None`` when ``L ∈ trC``.
    Raises :class:`ReproError` if ``L ∉ trC`` but the guided search
    exhausts its candidates (not observed on any catalog language; the
    error asks for a report rather than silently looping).
    """
    dfa = _as_minimal_dfa(lang_or_dfa)
    if is_in_trc(dfa):
        return None
    M = dfa.num_states
    if max_power is None:
        max_power = max(2, M)
    loops = looping_states(dfa)
    reach_from_initial = dfa.reachable_states()
    for q1 in sorted(loops & reach_from_initial):
        wl = _shortest_word_between(dfa, dfa.initial, q1)
        if wl is None:
            continue
        w1_candidates = _loop_candidates(dfa, q1, max_power)
        for q2 in sorted(loops & dfa.reachable_states(q1)):
            if q1 == q2:
                wm_base = None
            else:
                wm_base = _shortest_word_between(dfa, q1, q2)
                if wm_base is None:
                    continue
            w2_candidates = _loop_candidates(dfa, q2, max_power)
            common = _common_loop(dfa, q1, q2, length_bound=2 * M * M)
            if common is not None:
                for power in range(1, max_power + 1):
                    word = common * power
                    if word not in w1_candidates:
                        w1_candidates.append(word)
                    if word not in w2_candidates:
                        w2_candidates.append(word)
            for w1 in w1_candidates:
                if dfa.run_from(q1, w1) != q1:
                    continue
                wm = wm_base if wm_base else w1
                if not wm:
                    continue
                if dfa.run_from(q1, wm) != q2:
                    continue
                for w2 in w2_candidates:
                    if dfa.run_from(q2, w2) != q2:
                        continue
                    for wr in _wr_candidates(dfa, q2, w2, max_loops=M):
                        witness = HardnessWitness(q1, q2, wl, w1, wm, w2, wr)
                        if verify_witness(dfa, witness):
                            return witness
    raise ReproError(
        "L is not in trC but the guided witness search failed; "
        "please report the language (increase max_power as a workaround)"
    )
