"""The tractable fragment trC (Definition 1) and its decision procedure.

Definition 1: ``L ∈ trC(i)`` iff for all words ``wl, wm, wr`` and all
non-empty ``w1, w2``: ``wl w1^i wm w2^i wr ∈ L  ⇒  wl w1^i w2^i wr ∈ L``;
``trC = ∪_i trC(i)``.

Membership is decided on the minimal DFA (states Q, ``M = |Q|``) by
the characterisation of Lemma 6, refined by the Theorem-3 appendix
algorithm:

    L ∈ trC  ⟺  for every pair of states ``q1, q2`` with
    ``Loop(q1) ≠ ∅``, ``Loop(q2) ≠ ∅`` and ``q2 ∈ Δ(q1, Σ*)``:
    ``Loop(q2)^M · L_{q2}  ⊆  L_{q1}``

Each part of that condition is a reachability question in the DFA's
*pair graph*: a node ``(q, p)`` for each pair of states and an edge
``(q, p) → (δ(q, a), δ(p, a))`` for each letter ``a``.
:func:`violating_pairs` condenses the pair graph and closes it once,
with the graph layer's :func:`~repro.graphs.reach.condense` and
:func:`~repro.graphs.reach.closure`.  Then:

* ``L_q ⊆ L_p`` iff ``(q, p)`` reaches no pair (accepting, rejecting);
* ``p' ∈ Δ(p, Loop(q2))`` iff ``(q2, p)`` reaches a pair with an edge
  into ``(q2, p')``;
* the diagonal pair ``(q, q)`` moves exactly like ``q``, so ``q``
  reaches ``p`` iff ``(q, q)`` reaches ``(p, p)``, and ``Loop(q)``
  has a word ending in the letter ``a`` iff ``(q, q)`` reaches a
  diagonal pair ``(p, p)`` with ``δ(p, a) = q``.

The second relation carries ``S_j = Δ(q1, Loop(q2)^j)`` to ``S_{j+1}``.
``Loop(q2)`` is closed under concatenation, so ``Loop(q2)^{j+1} ⊆
Loop(q2)^j`` and the sets shrink once ``j ≥ 1``: the iteration stops
when ``S_j`` stops changing, or at ``j = M``.  ``(q1, q2)`` violates
the condition iff some ``p ∈ S_M`` has ``L_{q2} ⊄ L_p``.

The vertex-labelled variants (Definitions 5 and 6, :mod:`repro.core.vlg`)
keep only the loops whose last letter lies in one group of letters.
They read the same closure, through the edges of that group's letters.

Cost: ``|Q|²`` pair nodes, ``|Q|²·|Σ|`` edges, and a closure of up to
``|Q|²`` rows of ``|Q|²`` bits — ``|Q|⁴`` bits; the traced peak was
3.4 MB at 64 states and 26.5 MB at 128.  That is polynomial: the
deterministic shadow of the paper's NL algorithm (Theorem 3).

:func:`recognize_tractable_dfa`, :func:`recognize_tractable_nfa` and
:func:`recognize_tractable_regex` state the decision as Theorem 3 does,
from each representation of L, with a :class:`RecognitionReport` of
its cost.  A brute-force definitional check over bounded words is
provided as a cross-validation oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.reach import closure, condense, successor_map
from ..languages import Language
from ..languages.analysis import looping_states
from ..languages.dfa import DFA, from_nfa
from ..languages.nfa import NFA, nfa_from_ast
from ..languages.regex.parser import parse


def _as_minimal_dfa(lang_or_dfa):
    """Accept a Language or DFA and return the minimal complete DFA."""
    if isinstance(lang_or_dfa, Language):
        return lang_or_dfa.dfa
    if isinstance(lang_or_dfa, DFA):
        return lang_or_dfa.minimized()
    raise TypeError("expected a Language or DFA, got %r" % (lang_or_dfa,))


def violating_pairs(lang_or_dfa, groups=None):
    """Yield the state pairs ``(q1, q2)`` violating Lemma 6's condition.

    Empty iff ``L ∈ trC``.  ``groups`` maps each letter to its group
    (Definitions 5 and 6): ``(q1, q2)`` violates when, for a group ``g``
    in which both states have a loop ending, ``Loop_g(q2)^M · L_{q2}
    ⊄ L_{q1}``.  ``None`` puts every letter in one group, which is
    trC's own condition.  Pairs come ``q2`` ascending, then ``q1``
    ascending; the work for each ``q2`` waits until its pairs are asked
    for, so a caller that stops at the first pair skips the rest.
    """
    dfa = _as_minimal_dfa(lang_or_dfa)
    size = dfa.num_states
    letters = sorted(dfa.alphabet)
    if groups is None:
        groups = dict.fromkeys(letters, 0)
    moves = [
        [dfa.transition(q, letter) for q in dfa.states()] for letter in letters
    ]
    # Pair (q, p) is node q * size + p.  condense walks (label_id,
    # target) pairs; one dummy label suffices.
    successors = [
        [(0, move[q] * size + move[p]) for move in moves]
        for q in dfa.states()
        for p in dfa.states()
    ]
    comp_of, num_comps, label_edges = condense(
        size * size, successors.__getitem__
    )
    rows = closure(
        num_comps, [successor_map(edges) for edges in label_edges]
    )
    rejecting = set(dfa.states()) - dfa.accepting
    bad = 0
    for q in dfa.accepting:
        for p in rejecting:
            bad |= 1 << comp_of[q * size + p]
    # State q as its diagonal pair's component: q reaches p iff
    # rows[diagonal[q]] holds diagonal[p].
    diagonal = [comp_of[q * size + q] for q in dfa.states()]
    # closing[g][q]: the diagonal pairs (p, p) with a move from p to q
    # on a letter of group g.  Loop_g(q) ≠ ∅ iff q reaches one of them.
    closing = {}
    for letter, move in zip(letters, moves):
        bits = closing.setdefault(groups[letter], [0] * size)
        for p in dfa.states():
            bits[move[p]] |= 1 << diagonal[p]
    loop_groups = [
        {g for g, bits in closing.items() if rows[diagonal[q]] & bits[q]}
        for q in dfa.states()
    ]
    loopers = [q for q in dfa.states() if loop_groups[q]]
    for q2 in loopers:
        reach = [rows[comp_of[q2 * size + p]] for p in dfa.states()]
        # Bit p: L_{q2} ⊄ L_p.
        excluded = sum(1 << p for p in dfa.states() if reach[p] & bad)
        if not excluded:
            continue
        images = {}
        for q1 in loopers:
            if not rows[diagonal[q1]] >> diagonal[q2] & 1:
                continue
            for group in sorted(loop_groups[q1] & loop_groups[q2]):
                if group not in images:
                    group_moves = [
                        move for letter, move in zip(letters, moves)
                        if groups[letter] == group
                    ]
                    images[group] = _one_loop_images(
                        group_moves, q2, reach, comp_of
                    )
                if _power_image(images[group], q1, size) & excluded:
                    yield q1, q2
                    break


def _one_loop_images(moves, q2, reach, comp_of):
    """Entry ``p``, bit ``p'``: ``p' ∈ Δ(p, Loop_g(q2))``.

    ``moves`` are the transition lists of the letters of ``g`` and
    ``reach[p]`` the closure row of the pair ``(q2, p)``: ``p'`` is in
    the image when that row meets a pair with a ``g`` edge into
    ``(q2, p')``.
    """
    size = len(reach)
    # into[p']: the components of the pairs with a g edge into (q2, p').
    into = [0] * size
    for move in moves:
        for x in range(size):
            if move[x] == q2:
                for y in range(size):
                    into[move[y]] |= 1 << comp_of[x * size + y]
    return [
        sum(1 << target for target in range(size) if row & into[target])
        for row in reach
    ]


def _power_image(images, start, power):
    """``Δ(start, Loop_g(q2)^power)`` as a bitset, from the one-loop
    ``images`` of :func:`_one_loop_images`.  The sets shrink from the
    first power on, so the loop stops early at a fixed point."""
    states = images[start]
    for _ in range(power - 1):
        following = 0
        rest = states
        while rest:
            low = rest & -rest
            following |= images[low.bit_length() - 1]
            rest ^= low
        if following == states:
            break
        states = following
    return states


def is_in_trc(lang_or_dfa):
    """Decide ``L ∈ trC`` (Lemma 6 characterisation on the minimal DFA).

    Accepts a :class:`~repro.languages.Language` or a raw
    :class:`~repro.languages.dfa.DFA` (minimised internally).
    """
    return next(violating_pairs(lang_or_dfa), None) is None


# -- recognition (Theorem 3) --------------------------------------------------


@dataclass
class RecognitionReport:
    """Outcome of a tractability-recognition run.

    ``input_states`` counts the DFA the decision started from: the
    caller's own, or the subset construction of an NFA or regex, whose
    size is then ``nfa_states``.
    """

    tractable: bool
    input_states: int
    minimal_states: int
    pairs_checked: int
    violating_pair: tuple = None
    nfa_states: int = None

    @property
    def determinized_states(self):
        """States of the DFA before minimisation: for an NFA or regex,
        the subset construction's size."""
        return self.input_states


def recognize_tractable_dfa(dfa):
    """Theorem 3 (1): decide tractability of RSPQ(L) from a DFA.

    Accepts any complete DFA, not necessarily minimal: minimising it is
    the deterministic shadow of the appendix's on-the-fly collapse of
    Nerode-equivalent states.  RSPQ(L) is tractable iff no pair violates
    Lemma 6, i.e. iff ``L ∈ trC`` (Theorem 1).  ``pairs_checked`` counts
    the pairs of looping states ``(q1, q2)`` with ``q2`` reachable from
    ``q1``.
    """
    if not isinstance(dfa, DFA):
        raise TypeError("recognize_tractable_dfa expects a DFA")
    minimal = dfa.minimized()
    loops = looping_states(minimal)
    violating_pair = next(violating_pairs(minimal), None)
    return RecognitionReport(
        tractable=violating_pair is None,
        input_states=dfa.num_states,
        minimal_states=minimal.num_states,
        pairs_checked=sum(
            len(loops & minimal.reachable_states(q1)) for q1 in loops
        ),
        violating_pair=violating_pair,
    )


def recognize_tractable_nfa(nfa):
    """Theorem 3 (2): decide tractability from an NFA.

    Determinizes (worst-case exponential: from an NFA or a regex the
    problem is PSPACE-complete), then runs :func:`recognize_tractable_dfa`.
    """
    if not isinstance(nfa, NFA):
        raise TypeError("recognize_tractable_nfa expects an NFA")
    report = recognize_tractable_dfa(from_nfa(nfa))
    report.nfa_states = nfa.num_states()
    return report


def recognize_tractable_regex(text):
    """Theorem 3 (2), regex representation: parse, Thompson, determinize."""
    return recognize_tractable_nfa(nfa_from_ast(parse(text)))


# -- brute-force definitional oracle -------------------------------------------


def _decompositions(word, repetitions):
    """Yield ``(wl, w1, wm, w2, wr)`` with
    ``word == wl + w1*i + wm + w2*i + wr`` and ``w1, w2`` non-empty."""
    n = len(word)
    i = repetitions
    # Choose the boundaries of the two repeated blocks.
    for start1 in range(n + 1):
        for len1 in range(1, (n - start1) // max(i, 1) + 1):
            block1 = word[start1:start1 + len1]
            if word[start1:start1 + i * len1] != block1 * i:
                continue
            mid_start = start1 + i * len1
            for start2 in range(mid_start, n + 1):
                for len2 in range(1, (n - start2) // max(i, 1) + 1):
                    block2 = word[start2:start2 + len2]
                    if word[start2:start2 + i * len2] != block2 * i:
                        continue
                    yield (
                        word[:start1],
                        block1,
                        word[mid_start:start2],
                        block2,
                        word[start2 + i * len2:],
                    )


def find_trc_counterexample(lang_or_dfa, repetitions, max_length):
    """Brute-force search for a Definition-1 violation of ``trC(i)``.

    Enumerates accepted words up to ``max_length`` and all decompositions
    ``wl w1^i wm w2^i wr``; returns the first decomposition whose pumped
    form ``wl w1^i w2^i wr`` is rejected, or ``None``.

    Exponential — only a testing oracle.  ``None`` does **not** prove
    membership in ``trC(i)`` (the bound may be too small); a non-``None``
    result *does* prove ``L ∉ trC(i)``.
    """
    dfa = _as_minimal_dfa(lang_or_dfa)
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1 for the oracle")
    for word in dfa.enumerate_words(max_length):
        for wl, w1, wm, w2, wr in _decompositions(word, repetitions):
            if not wm and not (w1 and w2):
                continue
            pumped = wl + w1 * repetitions + w2 * repetitions + wr
            if not dfa.accepts(pumped):
                return (wl, w1, wm, w2, wr)
    return None


def is_in_trc_zero(lang_or_dfa):
    """Membership in ``trC(0)`` — the subword-closed Mendelzon–Wood class.

    ``trC(0)`` requires ``wl wm wr ∈ L ⇒ wl wr ∈ L`` (delete any factor),
    which is exactly closure under subwords.  Decided exactly via the
    downward-closure construction.
    """
    from ..languages.properties import is_subword_closed

    return is_subword_closed(_as_minimal_dfa(lang_or_dfa))
