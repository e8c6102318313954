"""Tests for trC membership (Definition 1 / Lemma 6) and its oracles."""

import random
import time

import pytest

from benchmarks.workloads import random_regexes
from repro import catalog
from repro.core.trc import (
    find_trc_counterexample,
    is_in_trc,
    is_in_trc_zero,
    violating_pairs,
)
from repro.engine.plan import QueryPlan
from repro.languages import Language, language
from repro.languages.dfa import DFA
from repro.languages.nfa import NFA


def has_loop_with_last_letter(dfa, state, letter):
    """True iff ``Loop_a(state) ≠ ∅`` for ``a = letter``: some state
    ``p`` reachable from ``state`` has ``δ(p, letter) = state``.  One
    BFS per state and letter, which ``violating_pairs`` replaced with
    bit tests on its pair closure; kept for the oracle."""
    return any(
        dfa.transition(p, letter) == state
        for p in dfa.reachable_states(state)
    )


class TestLoopWithLastLetter:
    def test_loop_with_last_letter(self):
        dfa = language("(ab)*").dfa
        q0 = dfa.initial
        q1 = dfa.transition(q0, "a")
        assert has_loop_with_last_letter(dfa, q0, "b")
        assert not has_loop_with_last_letter(dfa, q0, "a")
        assert has_loop_with_last_letter(dfa, q1, "a")
        assert not has_loop_with_last_letter(dfa, q1, "b")


def loops_then_quotient_nfa(dfa, state, power, groups=None, group=None):
    """NFA for ``Loop_g(state)^power · L_state``: the M-copies
    construction that ``violating_pairs`` replaced, kept as the oracle.

    States ``(copy, q)``: ``copy < power`` counts completed loops; a
    transition landing on ``state`` may close the current loop when its
    letter is in ``group`` (any letter when ``groups`` is ``None``).
    Once ``copy == power`` the automaton runs the DFA from ``state`` and
    accepts in its accepting states.
    """
    states = set()
    transitions = {}
    for copy in range(power):
        for q in dfa.states():
            arcs = []
            for symbol in dfa.alphabet:
                target = dfa.transition(q, symbol)
                arcs.append((symbol, (copy, target)))
                closes = groups is None or groups[symbol] == group
                if target == state and closes:
                    arcs.append((symbol, (copy + 1, state)))
            states.add((copy, q))
            transitions[(copy, q)] = arcs
    for q in dfa.states():
        states.add((power, q))
        transitions[(power, q)] = [
            (symbol, (power, dfa.transition(q, symbol)))
            for symbol in dfa.alphabet
        ]
    accepting = {(power, q) for q in dfa.accepting}
    return NFA(states, dfa.alphabet, transitions, initial=[(0, state)],
               accepting=accepting)


def oracle_pairs(dfa, groups=None, first_only=False):
    """The violating pairs by one product per pair and group, in
    ``violating_pairs``'s order: the set of all of them, or of the
    first."""
    if groups is None:
        groups = dict.fromkeys(dfa.alphabet, 0)
    loop_groups = {
        q: {groups[a] for a in dfa.alphabet
            if has_loop_with_last_letter(dfa, q, a)}
        for q in dfa.states()
    }
    reachable = {q1: dfa.reachable_states(q1) for q1 in dfa.states()}
    non_accepting = set(dfa.states()) - dfa.accepting
    pairs = set()
    for q2 in dfa.states():
        nfas = {}
        for q1 in dfa.states():
            if q2 not in reachable[q1]:
                continue
            for group in loop_groups[q1] & loop_groups[q2]:
                if group not in nfas:
                    nfas[group] = loops_then_quotient_nfa(
                        dfa, q2, dfa.num_states, groups, group
                    )
                product = nfas[group].intersect_dfa(
                    dfa, dfa_initial=q1, dfa_accepting=non_accepting
                )
                if not product.is_empty():
                    pairs.add((q1, q2))
                    if first_only:
                        return pairs
                    break
    return pairs


def random_minimal_dfa(rng):
    """A random minimal DFA with 2 to 5 states over 1 to 3 letters."""
    while True:
        letters = "abc"[:rng.randint(1, 3)]
        size = rng.randint(2, 5)
        transitions = {
            (q, a): rng.randrange(size) for q in range(size) for a in letters
        }
        accepting = {q for q in range(size) if rng.random() < 0.5}
        dfa = DFA(size, letters, transitions, 0, accepting).minimized()
        if dfa.num_states > 1:
            return dfa


def oracle_dfas(source):
    """The catalog's DFAs, pool (180, 0, 1)'s, or 600 random ones."""
    if source == "catalog":
        return [entry.language().dfa for entry in catalog.entries()]
    if source == "pool":
        return [
            language(regex).dfa
            for regex in random_regexes(180, seed=0, max_depth=1)
        ]
    rng = random.Random(21)
    return [random_minimal_dfa(rng) for _ in range(600)]


#: Letter groups of the three conditions: trC (one group), ``≡vl``
#: (each letter its own group) and a two-group ``≡evl`` partition.
GROUPINGS = {
    "trc": lambda dfa: None,
    "vl": lambda dfa: {a: a for a in dfa.alphabet},
    "evl": lambda dfa: {a: i % 2 for i, a in enumerate(sorted(dfa.alphabet))},
}


class TestCatalogMembership:
    @pytest.mark.parametrize("entry", catalog.entries(), ids=lambda e: e.name)
    def test_matches_ground_truth(self, entry):
        assert is_in_trc(entry.language().dfa) is entry.in_trc

    def test_accepts_language_objects(self):
        assert is_in_trc(language("a*")) is True

    def test_rejects_other_inputs(self):
        with pytest.raises(TypeError):
            is_in_trc("a*")


class TestDefinitionOracle:
    """The automaton test must agree with brute-force Definition 1."""

    @pytest.mark.parametrize(
        "regex", ["(aa)*", "a*ba*", "a*bc*", "(ab)*"],
        ids=["even-a", "aba", "abc", "abstar"],
    )
    def test_hard_languages_have_counterexamples(self, regex):
        lang = language(regex)
        i = lang.num_states  # Lemma 2: trC iff trC(M)
        counter = find_trc_counterexample(lang.dfa, i, max_length=4 * i + 4)
        assert counter is not None
        wl, w1, wm, w2, wr = counter
        original = wl + w1 * i + wm + w2 * i + wr
        pumped = wl + w1 * i + w2 * i + wr
        assert lang.accepts(original)
        assert not lang.accepts(pumped)

    @pytest.mark.parametrize(
        "regex", ["a*", "a*c*", "a*(bb^+ + eps)c*"],
        ids=["astar", "ac", "example1"],
    )
    def test_tractable_languages_have_none_short(self, regex):
        lang = language(regex)
        i = lang.num_states
        assert find_trc_counterexample(lang.dfa, i, max_length=10) is None


class TestViolatingPairs:
    def test_hard_language_yields_pair_and_word(self):
        dfa = language("a*ba*").dfa
        pairs = list(violating_pairs(dfa))
        assert pairs
        q1, q2 = pairs[0]
        non_accepting = set(dfa.states()) - dfa.accepting
        product = loops_then_quotient_nfa(
            dfa, q2, dfa.num_states
        ).intersect_dfa(dfa, dfa_initial=q1, dfa_accepting=non_accepting)
        word = product.shortest_accepted()
        assert word is not None
        # The word is in Loop(q2)^M · L_{q2} but not in L_{q1}.
        assert dfa.run_from(q1, word) not in dfa.accepting

    def test_tractable_language_yields_none(self):
        assert list(violating_pairs(language("a*c*").dfa)) == []

    def test_pairs_come_q2_then_q1_without_repeats(self):
        pairs = list(violating_pairs(language("(aa)*").dfa))
        assert pairs == sorted(set(pairs), key=lambda pair: pair[::-1])

    @pytest.mark.parametrize("source", ["catalog", "pool", "random"])
    @pytest.mark.parametrize("grouping", sorted(GROUPINGS))
    def test_same_pairs_as_the_m_copies_oracle(self, source, grouping):
        for dfa in oracle_dfas(source):
            groups = GROUPINGS[grouping](dfa)
            assert set(violating_pairs(dfa, groups)) == oracle_pairs(
                dfa, groups
            ), (dfa, groups)

    def test_same_verdicts_as_the_oracle_on_the_depth3_pool(self):
        for regex in random_regexes(190, seed=3, max_depth=3):
            dfa = language(regex).dfa
            violated = bool(oracle_pairs(dfa, first_only=True))
            assert is_in_trc(dfa) is not violated, regex


class TestExponentialCases:
    """Inputs on which the M-copies construction took seconds."""

    def test_kth_letter_from_the_end(self):
        # A 32-state minimal DFA, on which the M-copies products took
        # about 7 s.
        started = time.perf_counter()
        assert is_in_trc(language("(a+b)*a(a+b)(a+b)(a+b)(a+b)").dfa)
        assert time.perf_counter() - started < 2.0

    def test_slowest_plan_of_the_depth3_pool(self):
        # A 40-state NP-complete language, which the M-copies
        # construction compiled in about 1 s.
        regex = random_regexes(190, seed=3, max_depth=3)[74]
        started = time.perf_counter()
        plan = QueryPlan.compile(regex)
        assert time.perf_counter() - started < 0.3
        assert not plan.classification.in_trc


class TestLoopsThenQuotientNfa:
    def test_language_shape(self):
        dfa = language("a*b").dfa
        q0 = dfa.initial
        nfa = loops_then_quotient_nfa(dfa, q0, 2)
        # Words: >= 2 a-loops then a word of L_{q0} = a*b.
        assert nfa.accepts("aab")
        assert nfa.accepts("aaab")
        assert not nfa.accepts("ab")
        assert not nfa.accepts("b")
        assert not nfa.accepts("aa")

    def test_group_filter(self):
        dfa = language("(ab)*").dfa
        q0 = dfa.initial
        groups = {"a": "a", "b": "b"}
        # Loops of q0 end in b: Loop_b(q0)^2 · L_{q0} = abab(ab)*.
        ending_in_b = loops_then_quotient_nfa(dfa, q0, 2, groups, "b")
        ending_in_a = loops_then_quotient_nfa(dfa, q0, 2, groups, "a")
        assert ending_in_b.accepts("abab")
        assert not ending_in_b.accepts("ab")
        assert not ending_in_a.accepts("abab")


class TestClosureProperties:
    """Lemma 1: trC is closed by intersection, union, word reversal."""

    TRC = ["a*", "a*c*", "a*(bb^+ + eps)c*", "a*(b + eps)c*"]

    @pytest.mark.parametrize("left", TRC[:2], ids=["a", "ac"])
    @pytest.mark.parametrize("right", TRC[2:], ids=["ex1", "optb"])
    def test_union_closed(self, left, right):
        combined = language(left).dfa.union(language(right).dfa)
        assert is_in_trc(Language(combined).dfa)

    @pytest.mark.parametrize("left", TRC[:2], ids=["a", "ac"])
    @pytest.mark.parametrize("right", TRC[2:], ids=["ex1", "optb"])
    def test_intersection_closed(self, left, right):
        combined = language(left).dfa.intersection(language(right).dfa)
        assert is_in_trc(Language(combined).dfa)

    @pytest.mark.parametrize("regex", TRC, ids=["a", "ac", "ex1", "optb"])
    def test_reversal_closed(self, regex):
        reversed_lang = Language(language(regex).dfa.reverse_nfa())
        assert is_in_trc(reversed_lang.dfa)

    def test_union_of_hard_stays_hard_here(self):
        # Not a closure claim from the paper — a sanity check that our
        # union construction does not accidentally "fix" hard languages.
        combined = language("a*ba*").dfa.union(language("(aa)*").dfa)
        assert not is_in_trc(Language(combined).dfa)


class TestLemma2Monotonicity:
    """trC(i) ⊆ trC(i+1): a violation at i+1 implies one at i is *not*
    required, but a violation at i+1 for word pumping must persist when
    the oracle is run at smaller i on hard languages."""

    def test_counterexample_monotone_for_even_a(self):
        lang = language("(aa)*")
        # (aa)* violates trC(i) for every i >= 1.
        for i in (1, 2, 3):
            assert find_trc_counterexample(lang.dfa, i, max_length=10) is not None


class TestTrcZero:
    @pytest.mark.parametrize("entry", catalog.entries(), ids=lambda e: e.name)
    def test_matches_subword_closure(self, entry):
        assert is_in_trc_zero(entry.language().dfa) is entry.subword_closed

    def test_strict_inclusion_in_trc(self):
        # Example 1 is in trC but not subword-closed: the Mendelzon-Wood
        # fragment is strictly smaller (the paper's point in §1).
        lang = language("a*(bb^+ + eps)c*")
        assert is_in_trc(lang.dfa)
        assert not is_in_trc_zero(lang.dfa)
