"""Unit and property tests for the DFA layer."""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import entries
from repro.errors import AutomatonError
from repro.core.solver import RspqSolver
from repro.languages import Language
from repro.languages import dfa as dfa_module
from repro.languages.dfa import DFA, dfa_from_words, from_nfa
from repro.languages.nfa import nfa_from_ast
from repro.languages.regex.parser import parse


def _dfa(text, alphabet=None):
    return from_nfa(nfa_from_ast(parse(text)), alphabet)


class TestConstruction:
    def test_incomplete_dfa_rejected(self):
        with pytest.raises(AutomatonError):
            DFA(2, ["a"], {(0, "a"): 1}, 0, [1])

    def test_bad_initial_rejected(self):
        with pytest.raises(AutomatonError):
            DFA(1, [], {}, 5, [])

    def test_unknown_symbol_raises(self):
        dfa = _dfa("a*")
        with pytest.raises(AutomatonError):
            dfa.transition(0, "z")

    def test_run_and_accepts(self):
        dfa = _dfa("a*ba*")
        assert dfa.accepts("ab")
        assert not dfa.accepts("aa")


class TestPredicates:
    def test_emptiness(self):
        assert _dfa("∅", alphabet={"a"}).is_empty()
        assert not _dfa("a").is_empty()

    def test_universality(self):
        assert _dfa("(a+b)*").is_universal()
        assert not _dfa("a*", alphabet={"a", "b"}).is_universal()

    @pytest.mark.parametrize(
        "text,finite",
        [("abc", True), ("ab + ba", True), ("a*", False),
         ("(aa)*", False), ("∅", True), ("eps", True)],
    )
    def test_finiteness(self, text, finite):
        assert _dfa(text, alphabet={"a", "b", "c"}).is_finite() is finite

    def test_shortest_accepted(self):
        assert _dfa("aaa + ba").shortest_accepted() == "ba"

    def test_shortest_accepted_of_empty(self):
        assert _dfa("∅", alphabet={"a"}).shortest_accepted() is None

    def test_enumerate_words(self):
        words = list(_dfa("a*b").enumerate_words(3))
        assert words == ["b", "ab", "aab"]

    @pytest.mark.parametrize(
        "text",
        ["a*b", "(a+b)*", "(aa)*", "ab + ba", "(a + b)(a + b)?", "∅",
         "eps", "a*(bb+ + eps)c*"],
    )
    def test_enumerate_words_matches_brute_force(self, text):
        # Every accepted word of length <= 5 from every start state, in
        # length-lexicographic order.
        dfa = _dfa(text)
        symbols = sorted(dfa.alphabet)
        for start in dfa.states():
            expected = [
                "".join(letters)
                for length in range(6)
                for letters in itertools.product(symbols, repeat=length)
                if dfa.run_from(start, letters) in dfa.accepting
            ]
            assert list(dfa.enumerate_words(5, start=start)) == expected

    def test_count_words_of_length(self):
        dfa = _dfa("(a+b)*")
        assert dfa.count_words_of_length(3) == 8


class TestBooleanOperations:
    def test_complement(self):
        dfa = _dfa("a*").completed({"a", "b"})
        comp = dfa.complement()
        assert comp.accepts("ab")
        assert not comp.accepts("aa")

    def test_intersection(self):
        left = _dfa("a*b")
        right = _dfa("ab*")
        both = left.intersection(right)
        assert both.accepts("ab")
        assert not both.accepts("aab")
        assert not both.accepts("abb")

    def test_union(self):
        either = _dfa("aa").union(_dfa("bb"))
        assert either.accepts("aa")
        assert either.accepts("bb")
        assert not either.accepts("ab")

    def test_difference(self):
        diff = _dfa("a*").difference(_dfa("aa"))
        assert diff.accepts("a")
        assert not diff.accepts("aa")
        assert diff.accepts("aaa")

    def test_equivalence(self):
        assert _dfa("a*a").equivalent(_dfa("aa*"))
        assert not _dfa("a*").equivalent(_dfa("a+aa"))

    def test_containment(self):
        assert _dfa("a*").contains_language(_dfa("aa"))
        assert not _dfa("aa").contains_language(_dfa("a*"))


class TestMinimisation:
    def test_minimal_size_of_known_languages(self):
        # a*ba* needs 3 states (before b / after b / sink).
        assert _dfa("a*ba*").minimized().num_states == 3
        # (aa)* needs 2 states over {a}.
        assert _dfa("(aa)*").minimized().num_states == 2

    def test_minimisation_preserves_language(self):
        dfa = _dfa("a*(bb+ + eps)c*")
        minimal = dfa.minimized()
        for word in ["", "abbc", "abc", "bb", "ac", "bc", "b"]:
            assert minimal.accepts(word) == dfa.accepts(word)

    def test_minimized_is_canonical(self):
        first = _dfa("a*a").minimized()
        second = _dfa("aa*").minimized()
        assert first.num_states == second.num_states
        assert first.accepting == second.accepting

    def test_is_minimal(self):
        assert _dfa("a*ba*").minimized().is_minimal()

    @pytest.mark.parametrize("regex", [entry.regex for entry in entries()])
    def test_minimal_dfa_minimizes_to_itself(self, regex):
        lang = Language(regex)
        assert lang.dfa.minimized() is lang.dfa
        # Returning it is what a second pass would build: the same
        # canonical automaton, state for state.
        dfa = lang.dfa
        copy = DFA(dfa.num_states, dfa.alphabet,
                   {(q, a): r for q, a, r in dfa.transitions()},
                   dfa.initial, dfa.accepting)
        again = copy.minimized()
        assert again is not copy
        assert sorted(again.transitions()) == sorted(dfa.transitions())
        assert (again.initial, again.accepting) == (
            dfa.initial, dfa.accepting
        )

    def test_derived_automata_are_minimised_afresh(self):
        dfa = _dfa("ab").minimized()
        quotient = dfa.with_initial(dfa.transition(dfa.initial, "a"))
        minimal = quotient.minimized()
        assert minimal is not quotient
        assert minimal.num_states < quotient.num_states

    def test_with_initial_quotient(self):
        dfa = _dfa("ab").minimized()
        after_a = dfa.transition(dfa.initial, "a")
        quotient = dfa.with_initial(after_a)
        assert quotient.accepts("b")
        assert not quotient.accepts("ab")


class TestFromWords:
    def test_finite_language(self):
        dfa = dfa_from_words(["ab", "ba", ""])
        for word, expected in [("ab", True), ("ba", True), ("", True),
                               ("aa", False)]:
            assert dfa.accepts(word) is expected

    def test_empty_set_of_words(self):
        dfa = dfa_from_words([], alphabet={"a"})
        assert dfa.is_empty()


@st.composite
def _word(draw):
    return "".join(draw(st.lists(st.sampled_from("ab"), max_size=7)))


class TestProperties:
    @given(_word())
    @settings(max_examples=80, deadline=None)
    def test_minimisation_agrees_on_random_words(self, word):
        dfa = _dfa("(a(a+b))*b?")
        assert dfa.minimized().accepts(word) == dfa.accepts(word)

    @given(_word(), _word())
    @settings(max_examples=60, deadline=None)
    def test_product_semantics(self, word_a, word_b):
        left = _dfa("a(a+b)*")
        right = _dfa("(a+b)*b")
        inter = left.intersection(right)
        for word in (word_a, word_b):
            assert inter.accepts(word) == (
                left.accepts(word) and right.accepts(word)
            )

    @given(_word())
    @settings(max_examples=60, deadline=None)
    def test_complement_partition(self, word):
        dfa = _dfa("ab*a", alphabet={"a", "b"})
        assert dfa.accepts(word) != dfa.complement().accepts(word)


def _finite_by_per_state_search(dfa):
    """The finiteness oracle: one BFS per useful state, looking for a
    way back to it through useful states (O(|Q|²·|Σ|))."""
    useful = dfa.reachable_states() & dfa.co_reachable_states()

    def on_cycle(state):
        seen = set()
        queue = deque([state])
        while queue:
            current = queue.popleft()
            for symbol in dfa.alphabet:
                target = dfa.transition(current, symbol)
                if target == state:
                    return True
                if target in useful and target not in seen:
                    seen.add(target)
                    queue.append(target)
        return False

    return not any(on_cycle(state) for state in useful)


@st.composite
def _complete_dfa(draw):
    num_states = draw(st.integers(min_value=1, max_value=7))
    alphabet = sorted(draw(st.sets(st.sampled_from("abc"), max_size=3)))
    state = st.integers(min_value=0, max_value=num_states - 1)
    transitions = {
        (source, symbol): draw(state)
        for source in range(num_states) for symbol in alphabet
    }
    return DFA(
        num_states, alphabet, transitions, draw(state),
        draw(st.sets(state)),
    )


class TestFiniteness:
    @given(_complete_dfa())
    @settings(max_examples=400, deadline=None)
    def test_component_check_agrees_with_per_state_search(self, dfa):
        assert dfa.is_finite() is _finite_by_per_state_search(dfa)

    def _count_passes(self, monkeypatch):
        passes = []
        real = dfa_module.strongly_connected_components

        def counted(dfa):
            passes.append(dfa)
            return real(dfa)

        monkeypatch.setattr(
            dfa_module, "strongly_connected_components", counted
        )
        return passes

    def test_answer_is_computed_once_per_automaton(self, monkeypatch):
        passes = self._count_passes(monkeypatch)
        dfa = _dfa("a*b")
        assert dfa.is_finite() is False
        assert dfa.is_finite() is False
        assert len(passes) == 1

    def test_a_finite_plan_decides_finiteness_once(self, monkeypatch):
        # classify and the finite solver both ask; the DFA answers once.
        passes = self._count_passes(monkeypatch)
        solver = RspqSolver("ab + ba + abc")
        assert solver.strategy == "finite-AC0"
        assert len(passes) == 1

    def test_long_chains_of_states(self):
        assert _dfa("a" * 3000).is_finite()
        assert not _dfa("a" * 3000 + "b*").is_finite()
