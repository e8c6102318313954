"""Unit and property tests for the NFA layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.workloads import random_regexes
from repro import catalog
from repro.errors import AutomatonError
from repro.languages.dfa import from_nfa
from repro.languages.nfa import (
    NFA,
    empty_nfa,
    epsilon_nfa,
    literal_nfa,
    nfa_from_ast,
    star_nfa,
    word_nfa,
)
from repro.languages.regex import ast as rx
from repro.languages.regex.parser import parse


# -- the relabel-copy construction, kept as the oracle ------------------------


def _relabel(nfa, offset):
    """Copy with states renamed ``offset, offset + 1, …`` in ``repr``
    order, and the copy's next free id."""
    ids = {
        state: offset + index
        for index, state in enumerate(sorted(nfa.states, key=repr))
    }
    transitions = {
        ids[state]: [(symbol, ids[target]) for symbol, target in nfa.arcs_from(state)]
        for state in nfa.states
    }
    copy = NFA(
        ids.values(), nfa.alphabet, transitions,
        initial={ids[state] for state in nfa.initial},
        accepting={ids[state] for state in nfa.accepting},
    )
    return copy, offset + len(ids)


def _merged(left, right):
    transitions = {}
    for nfa in (left, right):
        for state in nfa.states:
            transitions[state] = nfa.arcs_from(state)
    return transitions


def _concat(first, second):
    left, next_id = _relabel(first, 0)
    right, _ = _relabel(second, next_id)
    transitions = _merged(left, right)
    for state in left.accepting:
        for target in right.initial:
            transitions[state].append((None, target))
    return NFA(
        left.states | right.states, first.alphabet | second.alphabet,
        transitions, initial=left.initial, accepting=right.accepting,
    )


def _union(first, second):
    left, next_id = _relabel(first, 0)
    right, _ = _relabel(second, next_id)
    return NFA(
        left.states | right.states, first.alphabet | second.alphabet,
        _merged(left, right), initial=left.initial | right.initial,
        accepting=left.accepting | right.accepting,
    )


def _star(inner):
    shifted, hub = _relabel(inner, 0)
    transitions = {state: shifted.arcs_from(state) for state in shifted.states}
    transitions[hub] = [(None, target) for target in shifted.initial]
    for state in shifted.accepting:
        transitions[state].append((None, hub))
    return NFA(shifted.states | {hub}, inner.alphabet, transitions, [hub], [hub])


def _power(nfa, exponent):
    if exponent == 0:
        return NFA([0], nfa.alphabet, {0: []}, initial=[0], accepting=[0])
    result = nfa
    for _ in range(exponent - 1):
        result = _concat(result, nfa)
    return result


def _literal(symbol):
    return NFA([0, 1], [symbol], {0: [(symbol, 1)], 1: []}, [0], [1])


def _epsilon():
    return NFA([0], [], {0: []}, initial=[0], accepting=[0])


def relabel_copy_nfa(node):
    """The Thompson construction that the one-builder emission replaced:
    every ``concat`` and ``union`` relabel-copies both operands."""
    if isinstance(node, rx.Empty):
        return NFA([0], [], {0: []}, initial=[0], accepting=[])
    if isinstance(node, rx.Epsilon):
        return _epsilon()
    if isinstance(node, rx.Literal):
        return _literal(node.symbol)
    if isinstance(node, rx.CharClass):
        result = _literal(node.symbols[0])
        for symbol in node.symbols[1:]:
            result = _union(result, _literal(symbol))
        return result
    if isinstance(node, (rx.Concat, rx.Union)):
        combine = _concat if isinstance(node, rx.Concat) else _union
        result = relabel_copy_nfa(node.parts[0])
        for part in node.parts[1:]:
            result = combine(result, relabel_copy_nfa(part))
        return result
    if isinstance(node, rx.Star):
        return _star(relabel_copy_nfa(node.inner))
    if isinstance(node, rx.Plus):
        inner = relabel_copy_nfa(node.inner)
        return _concat(inner, _star(inner))
    if isinstance(node, rx.Optional):
        return _union(relabel_copy_nfa(node.inner), _epsilon())
    assert isinstance(node, rx.Repeat)
    inner = relabel_copy_nfa(node.inner)
    required = _power(inner, node.low)
    if node.high is None:
        return _concat(required, _star(inner))
    tail = _epsilon()
    for _ in range(node.high - node.low):
        tail = _union(_epsilon(), _concat(inner, tail))
    return _concat(required, tail)


def _minimal_table(nfa):
    """The minimal DFA of ``nfa`` as comparable data."""
    dfa = from_nfa(nfa).minimized()
    return (
        dfa.num_states, dfa.initial, sorted(dfa.accepting),
        sorted(dfa.transitions()), sorted(dfa.alphabet),
    )


def assert_same_as_oracle(node):
    built = nfa_from_ast(node)
    oracle = relabel_copy_nfa(node)
    assert built.alphabet == oracle.alphabet, str(node)
    assert _minimal_table(built) == _minimal_table(oracle), str(node)


#: The regex pools ``(count, seed, max_depth)`` of the plan benchmarks.
POOLS = [(180, 0, 1), (190, 3, 3), (600, 11, 2), (400, 12, 3)]

_repeat_bounds = st.integers(0, 3).flatmap(
    lambda low: st.tuples(
        st.just(low), st.one_of(st.none(), st.integers(low, low + 2))
    )
)

#: Regex ASTs over {a, b, c} that nest every node type, with bounded
#: and unbounded repetitions.
_ast = st.recursive(
    st.one_of(
        st.sampled_from("abc").map(rx.Literal),
        st.just(rx.Empty()),
        st.just(rx.Epsilon()),
        st.sets(st.sampled_from("abc"), min_size=1).map(
            lambda letters: rx.CharClass(tuple(letters))
        ),
    ),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(
            lambda parts: rx.Concat(tuple(parts))
        ),
        st.lists(inner, min_size=2, max_size=3).map(
            lambda parts: rx.Union(tuple(parts))
        ),
        inner.map(rx.Star),
        inner.map(rx.Plus),
        inner.map(rx.Optional),
        st.tuples(inner, _repeat_bounds).map(
            lambda pair: rx.Repeat(pair[0], *pair[1])
        ),
    ),
    max_leaves=10,
)


class TestBuilderMatchesRelabelCopy:
    def test_catalog(self):
        for entry in catalog.entries():
            assert_same_as_oracle(parse(entry.regex))

    @pytest.mark.parametrize("pool", POOLS, ids=str)
    def test_pool(self, pool):
        count, seed, depth = pool
        for regex in random_regexes(count, seed=seed, max_depth=depth):
            assert_same_as_oracle(parse(regex))

    @given(_ast)
    @settings(max_examples=300, deadline=None)
    def test_drawn_asts(self, node):
        assert_same_as_oracle(node)


class TestLinearSize:
    @pytest.mark.parametrize("length", [10, 100, 400])
    def test_word(self, length):
        nfa = nfa_from_ast(parse("a" * length))
        assert nfa.num_states() <= 2 * length + 2
        assert nfa.accepts("a" * length)
        assert not nfa.accepts("a" * (length - 1))

    @pytest.mark.parametrize("count", [10, 60, 200])
    def test_bounded_repeat(self, count):
        nfa = nfa_from_ast(parse("(a+b){%d}" % count))
        assert nfa.num_states() <= 2 * count + 2
        assert nfa.accepts("ab" * (count // 2) + "a" * (count % 2))
        assert not nfa.accepts("a" * (count + 1))

    def test_nested_plus_is_not_copied(self):
        # Plus emits its body once: nesting it does not double the size.
        depth = 12
        nfa = nfa_from_ast(parse("(" * depth + "ab" + ")^+" * depth))
        assert nfa.num_states() <= 3 + 2 * depth


class TestBasics:
    def test_literal_accepts_only_its_letter(self):
        nfa = literal_nfa("a")
        assert nfa.accepts("a")
        assert not nfa.accepts("")
        assert not nfa.accepts("aa")

    def test_word_nfa(self):
        nfa = word_nfa("abc")
        assert nfa.accepts("abc")
        assert not nfa.accepts("ab")
        assert not nfa.accepts("abcd")

    def test_epsilon_nfa(self):
        nfa = epsilon_nfa()
        assert nfa.accepts("")

    def test_empty_nfa(self):
        nfa = empty_nfa()
        assert nfa.is_empty()

    def test_invalid_transition_target(self):
        with pytest.raises(AutomatonError):
            NFA([0], ["a"], {0: [("a", 99)]}, [0], [0])

    def test_unknown_initial_state(self):
        with pytest.raises(AutomatonError):
            NFA([0], ["a"], {0: []}, [7], [0])


class TestCombinators:
    def test_concat(self):
        nfa = word_nfa("ab").concat(word_nfa("c"))
        assert nfa.accepts("abc")
        assert not nfa.accepts("ab")

    def test_union(self):
        nfa = word_nfa("ab").union(word_nfa("ba"))
        assert nfa.accepts("ab")
        assert nfa.accepts("ba")
        assert not nfa.accepts("aa")

    def test_star(self):
        nfa = star_nfa(word_nfa("ab"))
        for word, expected in [("", True), ("ab", True), ("abab", True),
                               ("aba", False)]:
            assert nfa.accepts(word) is expected

    def test_power(self):
        nfa = word_nfa("a").power(3)
        assert nfa.accepts("aaa")
        assert not nfa.accepts("aa")
        assert not nfa.accepts("aaaa")

    def test_power_zero_is_epsilon(self):
        nfa = word_nfa("a").power(0)
        assert nfa.accepts("")
        assert not nfa.accepts("a")

    def test_reverse(self):
        nfa = word_nfa("abc").reverse()
        assert nfa.accepts("cba")
        assert not nfa.accepts("abc")

    def test_shortest_accepted(self):
        nfa = nfa_from_ast(parse("aaa + b"))
        assert nfa.shortest_accepted() == "b"

    def test_shortest_accepted_empty_language(self):
        assert empty_nfa().shortest_accepted() is None

    def test_intersect_dfa(self):
        dfa = from_nfa(nfa_from_ast(parse("a*b")))
        nfa = nfa_from_ast(parse("(a+b)(a+b)"))
        both = nfa.intersect_dfa(dfa)
        assert both.accepts("ab")
        assert not both.accepts("ba")
        assert not both.accepts("b")


class TestThompson:
    @pytest.mark.parametrize(
        "text,accepted,rejected",
        [
            ("(aa)*", ["", "aa", "aaaa"], ["a", "aaa"]),
            ("a*ba*", ["b", "ab", "aabaa"], ["", "a", "bb"]),
            ("a{2,3}", ["aa", "aaa"], ["a", "aaaa"]),
            ("a{2,}", ["aa", "aaaaa"], ["", "a"]),
            ("[ab]?c", ["c", "ac", "bc"], ["", "abc"]),
            ("a*(bb+ + ε)c*", ["", "abbc", "bbb", "ac"], ["bc", "abc"]),
        ],
    )
    def test_language_membership(self, text, accepted, rejected):
        nfa = nfa_from_ast(parse(text))
        for word in accepted:
            assert nfa.accepts(word), (text, word)
        for word in rejected:
            assert not nfa.accepts(word), (text, word)


@st.composite
def _regex_text(draw):
    """Small random regexes over {a, b}."""
    depth = draw(st.integers(0, 2))

    def build(level):
        if level == 0:
            return draw(st.sampled_from(["a", "b", "ab", "ba", "eps"]))
        left = build(level - 1)
        right = build(level - 1)
        shape = draw(st.sampled_from(["(%s)(%s)", "(%s) + (%s)", "(%s)*%s"]))
        return shape % (left, right)

    return build(depth)


class TestNfaDfaAgreement:
    @given(_regex_text(), st.lists(st.sampled_from("ab"), max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_subset_construction_preserves_membership(self, text, letters):
        word = "".join(letters)
        nfa = nfa_from_ast(parse(text))
        dfa = from_nfa(nfa, alphabet={"a", "b"})
        assert dfa.accepts(word) == nfa.accepts(word)
