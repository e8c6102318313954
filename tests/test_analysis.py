"""Tests for DFA structural analysis (components, loops, aperiodicity)."""

import pytest

from benchmarks.workloads import random_regexes
from repro import catalog
from repro.languages import language
from repro.languages.analysis import (
    internal_alphabet,
    is_aperiodic,
    looping_states,
    strongly_connected_components,
    transition_monoid,
)


def _dfa(text, alphabet=None):
    return language(text, alphabet=alphabet).dfa


def _tarjan_components(dfa):
    """The standalone iterative Tarjan that
    ``strongly_connected_components`` replaced, kept as the test
    oracle: states ascending, distinct successors ascending, components
    reversed into topological order."""
    successors = {
        state: sorted({dfa.transition(state, s) for s in dfa.alphabet})
        for state in dfa.states()
    }
    counter = 0
    indices = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    for root in dfa.states():
        if root in indices:
            continue
        work = [(root, iter(successors[root]))]
        indices[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for target in it:
                if target not in indices:
                    indices[target] = lowlink[target] = counter
                    counter += 1
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(successors[target])))
                    advanced = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], indices[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(frozenset(component))
    components.reverse()
    return components


class TestComponents:
    def test_topological_order(self):
        dfa = _dfa("a*ba*")
        components = strongly_connected_components(dfa)
        index = {}
        for position, component in enumerate(components):
            for state in component:
                index[state] = position
        for state, _symbol, target in dfa.transitions():
            assert index[state] <= index[target]

    def test_example2_has_three_looping_components(self):
        # Figure 2: C1 = {q4}, C2 = {q5, q6}, C3 = {q7} (plus sink loops).
        dfa = _dfa("a(c{2,} + eps)(a+b)*(ac)?a*")
        loops = looping_states(dfa)
        components = [
            c for c in strongly_connected_components(dfa) if c & loops
        ]
        non_sink = [
            c
            for c in components
            if any(dfa.with_initial(q).is_empty() is False for q in c)
        ]
        assert len(non_sink) == 3

    @pytest.mark.parametrize("pool", ["catalog", 1, 2, 3])
    def test_same_components_in_the_same_order_as_tarjan(self, pool):
        # Order matters: psitr.synthesize enumerates component chains
        # in it.
        if pool == "catalog":
            dfas = [entry.language().dfa for entry in catalog.entries()]
        else:
            dfas = [
                _dfa(regex)
                for regex in random_regexes(300, seed=0, max_depth=pool)
            ]
        for dfa in dfas:
            assert strongly_connected_components(dfa) == (
                _tarjan_components(dfa)
            ), dfa

    def test_internal_alphabet(self):
        dfa = _dfa("a*ba*")
        loops = looping_states(dfa)
        for component in strongly_connected_components(dfa):
            (state,) = list(component)[:1]
            if state in loops and not dfa.with_initial(state).is_empty():
                assert internal_alphabet(dfa, component) == {"a"}


class TestLoops:
    def test_looping_states_of_finite_language(self):
        dfa = _dfa("ab", alphabet={"a", "b"})
        loops = looping_states(dfa)
        # Only the sink can loop in a finite language's DFA.
        for state in loops:
            assert dfa.with_initial(state).is_empty()


class TestAperiodicity:
    @pytest.mark.parametrize(
        "text,aperiodic",
        [
            ("a*ba*", True),
            ("a*(bb+ + eps)c*", True),
            ("(aa)*", False),
            # (ab)* is star-free, hence aperiodic — yet not in trC:
            # aperiodicity is necessary for trC, not sufficient.
            ("(ab)*", True),
            ("abc", True),
            ("(a+b)*", True),
            ("(aaa)*", False),
        ],
    )
    def test_known_languages(self, text, aperiodic):
        assert is_aperiodic(_dfa(text)) is aperiodic

    def test_trc_languages_are_aperiodic(self):
        # The paper: every trC language is aperiodic (Claim 2).
        from repro import catalog
        from repro.core.trc import is_in_trc

        for entry in catalog.entries():
            dfa = _dfa(entry.regex)
            if is_in_trc(dfa):
                assert is_aperiodic(dfa), entry.name

    def test_transition_monoid_size(self):
        # Over one letter, the monoid of (aa)* is {identity, swap}.
        monoid = transition_monoid(_dfa("(aa)*"))
        assert len(monoid) == 2
