"""E7 — recognizing tractable languages (Theorem 3).

* DFA representation: recognition cost scales polynomially with the
  (minimal) automaton size.
* NFA/regex representation: the determinization step blows up
  exponentially on the k-th-letter-from-the-end family — the
  algorithmic content of the PSPACE lower bound.
* Both Theorem-3 hardness constructions are exercised end to end.
"""

import pytest

from repro import catalog, language
from repro.algorithms.reductions import (
    emptiness_to_trc_instance,
    universality_to_trc_instance,
)
from repro.languages.nfa import nfa_from_ast
from repro.languages.regex.parser import parse
from repro.core.trc import (
    recognize_tractable_dfa,
    recognize_tractable_nfa,
    recognize_tractable_regex,
)


def _chain_language(length):
    """a*(bb⁺+ε)c* padded with a word prefix to grow the DFA."""
    return language("x" * length + "a*(bb^+ + eps)c*")


@pytest.mark.parametrize("size", [4, 8, 16])
def test_dfa_recognition_scaling(benchmark, size):
    lang = _chain_language(size)
    report = benchmark(recognize_tractable_dfa, lang.dfa)
    assert report.tractable


def test_dfa_recognition_whole_catalog(benchmark):
    dfas = [(e, e.language().dfa) for e in catalog.entries()]

    def run():
        return [
            (entry, recognize_tractable_dfa(dfa).tractable)
            for entry, dfa in dfas
        ]

    results = benchmark(run)
    for entry, tractable in results:
        assert tractable is (entry.complexity != "NP-complete"), entry.name


@pytest.mark.parametrize("k", [4, 7, 10])
def test_nfa_determinization_blowup(benchmark, k):
    # L_k = (0+1)* 1 (0+1)^{k-1}: NFA has O(k) states, the minimal DFA
    # needs 2^k — recognition from the NFA must pay that price.  This
    # bench isolates the determinization step (the exponential part).
    from repro.languages.dfa import from_nfa

    text = "(0+1)*1" + "(0+1)" * (k - 1)
    nfa = nfa_from_ast(parse(text))
    dfa = benchmark(from_nfa, nfa)
    assert dfa.num_states >= 2 ** k
    assert nfa.num_states() <= 12 * k + 12


@pytest.mark.parametrize("k", [3, 4, 5])
def test_nfa_recognition_end_to_end(benchmark, k):
    # Full pipeline (determinize + minimise + the trC decision).  The
    # decision closes the pair graph of the 2^k-state minimal DFA,
    # 4^k nodes with up to 4^k bits of reachability each.
    text = "(0+1)*1" + "(0+1)" * (k - 1)
    nfa = nfa_from_ast(parse(text))
    report = benchmark(recognize_tractable_nfa, nfa)
    assert report.determinized_states >= 2 ** k
    assert report.minimal_states == 2 ** k


def test_emptiness_hardness_family(benchmark):
    cases = [
        (language("∅", alphabet={"a"}), True),
        (language("ab"), False),
        (language("a*b"), False),
    ]

    def run():
        return [
            recognize_tractable_dfa(
                emptiness_to_trc_instance(lang.dfa)
            ).tractable
            for lang, _expected in cases
        ]

    results = benchmark(run)
    assert results == [expected for _lang, expected in cases]


def test_universality_hardness_family(benchmark):
    cases = [("(0+1)*", True), ("(00+1)*", False), ("0*", False)]

    def run():
        return [
            recognize_tractable_nfa(
                universality_to_trc_instance(nfa_from_ast(parse(text)))
            ).tractable
            for text, _expected in cases
        ]

    results = benchmark(run)
    assert results == [expected for _text, expected in cases]


def test_regex_entry_point(benchmark):
    report = benchmark(recognize_tractable_regex, "a*(bb+ + eps)c*")
    assert report.tractable
