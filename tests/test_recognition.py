"""Tests for tractability recognition (Theorem 3)."""

import pytest

from repro import catalog, language
from repro.algorithms.reductions import (
    emptiness_to_trc_instance,
    universality_to_trc_instance,
)
from repro.languages.dfa import from_nfa
from repro.languages.nfa import nfa_from_ast
from repro.languages.regex.parser import parse
from repro.core.trc import (
    recognize_tractable_dfa,
    recognize_tractable_nfa,
    recognize_tractable_regex,
)


class TestDfaRecognition:
    @pytest.mark.parametrize("entry", catalog.entries(), ids=lambda e: e.name)
    def test_catalog(self, entry):
        dfa = entry.language().dfa
        report = recognize_tractable_dfa(dfa)
        assert report.tractable is (entry.complexity != "NP-complete")

    def test_non_minimal_input_handled(self):
        # Feed the recognizer an unminimised subset-construction DFA.
        raw = from_nfa(nfa_from_ast(parse("a*ba* + a*ba*")))
        report = recognize_tractable_dfa(raw)
        assert not report.tractable
        assert report.minimal_states <= report.input_states

    def test_report_contents(self):
        report = recognize_tractable_dfa(language("a*c*").dfa)
        assert report.tractable
        assert report.violating_pair is None
        assert report.pairs_checked >= 1

    def test_violating_pair_reported(self):
        report = recognize_tractable_dfa(language("(aa)*").dfa)
        assert not report.tractable
        assert report.violating_pair is not None

    def test_type_checked(self):
        with pytest.raises(TypeError):
            recognize_tractable_dfa("a*")


class TestNfaRecognition:
    def test_regex_entry_point(self):
        assert recognize_tractable_regex("a*(bb+ + eps)c*").tractable
        assert not recognize_tractable_regex("a*ba*").tractable

    def test_blowup_recorded(self):
        report = recognize_tractable_regex("(0+1)*1(0+1)(0+1)(0+1)")
        # The k-th-letter-from-the-end family forces ≥ 2^k determinized
        # states — the PSPACE lower bound's fingerprint.
        assert report.determinized_states >= 2 ** 3

    def test_type_checked(self):
        with pytest.raises(TypeError):
            recognize_tractable_nfa("not an nfa")


class TestHardnessFamilies:
    """Recognition must answer correctly on both reduction families."""

    @pytest.mark.parametrize("regex,empty", [("ab", False), ("a*b", False)])
    def test_emptiness_family_nonempty(self, regex, empty):
        instance = emptiness_to_trc_instance(language(regex).dfa)
        assert recognize_tractable_dfa(instance).tractable is empty

    def test_emptiness_family_empty(self):
        instance = emptiness_to_trc_instance(
            language("∅", alphabet={"a"}).dfa
        )
        assert recognize_tractable_dfa(instance).tractable

    @pytest.mark.parametrize(
        "regex,universal",
        [("(0+1)*", True), ("(00+1)*", False), ("0*", False)],
    )
    def test_universality_family(self, regex, universal):
        instance = universality_to_trc_instance(nfa_from_ast(parse(regex)))
        assert recognize_tractable_nfa(instance).tractable is universal
