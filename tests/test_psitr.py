"""Tests for the Ψtr fragment (Theorem 4)."""

import time

import pytest

from repro import catalog
from repro.core.psitr import (
    Fragment,
    FragmentTerm,
    PsitrExpression,
    PsitrSequence,
    StarTerm,
    decompose,
    equivalent_to,
    extract,
    synthesize,
)
from repro.core.trc import is_in_trc
from repro.engine import QueryPlan
from repro.errors import NotInTrCError, ReproError
from repro.languages import Language, language
from repro.languages.nfa import nfa_from_ast
from tests.conftest import infinite_trc_plans


class TestTermConstruction:
    def test_star_term_requires_positive_k(self):
        with pytest.raises(ValueError):
            StarTerm(frozenset("a"), 0)

    def test_star_term_requires_symbols(self):
        with pytest.raises(ValueError):
            StarTerm(frozenset(), 1)

    def test_optional_word_requires_word(self):
        with pytest.raises(ValueError):
            FragmentTerm(Fragment.word(""))

    def test_sequence_rejects_foreign_terms(self):
        with pytest.raises(TypeError):
            PsitrSequence(Fragment.word("a"), ("not a term",), Fragment.word("b"))

    def test_sequence_rejects_plain_words(self):
        with pytest.raises(TypeError):
            PsitrSequence("a", (), Fragment.word("b"))


class TestCompilation:
    def test_sequence_language(self):
        seq = PsitrSequence(
            Fragment.word("x"),
            (StarTerm(frozenset("a"), 2), FragmentTerm(Fragment.word("yz"))),
            Fragment.word("w"),
        )
        lang = Language(seq.to_nfa())
        assert lang.accepts("xw")            # both terms skipped
        assert lang.accepts("xaaw")          # two a's
        assert lang.accepts("xaaaw")
        assert lang.accepts("xyzw")
        assert lang.accepts("xaayzw")
        assert not lang.accepts("xaw")       # one a < k
        assert not lang.accepts("xyw")       # partial word

    def test_expression_union(self):
        expr = PsitrExpression(tuple(
            PsitrSequence(Fragment.word(word), (), Fragment.word(""))
            for word in "ab"
        ))
        lang = expr.to_language()
        assert lang.accepts("a")
        assert lang.accepts("b")
        assert not lang.accepts("ab")

    def test_empty_expression(self):
        assert PsitrExpression(()).to_language(alphabet={"a"}).is_empty()


class TestExtraction:
    @pytest.mark.parametrize(
        "entry", catalog.tractable_entries(), ids=lambda e: e.name
    )
    def test_catalog_extraction_roundtrip(self, entry):
        lang = entry.language()
        expr = extract(lang.ast)
        assert expr is not None, "extraction failed for %s" % entry.name
        assert equivalent_to(expr, lang.dfa)

    @pytest.mark.parametrize(
        "entry", catalog.hard_entries(), ids=lambda e: e.name
    )
    def test_hard_languages_not_extracted_or_not_equivalent(self, entry):
        # Theorem 4: a Ψtr expression would certify trC membership, so
        # no *equivalent* Ψtr extraction may exist for hard languages.
        lang = entry.language()
        expr = extract(lang.ast)
        assert expr is None or not equivalent_to(expr, lang.dfa)

    def test_extracted_expressions_define_trc_languages(self):
        # Lemma 19 (easy direction of Theorem 4): Ψtr ⊆ trC.
        for entry in catalog.tractable_entries():
            expr = extract(entry.language().ast)
            if expr is None:
                continue
            compiled = expr.to_language(alphabet=entry.language().alphabet)
            assert is_in_trc(compiled.dfa), entry.name

    def test_middle_mandatory_word_rejected(self):
        # a*b(cc)*d has a mandatory middle letter — outside Ψtr.
        expr = extract(language("a*b(cc)*d").ast)
        assert expr is None or not equivalent_to(
            expr, language("a*b(cc)*d").dfa
        )


class TestHandwrittenTerms:
    def test_star_terms_from_paper_notation(self):
        # (A≥k + ε) written as [ab]{2,} wrapped optional.
        expr = extract(language("([ab]{2,})?").ast)
        assert expr is not None
        lang = expr.to_language(alphabet={"a", "b"})
        assert lang.accepts("")
        assert lang.accepts("ab")
        assert lang.accepts("bbb")
        assert not lang.accepts("a")


class TestSynthesis:
    def test_synthesis_requires_trc(self):
        with pytest.raises(NotInTrCError):
            synthesize(language("(aa)*").dfa)

    def test_synthesis_of_simple_star(self):
        expr = synthesize(language("a*").dfa)
        assert equivalent_to(expr, language("a*").dfa)

    def test_synthesis_of_empty(self):
        expr = synthesize(language("∅", alphabet={"a"}).dfa)
        assert equivalent_to(expr, language("∅", alphabet={"a"}).dfa)

    def test_synthesis_validates_or_raises(self):
        # Synthesis decomposes every trC language, and what it returns
        # always equals L; a raise is no longer an acceptable answer.
        lang = language("a*c*")
        assert equivalent_to(synthesize(lang.dfa), lang.dfa)

    @pytest.mark.parametrize(
        "regex, k",
        [
            # A candidate shape with connectors from one representative
            # state and exits from every state admits c^k here.
            ("c*a^+", 1),
            # Example 1: the middle star needs at least k = 2 letters.
            ("a*(bb^+ + eps)c*", 2),
            # Example 2: the connector c leaves component {3, 4} only
            # from state 3, so connectors pin letters on both sides.
            ("a(c{2,} + eps)(a+b)*(ac)?a*", 1),
        ],
    )
    def test_named_regressions_on_the_dfa_route(self, regex, k):
        lang = language(regex)
        expression = synthesize(lang.dfa)
        assert expression.k == k
        assert equivalent_to(expression, lang.dfa)

    def test_chain_count_is_capped(self):
        # Sixteen looping components in a row have 2^16 - 1 chains, and
        # the union factor keeps the regex off the extraction route.
        # Synthesis gives up at the cap instead of building them all, and
        # the plan falls back to the exact solver.
        regex = "(xy+z)a*b*c*d*e*f*g*h*i*j*k*l*m*n*o*p*"
        started = time.perf_counter()
        with pytest.raises(ReproError, match="component chains"):
            synthesize(language(regex).dfa)
        assert time.perf_counter() - started < 1.0
        started = time.perf_counter()
        plan = QueryPlan.compile(regex)
        assert plan.decompose_failed
        # Classifying the language takes most of this.
        assert time.perf_counter() - started < 5.0

    def test_fragments_print_as_their_language(self):
        # A fragment prints as a star-free regex of its finite language.
        for _regex, plan in infinite_trc_plans("depth1"):
            for sequence in synthesize(plan.language.dfa).sequences:
                parts = [sequence.lead, sequence.trail] + [
                    term.fragment for term in sequence.terms
                    if isinstance(term, FragmentTerm)
                ]
                for fragment in parts:
                    printed = Language(nfa_from_ast(fragment.to_regex()))
                    assert printed.dfa.equivalent(
                        Language(fragment.to_nfa()).dfa
                    ), str(fragment)


class TestDecompose:
    def test_decompose_rejects_hard_languages(self):
        with pytest.raises(NotInTrCError):
            decompose(language("a*ba*"))

    @pytest.mark.parametrize(
        "entry", catalog.tractable_entries(), ids=lambda e: e.name
    )
    def test_decompose_tractable_catalog(self, entry):
        expr = decompose(entry.language())
        assert equivalent_to(expr, entry.language().dfa)


class TestTheorem4RoundTrip:
    """Theorem 4 in both directions, on the catalog and the regex pools."""

    @pytest.mark.parametrize("pool", ["catalog", "depth1", "depth3"])
    def test_decomposition_roundtrip(self, pool):
        # Every infinite trC language plans a decomposition equal to L,
        # and synthesis alone (the DFA route) equals L as well.
        plans = infinite_trc_plans(pool)
        assert plans
        for regex, plan in plans:
            dfa = plan.language.dfa
            assert equivalent_to(plan.solver.expression, dfa), regex
            assert equivalent_to(synthesize(dfa), dfa), regex

    def test_easy_direction_compiled_expressions_are_trc(self):
        # Lemma 19: Ψtr ⊆ trC, for extracted and synthesized expressions.
        for entry in catalog.tractable_entries():
            lang = entry.language()
            for expression in (extract(lang.ast), synthesize(lang.dfa)):
                if expression is None:
                    continue
                compiled = expression.to_language(alphabet=lang.alphabet)
                assert is_in_trc(compiled.dfa), entry.name

    @pytest.mark.parametrize(
        "entry", catalog.hard_entries(), ids=lambda e: e.name
    )
    def test_hard_languages_have_no_decomposition(self, entry):
        # No Ψtr expression equals a hard language: synthesis finds no k
        # and says why.
        with pytest.raises(NotInTrCError):
            synthesize(entry.language().dfa)
