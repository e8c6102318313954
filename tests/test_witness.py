"""Tests for Property-(1) hardness witnesses (Lemma 4)."""

import random

import pytest

from benchmarks.workloads import random_regexes
from repro import catalog
from repro.core.trc import is_in_trc
from repro.core.witness import (
    HardnessWitness,
    _loops_then_wr_avoids,
    find_hardness_witness,
    verify_witness,
)
from repro.languages import language
from repro.languages.nfa import star_nfa, word_nfa


def product_avoids(dfa, q1, w1, w2, wr):
    """Condition 6, ``(w1 + w2)* wr ∩ L_{q1} = ∅``, by the NFA product
    that the DFA walk replaced; kept as the oracle."""
    loops = star_nfa(word_nfa(w1).union(word_nfa(w2)))
    candidate = loops.concat(word_nfa(wr))
    return candidate.intersect_dfa(dfa, dfa_initial=q1).is_empty()


def non_trc_dfas(source):
    """The minimal DFAs outside trC of the catalog or of pool (180, 0, 1)."""
    if source == "catalog":
        dfas = [entry.language().dfa for entry in catalog.entries()]
    else:
        dfas = [
            language(regex).dfa
            for regex in random_regexes(180, seed=0, max_depth=1)
        ]
    return [dfa for dfa in dfas if not is_in_trc(dfa)]


class TestConditionSix:
    @pytest.mark.parametrize("source", ["catalog", "pool"])
    def test_walk_matches_product(self, source):
        rng = random.Random(6)
        outcomes = set()
        for dfa in non_trc_dfas(source):
            letters = sorted(dfa.alphabet)

            def word(low, high):
                return "".join(
                    rng.choice(letters) for _ in range(rng.randint(low, high))
                )

            for _ in range(25):
                q1 = rng.randrange(dfa.num_states)
                w1, w2, wr = word(1, 4), word(1, 4), word(0, 4)
                expected = product_avoids(dfa, q1, w1, w2, wr)
                assert _loops_then_wr_avoids(dfa, q1, w1, w2, wr) is expected, (
                    dfa, q1, w1, w2, wr,
                )
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_pool_witness_is_pinned(self):
        # An 11-state minimal DFA of pool (180, 0, 1) whose guided search
        # verifies about 28,000 candidates before it finds this one.
        lang = language("c(c*a + cbb)(ca*) + (cb*c*)^+")
        assert lang.num_states == 11
        assert find_hardness_witness(lang.dfa) == HardnessWitness(
            q1=8, q2=6, wl="ccc", w1="c", wm="ac", w2="aa", wr="a",
        )


class TestWitnessSearch:
    @pytest.mark.parametrize(
        "entry", catalog.hard_entries(), ids=lambda e: e.name
    )
    def test_every_hard_catalog_language_has_witness(self, entry):
        lang = entry.language()
        witness = find_hardness_witness(lang.dfa)
        assert witness is not None
        assert verify_witness(lang.dfa, witness)

    @pytest.mark.parametrize(
        "entry", catalog.tractable_entries(), ids=lambda e: e.name
    )
    def test_tractable_languages_have_none(self, entry):
        assert find_hardness_witness(entry.language().dfa) is None


class TestWitnessSemantics:
    def test_witness_words_pump_inside_l(self):
        lang = language("a*ba*")
        witness = find_hardness_witness(lang.dfa)
        # wl w1^j wm w2^i wr ∈ L for all i, j (conditions 1-5).
        for i in range(3):
            for j in range(3):
                word = (
                    witness.wl
                    + witness.w1 * j
                    + witness.wm
                    + witness.w2 * i
                    + witness.wr
                )
                assert lang.accepts(word), (i, j, word)

    def test_witness_without_middle_never_in_l(self):
        lang = language("a*ba*")
        witness = find_hardness_witness(lang.dfa)
        # wl (w1|w2)* wr ∩ L = ∅ (condition 6): check small samples.
        pieces = [witness.w1, witness.w2]
        samples = [""]
        for _ in range(3):
            samples = [s + p for s in samples for p in pieces] + samples
        for middle in set(samples):
            assert not lang.accepts(witness.wl + middle + witness.wr)

    def test_verify_rejects_corrupted_witness(self):
        lang = language("a*ba*")
        witness = find_hardness_witness(lang.dfa)
        broken = HardnessWitness(
            witness.q1, witness.q2, witness.wl, witness.w1,
            witness.wm + witness.wm, witness.w2, witness.wr,
        )
        # Doubling wm drives past q2 (b twice hits the sink) — invalid.
        assert not verify_witness(lang.dfa, broken)

    def test_verify_rejects_empty_loop_words(self):
        lang = language("a*ba*")
        witness = find_hardness_witness(lang.dfa)
        broken = HardnessWitness(
            witness.q1, witness.q2, witness.wl, "", witness.wm,
            witness.w2, witness.wr,
        )
        assert not verify_witness(lang.dfa, broken)

    def test_figure1_language_witness_shape(self):
        # For a*b(cc)*d the paper picks wl=w1=a, wm=b, w2=cc, wr=d;
        # any verified witness must satisfy the same six conditions.
        lang = language("a*b(cc)*d")
        witness = find_hardness_witness(lang.dfa)
        dfa = lang.dfa
        assert dfa.run(witness.wl) == witness.q1
        assert dfa.run_from(witness.q1, witness.w1) == witness.q1
        assert dfa.run_from(witness.q1, witness.wm) == witness.q2
        assert dfa.run_from(witness.q2, witness.w2) == witness.q2
        assert dfa.run_from(witness.q2, witness.wr) in dfa.accepting
