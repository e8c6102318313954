"""Randomized Ψtr-expression stress test for the tractable solver.

Generates a deterministic family of random Ψtr expressions (the
fragment is exactly trC, Theorem 4), compiles each to a language, and
cross-validates the anchored solver against the exact solver on random
graphs.  This widens the completeness validation far beyond the
catalog: adjacent star terms, shared alphabets, overlapping optional
words, leading/trailing words.
"""

import random

import pytest

from repro.algorithms.exact import ExactSolver
from repro.core.nice_paths import TractableSolver
from repro.core.psitr import (
    Fragment,
    FragmentTerm,
    PsitrExpression,
    PsitrSequence,
    StarTerm,
)
from repro.core.trc import is_in_trc
from repro.graphs.generators import random_labeled_graph
from repro.languages import Language

ALPHABET = "abc"


def _random_sequence(rng):
    lead = "".join(
        rng.choice(ALPHABET) for _ in range(rng.randint(0, 2))
    )
    trail = "".join(
        rng.choice(ALPHABET) for _ in range(rng.randint(0, 2))
    )
    terms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.6:
            size = rng.randint(1, 2)
            symbols = frozenset(rng.sample(ALPHABET, size))
            terms.append(StarTerm(symbols, rng.randint(1, 2)))
        else:
            word = "".join(
                rng.choice(ALPHABET) for _ in range(rng.randint(1, 2))
            )
            terms.append(FragmentTerm(Fragment.word(word)))
    return PsitrSequence(Fragment.word(lead), tuple(terms), Fragment.word(trail))


def _random_expression(seed):
    rng = random.Random(seed)
    sequences = tuple(
        _random_sequence(rng) for _ in range(rng.randint(1, 2))
    )
    return PsitrExpression(sequences)


EXPRESSION_SEEDS = list(range(24))


@pytest.mark.parametrize("seed", EXPRESSION_SEEDS)
def test_random_psitr_language_is_trc(seed):
    # The easy direction of Theorem 4 on random fragment members.
    expression = _random_expression(seed)
    lang = Language(expression.to_nfa(), alphabet=set(ALPHABET))
    assert is_in_trc(lang.dfa), str(expression)


@pytest.mark.parametrize("seed", EXPRESSION_SEEDS)
def test_solver_agrees_with_exact(seed):
    expression = _random_expression(seed)
    lang = Language(expression.to_nfa(), alphabet=set(ALPHABET))
    solver = TractableSolver(lang, expression=expression)
    exact = ExactSolver(lang)
    rng = random.Random(1000 + seed)
    for _query in range(12):
        n = rng.randint(4, 9)
        graph = random_labeled_graph(
            n, rng.randint(n, 3 * n), ALPHABET, seed=rng.randrange(10**6)
        )
        x, y = rng.randrange(n), rng.randrange(n)
        mine = solver.shortest_simple_path(graph, x, y)
        truth = exact.shortest_simple_path(graph, x, y)
        assert (mine is None) == (truth is None), (
            str(expression), n, x, y)
        if mine is not None:
            assert len(mine) == len(truth), (str(expression), n, x, y)
