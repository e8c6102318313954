"""Tests for the algebraic bounded simple-path detector.

The multilinear-detection property is algebraic, not statistical:
every walk revisiting a vertex contributes exactly zero over
``GF(2^16)[Z_2^r]`` in characteristic 2, so ``True`` answers are
certified.  The differential block pins the decision against the
exact solver's ground truth; Monte-Carlo ``False`` misses would fail
the one-sided assertions with probability < 1e-3 per instance.
"""

import random

import pytest

from tests.conftest import random_instance

from repro.algorithms.algebraic import (
    MAX_GROUP_RANK,
    AlgebraicSolver,
    _gf_tables,
    gf_mul,
    runs_for_prob,
)
from repro.algorithms.exact import ExactSolver
from repro.errors import BudgetExceededError
from repro.execution import ExecutionContext
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import labeled_path
from repro.languages import language


def _reference_mul(a, b):
    """Shift-and-xor product of two GF(2^16) elements modulo 0x1100B."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a & 0x10000:
            a ^= 0x1100B
    return product


class TestFieldArithmetic:
    def test_zero_absorbs(self):
        assert gf_mul(0, 12345) == 0
        assert gf_mul(12345, 0) == 0

    def test_one_is_identity(self):
        for value in (1, 2, 0x1234, 0xFFFF):
            assert gf_mul(1, value) == value

    def test_multiplication_is_invertible(self):
        # A field has no zero divisors: products of nonzero elements
        # are nonzero (the certification argument relies on this).
        for a in (3, 0x8001, 0xBEEF):
            for b in (7, 0x4242, 0xFFFF):
                assert gf_mul(a, b) != 0

    def test_tables_are_inverse_permutations_of_the_nonzero_elements(self):
        exp, log = _gf_tables()
        order = (1 << 16) - 1
        # exp runs through every nonzero element once before it repeats
        # (period 65,535), so x generates the multiplicative group and
        # 0x1100B is primitive.
        assert sorted(exp[:order]) == list(range(1, order + 1))
        assert exp[order:] == exp[:order]
        assert all(log[exp[power]] == power for power in range(order))
        assert all(exp[log[value]] == value for value in range(1, order + 1))

    def test_gf_mul_matches_shift_and_xor_reference(self):
        rand = random.Random(0x1100B)
        pairs = [(rand.randrange(1 << 16), rand.randrange(1 << 16))
                 for _ in range(2000)]
        pairs += [(0x8000, 0x8000), (0xFFFF, 0xFFFF), (2, 0x8000)]
        for a, b in pairs:
            assert gf_mul(a, b) == _reference_mul(a, b), (a, b)

    def test_repeated_calls_share_one_pair_of_tables(self):
        exp, log = _gf_tables()
        again_exp, again_log = _gf_tables()
        assert again_exp is exp and again_log is log


class TestRunCalibration:
    def test_more_runs_for_stricter_bounds(self):
        assert runs_for_prob(1e-6) > runs_for_prob(1e-2)

    def test_invalid_bounds_rejected(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                runs_for_prob(bad)


class TestExists:
    def test_detects_path_on_a_line(self):
        graph = labeled_path("aba")
        solver = AlgebraicSolver("aba")
        assert solver.exists(graph, 0, 3, 3)

    def test_respects_length_bound(self):
        graph = labeled_path("aaaa")
        solver = AlgebraicSolver("a{4}")
        assert not solver.exists(graph, 0, 4, 3)
        assert solver.exists(graph, 0, 4, 4)

    def test_source_equals_target_is_the_empty_path(self):
        graph = labeled_path("a")
        assert AlgebraicSolver("a*").exists(graph, 0, 0, 2)
        assert not AlgebraicSolver("aa*").exists(graph, 0, 0, 2)

    def test_rank_cap_is_a_value_error(self):
        graph = labeled_path("a")
        solver = AlgebraicSolver("a*")
        with pytest.raises(ValueError, match="MAX_GROUP_RANK"):
            solver.exists(graph, 0, 1, MAX_GROUP_RANK)
        with pytest.raises(ValueError):
            solver.exists(graph, 0, 1, -1)

    def test_non_simple_walks_cancel(self):
        # The only (aa)*-walk 0-1-2-3-1-2-4 revisits vertices, so its
        # contribution is algebraically zero in every run: the answer
        # must be False deterministically, not merely w.h.p.
        graph = DbGraph()
        for u, l, v in [
            (0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 1),
            (2, "a", 4),
        ]:
            graph.add_edge(u, l, v)
        solver = AlgebraicSolver("(aa)*", failure_probability=0.5)
        assert not solver.exists(graph, 0, 4, 6)

    def test_deterministic_per_seed(self):
        graph, x, y = random_instance(3, "ab", max_vertices=8)
        a = AlgebraicSolver("a*ba*", seed=7)
        b = AlgebraicSolver("a*ba*", seed=7)
        assert a.exists(graph, x, y, 5) == b.exists(graph, x, y, 5)

    def test_budget_bites_inside_a_run(self):
        graph = labeled_path("aaaaaa")
        solver = AlgebraicSolver("(aa)*")
        ctx = ExecutionContext(budget=1)
        with pytest.raises(BudgetExceededError):
            # The layered DP charges one step per expanded product
            # state, so a one-step budget must fire inside the first
            # run — not after it.
            solver.exists(graph, 0, 6, 6, ctx=ctx)

    @pytest.mark.parametrize("regex", ["a*ba*", "(aa)*", "a*c*"])
    def test_differential_against_exact(self, regex):
        lang = language(regex)
        algebraic = AlgebraicSolver(lang, seed=11)
        exact = ExactSolver(lang)
        alphabet = sorted(lang.alphabet)
        for seed in range(12):
            graph, x, y = random_instance(seed, alphabet, max_vertices=7)
            k = 4
            truth_path = exact.shortest_simple_path(graph, x, y)
            truth = truth_path is not None and len(truth_path) <= k
            got = algebraic.exists(graph, x, y, k)
            if got:
                # True is certified: it may never contradict exact.
                assert truth, (regex, seed)
            else:
                assert not truth, (
                    "algebraic miss (prob < 1e-3) on %r seed %d"
                    % (regex, seed)
                )
