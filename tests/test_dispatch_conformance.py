"""Dispatch conformance: every plan runs the regime the trichotomy
assigns its language (Theorem 2).

Finite languages plan to the AC0 solver, infinite trC languages to the
NL solver with a Ψtr decomposition (never the ``decompose_failed``
exact fallback), and every other language to exact backtracking.
Checked on the catalog and on the two seeded regex pools.
"""

import pytest

from repro.core.solver import (
    STRATEGY_EXACT,
    STRATEGY_FINITE,
    STRATEGY_TRACTABLE,
)
from tests.conftest import pool_plans


def _expected_strategy(classification):
    if classification.finite:
        return STRATEGY_FINITE
    if classification.in_trc:
        return STRATEGY_TRACTABLE
    return STRATEGY_EXACT


@pytest.mark.parametrize("pool", ["catalog", "depth1", "depth3"])
def test_every_plan_runs_its_regime(pool):
    wrong = [
        (regex, plan.strategy, plan.decompose_failed)
        for regex, plan in pool_plans(pool)
        if plan.strategy != _expected_strategy(plan.classification)
        or plan.decompose_failed
    ]
    assert wrong == []
