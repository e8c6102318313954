"""Rule registry: every enforced invariant, one instance each."""

from __future__ import annotations

from ..base import AnalyzerError, Rule
from .api_types import ApiTypesRule
from .fault_gate import FaultGateRule
from .hot_loop import HotLoopRule
from .lock_discipline import LockDisciplineRule
from .one_lru import OneLruRule
from .protocol_drift import ProtocolDriftRule
from .purity import SolverPurityRule
from .snapshot_layout import SnapshotLayoutRule
from .snapshot_readonly import SnapshotReadonlyRule

ALL_RULES: tuple[Rule, ...] = (
    LockDisciplineRule(),
    SolverPurityRule(),
    HotLoopRule(),
    SnapshotLayoutRule(),
    SnapshotReadonlyRule(),
    ProtocolDriftRule(),
    ApiTypesRule(),
    FaultGateRule(),
    OneLruRule(),
)


def get_rule(name: str) -> Rule:
    for rule in ALL_RULES:
        if rule.name == name:
            return rule
    raise AnalyzerError(
        "unknown rule %r (known: %s)"
        % (name, ", ".join(rule.name for rule in ALL_RULES))
    )


__all__ = ["ALL_RULES", "get_rule"]
