"""Tests for the invariant analyzer in tools/invariants.

Covers: each rule flags its seeded-violation fixture, the analyzer runs
clean on the real source tree (meta-test), the CLI exit-code contract,
JSON output shape, and the suppression-comment syntax.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS_DIR = REPO_ROOT / "tools"
FIXTURES = TOOLS_DIR / "invariants" / "fixtures"
RUN_PY = TOOLS_DIR / "invariants" / "run.py"

sys.path.insert(0, str(TOOLS_DIR))

from invariants.engine import ALL_RULES, run_analysis  # noqa: E402

SNAPSHOT_FP = TOOLS_DIR / "invariants" / "snapshot_layout.json"
ANNOTATIONS_BASELINE = TOOLS_DIR / "invariants" / "annotations_baseline.txt"


def analyze(paths, rules=None, snapshot_fp=SNAPSHOT_FP):
    violations, _project = run_analysis(
        [Path(p) for p in paths],
        root=REPO_ROOT,
        rule_names=rules,
        snapshot_fingerprint=snapshot_fp,
        annotations_baseline=ANNOTATIONS_BASELINE,
    )
    return violations


def run_cli(*args):
    return subprocess.run(
        [sys.executable, str(RUN_PY), *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


# ---------------------------------------------------------------------------
# Per-rule fixture tests: every rule must flag its seeded violation.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rule",
    [
        "lock-discipline",
        "solver-purity",
        "hot-loop",
        "snapshot-readonly",
        "protocol-drift",
        "api-types",
        "fault-gate",
    ],
)
def test_rule_flags_its_fixture(rule):
    fixture = FIXTURES / ("fixture_%s.py" % rule.replace("-", "_"))
    violations = analyze([fixture], rules=[rule])
    assert violations, "expected %s to flag %s" % (rule, fixture.name)
    assert all(v.rule == rule for v in violations)


def test_snapshot_rule_flags_missing_fingerprint(tmp_path):
    fixture = FIXTURES / "fixture_snapshot_layout.py"
    violations = analyze(
        [fixture],
        rules=["snapshot-layout"],
        snapshot_fp=tmp_path / "absent.json",
    )
    assert len(violations) == 1
    assert "no committed layout fingerprint" in violations[0].message


def test_snapshot_rule_flags_change_without_version_bump(tmp_path):
    fixture = FIXTURES / "fixture_snapshot_layout.py"
    stale = tmp_path / "fp.json"
    stale.write_text(json.dumps({"format_version": 1, "fingerprint": "0" * 64}))
    violations = analyze([fixture], rules=["snapshot-layout"], snapshot_fp=stale)
    assert len(violations) == 1
    assert "FORMAT_VERSION is still 1" in violations[0].message


def test_lock_fixture_message_names_attribute():
    fixture = FIXTURES / "fixture_lock_discipline.py"
    (violation,) = analyze([fixture], rules=["lock-discipline"])
    assert "_entries" in violation.message
    assert violation.line == 19


def test_snapshot_readonly_fixture_reports_all_shapes():
    fixture = FIXTURES / "fixture_snapshot_readonly.py"
    violations = analyze([fixture], rules=["snapshot-readonly"])
    assert len(violations) == 5
    messages = "\n".join(v.message for v in violations)
    assert "store into a subscript" in messages
    assert "del of a subscript" in messages
    assert "in-place byteswap()" in messages
    assert "held snapshot mapping" in messages


@pytest.mark.parametrize("relpath, flagged", [
    ("service/snapshot.py", True),
    ("service/workers.py", True),
    ("service/registry.py", True),
    ("engine/indexed.py", True),
    ("service/server.py", False),
])
def test_snapshot_readonly_scope_covers_the_pooled_registry(
    tmp_path, relpath, flagged
):
    # A pooled registry entry serves the parent's engine from the
    # mapping its workers attach, so the registry is checked without
    # opting in.
    module = tmp_path / relpath
    module.parent.mkdir(parents=True)
    module.write_text(
        "def serve(entry):\n"
        "    entry.engine.graph.out_targets[0] = 1\n"
    )
    violations = analyze([module], rules=["snapshot-readonly"])
    assert [v.rule for v in violations] == (
        ["snapshot-readonly"] if flagged else []
    )


def test_purity_fixture_reports_all_three_shapes():
    fixture = FIXTURES / "fixture_solver_purity.py"
    messages = "\n".join(v.message for v in analyze([fixture], rules=["solver-purity"]))
    assert "module-level mutable state" in messages
    assert "ExecutionContext" in messages
    assert "instance state" in messages


def test_protocol_drift_flags_a_missing_server_handler(tmp_path):
    # A renamed handler must not switch the payload check off silently.
    server = tmp_path / "service" / "server.py"
    server.parent.mkdir()
    server.write_text(
        "from .protocol import result_record\n"
        "\n"
        "\n"
        "async def _query(payload):\n"
        "    return 200, result_record(payload)\n"
    )
    (violation,) = analyze([server], rules=["protocol-drift"])
    assert "_batch() not found" in violation.message


# ---------------------------------------------------------------------------
# Meta-test: the real source tree is invariant-clean.
# ---------------------------------------------------------------------------


def test_source_tree_is_clean():
    violations = analyze([REPO_ROOT / "src" / "repro"])
    assert violations == [], "\n".join(str(v) for v in violations)


# ---------------------------------------------------------------------------
# Suppression and scope directives.
# ---------------------------------------------------------------------------


def test_allow_comment_suppresses_violation(tmp_path):
    mod = tmp_path / "suppressed.py"
    mod.write_text(
        "# invariant-scope: api-types\n"
        "def untyped(value):  # invariant: allow=api-types\n"
        "    return value\n"
    )
    assert analyze([mod], rules=["api-types"]) == []


def test_scope_directive_pulls_file_into_rule(tmp_path):
    mod = tmp_path / "plain.py"
    mod.write_text("def untyped(value):\n    return value\n")
    # Without a scope directive an out-of-tree file is not checked.
    assert analyze([mod], rules=["api-types"]) == []
    mod.write_text(
        "# invariant-scope: api-types\n"
        "def untyped(value):\n"
        "    return value\n"
    )
    assert len(analyze([mod], rules=["api-types"])) == 1


def test_syntax_error_reported_as_parse_violation(tmp_path):
    mod = tmp_path / "broken.py"
    mod.write_text("def broken(:\n")
    violations = analyze([mod])
    assert len(violations) == 1
    assert violations[0].rule == "parse-error"


# ---------------------------------------------------------------------------
# CLI contract: exit codes, --json, --list-rules.
# ---------------------------------------------------------------------------


def test_cli_exits_zero_on_source_tree():
    proc = run_cli("src/repro")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violations" in proc.stdout


def test_cli_exits_one_on_each_fixture():
    for fixture in sorted(FIXTURES.glob("fixture_*.py")):
        if fixture.name == "fixture_snapshot_layout.py":
            proc = run_cli(
                str(fixture), "--snapshot-fingerprint", "/nonexistent/fp.json"
            )
        else:
            proc = run_cli(str(fixture))
        assert proc.returncode == 1, "%s: %s" % (fixture.name, proc.stdout)


def test_cli_json_output_shape():
    proc = run_cli(str(FIXTURES / "fixture_api_types.py"), "--json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["checked_files"] == 1
    assert len(payload["rules"]) == 8
    (record,) = payload["violations"]
    assert record["rule"] == "api-types"
    assert record["path"].endswith("fixture_api_types.py")
    assert isinstance(record["line"], int)
    assert "missing annotations" in record["message"]


def test_cli_list_rules_covers_all_eight():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in ALL_RULES:
        assert rule.name in proc.stdout
    assert len(ALL_RULES) == 8


def test_cli_unknown_rule_is_usage_error():
    proc = run_cli("src/repro", "--rule", "no-such-rule")
    assert proc.returncode == 2
