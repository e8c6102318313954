"""Rule ``snapshot-layout``: layout changes require a version bump.

The binary snapshot format in ``service/snapshot.py`` is defined by a
handful of module-level constants — the magic bytes, the supported
versions, the array manifests, and the ``struct`` header formats.
Snapshot files live on disk across deploys, so any change to those
constants MUST come with a ``FORMAT_VERSION`` bump: a file written
under the old layout then fails its load with an error naming its
version instead of being misread.

The rule hashes the layout constants into a fingerprint and compares
it against the committed ``tools/invariants/snapshot_layout.json``:

* fingerprint changed, version unchanged  -> violation (forgot the bump);
* fingerprint or version out of sync with the committed file
  -> violation (run ``repro-invariants --update-snapshot-fingerprint``
  after a deliberate, version-bumped change).
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Iterable, Iterator

from ..base import Project, Rule, SourceModule, Violation

#: Module-level constants that pin the on-disk layout (beyond the
#: version number itself).
LAYOUT_CONSTANTS = (
    "MAGIC",
    "SUPPORTED_VERSIONS",
    "_ARRAY_NAMES_V1",
    "_REACH_ARRAY_NAMES",
)
VERSION_CONSTANT = "FORMAT_VERSION"


def _module_assignments(tree: ast.AST) -> dict[str, ast.expr]:
    values: dict[str, ast.expr] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    values[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                values[node.target.id] = node.value
    return values


def _literal(node: ast.expr):
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None


def _struct_formats(values: dict[str, ast.expr]) -> dict[str, str]:
    """``NAME -> fmt`` for every ``NAME = struct.Struct("fmt")``."""
    formats: dict[str, str] = {}
    for name, value in values.items():
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        is_struct = (
            (isinstance(func, ast.Attribute) and func.attr == "Struct")
            or (isinstance(func, ast.Name) and func.id == "Struct")
        )
        if is_struct and value.args:
            fmt = _literal(value.args[0])
            if isinstance(fmt, str):
                formats[name] = fmt
    return formats


def compute_layout(module: SourceModule) -> tuple[dict, list[str]]:
    """The canonical layout dict plus any missing constant names."""
    values = _module_assignments(module.tree)
    layout: dict = {}
    missing: list[str] = []
    for name in LAYOUT_CONSTANTS:
        if name not in values:
            missing.append(name)
            continue
        literal = _literal(values[name])
        if literal is None:
            missing.append(name)
            continue
        layout[name] = repr(literal)
    layout["struct_formats"] = _struct_formats(values)
    return layout, missing


def layout_fingerprint(layout: dict) -> str:
    canonical = json.dumps(layout, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def current_version(module: SourceModule) -> int | None:
    values = _module_assignments(module.tree)
    node = values.get(VERSION_CONSTANT)
    if node is None:
        return None
    version = _literal(node)
    return version if isinstance(version, int) else None


def snapshot_modules(project: Project) -> Iterator[SourceModule]:
    rule = SnapshotLayoutRule()
    for module in project.modules:
        if module.tree is not None and rule.in_scope(project, module):
            yield module


class SnapshotLayoutRule(Rule):
    name = "snapshot-layout"
    description = (
        "snapshot layout constants match the committed fingerprint; "
        "layout changes come with a FORMAT_VERSION bump"
    )

    def path_in_scope(self, posix_relpath: str) -> bool:
        return posix_relpath.endswith("service/snapshot.py")

    def run(self, project: Project) -> Iterable[Violation]:
        for module in project.modules:
            if module.tree is None or not self.in_scope(project, module):
                continue
            yield from self._check_module(project, module)

    def _check_module(
        self, project: Project, module: SourceModule
    ) -> Iterator[Violation]:
        layout, missing = compute_layout(module)
        anchor = module.tree
        for name in missing:
            yield module.violation(
                self.name,
                anchor,
                "layout constant %s is missing or not a literal; the "
                "snapshot format must be pinned by module-level "
                "constants" % name,
            )
        version = current_version(module)
        if version is None:
            yield module.violation(
                self.name,
                anchor,
                "missing integer %s constant" % VERSION_CONSTANT,
            )
            return
        if missing:
            return
        fingerprint = layout_fingerprint(layout)
        committed = self._committed(project)
        if committed is None:
            yield module.violation(
                self.name,
                anchor,
                "no committed layout fingerprint (%s); run "
                "`repro-invariants --update-snapshot-fingerprint`"
                % (project.snapshot_fingerprint or "<unset>"),
            )
            return
        old_version = committed.get("format_version")
        old_fingerprint = committed.get("fingerprint")
        if fingerprint != old_fingerprint and version == old_version:
            yield module.violation(
                self.name,
                anchor,
                "snapshot layout constants changed but %s is still %s; "
                "bump the version, then run "
                "`repro-invariants --update-snapshot-fingerprint`"
                % (VERSION_CONSTANT, version),
            )
        elif fingerprint != old_fingerprint or version != old_version:
            yield module.violation(
                self.name,
                anchor,
                "committed snapshot fingerprint is stale (layout v%s vs "
                "committed v%s); run `repro-invariants "
                "--update-snapshot-fingerprint`" % (version, old_version),
            )

    @staticmethod
    def _committed(project: Project) -> dict | None:
        path = project.snapshot_fingerprint
        if path is None or not path.is_file():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None
