"""Rule ``protocol-drift``: one producer, one field order.

``protocol.RESULT_FIELDS`` pins the wire format of a single query
result; consumers stream-parse and byte-diff the output, so the field
list and its *order* are contractual.  The rule enforces:

* ``RESULT_FIELDS`` is a tuple of unique string literals;
* ``result_record()`` returns a dict literal whose keys are exactly
  ``RESULT_FIELDS``, in order (no ``**spread`` — it hides drift);
* the server handlers (``_query``/``_batch`` in ``service/server.py``)
  and the ``--jsonl`` writer (``_write_jsonl`` in ``cli.py``) build
  their payloads through ``result_record``/``batch_record`` rather
  than ad-hoc dicts — directly or via the module-local helpers the
  handler delegates its body to;
* both handlers exist in ``service/server.py``: a renamed handler
  would otherwise switch the check off without a word.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..base import Project, Rule, SourceModule, Violation


def _find_function(
    tree: ast.AST, name: str
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    return None


def _calls_function(fn: ast.AST, callee: str) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == callee:
                return True
            if isinstance(func, ast.Attribute) and func.attr == callee:
                return True
    return False


def _called_names(fn: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def _reaches_function(tree: ast.AST, fn: ast.AST, callee: str) -> bool:
    """True when ``fn`` calls ``callee``, possibly through module-local
    helpers (both handlers delegate to the server's one read method,
    and the payload producer travels with it)."""
    local = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    seen: set[str] = set()
    frontier = [fn]
    while frontier:
        current = frontier.pop()
        if _calls_function(current, callee):
            return True
        for name in _called_names(current):
            if name in local and name not in seen:
                seen.add(name)
                frontier.append(local[name])
    return False


def _result_fields(tree: ast.AST) -> tuple[ast.stmt, list] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and (
                    target.id == "RESULT_FIELDS"
                ):
                    try:
                        value = ast.literal_eval(node.value)
                    except (ValueError, SyntaxError):
                        return node, []
                    return node, list(value)
    return None


class ProtocolDriftRule(Rule):
    name = "protocol-drift"
    description = (
        "server and --jsonl responses are produced by result_record/"
        "batch_record and match protocol.RESULT_FIELDS in order"
    )

    def path_in_scope(self, posix_relpath: str) -> bool:
        return posix_relpath.endswith((
            "service/protocol.py", "service/server.py", "repro/cli.py",
        ))

    def run(self, project: Project) -> Iterable[Violation]:
        for module in project.modules:
            if module.tree is None or not self.in_scope(project, module):
                continue
            posix = Project.posix(module)
            forced = self.name in module.forced_scope
            if posix.endswith("protocol.py") or (
                forced and "RESULT_FIELDS" in module.text
            ):
                yield from self._check_protocol(module)
            if posix.endswith("server.py") or (
                forced and "_query" in module.text
            ):
                yield from self._check_server(module)
            if posix.endswith("cli.py"):
                yield from self._check_cli(module)

    # -- protocol.py -------------------------------------------------------------

    def _check_protocol(self, module: SourceModule) -> Iterator[Violation]:
        found = _result_fields(module.tree)
        if found is None:
            yield module.violation(
                self.name, module.tree,
                "RESULT_FIELDS tuple not found at module level",
            )
            return
        anchor, fields = found
        if not fields or not all(isinstance(f, str) for f in fields):
            yield module.violation(
                self.name, anchor,
                "RESULT_FIELDS must be a non-empty tuple of strings",
            )
            return
        if len(set(fields)) != len(fields):
            yield module.violation(
                self.name, anchor,
                "RESULT_FIELDS contains duplicate field names",
            )
        fn = _find_function(module.tree, "result_record")
        if fn is None:
            yield module.violation(
                self.name, anchor,
                "result_record() producer not found next to RESULT_FIELDS",
            )
            return
        yield from self._check_record_keys(module, fn, fields)

    def _check_record_keys(
        self,
        module: SourceModule,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        fields: list[str],
    ) -> Iterator[Violation]:
        returns = [
            node for node in ast.walk(fn)
            if isinstance(node, ast.Return) and node.value is not None
        ]
        dicts = [r.value for r in returns if isinstance(r.value, ast.Dict)]
        if not dicts:
            yield module.violation(
                self.name, fn,
                "result_record() must return a dict literal so the "
                "field order is statically checkable",
            )
            return
        for literal in dicts:
            keys: list[str] = []
            for key in literal.keys:
                if key is None:
                    yield module.violation(
                        self.name, literal,
                        "result_record() uses a **spread; field order "
                        "cannot be verified",
                    )
                    return
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.append(key.value)
                else:
                    yield module.violation(
                        self.name, key,
                        "result_record() keys must be string literals",
                    )
                    return
            if keys != fields:
                missing = [f for f in fields if f not in keys]
                extra = [k for k in keys if k not in fields]
                if missing or extra:
                    detail = []
                    if missing:
                        detail.append(
                            "missing %s" % ", ".join(sorted(missing))
                        )
                    if extra:
                        detail.append(
                            "not in RESULT_FIELDS: %s"
                            % ", ".join(sorted(extra))
                        )
                    message = "; ".join(detail)
                else:
                    message = "field order differs from RESULT_FIELDS"
                yield module.violation(
                    self.name, literal,
                    "result_record() drifts from RESULT_FIELDS (%s)"
                    % message,
                )

    # -- server.py / cli.py ------------------------------------------------------

    def _check_server(self, module: SourceModule) -> Iterator[Violation]:
        for handler, producer in (
            ("_query", "result_record"),
            ("_batch", "batch_record"),
        ):
            fn = _find_function(module.tree, handler)
            if fn is None:
                yield module.violation(
                    self.name, module.tree,
                    "server handler %s() not found, so its use of "
                    "protocol.%s() cannot be checked" % (handler, producer),
                )
                continue
            if not _reaches_function(module.tree, fn, producer):
                yield module.violation(
                    self.name, fn,
                    "server handler %s() does not build its payload via "
                    "protocol.%s(); ad-hoc response dicts drift from "
                    "RESULT_FIELDS" % (handler, producer),
                )

    def _check_cli(self, module: SourceModule) -> Iterator[Violation]:
        fn = _find_function(module.tree, "_write_jsonl")
        if fn is None:
            return
        if not _calls_function(fn, "result_record"):
            yield module.violation(
                self.name, fn,
                "_write_jsonl() does not serialise via "
                "protocol.result_record(); --jsonl output drifts from "
                "RESULT_FIELDS",
            )
