"""Rule ``solver-purity``: solver layers stay pure and re-entrant.

Modules under ``core/`` and ``algorithms/`` hold the paper's solver
cores; the engine calls them concurrently from batch worker threads,
so they must be pure in ``(graph, source, target, ctx)``:

* no module-level mutable state (dicts/lists/sets at import time);
* every solver entry point (``solve`` / ``exists`` /
  ``shortest_simple_path`` / ... on public ``*Solver`` / ``*Evaluator``
  classes, and module-level ``solve_*`` functions) accepts an
  :class:`~repro.execution.ExecutionContext` via a ``ctx`` parameter;
* no instance-attribute stores outside ``__init__``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..base import Project, Rule, SourceModule, Violation

MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "bytearray",
    "OrderedDict", "defaultdict", "deque", "Counter",
}
ENTRY_POINT_METHODS = {
    "solve",
    "exists",
    "shortest_simple_path",
    "any_simple_path",
    "bounded_simple_path",
    "count_simple_paths",
    "evaluate_all",
}
#: Module-level targets that are conventionally assigned at import time.
ALLOWED_MODULE_TARGETS = {"__all__"}


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in MUTABLE_CONSTRUCTORS
    return False


def _arg_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    names = {a.arg for a in args.posonlyargs}
    names.update(a.arg for a in args.args)
    names.update(a.arg for a in args.kwonlyargs)
    return names


def _solver_class(cls: ast.ClassDef) -> bool:
    return not cls.name.startswith("_") and (
        cls.name.endswith("Solver") or cls.name.endswith("Evaluator")
    )


class SolverPurityRule(Rule):
    name = "solver-purity"
    description = (
        "core/ and algorithms/ define no module-level mutable state; "
        "solver entry points thread an ExecutionContext (`ctx`)"
    )

    def path_in_scope(self, posix_relpath: str) -> bool:
        return "/core/" in posix_relpath or "/algorithms/" in posix_relpath

    def run(self, project: Project) -> Iterable[Violation]:
        for module in project.modules:
            if module.tree is None or not self.in_scope(project, module):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterator[Violation]:
        for node in module.tree.body:
            yield from self._check_module_state(module, node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_entry_point(
                    module, node, is_method=False
                )
            if isinstance(node, ast.ClassDef) and _solver_class(node):
                yield from self._check_solver_class(module, node)

    def _check_module_state(
        self, module: SourceModule, node: ast.stmt
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if all(name in ALLOWED_MODULE_TARGETS for name in names):
            return
        if _is_mutable_value(value):
            yield module.violation(
                self.name,
                node,
                "module-level mutable state %r in a solver module; hold "
                "per-query state in the ExecutionContext instead"
                % (", ".join(names) or "<target>"),
            )

    def _check_solver_class(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in ENTRY_POINT_METHODS:
                yield from self._check_entry_point(
                    module, node, is_method=True, cls_name=cls.name
                )
            if node.name != "__init__":
                yield from self._check_instance_stores(module, cls, node)

    def _check_entry_point(
        self,
        module: SourceModule,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        is_method: bool,
        cls_name: str | None = None,
    ) -> Iterator[Violation]:
        if is_method:
            label = "%s.%s" % (cls_name, fn.name)
        else:
            if fn.name.startswith("_") or not fn.name.startswith("solve"):
                return
            label = fn.name
        if "ctx" not in _arg_names(fn):
            yield module.violation(
                self.name,
                fn,
                "solver entry point %s() does not accept an "
                "ExecutionContext (`ctx=None` parameter)" % label,
            )

    def _check_instance_stores(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Violation]:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                elements = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elements:
                    base = element
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        if (isinstance(base, ast.Attribute)
                                and isinstance(base.value, ast.Name)
                                and base.value.id == "self"):
                            yield module.violation(
                                self.name,
                                node,
                                "%s.%s() stores instance state "
                                "(`self.%s`); solvers must be re-entrant "
                                "— thread state through ctx"
                                % (cls.name, fn.name, base.attr),
                            )
                            base = None
                            break
                        base = base.value
