"""Rule ``hot-loop``: id-native loops stay allocation- and lookup-free.

Functions marked ``# invariant: hot-loop`` are the solver inner loops
that the CSR migration made integer-native.  Inside any loop body of
such a function:

* no calls to name-based ``DbGraph`` accessors (``successors``,
  ``out_edges``, ``has_edge``, ...) — these hash vertex *names* per
  edge and silently reintroduce the dict-lookup cost the CSR views
  removed;
* no f-string/``repr()``/``str.format`` allocation — message
  formatting belongs after the loop (or in the raise path outside it).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..base import Project, Rule, SourceModule, Violation

NAME_BASED_ACCESSORS = {
    "successors",
    "predecessors",
    "out_edges",
    "in_edges",
    "has_edge",
    "has_vertex",
    "require_vertex",
}


class HotLoopRule(Rule):
    name = "hot-loop"
    description = (
        "`# invariant: hot-loop` functions keep loop bodies free of "
        "name-based graph accessors and f-string/repr allocation"
    )

    def run(self, project: Project) -> Iterable[Violation]:
        for module in project.modules:
            if module.tree is None:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if module.pragma_on_def(node, "hot-loop"):
                    yield from self._check_function(module, node)

    def _check_function(
        self,
        module: SourceModule,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Violation]:
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                for child in node.body + node.orelse:
                    yield from self._check_loop_body(module, fn, child)

    def _check_loop_body(
        self,
        module: SourceModule,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.AST,
    ) -> Iterator[Violation]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.JoinedStr):
                yield module.violation(
                    self.name,
                    sub,
                    "%s(): f-string allocation inside a hot loop body"
                    % fn.name,
                )
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (isinstance(func, ast.Name)
                        and func.id == "repr"):
                    yield module.violation(
                        self.name,
                        sub,
                        "%s(): repr() allocation inside a hot loop body"
                        % fn.name,
                    )
                elif isinstance(func, ast.Attribute):
                    if func.attr in NAME_BASED_ACCESSORS:
                        yield module.violation(
                            self.name,
                            sub,
                            "%s(): name-based graph accessor .%s() inside "
                            "a hot loop body; use the id-native CSR view "
                            "API instead" % (fn.name, func.attr),
                        )
                    elif (func.attr == "format"
                          and isinstance(func.value, ast.Constant)
                          and isinstance(func.value.value, str)):
                        yield module.violation(
                            self.name,
                            sub,
                            "%s(): str.format() allocation inside a hot "
                            "loop body" % fn.name,
                        )
