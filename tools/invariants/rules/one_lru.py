"""Rule ``one-lru``: every LRU memo of the package is an ``LruCache``.

``repro/lru.py`` holds the one LRU map: its lock, recency order,
eviction and hit/miss/insert/eviction counters, and its single-flight
build.  Plan, result, reachability and certificate memos all go
through it, so a second hand-rolled LRU would bring back its own lock
discipline, eviction and counters.  Outside ``lru.py`` the rule flags:

* constructing an ``OrderedDict``;
* calling ``move_to_end`` or ``popitem``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..base import Project, Rule, SourceModule, Violation

#: Calls that keep or evict by recency.
RECENCY_METHODS = frozenset({"move_to_end", "popitem"})


class OneLruRule(Rule):
    name = "one-lru"
    description = (
        "only repro/lru.py builds an OrderedDict or calls move_to_end/"
        "popitem: every LRU memo is an LruCache"
    )

    def path_in_scope(self, posix_relpath: str) -> bool:
        return "repro/" in posix_relpath and not posix_relpath.endswith(
            "repro/lru.py"
        )

    def run(self, project: Project) -> Iterable[Violation]:
        for module in project.modules:
            if module.tree is None or not self.in_scope(project, module):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                called = func.id
            elif isinstance(func, ast.Attribute):
                called = func.attr
            else:
                continue
            if called == "OrderedDict":
                what = "OrderedDict() built"
            elif isinstance(func, ast.Attribute) and (
                called in RECENCY_METHODS
            ):
                what = "%s() called" % called
            else:
                continue
            yield module.violation(
                self.name,
                node,
                "%s outside repro/lru.py — keep an LRU memo in a "
                "repro.lru.LruCache" % what,
            )
