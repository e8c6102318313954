"""Rule ``snapshot-readonly``: attached snapshot arrays are never written.

``attach_snapshot`` builds an :class:`~repro.engine.indexed.IndexedGraph`
whose CSR arrays are ``memoryview.cast("q")`` slices of one read-only
``mmap`` — the same physical pages every pre-forked worker maps.  A
write through any of those views would either raise ``TypeError`` at
runtime (the mapping is ``ACCESS_READ``) or, worse, silently corrupt
the graph for every process sharing the mapping if the access mode
ever regressed.  So the serving tier must treat the attached arrays as
frozen: no item stores, no ``del``, no in-place mutator calls, and no
closing/releasing the backing mapping outside the attach error path.

The rule walks ``service/snapshot.py``, ``service/workers.py`` and
``engine/indexed.py`` — where the arrays live — and
``service/registry.py``, whose pooled entries serve the parent's
engine from the mapping their workers attach (plus any module opting
in via ``# invariant-scope: snapshot-readonly``), and flags:

* subscript stores, augmented stores, or ``del`` reaching through a
  guarded attribute (``x.out_targets[i] = v``);
* in-place mutator calls (``append``/``extend``/``byteswap``/...) on a
  guarded attribute or anything subscripted out of one;
* lifecycle calls (``close``/``release``/``resize``...) on a held
  ``_mapping`` — dropping the last reference is the only sanctioned
  teardown, because exported memoryviews make an explicit ``close()``
  raise ``BufferError`` at best.

Rebinding the attributes themselves (``self.out_targets = arrays[...]``)
is fine — that mutates the Python object graph, not the mapped pages;
compile builds its arrays in locals and assigns each attribute once.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..base import Project, Rule, SourceModule, Violation

#: Attributes that hold (or directly index into) mmap-backed arrays on
#: an attached graph: the twelve adjacency arrays (named as in the
#: snapshot manifest), the per-label slices of the two per-label CSRs,
#: the mapping handle, and the thawed reachability parts whose comp_of
#: aliases the mapping.
GUARDED_ATTRS = frozenset({
    "out_indptr",
    "out_labels",
    "out_targets",
    "in_indptr",
    "in_labels",
    "in_sources",
    "csr_offsets",
    "csr_indptr",
    "csr_targets",
    "rcsr_offsets",
    "rcsr_indptr",
    "rcsr_sources",
    "_fwd",
    "_rev",
    "_mapping",
    "_reach_parts",
})

#: In-place mutators of array/bytearray/memoryview/dict values.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear",
    "sort", "reverse",
    "byteswap", "frombytes", "fromfile", "fromlist", "fromunicode",
    "update", "setdefault", "popitem",
})

#: mmap lifecycle/mutation calls that must not target a held mapping.
MAPPING_METHODS = frozenset({
    "close", "release", "resize", "write", "write_byte", "move",
    "seek", "flush",
})


def _guarded_attr(node: ast.AST) -> str | None:
    """The first guarded attribute name on ``node``'s access chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(node, ast.Attribute):
            if node.attr in GUARDED_ATTRS:
                return node.attr
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            node = node.func
    return None


def _store_targets(node: ast.stmt) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    else:
        return []
    flat: list[ast.expr] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            flat.extend(target.elts)
        else:
            flat.append(target)
    return flat


class SnapshotReadonlyRule(Rule):
    name = "snapshot-readonly"
    description = (
        "attached snapshot arrays are read-only: no item stores, "
        "mutator calls, or mapping teardown through guarded attributes"
    )

    def path_in_scope(self, posix_relpath: str) -> bool:
        return posix_relpath.endswith((
            "service/snapshot.py",
            "service/workers.py",
            "service/registry.py",
            "engine/indexed.py",
        ))

    def run(self, project: Project) -> Iterable[Violation]:
        for module in project.modules:
            if module.tree is None or not self.in_scope(project, module):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.stmt):
                yield from self._check_stores(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_stores(
        self, module: SourceModule, node: ast.stmt
    ) -> Iterator[Violation]:
        verb = "del of" if isinstance(node, ast.Delete) else "store into"
        for target in _store_targets(node):
            # Only *item* stores touch the mapped pages; rebinding the
            # attribute itself is an ordinary Python assignment.
            if not isinstance(target, ast.Subscript):
                continue
            attr = _guarded_attr(target.value)
            if attr is not None:
                yield module.violation(
                    self.name,
                    node,
                    "%s a subscript of %r — attached snapshot arrays "
                    "are mmapped read-only and shared across worker "
                    "processes; copy before mutating" % (verb, attr),
                )

    def _check_call(
        self, module: SourceModule, call: ast.Call
    ) -> Iterator[Violation]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        attr = _guarded_attr(func.value)
        if attr is None:
            return
        if attr == "_mapping" and func.attr in MAPPING_METHODS:
            yield module.violation(
                self.name,
                call,
                "%s() on a held snapshot mapping — exported "
                "memoryviews make explicit teardown unsafe; drop the "
                "graph reference instead" % func.attr,
            )
        elif func.attr in MUTATOR_METHODS:
            yield module.violation(
                self.name,
                call,
                "in-place %s() through %r — attached snapshot arrays "
                "are mmapped read-only and shared across worker "
                "processes; copy before mutating" % (func.attr, attr),
            )
