"""Plain-text serialization for db-graphs.

Format — one record per line:

* ``v <vertex>`` declares an isolated vertex,
* ``e <source> <label> <target>`` declares an edge,
* blank lines and ``#`` comments are ignored.

A vertex is written as its ``str`` and a label verbatim, and
:func:`loads` reads every vertex back as that string.  So
:func:`loads` of :func:`dumps` is the graph with each vertex replaced
by its ``str``, and :func:`dumps` raises :class:`GraphError` where
that would change the graph: a whitespace label, a vertex whose
``str`` is empty or holds whitespace (the record would split into the
wrong fields), or two vertices with one ``str`` (they would load as
one vertex).

:func:`loads` reads a text in one pass that splits each line and
collects the ``v`` names into a vertex set and the edges into an edge
set; the graph is then built from the two sets at once (see
:mod:`repro.graphs.dbgraph`), with no per-edge adjacency work.
"""

from __future__ import annotations

import os
from typing import Any

from ..errors import GraphError
from .dbgraph import DbGraph, Edge


def _vertex_names(graph: DbGraph) -> dict[Any, str]:
    """``{vertex: str(vertex)}``, each name one distinct record field."""
    names: dict[Any, str] = {}
    owners: dict[str, Any] = {}
    for vertex in graph.vertices():
        name = str(vertex)
        if not name or any(ch.isspace() for ch in name):
            raise GraphError(
                "vertex name %r is empty or contains whitespace" % (vertex,)
            )
        if name in owners:
            raise GraphError(
                "vertices %r and %r both write as %r and would load as "
                "one vertex" % (owners[name], vertex, name)
            )
        owners[name] = vertex
        names[vertex] = name
    return names


def _checked_label(label: str) -> str:
    if label.isspace():
        raise GraphError(
            "label %r is whitespace and cannot be serialized" % (label,)
        )
    return label


def dumps(graph: DbGraph) -> str:
    """Serialize ``graph`` into the text format (see the module
    docstring for what raises :class:`GraphError`)."""
    names = _vertex_names(graph)
    lines: list[str] = []
    touched: set[Any] = set()
    for source, label, target in graph.edges():
        lines.append(
            "e %s %s %s"
            % (names[source], _checked_label(label), names[target])
        )
        touched.add(source)
        touched.add(target)
    for vertex in graph.vertices():
        if vertex not in touched:
            lines.append("v %s" % names[vertex])
    return "\n".join(lines) + "\n"


def loads(text: str) -> DbGraph:
    """Parse the text format into a :class:`DbGraph`."""
    vertices: set[Any] = set()
    edges: set[Edge] = set()
    add_vertex = vertices.add
    add_edge = edges.add
    # One str object per name, so that the set and dict lookups made
    # on names later (the compile's id table) match by identity.
    names: dict[str, str] = {}
    name = names.setdefault
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        # split() drops the same whitespace strip() would.
        fields = raw_line.split()
        if len(fields) == 4 and fields[0] == "e":
            _record, source, label, target = fields
            if len(label) != 1:
                raise GraphError(
                    "line %d: label %r is not a single symbol"
                    % (line_number, label)
                )
            add_edge((name(source, source), label, name(target, target)))
        elif not fields or fields[0].startswith("#"):
            continue
        elif len(fields) == 2 and fields[0] == "v":
            add_vertex(name(fields[1], fields[1]))
        else:
            raise GraphError(
                "line %d: unrecognised record %r" % (line_number, raw_line)
            )
    return DbGraph._of(vertices, edges)


def dump(graph: DbGraph, path: str | os.PathLike[str]) -> None:
    """Write ``graph`` to the file at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(graph))


def load(path: str | os.PathLike[str]) -> DbGraph:
    """Read a graph from the file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
