"""Spans around calls into each layer's public functions.

:func:`install` wraps the entry points in :data:`ENTRY_POINTS` so that
every call appends ``(layer, what, start, end)`` to :data:`SPANS`
(``time.perf_counter``, which is the system-wide monotonic clock on
Linux, so spans of different processes line up).  It runs inside a
``repro serve`` process started by ``traced_serve.py``; nothing in the
program changes.  Spans stay in memory and are written out at exit.

Pool workers are forked from the server, so they inherit the
wrappers.  A worker hands its spans back on the result object of its
next answered query, and the server-side ``WorkerPool.query`` wrapper
adds them to the server's list.

:func:`layer_times` turns the spans plus the client's request spans
into per-request self times per layer: a span's self time is its
duration minus the part its child spans cover, and a request span's
own self time is the server layer's (HTTP, parsing, admission).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import time
import types
from collections import defaultdict

#: ``(layer, what, start, end)`` per traced call in this process.
SPANS: list = []

#: ``(module, class or None, function, layer, what)``.
ENTRY_POINTS = (
    ("repro.service.registry", "GraphRegistry", "register",
     "service.registry", "register"),
    ("repro.graphs.io", None, "loads", "graphs.io", "parse"),
    ("repro.engine.indexed", "IndexedGraph", "__init__",
     "engine.indexed", "compile"),
    ("repro.engine.indexed", "IndexedGraph", "reach_parts",
     "graphs.reach", "build"),
    ("repro.graphs.reach", "ReachabilityIndex", "__init__",
     "graphs.reach", "build"),
    ("repro.graphs.reach", "ReachabilityIndex", "can_reach",
     "graphs.reach", "can_reach"),
    ("repro.service.snapshot", None, "save_snapshot",
     "service.snapshot", "save"),
    ("repro.service.snapshot", None, "attach_snapshot",
     "service.snapshot", "attach"),
    ("repro.service.workers", "WorkerPool", "__init__",
     "service.workers", "spawn"),
    ("repro.service.workers", "WorkerPool", "run_batch",
     "service.workers", "batch"),
    ("repro.engine.engine", "QueryEngine", "run_batch",
     "engine.engine", "batch"),
    ("repro.engine.engine", "QueryEngine", "plan_for",
     "engine.plan", "plan"),
    ("repro.engine.engine", None, "sweep_group",
     "engine.vectorized", "sweep"),
    ("repro.algorithms.bounded", "FiniteLanguageSolver",
     "shortest_simple_path", "algorithms.bounded", "solve"),
    ("repro.core.nice_paths", "TractableSolver",
     "shortest_simple_path", "core.nice_paths", "solve"),
    ("repro.algorithms.exact", "ExactSolver",
     "shortest_simple_path", "algorithms.exact", "solve"),
    ("repro.service.server", None, "result_record",
     "service.protocol", "encode"),
    ("repro.service.server", None, "batch_record",
     "service.protocol", "encode"),
)

#: The server's layer: what a request span covers outside every span.
SERVER_LAYER = "service.server"

_in_worker = False
_HANDOFF = "_perfbench_spans"


def _record(layer, what, original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            SPANS.append((layer, what, start, time.perf_counter()))
    return traced


def _engine_query(original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            SPANS.append(("engine.engine", "query", start,
                          time.perf_counter()))
        if _in_worker:
            setattr(result, _HANDOFF, list(SPANS))
            SPANS.clear()
        return result
    return traced


def _pool_query(original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            SPANS.append(("service.workers", "query", start,
                          time.perf_counter()))
        SPANS.extend(result.__dict__.pop(_HANDOFF, ()))
        return result
    return traced


def _forked():
    global _in_worker
    SPANS.clear()
    _in_worker = True


def install():
    """Wrap every entry point (call once, before the program runs)."""
    for module_name, owner_name, name, layer, what in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        setattr(owner, name, _record(layer, what, getattr(owner, name)))
    engine = importlib.import_module("repro.engine.engine").QueryEngine
    engine.query = _engine_query(engine.query)
    pool = importlib.import_module("repro.service.workers").WorkerPool
    pool.query = _pool_query(pool.query)
    # Response encoding: the server's own json.dumps, not the client's.
    server = importlib.import_module("repro.service.server")
    codec = types.ModuleType("json")
    codec.__dict__.update(vars(json))
    codec.dumps = _record("service.protocol", "encode", json.dumps)
    server.json = codec
    os.register_at_fork(after_in_child=_forked)


def dump(path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(SPANS, handle)


def load(path):
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


# -- analysis --------------------------------------------------------------------------------

def _covered(children, start, end):
    """Length of [start, end] covered by the union of ``children``."""
    total = 0.0
    reach = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, reach)
        child_end = min(child_end, end)
        if child_end > child_start:
            total += child_end - child_start
            reach = child_end
    return total


def layer_times(requests, spans):
    """Self seconds per layer for each request.

    ``requests`` holds ``(start, end)`` client spans (sequential, so
    they never overlap); a server span belongs to the request whose
    interval contains its start.  Returns one ``{layer: seconds}``
    dict per request (the request's own self time under
    :data:`SERVER_LAYER`) and the request's spans.
    """
    order = sorted(range(len(requests)), key=lambda i: requests[i][0])
    starts = [requests[i][0] for i in order]
    owned = defaultdict(list)
    for span in spans:
        position = bisect.bisect_right(starts, span[2]) - 1
        if position >= 0:
            index = order[position]
            if span[2] <= requests[index][1]:
                owned[index].append(span)
    per_request = []
    for index, (start, end) in enumerate(requests):
        nodes = sorted(owned[index], key=lambda span: (span[2], -span[3]))
        selves = defaultdict(float)
        children = defaultdict(list)
        top = []
        stack = []
        for position, (_layer, _what, span_start, span_end) in enumerate(nodes):
            while stack and nodes[stack[-1]][3] < span_end:
                stack.pop()
            if stack:
                children[stack[-1]].append((span_start, span_end))
            else:
                top.append((span_start, span_end))
            stack.append(position)
        for position, (layer, _what, span_start, span_end) in enumerate(nodes):
            selves[layer] += (span_end - span_start) - _covered(
                children[position], span_start, span_end
            )
        selves[SERVER_LAYER] += (end - start) - _covered(top, start, end)
        per_request.append((dict(selves), owned[index]))
    return per_request
