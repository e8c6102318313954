"""Metric definitions and their computation from a run's raw data.

Layers are measured only from outside the program: counts from the
response records, the ``/batch`` ``vectorized_stats`` blocks and one
``/stats`` snapshot; times from the traced run's spans.
"""

from __future__ import annotations

import statistics
from collections import Counter

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "scaled_cpu_ms_per_query": "ms",
    "mem_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "service.server.self_ms": "ms",
    "service.workers.pipe_share": "ratio",
    "service.workers.served_imbalance": "ratio",
    "service.workers.crashes": "count",
    "service.resilience.shed": "count",
    "service.resilience.degraded": "count",
    "service.registry.register_ms": "ms",
    "graphs.io.parse_ms": "ms",
    "engine.indexed.compile_ms": "ms",
    "graphs.reach.build_ms": "ms",
    "service.snapshot.save_share": "ratio",
    "service.snapshot.attach_share": "ratio",
    "service.workers.spawn_share": "ratio",
    "service.protocol.encode_ms": "ms",
    "engine.engine.self_ms": "ms",
    "engine.engine.result_cache_hit_share": "ratio",
    "graphs.reach.short_circuit_share": "ratio",
    "graphs.reach.can_reach_us": "us",
    "engine.plan.compile_ms": "ms",
    "engine.plan.compiles": "count",
    "core.psitr.decompose_failed_share": "ratio",
    "engine.vectorized.batch_share": "ratio",
    "engine.vectorized.swept_share": "ratio",
    "engine.vectorized.fallback_share": "ratio",
    "algorithms.bounded.solve_share": "ratio",
    "algorithms.bounded.steps_per_query": "count",
    "core.nice_paths.solve_share": "ratio",
    "core.nice_paths.steps_per_query": "count",
    "algorithms.exact.solve_share": "ratio",
    "algorithms.exact.steps_per_query": "count",
    "algorithms.exact.budget_exceeded": "count",
    "trace.request_ms": "ms",
    "trace.p50_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: Record ``strategy`` -> the module whose solver produced it.
SOLVER_MODULES = {
    "finite-AC0": "algorithms.bounded",
    "trc-nice-path": "core.nice_paths",
    "exact-backtracking": "algorithms.exact",
}

#: Self time per read request (ms) of layers that work in every
#: workload.
SELF_TIME_MS = {
    "service.server.self_ms": "service.server",
    "service.protocol.encode_ms": "service.protocol",
    "engine.engine.self_ms": "engine.engine",
    "engine.plan.compile_ms": "engine.plan",
}

#: Layers idle in some workload report their self time as a share of
#: the traced request time (a time that is 0 in every run of a
#: workload would read as a constant, not a measurement).
SELF_TIME_SHARE = {
    "engine.vectorized.batch_share": "engine.vectorized",
    "algorithms.bounded.solve_share": "algorithms.bounded",
    "core.nice_paths.solve_share": "core.nice_paths",
    "algorithms.exact.solve_share": "algorithms.exact",
}

#: Set-up work per registered graph (ms, summed over the server and
#: its workers): metric -> (layer, what) of the spans.
SETUP_MS = {
    "service.registry.register_ms": ("service.registry", "register"),
    "graphs.io.parse_ms": ("graphs.io", "parse"),
    "engine.indexed.compile_ms": ("engine.indexed", "compile"),
    "graphs.reach.build_ms": ("graphs.reach", "build"),
}

#: Pool set-up, as a share of all set-up span time (parse + register;
#: a worker's snapshot attach happens inside its spawn).
SETUP_SHARE = {
    "service.snapshot.save_share": ("service.snapshot", "save"),
    "service.snapshot.attach_share": ("service.snapshot", "attach"),
    "service.workers.spawn_share": ("service.workers", "spawn"),
}


def percentile(values, share):
    """The ``share`` quantile (0 < share < 1), interpolated."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def ms(seconds):
    return seconds * 1000.0


def read_latencies(ops, spans):
    return [ms(end - start) for op, (start, end) in zip(ops, spans)
            if op.is_read]


def write_latencies(ops, spans):
    return [ms(end - start) for op, (start, end) in zip(ops, spans)
            if op.kind == "register"]


def query_count(ops):
    return sum(len(op.queries) for op in ops if op.is_read)


class Counts:
    """Exact counts aggregated from the response records."""

    def __init__(self, ops, responses):
        self.answered = 0
        self.errors = 0
        self.budget_exceeded = 0
        self.flags = Counter()
        self.strategies = Counter()
        self.solver_runs = Counter()
        self.solver_steps = Counter()
        self.compiles = 0
        self.batch_queries = 0
        self.vectorized = Counter()
        for op, (status, body) in zip(ops, responses):
            if not op.is_read:
                continue
            if status != 200:
                self.errors += len(op.queries)
                if status == 422:
                    self.budget_exceeded += len(op.queries)
                continue
            if op.kind == "batch":
                records = body["results"]
                self.batch_queries += len(records)
                self.vectorized.update(body.get("vectorized_stats") or {})
            else:
                records = [body]
            for record in records:
                self._add(record)

    def _add(self, record):
        if record.get("error") is not None:
            self.errors += 1
            if "budget" in record["error"]:
                self.budget_exceeded += 1
            return
        self.answered += 1
        self.strategies[record["strategy"]] += 1
        if not record["plan_cache_hit"]:
            self.compiles += 1
        for flag in ("result_cache_hit", "short_circuit", "vectorized",
                     "decompose_failed", "degraded"):
            if record.get(flag):
                self.flags[flag] += 1
        if not (record["result_cache_hit"] or record["short_circuit"]
                or record["vectorized"]):
            self.solver_runs[record["strategy"]] += 1
            self.solver_steps[record["strategy"]] += record["steps"] or 0

    def share(self, flag):
        return self.flags[flag] / self.answered if self.answered else 0.0

    def describe(self):
        """Report lines: every count with its base."""
        lines = ["  answered %d queries, %d failed (%d over the step budget)"
                 % (self.answered, self.errors, self.budget_exceeded)]
        lines.append("  strategies: " + ", ".join(
            "%s %d" % item for item in sorted(self.strategies.items())))
        for flag in ("result_cache_hit", "short_circuit", "vectorized",
                     "decompose_failed", "degraded"):
            lines.append("  %s: %d of %d answered (%.4f)" % (
                flag, self.flags[flag], self.answered, self.share(flag)))
        lines.append("  plan compiles (plan_cache_hit false): %d of %d"
                     % (self.compiles, self.answered))
        for strategy, runs in sorted(self.solver_runs.items()):
            lines.append("  %s solver runs %d, steps %d (%.1f per run)" % (
                strategy, runs, self.solver_steps[strategy],
                self.solver_steps[strategy] / runs))
        if self.batch_queries:
            lines.append("  vectorized_stats over %d batch queries: %s" % (
                self.batch_queries, ", ".join(
                    "%s %d" % item for item in sorted(self.vectorized.items())
                )))
        return lines


def stats_counts(stats):
    """``(shed, crashes, served_imbalance, per-worker served)`` from /stats."""
    shedder = stats["resilience"]["shedder"]
    shed = shedder["shed_hard"] + shedder["shed_soft"] + shedder["shed_doomed"]
    crashes = 0
    served = []
    for graph in stats["graphs"]:
        workers = graph.get("workers")
        if workers:
            crashes += workers["crashes"]
            served.extend(w["served_queries"] for w in workers["per_worker"])
    total = sum(served)
    imbalance = (max(served) - min(served)) / total if total else 0.0
    return shed, crashes, imbalance, served


def per_layer(ops, responses, spans, per_request, server_spans, counts,
              stats, untraced_p50):
    """Every PER_LAYER metric from the traced replay.

    ``per_request[i]`` is ``(self seconds per layer, spans)`` of the
    i-th *read* op (see ``tracing.layer_times``).
    """
    reads = [i for i, op in enumerate(ops) if op.is_read]
    requests = len(reads)
    request_ms = [ms(spans[i][1] - spans[i][0]) for i in reads]
    traced_ms = sum(request_ms)
    values = {}
    for metric, layer in SELF_TIME_MS.items():
        values[metric] = sum(
            ms(selves.get(layer, 0.0)) for selves, _spans in per_request
        ) / requests
    for metric, layer in SELF_TIME_SHARE.items():
        values[metric] = sum(
            ms(selves.get(layer, 0.0)) for selves, _spans in per_request
        ) / traced_ms
    values["trace.request_ms"] = traced_ms / requests
    values["trace.p50_ms"] = statistics.median(request_ms)
    values["trace.overhead_ms"] = values["trace.p50_ms"] - untraced_p50

    pipe = 0.0
    for position, index in enumerate(reads):
        status, body = responses[index]
        pool = [span for span in per_request[position][1]
                if span[:2] == ("service.workers", "query")]
        if pool and status == 200:
            pipe += ms(pool[0][3] - pool[0][2]) - ms(body["seconds"])
    values["service.workers.pipe_share"] = pipe / traced_ms

    can_reach = [span[3] - span[2] for _selves, owned in per_request
                 for span in owned if span[1] == "can_reach"]
    values["graphs.reach.can_reach_us"] = (
        statistics.mean(can_reach) * 1e6 if can_reach else 0.0
    )

    def span_ms(key):
        return sum(ms(span[3] - span[2]) for span in server_spans
                   if span[:2] == key)

    registrations = sum(1 for span in server_spans
                        if span[:2] == ("service.registry", "register"))
    for metric, key in SETUP_MS.items():
        values[metric] = span_ms(key) / max(registrations, 1)
    setup_ms = (span_ms(("service.registry", "register"))
                + span_ms(("graphs.io", "parse")))
    for metric, key in SETUP_SHARE.items():
        values[metric] = span_ms(key) / setup_ms if setup_ms else 0.0

    shed, crashes, imbalance, _served = stats_counts(stats)
    values["service.workers.served_imbalance"] = imbalance
    values["service.workers.crashes"] = crashes
    values["service.resilience.shed"] = shed
    values["service.resilience.degraded"] = counts.flags["degraded"]
    values["engine.engine.result_cache_hit_share"] = counts.share(
        "result_cache_hit")
    values["graphs.reach.short_circuit_share"] = counts.share("short_circuit")
    values["core.psitr.decompose_failed_share"] = counts.share(
        "decompose_failed")
    values["engine.plan.compiles"] = counts.compiles
    batch = counts.batch_queries
    values["engine.vectorized.swept_share"] = (
        counts.vectorized["swept_negatives"] / batch if batch else 0.0)
    values["engine.vectorized.fallback_share"] = (
        counts.vectorized["fallback_solves"] / batch if batch else 0.0)
    for strategy, module in SOLVER_MODULES.items():
        runs = counts.solver_runs[strategy]
        values[module + ".steps_per_query"] = (
            counts.solver_steps[strategy] / runs if runs else 0.0)
    values["algorithms.exact.budget_exceeded"] = counts.budget_exceeded
    return values
