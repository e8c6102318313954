"""One benchmark run: inputs, reference, servers, metrics, report.

Entered through ``run.py``, which first checks that the checkout has
the program's source tree and puts it on ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import gate
import hostspeed
import inputs
import metrics
import serving
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Server launches per run; ``setup_s`` is their median.
SETUPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="run length; sets the request list's size")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def build(name, seed, seconds):
    """``(workload, reference)`` with every reference answer computed."""
    if name == "point-pool":
        workload = inputs.point_pool(seed, seconds)
        reference = gate.Reference(workload.graph_texts())
    elif name == "batch-sweep":
        workload = inputs.batch_sweep(seed, seconds)
        reference = gate.Reference(workload.graph_texts())
    else:
        texts = {}
        reference = gate.Reference(texts)

        def endpoints_ok(graph, text, language, source, target):
            texts[graph] = text
            kind, _length, steps = reference.outcome(
                graph, language, source, target, inputs.STEP_BUDGET)
            return kind != gate.BUDGET and steps <= inputs.STEP_BUDGET // 2

        workload = inputs.adhoc_register(seed, seconds, endpoints_ok)
        texts.update(workload.graph_texts())
    if workload.certify_walks:
        by_plan = {}
        for op in workload.ops:
            for language, source, target in op.queries:
                by_plan.setdefault((op.graph, language), set()).add(
                    (source, target))
        for (graph, language), pairs in by_plan.items():
            reference.certify_walks(graph, language, pairs)
    for op in workload.ops:
        for triple in op.queries:
            reference.outcome(op.graph, *triple, op.budget)
    return workload, reference


class Run:
    """One benchmark run's servers, work directory and clean-up."""

    def __init__(self, workload):
        self.workload = workload
        self.workdir = os.path.join(WORK_ROOT, str(os.getpid()))
        os.makedirs(self.workdir, exist_ok=True)
        self.env = serving.server_env(ROOT, self.workdir)
        self.graph_paths = {}
        for name, text in workload.graphs.items():
            path = os.path.join(self.workdir, name + ".graph")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.graph_paths[name] = path
        self.servers = []
        self.samplers = []

    def launch(self, launcher=None):
        """Start a server and wait for its first answered query;
        returns ``(server, setup seconds)``."""
        server = serving.Server(
            launcher or serving.PYTHON_LAUNCHER, self.workload,
            self.graph_paths, self.workdir, self.env,
        )
        self.servers.append(server)
        status, body = serving.run_op(server.client, self.workload.probe)
        if status != 200:
            raise RuntimeError("probe query failed: %s %s" % (status, body))
        return server, time.perf_counter() - server.started

    def warm(self, server):
        for op in self.workload.warmup:
            status, body = serving.run_op(server.client, op)
            if status != 200:
                raise RuntimeError("warm-up failed: %s %s" % (status, body))

    def drive(self, server, clients):
        return serving.drive(server.client, self.workload.ops, clients)

    def stop(self, server):
        self.servers.remove(server)
        server.stop()

    def sample_speed(self):
        sampler = serving.HostSpeed()
        self.samplers.append(sampler)
        return sampler

    def close(self):
        for sampler in self.samplers:
            sampler.kill()
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def timed(run):
    """The end-to-end metrics of one timed phase (tracing off)."""
    workload = run.workload
    setups = []
    for launch in range(SETUPS):
        server, seconds = run.launch()
        setups.append(seconds)
        if launch < SETUPS - 1:
            run.stop(server)
    run.warm(server)
    ops = workload.ops
    pids = serving.process_tree(server.pid)
    cpu_before = serving.cpu_ticks(pids)
    host_before = serving.host_times()
    sampler = run.sample_speed()
    memory = serving.MemorySampler(server.pid)
    try:
        start = time.perf_counter()
        responses, spans = run.drive(server, workload.clients)
        elapsed = time.perf_counter() - start
    finally:
        pss = memory.stop()
    loops = sampler.stop()
    host_after = serving.host_times()
    pids = serving.process_tree(server.pid)
    cpu = serving.cpu_seconds_between(cpu_before, serving.cpu_ticks(pids))
    stats = server.client.stats()
    run.stop(server)
    counts = metrics.Counts(ops, responses)
    cpu_ms_per_query = metrics.ms(cpu) / counts.answered
    loop_ms = statistics.median(loops)
    values = {
        "scaled_cpu_ms_per_query":
            cpu_ms_per_query * hostspeed.REFERENCE_MS / loop_ms,
        "mem_mb": statistics.mean(pss),
        "setup_s": statistics.median(setups),
    }
    reads = metrics.read_latencies(ops, spans)
    writes = metrics.write_latencies(ops, spans)
    shed, crashes, imbalance, served = metrics.stats_counts(stats)
    queries = metrics.query_count(ops)
    notes = {
        "scaled_cpu_ms_per_query":
            "cpu_ms_per_query x %.1f ms / loop median %.4f ms (n=%d)"
            % (hostspeed.REFERENCE_MS, loop_ms, len(loops)),
        "mem_mb": "PSS of %d processes, mean of %d samples (%.1f-%.1f)"
                  % (len(pids), len(pss), min(pss), max(pss)),
        "setup_s": "median of %d launches: %s" % (
            len(setups), ", ".join("%.3f" % s for s in setups)),
    }
    extra = [("cpu_ms_per_query", cpu_ms_per_query, "ms",
              "%.3f s CPU of %d processes / %d queries"
              % (cpu, len(pids), counts.answered)),
             ("qps", counts.answered / elapsed, "1/s",
              "%d answered queries / %.3f s" % (counts.answered, elapsed)),
             ("p50_ms", statistics.median(reads), "ms",
              "n=%d read requests" % len(reads)),
             ("p90_ms", metrics.percentile(reads, 0.90), "ms",
              "n=%d read requests" % len(reads)),
             ("fail_rate", (queries - counts.answered) / queries, "ratio",
              "%d of %d queries" % (queries - counts.answered, queries))]
    if len(reads) >= 1000:
        extra.append(("p99_ms", metrics.percentile(reads, 0.99), "ms",
                      "n=%d read requests" % len(reads)))
    if writes:
        extra.append(("write_p50_ms", statistics.median(writes), "ms",
                      "n=%d registrations" % len(writes)))
    lines = ["end-to-end (tracing off, %d client%s, closed loop):"
             % (workload.clients, "s" if workload.clients > 1 else "")]
    for name, unit in metrics.END_TO_END.items():
        lines.append("  %-23s %12.4f %-5s %s"
                     % (name, values[name], unit, notes[name]))
    for name, value, unit, note in extra:
        lines.append("  %-23s %12.4f %-5s %s" % (name, value, unit, note))
    lines.append("counts from the records:")
    lines.extend(counts.describe())
    lines.append("/stats after the timed phase: shed %d, worker crashes %d, "
                 "served per worker %s (imbalance %.4f)"
                 % (shed, crashes, served or "-", imbalance))
    lines.append("host: steal %.2f%% of CPU time over the timed phase"
                 % (100 * serving.steal_share(host_before, host_after)))
    return values, responses, lines


def traced(run):
    """Per-layer metrics: a plain and a traced sequential replay."""
    workload = run.workload
    server, _setup = run.launch()
    run.warm(server)
    plain_responses, plain_spans = run.drive(server, 1)
    run.stop(server)
    untraced_p50 = statistics.median(
        metrics.read_latencies(workload.ops, plain_spans))

    spans_path = os.path.join(run.workdir, "spans.json")
    launcher = (sys.executable, os.path.join(HERE, "traced_serve.py"),
                spans_path)
    server, _setup = run.launch(launcher)
    run.warm(server)
    responses, spans = run.drive(server, 1)
    stats = server.client.stats()
    run.stop(server)
    server_spans = tracing.load(spans_path)
    reads = [i for i, op in enumerate(workload.ops) if op.is_read]
    per_request = tracing.layer_times([spans[i] for i in reads], server_spans)
    counts = metrics.Counts(workload.ops, responses)
    values = metrics.per_layer(
        workload.ops, responses, spans, per_request, server_spans, counts,
        stats, untraced_p50)
    lines = ["per layer (one client, replayed in order; traced p50 %.4f ms,"
             " untraced p50 %.4f ms):"
             % (values["trace.p50_ms"], untraced_p50)]
    for name, unit in metrics.PER_LAYER.items():
        lines.append("  %-38s %12.4f %s" % (name, values[name], unit))
    layers = {}
    for selves, _owned in per_request:
        for layer, seconds in selves.items():
            layers[layer] = layers.get(layer, 0.0) + seconds
    total = sum(layers.values())
    lines.append("self time by layer over %d read requests: ms per request,"
                 " share of the traced time, ratio to the traced p50:"
                 % len(reads))
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        per_request_ms = 1000 * seconds / len(reads)
        lines.append("  %-22s %10.4f  %.3f  %.3f" % (
            layer, per_request_ms, seconds / total,
            per_request_ms / values["trace.p50_ms"]))
    lines.append("sum of layer self times %.4f ms vs traced time %.4f ms "
                 "per request (gap %.4f ms)" % (
                     1000 * total / len(reads), values["trace.request_ms"],
                     values["trace.request_ms"] - 1000 * total / len(reads)))
    lines.append("counts from the records:")
    lines.extend(counts.describe())
    return values, (plain_responses, responses), lines


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C so every server is stopped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    started = time.perf_counter()
    workload, reference = build(args.workload, args.seed, args.seconds)
    print("perfbench %s seed=%d seconds=%d trace=%d: %d requests, %d queries;"
          " inputs and reference answers built in %.1f s"
          % (args.workload, args.seed, args.seconds, args.trace,
             len(workload.ops), metrics.query_count(workload.ops),
             time.perf_counter() - started))
    loop_before = serving.reference_loop_ms()
    run = Run(workload)
    try:
        if args.trace:
            values, replays, lines = traced(run)
            names = metrics.PER_LAYER
        else:
            values, responses, lines = timed(run)
            replays = (responses,)
            names = metrics.END_TO_END
    finally:
        run.close()
    loop_after = serving.reference_loop_ms()
    mismatches = []
    failed = 0
    for responses in replays:
        wrong, lost = gate.check(reference, workload.ops, responses)
        mismatches.extend(wrong)
        failed += lost
    attempted = len(replays) * (
        metrics.query_count(workload.ops)
        + sum(1 for op in workload.ops if not op.is_read))
    for line in lines:
        print(line)
    print("host: reference loop %.2f ms before the run, %.2f ms after"
          % (loop_before, loop_after))
    print("correctness gate: %d mismatches over %d replay(s)"
          % (len(mismatches), len(replays)))
    for problem in mismatches[:20]:
        print("  MISMATCH " + problem)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 1 if mismatches else 0
