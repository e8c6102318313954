"""Checks of the benchmark itself: ``python3 perfbench/selftest.py``.

* every workload runs at tiny size in both modes and prints exactly
  the metrics of ``BENCHMARK.json``, with their units, and the sample
  counts its request list implies;
* the correctness gate fails a run fed one wrong answer;
* the walk certificate never calls a query with a simple path
  negative (checked against the direct solver on small graphs).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), ROOT]

import bench  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import serving  # noqa: E402

from benchmarks.workloads import MIXED_LANGUAGES  # noqa: E402
from repro.graphs import io as graph_io  # noqa: E402
from repro.graphs.generators import random_labeled_graph  # noqa: E402

SECONDS = 1


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def read_requests(name):
    if name == "adhoc-register":
        workload = inputs.adhoc_register(
            1, SECONDS, lambda *_args: True)
    else:
        workload = getattr(inputs, name.replace("-", "_"))(1, SECONDS)
    return sum(1 for op in workload.ops if op.is_read)


class WorkloadRuns(unittest.TestCase):

    def run_benchmark(self, name, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             name, "--seed", "1", "--seconds", str(SECONDS),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = declared("per_layer" if trace else "end_to_end")
        self.assertEqual(
            {n: m["unit"] for n, m in result["metrics"].items()}, expected)
        for metric in result["metrics"].values():
            self.assertTrue(math.isfinite(metric["value"]))
        return lines, result

    def test_timed_runs(self):
        for name in inputs.WORKLOADS:
            with self.subTest(workload=name):
                lines, result = self.run_benchmark(name, 0)
                reads = read_requests(name)
                for metric in ("p50_ms", "p90_ms"):
                    line = next(text for text in lines
                                if text.split()[:1] == [metric])
                    self.assertIn("n=%d read requests" % reads, line)
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0)

    def test_traced_runs(self):
        for name in inputs.WORKLOADS:
            with self.subTest(workload=name):
                lines, result = self.run_benchmark(name, 1)
                values = {n: m["value"] for n, m in result["metrics"].items()}
                self.assertIn("over %d read requests" % read_requests(name),
                              "\n".join(lines))
                self.assertGreater(values["trace.request_ms"], 0)
                if name == "point-pool":
                    self.assertGreater(values["service.workers.pipe_share"], 0)
                else:
                    self.assertEqual(values["service.workers.pipe_share"], 0)


class GateFailsWrongAnswer(unittest.TestCase):

    def test_one_wrong_answer_fails_the_run(self):
        original = serving.run_op
        flipped = []

        def tampered(client, op):
            status, body = original(client, op)
            _language, source, target = op.queries[0] if op.queries else (
                None, None, None)
            # The first timed batch (warm-up batches ask source == target).
            if op.kind == "batch" and source != target and not flipped:
                record = body["results"][0]
                record["found"] = not record["found"]
                flipped.append(op)
            return status, body

        serving.run_op = tampered
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = bench.main(["--workload", "batch-sweep", "--seed", "2",
                                 "--seconds", str(SECONDS), "--trace", "0"])
        finally:
            serving.run_op = original
        lines = out.getvalue().strip().splitlines()
        self.assertEqual(len(flipped), 1)
        self.assertEqual(code, 1)
        self.assertIs(json.loads(lines[-1])["correct"], False)
        self.assertTrue(any("MISMATCH" in line for line in lines))


class WalkCertificate(unittest.TestCase):

    def test_agrees_with_direct_solver(self):
        rng = random.Random(7)
        for seed in range(6):
            text = graph_io.dumps(random_labeled_graph(12, 20, "abc", seed))
            reference = gate.Reference({"g": text})
            vertices = sorted(reference.graph("g").vertices())
            pairs = {(rng.choice(vertices), rng.choice(vertices))
                     for _ in range(40)}
            pairs = {(s, t) for s, t in pairs if s != t}
            for language in MIXED_LANGUAGES:
                walks = gate.walk_pairs(
                    reference.graph("g"), reference.dfa(language), pairs)
                for source, target in pairs:
                    kind = reference.outcome("g", language, source, target)[0]
                    if kind == gate.FOUND:
                        self.assertIn((source, target), walks)


if __name__ == "__main__":
    unittest.main()
