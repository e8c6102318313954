"""A real ``repro serve`` process, closed-loop clients, and /proc.

The server runs as its own process, started from the checkout's
``src`` tree; its CPU time and memory are read from ``/proc`` (the
server and every descendant, i.e. its pool workers), never from the
program itself.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

from repro.errors import ServiceError
from repro.service import ServiceClient

#: Seconds a server may take to print its listening line.
START_TIMEOUT = 120.0
#: Seconds a request may take before the client gives up.
REQUEST_TIMEOUT = 120.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Server:
    """One ``repro serve`` process on an ephemeral port.

    ``launcher`` is the argv prefix that runs the CLI (``python -m
    repro`` for timed runs, the tracing bootstrap for traced ones).
    ``started`` is the ``perf_counter`` instant of the launch.
    """

    def __init__(self, launcher, workload, graph_paths, workdir, env):
        argv = list(launcher) + ["serve", "--port", "0"]
        for name, path in sorted(graph_paths.items()):
            argv += ["--graph", "%s=%s" % (name, path)]
        argv += list(workload.serve_args)
        stderr = os.open(os.path.join(workdir, "server.stderr"),
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        self.started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=stderr,
                cwd=workdir, env=env,
            )
        finally:
            os.close(stderr)
        self.port = self._await_port()
        self.client = ServiceClient(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )

    def _await_port(self):
        timer = threading.Timer(START_TIMEOUT, self.process.kill)
        timer.start()
        try:
            for raw in self.process.stdout:
                line = raw.decode("utf-8", "replace")
                if line.startswith("serving "):
                    return int(line.split("http://", 1)[1].split()[0]
                               .rsplit(":", 1)[1])
        finally:
            timer.cancel()
        self.process.wait()
        raise RuntimeError(
            "repro serve exited with %s before listening (see server.stderr)"
            % self.process.returncode
        )

    @property
    def pid(self):
        return self.process.pid

    def stop(self, timeout=30.0):
        """SIGTERM (graceful drain), then kill; waits for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        self.process.stdout.close()
        return self.process.returncode


def run_op(client, op):
    """Send one request; ``(status, body)`` without raising on HTTP errors."""
    try:
        if op.kind == "query":
            language, source, target = op.queries[0]
            body = client.query(
                language, source, target, graph=op.graph, budget=op.budget
            )
        elif op.kind == "batch":
            body = client.batch(op.queries, graph=op.graph, budget=op.budget)
        elif op.kind == "register":
            body = client.register_graph(op.graph, op.graph_text)
        elif op.kind == "evict":
            body = client.evict_graph(op.graph)
        else:
            raise ValueError("unknown op kind %r" % (op.kind,))
    except ServiceError as err:
        return err.status, {"error": str(err)}
    return 200, body


def drive(client, ops, clients):
    """Closed loop: ``clients`` threads each send their next request
    only after the previous reply; requests are taken from ``ops`` in
    order.  Returns per-op ``(status, body)`` and ``(start, end)``."""
    responses = [None] * len(ops)
    spans = [None] * len(ops)
    lock = threading.Lock()
    cursor = [0]
    errors = []

    def loop():
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(ops):
                    return
                start = time.perf_counter()
                responses[index] = run_op(client, ops[index])
                spans[index] = (start, time.perf_counter())
        except Exception as err:  # re-raised after the join
            errors.append(err)

    threads = [threading.Thread(target=loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return responses, spans


# -- /proc ------------------------------------------------------------------------------

def process_tree(pid):
    """``pid`` and all its descendants (via /proc/<pid>/task/*/children)."""
    found = []
    stack = [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        try:
            tasks = os.listdir("/proc/%d/task" % current)
        except OSError:
            continue
        for task in tasks:
            try:
                with open("/proc/%d/task/%s/children" % (current, task)) as f:
                    stack.extend(int(child) for child in f.read().split())
            except OSError:
                continue
    return found


def cpu_ticks(pids):
    """pid -> user+system clock ticks (processes that vanished are skipped)."""
    ticks = {}
    for pid in pids:
        try:
            with open("/proc/%d/stat" % pid) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks[pid] = int(fields[11]) + int(fields[12])
    return ticks


def cpu_seconds_between(before, after):
    total = 0
    for pid, ticks in after.items():
        total += ticks - before.get(pid, 0)
    return total / CLOCK_TICKS


def pss_mb(pids):
    total_kb = 0
    for pid in pids:
        try:
            with open("/proc/%d/smaps_rollup" % pid) as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class MemorySampler:
    """Summed PSS (MB) of ``pid`` and its descendants, sampled every
    ``interval`` seconds by a thread until :meth:`stop`."""

    def __init__(self, pid, interval=0.25):
        self.pid = pid
        self.interval = interval
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.wait(self.interval):
            self.samples.append(pss_mb(process_tree(self.pid)))

    def stop(self):
        """Every sample, the last one taken now."""
        self._stop.set()
        self._thread.join()
        self.samples.append(pss_mb(process_tree(self.pid)))
        return self.samples


def host_times():
    """``(total, steal)`` jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]), steal


def steal_share(before, after):
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total else 0.0


class HostSpeed:
    """``hostspeed.py`` sampling the host's speed in its own process,
    from construction until :meth:`stop`."""

    def __init__(self, interval=0.05):
        self.process = subprocess.Popen(
            [sys.executable, hostspeed.__file__, str(interval)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.stopped = False

    def stop(self, timeout=30.0):
        """The sampled loop CPU times (ms); the sampler exits."""
        self.stopped = True
        try:
            out, _err = self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise
        return json.loads(out)

    def kill(self):
        """Stop the sampler and drop its samples (error paths)."""
        if not self.stopped:
            self.stopped = True
            self.process.kill()
            self.process.communicate()


def reference_loop_ms(rounds=25):
    """Median wall-clock ms of the host-speed loop, stolen time
    included: the host's speed now."""
    return statistics.median(
        hostspeed.loop_ms(time.perf_counter_ns) for _ in range(rounds))


def server_env(root, workdir):
    """Environment for the server: the checkout's ``src`` first, and
    temporary files (pool snapshot spools) inside the work directory."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = workdir
    env.pop("REPRO_FAULTS", None)
    return env


PYTHON_LAUNCHER = (sys.executable, "-m", "repro")
