"""Resilience under overload: shedding keeps goodput and p99 honest.

The load shedder's claim (ISSUE-10): when offered load far exceeds
capacity, admission control must *protect* throughput, not erode it —
refusing excess work immediately (429 + ``Retry-After``) so the
admitted requests still flow at the unloaded service rate, and served
latency stays bounded instead of queueing without limit.

Measured against a live server (real sockets, JSON codec, admission
control, executor dispatch):

* **baseline** — one closed-loop client, no overload: the service
  rate with an empty queue;
* **overload** — many closed-loop clients with zero think time
  against a small ``max_inflight``: most attempts must be shed, and
  every shed must carry a structured 429;
* **goodput** — successful answers per second under overload must be
  ≥80% of the no-overload rate (asserted on the full profile;
  recorded as ``resilience_goodput_ratio`` and gated by
  ``check_perf_regression.py`` on every profile);
* **bounded p99** — the 99th-percentile *served* latency under
  overload stays within a small multiple of the unloaded latency —
  shed-don't-queue means admitted work never waits behind the mob.
"""

from __future__ import annotations

import threading
import time

import pytest

from benchmarks.conftest import record_metric, scaled, skip_if_smoke

from repro.errors import ServiceError, ServiceOverloadedError
from repro.graphs.generators import random_labeled_graph
from repro.service import (
    GraphRegistry,
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)

#: Admission cap under test (small so overload is cheap to reach).
MAX_INFLIGHT = 4

#: Closed-loop baseline queries (no overload).
BASELINE_QUERIES = scaled(100, 30)

#: Overload shape: THREADS clients each firing ATTEMPTS back-to-back.
THREADS = scaled(16, 8)
ATTEMPTS = scaled(50, 15)

#: Query rotation: cheap, mixed found/not-found, all polynomial.
ROTATION = [
    ("a*", 0, 1),
    ("ab*", 0, 5),
    ("(ab)*", 2, 11),
    ("a(b|c)*", 3, 19),
    ("c*", 7, 7),
]


@pytest.fixture(scope="module")
def live_service():
    registry = GraphRegistry()
    registry.register(
        "main", random_labeled_graph(20, 60, "abc", seed=9)
    )
    service = QueryService(
        registry,
        # The shed threshold is effectively disabled so the sustained,
        # deliberate overload below measures the *shedder* alone — the
        # degradation ladder reacting to the same sheds is covered by
        # tests/test_chaos.py and would turn refusals into 503s here.
        ServiceConfig(
            workers=2,
            max_inflight=MAX_INFLIGHT,
            degrade_shed_threshold=10**9,
        ),
    )
    with ServiceThread(service) as running:
        yield running


def _drive(port, attempts, latencies, outcomes):
    """One closed-loop client: fire ``attempts`` queries, no think time."""
    client = ServiceClient(port=port)
    for index in range(attempts):
        language, source, target = ROTATION[index % len(ROTATION)]
        start = time.perf_counter()
        try:
            client.query(language, source, target)
        except ServiceOverloadedError as err:
            assert err.retry_after is not None and err.retry_after > 0
            outcomes.append("shed")
        except ServiceError:
            outcomes.append("error")
        else:
            latencies.append(time.perf_counter() - start)
            outcomes.append("ok")


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(int(len(ordered) * fraction), len(ordered) - 1)
    return ordered[index]


def test_shedding_preserves_goodput_under_overload(live_service):
    port = live_service.port

    # Baseline: one closed-loop client, queue always near-empty.
    base_latencies, base_outcomes = [], []
    start = time.perf_counter()
    _drive(port, BASELINE_QUERIES, base_latencies, base_outcomes)
    base_seconds = time.perf_counter() - start
    assert base_outcomes.count("ok") == BASELINE_QUERIES
    baseline_qps = BASELINE_QUERIES / base_seconds

    # Overload: THREADS closed-loop clients, zero think time, against
    # max_inflight=4 — far more offered work than capacity.
    over_latencies, over_outcomes = [], []
    workers = [
        threading.Thread(
            target=_drive,
            args=(port, ATTEMPTS, over_latencies, over_outcomes),
        )
        for _ in range(THREADS)
    ]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    over_seconds = time.perf_counter() - start

    served = over_outcomes.count("ok")
    shed = over_outcomes.count("shed")
    assert over_outcomes.count("error") == 0
    # The overload must actually overload: real shedding happened.
    assert shed > 0
    assert served > 0
    goodput_qps = served / over_seconds
    goodput_ratio = goodput_qps / baseline_qps
    shed_fraction = shed / len(over_outcomes)

    p99_seconds = _percentile(over_latencies, 0.99)
    base_p50 = _percentile(base_latencies, 0.50)

    record_metric("resilience", "baseline_qps", round(baseline_qps, 1))
    record_metric("resilience", "overload_goodput_qps",
                  round(goodput_qps, 1))
    record_metric("resilience", "resilience_goodput_ratio",
                  round(goodput_ratio, 3))
    record_metric("resilience", "shed_fraction",
                  round(shed_fraction, 3))
    record_metric("resilience", "served_p99_ms",
                  round(p99_seconds * 1e3, 3))

    skip_if_smoke()
    # Shedding protects throughput: admitted work still flows at
    # (at least) 80% of the unloaded service rate.
    assert goodput_ratio >= 0.8, (
        "goodput collapsed under overload: %.1f qps vs %.1f baseline"
        % (goodput_qps, baseline_qps)
    )
    # Shed-don't-queue keeps served latency bounded: p99 under a
    # 16-client mob stays within a small multiple of the unloaded
    # median (plus a constant for scheduler noise), nowhere near the
    # unbounded-queue regime.
    assert p99_seconds <= 20 * base_p50 + 0.25, (
        "served p99 %.3fs blew past the bounded-queue envelope "
        "(unloaded median %.4fs)" % (p99_seconds, base_p50)
    )


def test_sheds_are_structured_and_countable(live_service):
    """After an overload run, /stats accounts for every shed."""
    port = live_service.port
    client = ServiceClient(port=port)
    stats = client.stats()
    shedder = stats["resilience"]["shedder"]
    assert shedder["max_inflight"] == MAX_INFLIGHT
    # The overload test ran first (same module, same service): its
    # sheds are visible in the service-wide counters.
    total_sheds = (
        shedder["shed_hard"] + shedder["shed_soft"] + shedder["shed_doomed"]
    )
    assert total_sheds > 0
    assert stats["service"]["rejected"] == total_sheds
