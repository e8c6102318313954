"""Chaos suite: injected faults versus the resilience invariants.

Every end-to-end test here drives the *production* code paths — real
pre-forked worker processes, the real snapshot parser, real HTTP over
a socket — with deterministic faults from
:mod:`repro.service.faults`.  The invariants under test:

* **no wrong answer, ever** — whatever crashes, every 200 response
  matches the direct :func:`solve_rspq` answer path-for-path;
* **bounded recovery** — after the fault source stops, the service
  returns to ``/healthz`` ``ok`` within the breaker/ladder bounds;
* **honest refusals** — shed or refused work carries a structured
  error body (``error_type``, ``retry_after``) and a ``Retry-After``
  header, never a silent hang or a stack trace.

The unit half drives the breaker/shedder/ladder state machines with a
fake clock, so every transition is exercised without sleeping.
"""

import math
import os
import socket
import time

import pytest

from tests.conftest import read_http_response
from repro.engine import IndexedGraph
from repro.errors import ServiceError, ServiceOverloadedError, SnapshotError
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import labeled_cycle, random_labeled_graph
from repro.graphs import io as graph_io
from repro.service import (
    BreakerConfig,
    CircuitBreaker,
    DegradationLadder,
    FaultPlan,
    GraphRegistry,
    LadderConfig,
    LoadShedder,
    QueryService,
    RESULT_FIELDS,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    ShedConfig,
    save_snapshot,
    verify_against_direct,
)
from repro.service import faults
from repro.service.snapshot import load_snapshot

#: Mixed found/not-found workload on the seed-9 random graph.
QUERIES = [
    ("a*", 0, 1),
    ("ab*", 0, 5),
    ("(ab)*", 2, 11),
    ("a(b|c)*", 3, 19),
    ("c*", 7, 7),
]

#: Fast pool knobs so crash/respawn cycles take milliseconds, not the
#: production-friendly default backoffs.
FAST_POOL = {"respawn_backoff": 0.01, "grace_seconds": 0.2}


@pytest.fixture(autouse=True)
def no_leaked_faults():
    """A chaos test must never leak its fault plan into the next."""
    yield
    faults.uninstall()


@pytest.fixture
def graph():
    return random_labeled_graph(20, 60, "abc", seed=9)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# FaultPlan mechanics.
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan(
            seed=7,
            worker_crash_at=(2, 5),
            worker_hang_at=(3,),
            hang_seconds=1.5,
            snapshot_truncate_at=(1,),
            spool_errors=2,
            deadline_skew_seconds=-0.5,
        )
        clone = FaultPlan.from_spec(plan.spec())
        assert clone.spec() == plan.spec()

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec"):
            FaultPlan.from_spec({"worker_crash_att": [1]})

    def test_overlapping_worker_ordinals_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultPlan(worker_crash_at=(2,), worker_hang_at=(2,))

    def test_install_returns_previous_and_uninstall_resets(self):
        first = FaultPlan(worker_crash_at=(1,))
        assert faults.install(first) is None
        assert faults.active() is first
        second = FaultPlan(spool_errors=1)
        assert faults.install(second) is first
        faults.uninstall()
        assert faults.active() is None
        assert faults.active_spec() is None

    def test_hooks_are_inert_without_a_plan(self):
        assert faults.worker_fault() is None
        assert faults.worker_stall_seconds("hang") == 0.0
        assert faults.mutate_snapshot_bytes(b"abc") is None
        faults.spool_fault("/tmp/x")  # must not raise
        assert faults.skewed_deadline(2.0) == 2.0

    def test_install_from_env(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert faults.install_from_env() is None
        monkeypatch.setenv(faults.FAULTS_ENV, '{"worker_crash_at": [3]}')
        plan = faults.install_from_env()
        assert plan is not None and plan.worker_crash_at == {3}
        assert faults.active() is plan

    def test_install_from_env_rejects_malformed_spec(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            faults.install_from_env()
        monkeypatch.setenv(faults.FAULTS_ENV, '["crash"]')
        with pytest.raises(ValueError, match="JSON object"):
            faults.install_from_env()
        monkeypatch.setenv(faults.FAULTS_ENV, '{"nope": 1}')
        with pytest.raises(ValueError, match="unknown fault spec"):
            faults.install_from_env()

    def test_worker_action_schedule_is_per_ordinal(self):
        plan = FaultPlan(worker_crash_at=(2,), worker_slow_at=(4,))
        faults.install(plan)
        assert [faults.worker_fault() for _ in range(5)] == [
            None, "crash", None, "slow", None,
        ]

    def test_bitflip_is_seeded_and_single_bit(self):
        plan = FaultPlan(seed=11)
        data = bytes(range(64))
        flipped = plan.mutate("bitflip", data)
        assert flipped == FaultPlan(seed=11).mutate("bitflip", data)
        assert flipped != FaultPlan(seed=12).mutate("bitflip", data)
        diff = [a ^ b for a, b in zip(data, flipped)]
        changed = [d for d in diff if d]
        assert len(changed) == 1
        assert bin(changed[0]).count("1") == 1

    def test_truncate_halves_the_payload(self):
        plan = FaultPlan()
        assert plan.mutate("truncate", bytes(100)) == bytes(50)


# ---------------------------------------------------------------------------
# CircuitBreaker state machine (fake clock, no sleeping).
# ---------------------------------------------------------------------------


def make_breaker(clock, threshold=3, cooldown=1.0, jitter=0.0, **kw):
    config = BreakerConfig(
        failure_threshold=threshold,
        cooldown_seconds=cooldown,
        jitter=jitter,
        **kw,
    )
    return CircuitBreaker(config, clock=clock)


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.admit() is None

    def test_opens_at_threshold_with_retry_hint(self):
        clock = FakeClock()
        breaker = make_breaker(clock, threshold=3, cooldown=2.0)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        retry_in = breaker.admit()
        assert retry_in is not None and 0 < retry_in <= 2.0

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        breaker = make_breaker(clock, threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = make_breaker(clock, threshold=1, cooldown=1.0)
        breaker.record_failure()
        assert breaker.admit() is not None  # still cooling down
        clock.advance(1.5)
        assert breaker.state == "half-open"
        assert breaker.admit() is None  # the single probe
        assert breaker.admit() is not None  # second caller refused

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = make_breaker(clock, threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.admit() is None
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.describe()["opens"] == 0  # recovery resets

    def test_probe_failure_reopens_with_longer_cooldown(self):
        clock = FakeClock()
        breaker = make_breaker(clock, threshold=1, cooldown=1.0,
                               max_cooldown_seconds=30.0)
        breaker.record_failure()
        first = breaker.describe()["cooldown_seconds"]
        clock.advance(1.5)
        assert breaker.admit() is None
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        second = breaker.describe()["cooldown_seconds"]
        assert second == pytest.approx(2 * first)

    def test_cooldown_is_capped(self):
        clock = FakeClock()
        breaker = make_breaker(clock, threshold=1, cooldown=1.0,
                               max_cooldown_seconds=4.0)
        breaker.record_failure()
        for _ in range(5):
            clock.advance(100.0)
            assert breaker.admit() is None
            breaker.record_failure()
        assert breaker.describe()["cooldown_seconds"] <= 4.0

    def test_released_probe_slot_is_reusable(self):
        # A probe request that resolves nothing (shed downstream, bad
        # input, deadline) hands its slot back; the next request can
        # probe instead of the circuit wedging half-open forever.
        clock = FakeClock()
        breaker = make_breaker(clock, threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.admit() is None  # the probe
        breaker.release_probe()
        assert breaker.admit() is None  # slot returned: probe again
        breaker.record_success()
        assert breaker.state == "closed"

    def test_release_probe_is_noop_when_resolved_or_closed(self):
        clock = FakeClock()
        breaker = make_breaker(clock, threshold=1, cooldown=1.0)
        breaker.release_probe()  # closed: nothing to release
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.release_probe()  # open, no probe outstanding
        assert breaker.admit() is not None  # still cooling down

    def test_leaked_probe_times_out_after_a_cooldown(self):
        # Belt-and-braces for a handler that dies without releasing:
        # a probe outstanding past a full cooldown is presumed lost
        # and the slot re-opens by itself.
        clock = FakeClock()
        breaker = make_breaker(clock, threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.admit() is None  # the probe — never resolved
        assert breaker.admit() is not None  # slot held meanwhile
        clock.advance(1.5)
        assert breaker.admit() is None  # stale probe re-admitted
        breaker.record_success()
        assert breaker.state == "closed"

    def test_jitter_is_seeded(self):
        config = BreakerConfig(failure_threshold=1, jitter=0.3)
        clocks = FakeClock(), FakeClock()
        one = CircuitBreaker(config, seed=5, clock=clocks[0])
        two = CircuitBreaker(config, seed=5, clock=clocks[1])
        one.record_failure()
        two.record_failure()
        assert one.describe()["cooldown_seconds"] == (
            two.describe()["cooldown_seconds"]
        )


# ---------------------------------------------------------------------------
# LoadShedder admission policies.
# ---------------------------------------------------------------------------


class TestLoadShedder:
    def test_hard_cap_sheds_with_retry_hint(self):
        shedder = LoadShedder(ShedConfig(max_inflight=2))
        shedder.admit(2)
        with pytest.raises(ServiceOverloadedError) as info:
            shedder.admit(1)
        assert info.value.error_type == "overloaded"
        assert info.value.retry_after > 0
        assert shedder.shed_total == 1

    def test_doomed_deadline_is_shed_upfront(self):
        shedder = LoadShedder(ShedConfig(max_inflight=8))
        shedder.observe(1.0, 1)
        shedder.admit(4)  # estimated wait now ~4s
        with pytest.raises(ServiceOverloadedError) as info:
            shedder.admit(1, deadline_seconds=0.5)
        assert info.value.error_type == "doomed_deadline"
        # A deadline that survives the queue is still admitted.
        shedder.admit(1, deadline_seconds=60.0)

    def test_soft_band_sheds_cheap_work_first(self):
        shedder = LoadShedder(
            ShedConfig(max_inflight=10, soft_inflight=2)
        )
        shedder.admit(2)
        with pytest.raises(ServiceOverloadedError) as info:
            shedder.admit(1)  # cheap single query: shed
        assert info.value.error_type == "pressure_shed"
        shedder.admit(5)  # expensive batch: still admitted
        assert shedder.inflight == 7

    def test_estimated_wait_divides_by_worker_lanes(self):
        # 4 in flight over 4 workers drain in ~1 per-query interval,
        # not 4: a 2s deadline survives the queue and must be
        # admitted; a serial estimate would shed it as doomed.
        shedder = LoadShedder(ShedConfig(max_inflight=8, workers=4))
        shedder.observe(1.0, 1)
        shedder.admit(4)
        shedder.admit(1, deadline_seconds=2.0)
        with pytest.raises(ServiceOverloadedError) as info:
            shedder.admit(1, deadline_seconds=0.5)  # genuinely doomed
        assert info.value.error_type == "doomed_deadline"
        # Retry-After hints scale with the drain rate too.
        assert info.value.retry_after == pytest.approx(5 / 4)

    def test_release_floors_at_zero(self):
        shedder = LoadShedder(ShedConfig(max_inflight=4))
        shedder.admit(2)
        shedder.release(5)
        assert shedder.inflight == 0

    def test_describe_counts_every_shed_kind(self):
        shedder = LoadShedder(
            ShedConfig(max_inflight=3, soft_inflight=1)
        )
        shedder.observe(1.0, 1)
        shedder.admit(2)
        for _ in range(2):
            with pytest.raises(ServiceOverloadedError):
                shedder.admit(1)  # pressure band
        with pytest.raises(ServiceOverloadedError):
            shedder.admit(2)  # hard cap
        with pytest.raises(ServiceOverloadedError):
            shedder.admit(1, deadline_seconds=1e-6)  # doomed
        described = shedder.describe()
        assert described["shed_soft"] == 2
        assert described["shed_hard"] == 1
        assert described["shed_doomed"] == 1
        assert shedder.shed_total == 4


# ---------------------------------------------------------------------------
# DegradationLadder transitions (fake clock).
# ---------------------------------------------------------------------------


def make_ladder(clock, crash_threshold=2, shed_threshold=3,
                window_seconds=10.0, recovery_seconds=1.0):
    return DegradationLadder(
        LadderConfig(
            crash_threshold=crash_threshold,
            shed_threshold=shed_threshold,
            window_seconds=window_seconds,
            recovery_seconds=recovery_seconds,
        ),
        clock=clock,
    )


class TestDegradationLadder:
    def test_crash_threshold_climbs_one_rung(self):
        clock = FakeClock()
        ladder = make_ladder(clock)
        ladder.record_crash()
        assert ladder.level == 0
        ladder.record_crash()
        assert ladder.level == 1
        assert ladder.level_name == "portfolio"

    def test_window_prunes_stale_events(self):
        clock = FakeClock()
        ladder = make_ladder(clock, crash_threshold=2, window_seconds=5.0)
        ladder.record_crash()
        clock.advance(6.0)
        ladder.record_crash()  # the first crash has aged out
        assert ladder.level == 0

    def test_breaker_open_always_climbs_and_caps_at_reach_only(self):
        clock = FakeClock()
        ladder = make_ladder(clock)
        for _ in range(4):
            ladder.record_breaker_open()
        assert ladder.level == 2
        assert ladder.level_name == "reach-only"

    def test_recovery_descends_one_rung_per_quiet_period(self):
        clock = FakeClock()
        ladder = make_ladder(clock, recovery_seconds=1.0)
        ladder.record_breaker_open()
        ladder.record_breaker_open()
        assert ladder.level == 2
        ladder.record_ok()  # no quiet time yet
        assert ladder.level == 2
        clock.advance(1.5)
        ladder.record_ok()
        assert ladder.level == 1
        ladder.record_ok()  # same quiet period: no double descent
        assert ladder.level == 1
        clock.advance(1.5)
        ladder.record_ok()
        assert ladder.level == 0
        assert ladder.describe()["recoveries"] == 2

    def test_recovery_needs_no_served_request(self):
        clock = FakeClock()
        ladder = make_ladder(clock, recovery_seconds=1.0)
        ladder.record_breaker_open()
        ladder.record_breaker_open()
        clock.advance(1.5)
        assert ladder.level == 1
        assert ladder.level == 1  # a read is no quiet period
        clock.advance(1.0)
        assert ladder.level == 0
        assert [t["reason"] for t in ladder.describe()["transitions"]] == [
            "breaker-open", "breaker-open", "recovery", "recovery",
        ]

    def test_long_quiet_descends_one_rung_per_period(self):
        clock = FakeClock()
        ladder = make_ladder(clock, recovery_seconds=1.0)
        ladder.record_breaker_open()
        ladder.record_breaker_open()
        clock.advance(10.0)
        ladder.record_crash()  # one crash, below the threshold
        assert ladder.level == 0
        assert ladder.describe()["recoveries"] == 2

    def test_shed_threshold_climbs(self):
        clock = FakeClock()
        ladder = make_ladder(clock, shed_threshold=3)
        for _ in range(3):
            ladder.record_shed()
        assert ladder.level == 1

    def test_force_pins_and_releases(self):
        clock = FakeClock()
        ladder = make_ladder(clock)
        ladder.force(2)
        assert ladder.level == 2
        clock.advance(100.0)
        ladder.record_ok()
        assert ladder.level == 2  # pinned
        ladder.force(None)
        with pytest.raises(ValueError):
            ladder.force(3)


# ---------------------------------------------------------------------------
# Snapshot corruption: detection and recovery.
# ---------------------------------------------------------------------------


class TestSnapshotCorruption:
    @pytest.fixture
    def snap_path(self, tmp_path, graph):
        path = str(tmp_path / "g.snap")
        save_snapshot(IndexedGraph(graph), path)
        return path

    def test_truncated_read_fails_cleanly_then_recovers(self, snap_path):
        faults.install(FaultPlan(snapshot_truncate_at=(1,)))
        with pytest.raises(SnapshotError):
            load_snapshot(snap_path)
        # The file itself was never touched: the next read (ordinal 2,
        # no scheduled fault) parses the pristine bytes.
        loaded = load_snapshot(snap_path)
        assert loaded.num_vertices == 20

    def test_bitflip_is_caught_by_the_checksum(self, snap_path):
        faults.install(FaultPlan(seed=3, snapshot_bitflip_at=(1,)))
        with pytest.raises(SnapshotError):
            load_snapshot(snap_path)
        faults.uninstall()
        assert load_snapshot(snap_path).num_vertices == 20


# ---------------------------------------------------------------------------
# Worker-process chaos over real HTTP.
# ---------------------------------------------------------------------------


@pytest.fixture
def pool_registry():
    """Builds pooled registries serving a graph as "main"; closes each
    one at teardown, so no test leaves its workers or spool behind."""
    registries = []

    def build(graph, **pool_extra):
        kwargs = dict(FAST_POOL)
        kwargs.update(pool_extra)
        registry = GraphRegistry(worker_processes=1, pool_kwargs=kwargs)
        registries.append(registry)
        registry.register("main", graph)
        return registry

    yield build
    for registry in registries:
        registry.close()


def ask(client, endpoint, language, source, target, **overrides):
    """One query sent to ``/query``, or as a one-query ``/batch``; the
    result record."""
    if endpoint == "query":
        return client.query(language, source, target, **overrides)
    response = client.batch([(language, source, target)], **overrides)
    (record,) = response["results"]
    return record


class TestWorkerChaos:
    def test_crash_recovery_never_serves_a_wrong_answer(self, graph,
                                                        pool_registry):
        # Every respawned worker crashes serving its 2nd request, so
        # the pool is forced through repeated crash->respawn->retry
        # cycles while the client sees only correct answers.
        faults.install(FaultPlan(worker_crash_at=(2,)))
        registry = pool_registry(graph)
        service = QueryService(registry, ServiceConfig(workers=2))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port, max_retries=2)
            records = [
                client.query(lang, source, target)
                for lang, source, target in QUERIES
            ]
        assert verify_against_direct(graph, QUERIES, records) == []
        assert all(record["error"] is None for record in records)

    def test_unrecovered_crash_is_structured_503(self, graph,
                                                 pool_registry):
        # Crashing on every worker's 1st request exhausts the retry
        # budget: the server must answer 503 + Retry-After with a
        # machine-readable error type, and count the crash everywhere.
        faults.install(FaultPlan(worker_crash_at=(1,)))
        registry = pool_registry(graph)
        service = QueryService(registry, ServiceConfig(workers=2))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            with pytest.raises(ServiceError) as info:
                client.query("a*", 0, 1)
            assert info.value.status == 503
            assert info.value.error_type == "worker_crash"
            assert info.value.retry_after == pytest.approx(1.0)
            stats = client.stats()
        assert stats["service"]["worker_crashes"] == 1
        (described,) = stats["graphs"]
        assert described["worker_crashes"] == 1

    @pytest.mark.parametrize("watchdog_seconds", [None, 5.0])
    def test_hang_with_deadline_maps_to_504(self, graph, pool_registry,
                                            watchdog_seconds):
        # Only the pre-forked worker carries the plan: its replacement
        # starts clean, so the follow-up query need not wait out a
        # second hang.  An armed watchdog whose limit lies past the
        # deadline plus grace kills nothing: the overrun is a 504 only.
        faults.install(
            FaultPlan(worker_hang_at=(1,), hang_seconds=30.0)
        )
        registry = pool_registry(graph, watchdog_seconds=watchdog_seconds)
        faults.uninstall()
        service = QueryService(registry, ServiceConfig(workers=2))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            start = time.monotonic()
            with pytest.raises(ServiceError) as info:
                client.query("a*", 0, 1, deadline_seconds=0.2)
            elapsed = time.monotonic() - start
            assert info.value.status == 504
            # Bounded by deadline + grace, not by hang_seconds.
            assert elapsed < 10.0
            # The hung worker was killed and respawned: the pool keeps
            # serving.
            record = client.query("a*", 0, 1)
            assert record["error"] is None
        assert registry.get("main").pool.stats()["watchdog_kills"] == 0

    @pytest.mark.parametrize("watchdog_seconds", [None, 5.0])
    def test_batch_hang_with_deadline_maps_to_504(self, graph,
                                                  pool_registry,
                                                  watchdog_seconds):
        # The /batch twin: the same overrun is a 504 with the same
        # message, not a 500, and no watchdog kill.
        faults.install(
            FaultPlan(worker_hang_at=(1,), hang_seconds=30.0)
        )
        registry = pool_registry(graph, watchdog_seconds=watchdog_seconds)
        faults.uninstall()
        service = QueryService(registry, ServiceConfig(workers=2))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            start = time.monotonic()
            with pytest.raises(ServiceError) as info:
                client.batch([("a*", 0, 1)], deadline_seconds=0.2)
            elapsed = time.monotonic() - start
            assert info.value.status == 504
            assert "query exceeded its deadline" in str(info.value)
            assert elapsed < 10.0
            response = client.batch([("a*", 0, 1)])
        assert verify_against_direct(
            graph, [("a*", 0, 1)], response["results"]
        ) == []
        assert registry.get("main").pool.stats()["watchdog_kills"] == 0

    @pytest.mark.parametrize("endpoint", ["query", "batch"])
    def test_failed_respawn_is_503_and_keeps_the_slot(self, graph,
                                                       endpoint,
                                                       pool_registry):
        # The only worker dies and its replacement cannot attach the
        # snapshot: a server fault, fed to the crash counters, and the
        # slot survives, so the next request retries the spawn.
        registry = pool_registry(graph)
        service = QueryService(registry, ServiceConfig(workers=2))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port, timeout=10.0)
            registry.get("main").pool.kill_worker(0)
            faults.install(FaultPlan(snapshot_truncate_at=(1,)))
            with pytest.raises(ServiceError) as info:
                ask(client, endpoint, "a*", 0, 1)
            assert info.value.status == 503
            assert info.value.error_type == "worker_crash"
            assert "could not attach" in str(info.value)
            faults.uninstall()
            record = ask(client, endpoint, "a*", 0, 1)
            stats = client.stats()
        assert verify_against_direct(graph, [("a*", 0, 1)], [record]) == []
        assert stats["service"]["worker_crashes"] == 1

    def test_watchdog_reaps_deadline_less_wedge(self, graph,
                                                pool_registry):
        # No deadline anywhere: only the watchdog can detect the hang.
        # Each respawned worker hangs again on its 1st request, so the
        # retry budget exhausts into a 503 — but bounded by the
        # watchdog period, never by hang_seconds.
        faults.install(
            FaultPlan(worker_hang_at=(1,), hang_seconds=120.0)
        )
        registry = pool_registry(graph, watchdog_seconds=0.2)
        service = QueryService(registry, ServiceConfig(workers=2))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            start = time.monotonic()
            with pytest.raises(ServiceError) as info:
                client.query("a*", 0, 1)
            elapsed = time.monotonic() - start
            assert info.value.status == 503
            assert info.value.error_type == "worker_crash"
            assert elapsed < 30.0
            pool = registry.get("main").pool
            assert pool.stats()["watchdog_kills"] >= 1
            faults.uninstall()
            record = client.query("a*", 0, 1)
            assert record["error"] is None

    def test_healthz_degrades_then_recovers(self, graph, pool_registry):
        # The marquee chaos drill: healthy -> worker crashes trip the
        # breaker and climb the ladder (degraded) -> fault source
        # stops -> service heals itself within the backoff bounds.
        # The plan must be installed before the pool pre-forks: the
        # fault spec ships into workers at spawn (and respawn) time.
        faults.install(FaultPlan(worker_crash_at=(1,)))
        registry = pool_registry(graph)
        config = ServiceConfig(
            workers=2,
            breaker_threshold=1,
            breaker_cooldown=0.05,
            breaker_max_cooldown=0.4,
            breaker_jitter=0.0,
            # Recovery runs on time alone, so the health check right
            # after the crash must come within one quiet period.
            degrade_recovery_seconds=0.5,
        )
        service = QueryService(registry, config)
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            assert client.healthz()["status"] == "ok"

            with pytest.raises(ServiceError) as info:
                client.query("a*", 0, 1)
            assert info.value.error_type == "worker_crash"
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["degradation"]["level"] >= 1

            faults.uninstall()
            give_up = time.monotonic() + 30.0
            healed = False
            while time.monotonic() < give_up:
                try:
                    record = client.query("a*", 0, 1)
                except ServiceError as err:
                    # Breaker cooldown / half-open refusals are the
                    # only acceptable failures during recovery.
                    assert err.status == 503
                    time.sleep(0.05)
                    continue
                assert record["error"] is None
                if client.healthz()["status"] == "ok":
                    healed = True
                    break
                time.sleep(0.05)
            assert healed, "service did not return to healthy in time"
            stats = client.stats()
        # A recovered breaker resets its opens streak; the cumulative
        # evidence of the incident lives in the ladder transitions and
        # the crash counters.
        assert stats["service"]["worker_crashes"] >= 1
        assert stats["resilience"]["breakers"]["main"]["state"] == "closed"
        assert stats["resilience"]["ladder"]["escalations"] >= 1
        assert stats["resilience"]["ladder"]["recoveries"] >= 1


# ---------------------------------------------------------------------------
# A slow worker must not stall the event loop or the shutdown.
# ---------------------------------------------------------------------------


def _await_inflight(service, count=1, within=10.0):
    give_up = time.monotonic() + within
    while service.shedder.inflight != count:
        assert time.monotonic() < give_up, "request never went in flight"
        time.sleep(0.01)


class TestSlowWorker:
    def test_evicting_a_busy_pooled_graph_leaves_the_loop_free(
        self, graph, pool_registry
    ):
        # Closing the evicted graph's pool joins a worker still busy on
        # a 3s query; health checks must not wait for it.
        import threading

        faults.install(FaultPlan(worker_slow_at=(1,), slow_seconds=3.0))
        registry = pool_registry(graph)
        service = QueryService(registry, ServiceConfig(workers=2))
        outcomes = {}

        def call(name, fn):
            try:
                outcomes[name] = fn()
            except Exception as err:  # reported by the asserts below
                outcomes[name] = err

        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            slow = threading.Thread(target=call, args=(
                "query", lambda: client.query("a*", 0, 1, graph="main"),
            ))
            slow.start()
            _await_inflight(service)
            evict = threading.Thread(target=call, args=(
                "evict", lambda: client.evict_graph("main"),
            ))
            evict.start()
            time.sleep(0.3)
            start = time.monotonic()
            assert client.healthz()["status"] == "ok"
            elapsed = time.monotonic() - start
            slow.join(timeout=30)
            evict.join(timeout=30)
            client.close()
        assert not slow.is_alive() and not evict.is_alive(), (
            elapsed, outcomes,
        )
        assert elapsed < 0.5, (elapsed, outcomes)
        assert verify_against_direct(
            graph, [("a*", 0, 1)], [outcomes["query"]]
        ) == [], (elapsed, outcomes)
        assert outcomes["evict"]["evicted"] == "main", (elapsed, outcomes)

    def test_shutdown_drains_busy_and_closes_idle_connections(
        self, graph, pool_registry
    ):
        # The SIGTERM path with one idle kept-alive connection and one
        # query in flight on a slow worker.
        import asyncio
        import json

        faults.install(FaultPlan(worker_slow_at=(1,), slow_seconds=1.0))
        registry = pool_registry(graph)
        config = ServiceConfig(workers=2, drain_timeout=5.0)
        service = QueryService(registry, config)
        query = json.dumps({"language": "a*", "source": 0, "target": 1})
        with ServiceThread(service) as running:
            idle = socket.create_connection(("127.0.0.1", running.port), 10)
            idle_stream = idle.makefile("rb")
            idle.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert read_http_response(idle_stream)[0] == 200
            busy = socket.create_connection(("127.0.0.1", running.port), 10)
            busy_stream = busy.makefile("rb")
            busy.sendall(
                b"POST /query HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
                % (len(query), query.encode())
            )
            _await_inflight(service)
            start = time.monotonic()
            stopping = asyncio.run_coroutine_threadsafe(
                service.shutdown(), running._loop
            )
            # The idle connection closes at once, unanswered.
            assert idle_stream.read() == b""
            idle_closed = time.monotonic() - start
            # The busy one gets its whole response, then EOF.
            status, headers, record = read_http_response(busy_stream)
            assert busy_stream.read() == b""
            stopping.result(timeout=config.drain_timeout + 1.0)
            elapsed = time.monotonic() - start
            for closable in (idle_stream, idle, busy_stream, busy):
                closable.close()
        assert idle_closed < 0.5
        assert status == 200
        assert headers["connection"] == "close"
        assert verify_against_direct(graph, [("a*", 0, 1)], [record]) == []
        assert elapsed < config.drain_timeout + 1.0


# ---------------------------------------------------------------------------
# Registry spool faults over HTTP.
# ---------------------------------------------------------------------------


class TestSpoolFaults:
    def test_spool_io_error_is_503_then_retry_succeeds(self, graph):
        registry = GraphRegistry(
            worker_processes=1, pool_kwargs=dict(FAST_POOL)
        )
        service = QueryService(registry, ServiceConfig(workers=2))
        text = graph_io.dumps(graph)
        faults.install(FaultPlan(spool_errors=1))
        try:
            with ServiceThread(service) as running:
                client = ServiceClient(port=running.port)
                with pytest.raises(ServiceError) as info:
                    client.register_graph("g", text)
                assert info.value.status == 503
                assert info.value.error_type == "spool_io"
                assert info.value.retry_after == pytest.approx(1.0)
                # The injected failure budget is spent: the retry
                # spools and pre-forks cleanly, and the pool answers
                # correctly.
                client.register_graph("g", text)
                record = client.query("a*", 0, 1, graph="g")
        finally:
            registry.close()
        # Compare against the text round-trip (the wire format names
        # vertices as strings), not the original int-vertex graph.
        served_graph = graph_io.loads(text)
        assert verify_against_direct(
            served_graph, [("a*", "0", "1")], [record]
        ) == []


# ---------------------------------------------------------------------------
# Clock-skewed deadlines.
# ---------------------------------------------------------------------------


class TestSkewedDeadlines:
    def test_fast_clock_expires_generous_deadlines(self):
        # Odd a-cycle (see tests/test_service): the exact solver must
        # walk the whole chain, guaranteeing deadline checks fire.  Two
        # isolated vertices lift the walk check's cap (|V| - 1 edges)
        # to the 602-edge even walk, so the check cannot decide alone.
        graph = labeled_cycle("a" * 601)
        graph.add_vertex("pad-1")
        graph.add_vertex("pad-2")
        registry = GraphRegistry()
        registry.register("cycle", graph)
        service = QueryService(registry, ServiceConfig(workers=1))
        faults.install(FaultPlan(deadline_skew_seconds=-100.0))
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            with pytest.raises(ServiceError) as info:
                client.query("(aa)*", 0, 1, deadline_seconds=5.0)
            assert info.value.status == 504
            faults.uninstall()
            record = client.query("(aa)*", 0, 1, deadline_seconds=60.0)
            assert record["found"] is False


# ---------------------------------------------------------------------------
# Degradation ladder over HTTP: answer quality, never answer correctness.
# ---------------------------------------------------------------------------


class TestDegradedServing:
    @pytest.fixture
    def degradable(self):
        # 0 -a-> 1 -a-> 2 plus an isolated vertex 9: queries to 9 are
        # index-certified negatives even in reach-only mode.
        graph = DbGraph()
        graph.add_edge(0, "a", 1)
        graph.add_edge(1, "a", 2)
        graph.add_vertex(9)
        registry = GraphRegistry()
        registry.register("main", graph)
        service = QueryService(registry, ServiceConfig(workers=2))
        with ServiceThread(service) as running:
            yield ServiceClient(port=running.port), service, graph

    def test_portfolio_level_marks_degraded_and_stays_correct(
        self, degradable
    ):
        client, service, graph = degradable
        record = client.query("a*", 0, 2)
        assert record["degraded"] is False
        service.ladder.force(1)
        degraded = client.query("a*", 0, 2)
        assert degraded["degraded"] is True
        assert list(degraded) == list(RESULT_FIELDS)
        # Quality degrades, correctness does not.
        assert degraded["found"] == record["found"]
        assert degraded["word"] == record["word"]
        assert client.healthz()["status"] == "degraded"

    def test_reach_only_serves_certified_negatives_only(self, degradable):
        client, service, graph = degradable
        service.ladder.force(2)
        assert client.healthz()["degradation"]["level_name"] == (
            "reach-only"
        )
        # Unreachable target: the index *proves* NOT_FOUND.
        negative = client.query("a*", 0, 9)
        assert negative["found"] is False
        assert negative["degraded"] is True
        assert negative["error"] is None
        # Reachable work cannot be certified without a solver: shed.
        with pytest.raises(ServiceError) as info:
            client.query("a*", 0, 2)
        assert info.value.status == 503
        assert info.value.error_type == "degraded_reach_only"
        assert info.value.retry_after > 0
        # Batches are shed wholesale at this rung.
        with pytest.raises(ServiceError) as batch_info:
            client.batch([("a*", 0, 2)])
        assert batch_info.value.error_type == "degraded_reach_only"

    def test_reach_only_failure_releases_its_slot(self, degradable,
                                                  monkeypatch):
        client, service, _graph = degradable
        service.ladder.force(2)

        def boom(*args):
            raise RuntimeError("injected engine failure")

        monkeypatch.setattr(
            service.registry.get("main").engine, "reach_only_result", boom
        )
        with pytest.raises(ServiceError) as info:
            client.query("a*", 0, 9)
        assert info.value.status == 500
        assert service.shedder.inflight == 0

    def test_reach_only_steps_down_on_time_alone(self):
        # At reach-only every batch and every query the index cannot
        # certify is shed, so no request is served there: the quiet
        # period alone must bring the service back down the ladder.
        graph = DbGraph()
        graph.add_edge(0, "a", 1)
        graph.add_edge(1, "a", 2)
        registry = GraphRegistry()
        registry.register("main", graph)
        service = QueryService(registry, ServiceConfig(
            workers=2, degrade_recovery_seconds=0.05,
        ))
        service.ladder.record_breaker_open()
        service.ladder.record_breaker_open()
        assert service.ladder.describe()["escalations"] == 2
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            time.sleep(0.2)
            record = client.query("a*", 0, 2)
            assert record["found"] is True
            assert record["error"] is None
            response = client.batch([("a*", 0, 2), ("a*", 2, 0)])
            assert [r["found"] for r in response["results"]] == [True, False]
            assert client.healthz()["degradation"]["level"] <= 1
        assert service.ladder.describe()["recoveries"] >= 1

    def test_batch_records_carry_degraded_flag(self, degradable):
        client, service, graph = degradable
        service.ladder.force(1)
        response = client.batch([("a*", 0, 2), ("a*", 0, 9)])
        assert all(r["degraded"] is True for r in response["results"])
        mismatches = verify_against_direct(
            graph,
            [("a*", 0, 2), ("a*", 0, 9)],
            response["results"],
        )
        assert mismatches == []


# ---------------------------------------------------------------------------
# Half-open probe discipline over HTTP: consumed probes never wedge.
# ---------------------------------------------------------------------------


def half_open_service(graph, **config_extra):
    """A one-graph service whose breaker is half-open in ~0.05s."""
    registry = GraphRegistry()
    registry.register("main", graph)
    config = ServiceConfig(
        workers=1,
        breaker_threshold=1,
        breaker_cooldown=0.05,
        breaker_jitter=0.0,
        **config_extra,
    )
    return QueryService(registry, config)


class TestProbeRecovery:
    def test_probe_burned_on_bad_input_does_not_wedge(self, graph):
        # The half-open probe request dies on a 400 (bad regex) after
        # clearing the breaker check: it proves nothing about graph
        # health, so the slot must return — the next good request
        # probes and closes the circuit instead of 503ing forever.
        service = half_open_service(graph)
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            service._breaker("main").record_failure()
            time.sleep(0.1)  # cooldown elapses: next request probes
            with pytest.raises(ServiceError) as info:
                client.query("a*(", 0, 1)
            assert info.value.status == 400
            record = client.query("a*", 0, 1)
            assert record["error"] is None
            stats = client.stats()
        assert stats["resilience"]["breakers"]["main"]["state"] == "closed"

    def test_probe_shed_by_admission_does_not_wedge(self, graph):
        # The probe clears the breaker but the load shedder 429s it
        # (admission runs after the breaker check): same discipline.
        service = half_open_service(graph, max_inflight=1)
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            service._breaker("main").record_failure()
            time.sleep(0.1)
            service.shedder.admit(1)  # hold the only slot
            try:
                with pytest.raises(ServiceOverloadedError):
                    client.query("a*", 0, 1)
            finally:
                service.shedder.release(1)
            record = client.query("a*", 0, 1)
            assert record["error"] is None
            stats = client.stats()
        assert stats["resilience"]["breakers"]["main"]["state"] == "closed"

    def test_reach_only_negative_closes_a_half_open_breaker(self):
        # While the ladder is pinned at reach-only, served certified
        # negatives are successes: a half-open breaker must close on
        # them, not stay open until full service resumes.
        graph = DbGraph()
        graph.add_edge(0, "a", 1)
        graph.add_vertex(9)
        service = half_open_service(graph)
        service.ladder.force(2)
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            service._breaker("main").record_failure()
            time.sleep(0.1)
            negative = client.query("a*", 0, 9)
            assert negative["found"] is False
            assert negative["degraded"] is True
            stats = client.stats()
        assert stats["resilience"]["breakers"]["main"]["state"] == "closed"


#: ``(endpoint, status, error_type)`` of every failure the read path can
#: answer after the breaker check.  A /batch keeps a bad regex or a
#: spent budget inside its 200 (per-query errors), so it has no 400 or
#: 422 here.
EXIT_PATHS = [
    ("query", 400, None),
    ("query", 422, None),
    ("query", 429, "overloaded"),
    ("query", 503, "circuit_open"),
    ("query", 503, "degraded_reach_only"),
    ("query", 503, "worker_crash"),
    ("query", 504, None),
    ("batch", 429, "overloaded"),
    ("batch", 503, "circuit_open"),
    ("batch", 503, "degraded_reach_only"),
    ("batch", 503, "worker_crash"),
    ("batch", 504, None),
]


class TestExitPaths:
    @pytest.mark.parametrize(
        "endpoint, status, error_type", EXIT_PATHS,
        ids=["%s-%s" % (e, t or s) for e, s, t in EXIT_PATHS],
    )
    def test_exit_path_returns_weight_and_probe(self, graph, endpoint,
                                                status, error_type,
                                                pool_registry):
        # Only the pre-forked worker carries a fault plan, and the pool
        # does not retry, so one fault fails the request and the
        # replacement worker serves the next one.
        if error_type == "worker_crash":
            faults.install(FaultPlan(worker_crash_at=(1,)))
        elif status == 504:
            faults.install(
                FaultPlan(worker_hang_at=(1,), hang_seconds=30.0)
            )
        registry = pool_registry(graph, max_retries=0)
        faults.uninstall()
        service = QueryService(registry, ServiceConfig(
            workers=2, breaker_threshold=1, breaker_cooldown=1.0,
            breaker_jitter=0.0,
        ))
        # The breaker runs on a fake clock, so no cooldown passes on its
        # own: a probe slot the request leaked would stay taken.
        clock = FakeClock()
        breaker = CircuitBreaker(service.config.breaker_config(),
                                 clock=clock)
        service._breakers["main"] = breaker
        breaker.record_failure()
        if error_type != "circuit_open":
            clock.advance(1.5)  # half-open: the request takes the probe
        language, source, target, overrides = "a*", 0, 1, {}
        if status == 400:
            language = "a*("
        elif status == 422:
            language, source, target = "(ab)*", 2, 11
            overrides = {"budget": 1}
        elif status == 504:
            overrides = {"deadline_seconds": 0.2}
        full = service.config.max_inflight
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            if status == 429:
                service.shedder.admit(full)  # hold every slot
            if error_type == "degraded_reach_only":
                service.ladder.force(2)
            try:
                with pytest.raises(ServiceError) as info:
                    ask(client, endpoint, language, source, target,
                        **overrides)
            finally:
                if status == 429:
                    service.shedder.release(full)
                if error_type == "degraded_reach_only":
                    service.ladder.force(0)
            assert info.value.status == status
            assert info.value.error_type == error_type
            assert client.healthz()["inflight"] == 0
            if error_type in ("circuit_open", "worker_crash"):
                # Nothing to hand back: the circuit refused the
                # request, or the failed probe re-opened it.
                assert breaker.state == "open"
                clock.advance(60.0)
            record = ask(client, endpoint, "a*", 0, 1)
            health = client.healthz()
        assert record["error"] is None and record["found"] is True
        assert breaker.state == "closed"
        assert health["inflight"] == 0


# ---------------------------------------------------------------------------
# Retry-After plumbing: server headers/body, client honoring them.
# ---------------------------------------------------------------------------


class TestRetryAfter:
    def test_429_carries_header_and_structured_body(self, graph):
        registry = GraphRegistry()
        registry.register("main", graph)
        service = QueryService(
            registry, ServiceConfig(workers=1, max_inflight=1)
        )
        with ServiceThread(service) as running:
            client = ServiceClient(port=running.port)
            status, body, headers = client.request_full(
                "POST",
                "/batch",
                {"queries": [["a*", 0, 1], ["a*", 1, 2]]},
            )
        assert status == 429
        assert body["error_type"] == "overloaded"
        assert body["retry_after"] > 0
        assert int(headers["retry-after"]) == math.ceil(
            body["retry_after"]
        )

    def test_open_circuit_is_503_with_retry_after(self, graph):
        registry = GraphRegistry()
        registry.register("main", graph)
        service = QueryService(
            registry,
            ServiceConfig(
                workers=1,
                breaker_threshold=2,
                breaker_cooldown=5.0,
                breaker_jitter=0.0,
            ),
        )
        with ServiceThread(service) as running:
            breaker = service._breaker("main")
            breaker.record_failure()
            breaker.record_failure()
            client = ServiceClient(port=running.port)
            status, body, headers = client.request_full(
                "POST",
                "/query",
                {"language": "a*", "source": 0, "target": 1},
            )
        assert status == 503
        assert body["error_type"] == "circuit_open"
        assert 0 < body["retry_after"] <= 5.0
        assert "retry-after" in headers

    def test_client_retries_through_a_cooldown(self, graph):
        registry = GraphRegistry()
        registry.register("main", graph)
        service = QueryService(
            registry,
            ServiceConfig(
                workers=1,
                breaker_threshold=1,
                breaker_cooldown=0.2,
                breaker_jitter=0.0,
            ),
        )
        with ServiceThread(service) as running:
            service._breaker("main").record_failure()
            client = ServiceClient(
                port=running.port,
                max_retries=5,
                backoff_seconds=0.01,
                backoff_jitter=0.0,
            )
            start = time.monotonic()
            record = client.query("a*", 0, 1)
            elapsed = time.monotonic() - start
        assert record["error"] is None
        assert client.retries >= 1
        # The client slept through the server-announced cooldown
        # instead of hammering: total wait covers the 0.2s window.
        assert elapsed >= 0.15

    def test_connect_failures_retry_only_idempotent_calls(self):
        # Nothing listens on this port: every request dies at connect.
        # Pure queries retry up to the cap; registration must not —
        # after a send the client cannot prove the server did not
        # already apply it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(
            port=port,
            max_retries=2,
            backoff_seconds=0.01,
            backoff_jitter=0.0,
            connect_timeout=0.5,
        )
        with pytest.raises(OSError):
            client.register_graph("g", "v 0\n")
        assert client.retries == 0
        with pytest.raises(OSError):
            client.evict_graph("g")
        assert client.retries == 0
        with pytest.raises(OSError):
            client.query("a*", 0, 1)
        assert client.retries == 2

    def test_retry_delay_prefers_body_then_header_then_backoff(self):
        client = ServiceClient(
            backoff_seconds=0.05, backoff_cap=2.0, backoff_jitter=0.0
        )
        body_hint = client._retry_delay(
            1, {"retry_after": 0.3}, {"retry-after": "2"}
        )
        assert body_hint == pytest.approx(0.3)
        header_hint = client._retry_delay(1, None, {"retry-after": "2"})
        assert header_hint == pytest.approx(2.0)
        backoff = client._retry_delay(3, None, None)
        assert backoff == pytest.approx(0.05 * 4)
        capped = client._retry_delay(10, None, None)
        assert capped == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Snapshot replaced/corrupted on disk while a pool serves from it.
# ---------------------------------------------------------------------------


class TestSnapshotSwapUnderServing:
    def test_pool_survives_on_disk_replacement(self, tmp_path, graph):
        path = str(tmp_path / "live.snap")
        save_snapshot(IndexedGraph(graph), path)
        with open(path, "rb") as handle:
            good_bytes = handle.read()

        registry = GraphRegistry(
            worker_processes=1, pool_kwargs=dict(FAST_POOL)
        )
        try:
            registry.register_snapshot("snap", path)
            service = QueryService(registry, ServiceConfig(workers=2))
            with ServiceThread(service) as running:
                client = ServiceClient(port=running.port)
                before = client.query("a*", 0, 1, graph="snap")
                assert verify_against_direct(
                    graph, [("a*", 0, 1)], [before]
                ) == []

                # Replace the snapshot with a truncated husk *while the
                # pool serves from it*.  The attached mapping pins the old
                # inode, so in-flight serving must not notice.
                husk = str(tmp_path / "husk.snap")
                with open(husk, "wb") as handle:
                    handle.write(good_bytes[: len(good_bytes) // 2])
                os.replace(husk, path)

                after = [
                    client.query(lang, source, target, graph="snap")
                    for lang, source, target in QUERIES
                ]
                assert verify_against_direct(graph, QUERIES, after) == []

                # A *new* registration sees the damage and fails cleanly —
                # a refusal, not a crash, and not a wrong graph.
                with pytest.raises(SnapshotError):
                    registry.register_snapshot("fresh", path)

                # Restore the good bytes: registration works again.
                restored = str(tmp_path / "restored.snap")
                with open(restored, "wb") as handle:
                    handle.write(good_bytes)
                os.replace(restored, path)
                registry.register_snapshot("fresh", path)
                again = client.query("a*", 0, 1, graph="fresh")
                assert verify_against_direct(
                    graph, [("a*", 0, 1)], [again]
                ) == []
        finally:
            registry.close()
