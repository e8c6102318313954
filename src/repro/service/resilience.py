"""Self-healing serving primitives: breaker, shedder, degradation ladder.

Three small state machines that keep the service *correct and live*
when workers crash, load spikes, or storage rots — the failure modes
:mod:`repro.service.faults` injects deterministically and
``tests/test_chaos.py`` asserts invariants over:

* :class:`CircuitBreaker` — per-graph closed → open → half-open with
  seeded jittered exponential cooldown.  Repeated server-side faults
  (worker crashes) open the circuit so clients get an immediate 503 +
  ``Retry-After`` instead of queueing onto a broken pool; one
  half-open probe per cooldown decides recovery.
* :class:`LoadShedder` — deadline-aware admission control on top of
  the hard in-flight cap: it sheds doomed work — requests whose
  deadline cannot survive the current queue — upfront, and inside the
  optional pressure band above the soft watermark it drops the work
  that is *cheapest to retry* first (single queries) while still
  admitting expensive batches.  Every shed carries a ``Retry-After``
  hint derived from the observed service rate.
* :class:`DegradationLadder` — the service-wide health level.  Fault
  events (worker crashes, breaker opens, sustained shedding) escalate
  it; quiet time steps it back down one rung at a time.  The server
  maps levels onto answer quality: level 1 routes hard-regime queries
  through the anytime portfolio (probabilistic answers, surfaced via
  the existing ``confidence`` / ``failure_bound`` protocol fields and
  ``degraded=true``), level 2 serves only reachability-index-certified
  negatives and sheds everything else.  Degraded mode never returns a
  *wrong* answer — only a cheaper or refused one.

The breaker and the ladder take an injectable monotonic ``clock`` so
the chaos unit tests drive their transitions deterministically; all
jitter is seeded.  The two clocks stay separate because they drive
different decisions: the breaker times one graph's cooldown, the
ladder a service-wide fault window and quiet period.  The shedder
reads no clock: it decides from in-flight counts and an EWMA of
observed service seconds.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ServiceOverloadedError

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "DegradationLadder",
    "LadderConfig",
    "LoadShedder",
    "ShedConfig",
    "LEVEL_FULL",
    "LEVEL_PORTFOLIO",
    "LEVEL_REACH_ONLY",
    "LEVEL_NAMES",
]

#: Degradation rungs (see DegradationLadder).
LEVEL_FULL = 0
LEVEL_PORTFOLIO = 1
LEVEL_REACH_ONLY = 2
LEVEL_NAMES = ("full", "portfolio", "reach-only")

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class BreakerConfig:
    """Knobs for one :class:`CircuitBreaker`."""

    #: Consecutive server-side failures that trip the circuit open.
    failure_threshold: int = 5
    #: Base cooldown before the first half-open probe; doubles per
    #: consecutive open, capped at ``max_cooldown_seconds``.
    cooldown_seconds: float = 1.0
    max_cooldown_seconds: float = 30.0
    #: Fractional jitter applied to each cooldown (seeded).
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                "failure_threshold must be >= 1, got %d"
                % self.failure_threshold
            )
        if self.cooldown_seconds <= 0:
            raise ValueError(
                "cooldown_seconds must be positive, got %r"
                % (self.cooldown_seconds,)
            )
        if self.max_cooldown_seconds < self.cooldown_seconds:
            raise ValueError(
                "max_cooldown_seconds must be >= cooldown_seconds"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(
                "jitter must be in [0, 1), got %r" % (self.jitter,)
            )


class CircuitBreaker:
    """Closed → open → half-open failure isolation for one graph.

    ``admit()`` returns ``None`` when the request may proceed, or the
    seconds until the next probe slot when the circuit is open (the
    caller turns that into 503 + ``Retry-After``).  While half-open,
    exactly one in-flight probe is admitted; its outcome closes or
    re-opens the circuit.  Only *server-side* faults should be fed to
    :meth:`record_failure` — a client's bad regex is not a reason to
    stop serving a graph.
    """

    def __init__(self, config: "BreakerConfig | None" = None,
                 seed: int = 0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or BreakerConfig()
        self._clock = clock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opens = 0
        self._opened_at: "float | None" = None
        self._cooldown = 0.0
        self._probe_inflight = False
        self._probe_started_at: "float | None" = None
        self._rejections = 0

    # -- decisions ---------------------------------------------------------------

    # invariant: holds-lock
    def _next_cooldown(self) -> float:
        base = min(
            self.config.cooldown_seconds * (2 ** max(self._opens - 1, 0)),
            self.config.max_cooldown_seconds,
        )
        if self.config.jitter:
            base *= 1.0 + self.config.jitter * self._rng.uniform(-1.0, 1.0)
        return base

    # invariant: holds-lock
    def _trip(self) -> None:
        self._opens += 1
        self._state = OPEN
        self._opened_at = self._clock()
        self._cooldown = self._next_cooldown()
        self._probe_inflight = False
        self._probe_started_at = None

    def admit(self) -> "float | None":
        """None = admitted; else seconds the caller should retry after."""
        with self._lock:
            if self._state == CLOSED:
                return None
            now = self._clock()
            assert self._opened_at is not None
            remaining = self._opened_at + self._cooldown - now
            if self._state == OPEN:
                if remaining > 0:
                    self._rejections += 1
                    return max(remaining, 1e-3)
                self._state = HALF_OPEN
                self._probe_inflight = False
                self._probe_started_at = None
            # Half-open: one probe at a time decides recovery.  A probe
            # outstanding for longer than a full cooldown is presumed
            # lost (its request was shed downstream or its handler died
            # before reporting an outcome) and its slot re-opens — a
            # leaked probe must never wedge the circuit half-open with
            # every request rejected and nothing left to close it.
            if self._probe_inflight and (
                self._probe_started_at is not None
                and now - self._probe_started_at < self._cooldown
            ):
                self._rejections += 1
                return max(self._cooldown, 1e-3)
            self._probe_inflight = True
            self._probe_started_at = now
            return None

    def release_probe(self) -> None:
        """Hand back an unresolved half-open probe slot.

        The server calls this in a ``finally`` after every admitted
        request: when the request ended without reaching
        :meth:`record_success` or :meth:`record_failure` (shed by the
        load shedder, rejected input, deadline/budget exhaustion, an
        unexpected handler error, …) it learned nothing about server
        health, so the probe it may have been holding returns and the
        next request can probe instead.  No-op when the probe was
        already resolved or no probe is outstanding.
        """
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_inflight = False
                self._probe_started_at = None

    def record_success(self) -> None:
        """A served request: closes a half-open circuit, clears failures."""
        with self._lock:
            self._consecutive_failures = 0
            self._probe_inflight = False
            self._probe_started_at = None
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._opened_at = None
                self._opens = 0

    def record_failure(self) -> None:
        """A server-side fault: trips the circuit at the threshold."""
        with self._lock:
            if self._state == HALF_OPEN:
                # The probe failed: straight back to open, with the
                # next (longer) cooldown.
                self._trip()
                return
            self._consecutive_failures += 1
            if self._state == CLOSED and (
                self._consecutive_failures
                >= self.config.failure_threshold
            ):
                self._trip()

    # -- introspection -----------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            # An expired open circuit reads as half-open: the next
            # request *will* be admitted as a probe.
            if self._state == OPEN:
                assert self._opened_at is not None
                if self._clock() >= self._opened_at + self._cooldown:
                    return HALF_OPEN
            return self._state

    def describe(self) -> dict[str, Any]:
        state = self.state
        with self._lock:
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "opens": self._opens,
                "rejections": self._rejections,
                "cooldown_seconds": round(self._cooldown, 6),
            }


#: Weight at or below which a request counts as cheap to retry (a
#: single query is 1; batches weigh their query count).
CHEAP_WEIGHT = 1

#: Fallback Retry-After hint before any service-rate observations.
RETRY_AFTER_SECONDS = 0.05


@dataclass
class ShedConfig:
    """Knobs for one :class:`LoadShedder`.

    The hard cap always holds and doomed-deadline work is always shed;
    with ``soft_inflight`` unset the soft band is empty.
    """

    max_inflight: int = 64
    #: Concurrent service lanes draining the in-flight queue (the
    #: executor/pool worker count).  Wait and drain estimates divide
    #: by this: N workers serve N queries per per-query interval.
    workers: int = 1
    #: Start shedding cheap-to-retry work above this watermark
    #: (None = no soft band; only the hard cap sheds).
    soft_inflight: "int | None" = None

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(
                "max_inflight must be >= 1, got %d" % self.max_inflight
            )
        if self.workers < 1:
            raise ValueError(
                "workers must be >= 1, got %d" % self.workers
            )
        if self.soft_inflight is not None and not (
            1 <= self.soft_inflight <= self.max_inflight
        ):
            raise ValueError(
                "soft_inflight must be in [1, max_inflight], got %r"
                % (self.soft_inflight,)
            )


class LoadShedder:
    """Deadline-aware admission control with cheapest-first shedding.

    Admission rules, in order (``weight`` = in-flight queries the
    request would add, ``deadline_seconds`` = the request's effective
    per-query deadline, None when it has none):

    1. **hard cap** — past ``max_inflight`` everything is shed
       (bounded queueing beats unbounded latency);
    2. **doomed work** — a request whose deadline is smaller than the
       estimated wait for a slot is shed immediately: admitting it
       burns a slot to produce a guaranteed 504;
    3. **soft band** — between ``soft_inflight`` and the hard cap,
       requests of weight <= :data:`CHEAP_WEIGHT` are shed.
       They are the cheapest for a client to retry (one query, resent
       in one line), so dropping them first preserves the expensive
       batches that would cost the most offered work to resubmit.

    Sheds raise :class:`~repro.errors.ServiceOverloadedError` carrying
    a ``retry_after`` drain estimate from an EWMA of observed query
    seconds, so well-behaved clients back off just long enough.
    """

    def __init__(self, config: "ShedConfig | None" = None) -> None:
        self.config = config or ShedConfig()
        self._lock = threading.Lock()
        self._inflight = 0
        self._admitted = 0
        self._shed_hard = 0
        self._shed_soft = 0
        self._shed_doomed = 0
        #: EWMA of per-query service seconds (None until first sample).
        self._avg_query_seconds: "float | None" = None

    # -- accounting --------------------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def observe(self, seconds: float, weight: int = 1) -> None:
        """Feed one completed request's wall-clock into the EWMA."""
        if weight < 1 or seconds < 0:
            return
        per_query = seconds / weight
        with self._lock:
            if self._avg_query_seconds is None:
                self._avg_query_seconds = per_query
            else:
                self._avg_query_seconds += 0.2 * (
                    per_query - self._avg_query_seconds
                )

    # invariant: holds-lock
    def _retry_after(self, excess: int) -> float:
        """Seconds until ``excess`` queries have likely drained.

        Floored at 1ms (like the breaker's hints) so a sub-millisecond
        drain estimate survives the server's 3-decimal body rounding —
        a shed must never advertise ``retry_after: 0``.
        """
        per_query = self._avg_query_seconds
        if per_query is None or per_query <= 0:
            return RETRY_AFTER_SECONDS
        return max(
            max(excess, 1) * per_query / self.config.workers, 1e-3
        )

    # invariant: holds-lock
    def _estimated_wait(self) -> float:
        """Expected seconds before a new request reaches a worker.

        The queue drains ``workers`` queries per per-query interval,
        not one — estimating serially would overstate the wait N-fold
        and shed doomed-deadline work whose deadline would hold.
        """
        per_query = self._avg_query_seconds
        if per_query is None:
            return 0.0
        return self._inflight * per_query / self.config.workers

    def admit(self, weight: int,
              deadline_seconds: "float | None" = None) -> None:
        """Reserve ``weight`` slots or raise 429 with a retry hint."""
        if weight < 1:
            raise ValueError("weight must be >= 1, got %d" % weight)
        config = self.config
        with self._lock:
            would_be = self._inflight + weight
            if would_be > config.max_inflight:
                self._shed_hard += 1
                raise ServiceOverloadedError(
                    "server overloaded: %d queries in flight, +%d "
                    "requested, limit %d"
                    % (self._inflight, weight, config.max_inflight),
                    status=429,
                    retry_after=self._retry_after(
                        would_be - config.max_inflight
                    ),
                    error_type="overloaded",
                )
            if deadline_seconds is not None:
                wait = self._estimated_wait()
                if wait > deadline_seconds:
                    self._shed_doomed += 1
                    raise ServiceOverloadedError(
                        "request deadline %.3fs cannot survive the "
                        "estimated %.3fs queue — shed instead of "
                        "serving a guaranteed timeout"
                        % (deadline_seconds, wait),
                        status=429,
                        retry_after=self._retry_after(self._inflight),
                        error_type="doomed_deadline",
                    )
            soft = config.soft_inflight
            if (
                soft is not None
                and would_be > soft
                and weight <= CHEAP_WEIGHT
            ):
                self._shed_soft += 1
                raise ServiceOverloadedError(
                    "server under pressure (%d/%d in flight): "
                    "shedding cheap-to-retry work first"
                    % (self._inflight, config.max_inflight),
                    status=429,
                    retry_after=self._retry_after(would_be - soft),
                    error_type="pressure_shed",
                )
            self._inflight = would_be
            self._admitted += 1

    def release(self, weight: int) -> None:
        with self._lock:
            self._inflight = max(self._inflight - weight, 0)

    # -- introspection -----------------------------------------------------------

    @property
    def shed_total(self) -> int:
        with self._lock:
            return self._shed_hard + self._shed_soft + self._shed_doomed

    def describe(self) -> dict[str, Any]:
        with self._lock:
            return {
                "max_inflight": self.config.max_inflight,
                "workers": self.config.workers,
                "soft_inflight": self.config.soft_inflight,
                "inflight": self._inflight,
                "admitted": self._admitted,
                "shed_hard": self._shed_hard,
                "shed_soft": self._shed_soft,
                "shed_doomed": self._shed_doomed,
                "avg_query_seconds": self._avg_query_seconds,
            }


@dataclass
class LadderConfig:
    """Knobs for one :class:`DegradationLadder`."""

    #: Worker-loss events inside the window that climb one rung.
    crash_threshold: int = 3
    #: Shed events inside the window that climb one rung.
    shed_threshold: int = 16
    #: Rolling event window.
    window_seconds: float = 30.0
    #: Quiet seconds (no fault events) before stepping one rung down.
    recovery_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.crash_threshold < 1 or self.shed_threshold < 1:
            raise ValueError("ladder thresholds must be >= 1")
        if self.window_seconds <= 0 or self.recovery_seconds <= 0:
            raise ValueError("ladder windows must be positive")


class DegradationLadder:
    """Service-wide graceful-degradation level (full → reach-only).

    The ladder never refuses anything itself — it only *names* the
    level; the server maps levels onto answer quality.  Escalation is
    event-driven (crashes, sustained shedding, breaker opens climb one
    rung immediately once their windowed threshold trips); recovery is
    time-driven (each quiet ``recovery_seconds`` without a fault steps
    one rung down, whether or not a request was served meanwhile), so
    a service climbs fast under fire and descends deliberately.  Every
    read of the level and every event first applies the steps that
    have come due, so a request arriving after a quiet period is
    routed at the lower level even when the rung above could serve
    nothing.
    """

    def __init__(self, config: "LadderConfig | None" = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or LadderConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._level = LEVEL_FULL
        self._forced: "int | None" = None
        self._crash_times: list[float] = []
        self._shed_times: list[float] = []
        self._last_fault_at: "float | None" = None
        self._escalations = 0
        self._recoveries = 0
        self._transitions: list[tuple[float, int, str]] = []

    # invariant: holds-lock
    def _prune(self, now: float) -> None:
        horizon = now - self.config.window_seconds
        self._crash_times = [t for t in self._crash_times if t > horizon]
        self._shed_times = [t for t in self._shed_times if t > horizon]

    # invariant: holds-lock
    def _recover(self, now: float) -> None:
        """Step down one rung per quiet period that has ended by ``now``
        (automatic mode only)."""
        if self._forced is not None:
            return
        while self._level > LEVEL_FULL:
            due = now if self._last_fault_at is None else (
                self._last_fault_at + self.config.recovery_seconds
            )
            if due > now:
                return
            self._level -= 1
            self._recoveries += 1
            self._transitions.append((due, self._level, "recovery"))
            # The next rung down needs a quiet period of its own.
            self._last_fault_at = due

    # invariant: holds-lock
    def _climb(self, now: float, reason: str) -> None:
        self._last_fault_at = now
        if self._level < LEVEL_REACH_ONLY:
            self._level += 1
            self._escalations += 1
            self._transitions.append((now, self._level, reason))
            # A climb consumes the events that caused it; the window
            # starts accumulating evidence for the *next* rung.
            self._crash_times.clear()
            self._shed_times.clear()

    # -- event feeds -------------------------------------------------------------

    def record_crash(self) -> None:
        """One worker-loss event (crash, hang-kill, failed respawn)."""
        now = self._clock()
        with self._lock:
            self._recover(now)
            self._prune(now)
            self._crash_times.append(now)
            self._last_fault_at = now
            if len(self._crash_times) >= self.config.crash_threshold:
                self._climb(now, "worker-loss")

    def record_shed(self) -> None:
        """One shed/overload event."""
        now = self._clock()
        with self._lock:
            self._recover(now)
            self._prune(now)
            self._shed_times.append(now)
            self._last_fault_at = now
            if len(self._shed_times) >= self.config.shed_threshold:
                self._climb(now, "overload")

    def record_breaker_open(self) -> None:
        """A circuit opening is always enough evidence to climb."""
        now = self._clock()
        with self._lock:
            self._recover(now)
            self._prune(now)
            self._climb(now, "breaker-open")

    def record_ok(self) -> None:
        """A healthy served request.  Recovery runs on time alone, so
        this applies the steps down that are due, as a read of the
        level does."""
        now = self._clock()
        with self._lock:
            self._recover(now)

    # -- level -------------------------------------------------------------------

    def force(self, level: "int | None") -> None:
        """Pin the level (ops/test hook); ``None`` resumes automatic."""
        if level is not None and not (
            LEVEL_FULL <= level <= LEVEL_REACH_ONLY
        ):
            raise ValueError("level must be 0..2 or None, got %r" % level)
        now = self._clock()
        with self._lock:
            self._forced = level
            if level is not None:
                self._level = level
                self._transitions.append((now, level, "forced"))

    @property
    def level(self) -> int:
        now = self._clock()
        with self._lock:
            self._recover(now)
            return self._level if self._forced is None else self._forced

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level]

    def describe(self) -> dict[str, Any]:
        level = self.level
        with self._lock:
            return {
                "level": level,
                "level_name": LEVEL_NAMES[level],
                "forced": self._forced,
                "escalations": self._escalations,
                "recoveries": self._recoveries,
                "recent_crashes": len(self._crash_times),
                "recent_sheds": len(self._shed_times),
                "transitions": [
                    {
                        "at": round(at, 6),
                        "level": lvl,
                        "reason": reason,
                    }
                    for at, lvl, reason in self._transitions[-8:]
                ],
            }
