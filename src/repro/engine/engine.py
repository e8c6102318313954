"""The batch query engine: one compiled graph, many cached plans.

:class:`QueryEngine` binds an :class:`~repro.engine.indexed.IndexedGraph`
(compiled once from the caller's :class:`~repro.graphs.dbgraph.DbGraph`)
to a :class:`~repro.engine.plan.PlanCache` and answers
``(language, source, target)`` queries through both — see
:mod:`repro.engine` for the cost model.  Results are identical,
path-for-path, to what per-query :func:`repro.core.solver.solve_rspq`
returns on the raw graph; the engine only removes redundant work.

Plans are frozen and solvers re-entrant (per-query state lives in an
:class:`~repro.execution.ExecutionContext`), so any number of threads
may call :meth:`QueryEngine.query` at once: queries on the same
language share one plan, compiled exactly once even under contention
(single-flight).  ``run_batch`` answers a whole batch in this process,
in input order with per-query error isolation, sweeping the queries
that share a plan together.  A batch reaches more cores one way only:
a :class:`repro.service.workers.WorkerPool`, whose worker processes
answer their shards through the same :meth:`QueryEngine.run_shard`.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Optional

if TYPE_CHECKING:
    from ..languages import Language

from ..errors import ReproError
from ..execution import ExecutionContext
from ..graphs.dbgraph import Path
from .indexed import IndexedGraph
from .plan import PlanCache, PlanCacheStats, QueryPlan, group_by_plan, plan_key
from .portfolio import CONFIDENCE_CERTIFIED
from .vectorized import CertificateCache, VectorizedBatchStats, sweep_group

#: Strategy marker for queries that raised instead of answering.
STRATEGY_ERROR = "error"


@dataclass
class QueryStats:
    """Per-query execution counters."""

    strategy: str
    steps: Optional[int]
    plan_cache_hit: bool
    seconds: float
    #: True when the answer was replayed from the engine result cache
    #: (no solver ran; ``steps`` reports the original solve's work).
    result_cache_hit: bool = False
    #: True when the reachability index proved the target unreachable
    #: under the plan's label mask and no solver ran (``steps`` is 0).
    short_circuit: bool = False
    #: True when a plan group's walk decision answered the query
    #: (proven NOT_FOUND with no per-query solver run; ``steps``
    #: reports the BFS rounds this query rode, 0 under a certificate).
    vectorized: bool = False


@dataclass
class EngineResult:
    """One answered query: the RSPQ outcome plus engine bookkeeping."""

    language: Any  # the regex string / Language the caller queried with
    source: Any
    target: Any
    found: bool
    path: Optional[Path]
    strategy: str
    decompose_failed: bool
    stats: QueryStats
    #: ``"certified"`` for exact answers (every classic-strategy
    #: result, and portfolio answers backed by a witness or proof);
    #: ``"probabilistic"`` for portfolio negatives whose randomized
    #: rungs may have missed a path (see ``failure_bound``).
    confidence: str = CONFIDENCE_CERTIFIED
    #: Error bound of a probabilistic negative (None when certified).
    failure_bound: Optional[float] = None
    #: Error message when the query failed (batch mode isolates
    #: failures per query); None for answered queries.
    error: Optional[str] = None

    @property
    def length(self) -> int | None:
        return None if self.path is None else len(self.path)


@dataclass
class BatchResult:
    """Outcome of :meth:`QueryEngine.run_batch` (or of a pooled batch)."""

    results: list[EngineResult]
    seconds: float
    #: Real :class:`PlanCacheStats` accumulated during this batch (the
    #: delta over the engine's cache; summed over the workers of a
    #: pooled batch).  Unlike per-result accounting this counts plans
    #: that were compiled but whose query then errored.
    cache_stats: PlanCacheStats
    #: Worker processes the batch ran on (1 = in-process).
    workers: int = 1
    #: Result-cache counter deltas for this batch (None when the
    #: engine's result cache is disabled; summed over the workers of a
    #: pooled batch).
    result_cache_stats: Optional["ResultCacheStats"] = None
    #: Vectorized-execution counters — groups formed, sweeps run,
    #: members peeled by cache/short-circuit, sweep-proven negatives —
    #: or None when the batch ran with ``vectorize=False``.
    stats: Optional[VectorizedBatchStats] = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> "Iterator[EngineResult]":
        return iter(self.results)

    @property
    def found_count(self) -> int:
        return sum(1 for result in self.results if result.found)

    @property
    def error_count(self) -> int:
        return sum(1 for result in self.results if result.error is not None)

    @property
    def plan_cache_hits(self) -> int:
        """Plan-cache hits during the batch."""
        return self.cache_stats.hits

    @property
    def plans_compiled(self) -> int:
        """Plans compiled during the batch."""
        return self.cache_stats.compiles

    def strategy_counts(self) -> "Counter[str]":
        """``Counter`` of queries answered per strategy."""
        return Counter(result.strategy for result in self.results)

    def summary(self) -> str:
        """A short multi-line report (used by the batch CLI)."""
        by_strategy = ", ".join(
            "%s=%d" % (strategy, count)
            for strategy, count in sorted(self.strategy_counts().items())
        )
        errors = (
            ", %d errors" % self.error_count if self.error_count else ""
        )
        cache = ", %d misses, %d evictions" % (
            self.cache_stats.misses,
            self.cache_stats.evictions,
        )
        workers = ", %d workers" % self.workers if self.workers > 1 else ""
        results = ""
        if self.result_cache_stats is not None and (
            self.result_cache_stats.hits
        ):
            results = " — results: %d cache hits" % (
                self.result_cache_stats.hits
            )
        if self.stats is not None and self.stats.sweeps:
            results += " — vectorized: %d sweeps over %d groups" % (
                self.stats.sweeps,
                self.stats.groups,
            )
        return (
            "%d queries in %.3fs (%d found%s%s) — plans: %d compiled, "
            "%d cache hits%s%s — strategies: %s"
            % (
                len(self.results),
                self.seconds,
                self.found_count,
                errors,
                workers,
                self.plans_compiled,
                self.plan_cache_hits,
                cache,
                results,
                by_strategy or "none",
            )
        )


class _PlanCompilation:
    """Rendezvous for one in-flight plan compile (single-flight)."""

    __slots__ = ("done",)

    def __init__(self):
        self.done = threading.Event()


@dataclass
class ResultCacheStats:
    """Counters for one engine result cache lifetime."""

    hits: int = 0
    misses: int = 0
    size: int = 0
    capacity: int = 0
    enabled: bool = True

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "capacity": self.capacity,
        }

    def since(self, earlier: "ResultCacheStats") -> "ResultCacheStats":
        """Counter deltas accumulated after the ``earlier`` snapshot."""
        return ResultCacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            size=self.size,
            capacity=self.capacity,
            enabled=self.enabled,
        )

    def __add__(self, other: object) -> "ResultCacheStats":
        if not isinstance(other, ResultCacheStats):
            return NotImplemented
        return ResultCacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            size=self.size + other.size,
            capacity=max(self.capacity, other.capacity),
            enabled=self.enabled or other.enabled,
        )


class _ResultCache:
    """Bounded thread-safe LRU of answered queries.

    Keys are ``(plan_key, source, target)`` (tagged further for
    portfolio and bounded queries).  The engine serves a frozen
    compiled graph, so an entry stays valid for the engine's lifetime.
    Only certified answers are stored; errors (bad input, exhausted
    budgets, expired deadlines) always re-execute.
    """

    __slots__ = ("capacity", "_entries", "_lock", "hits", "misses")

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError(
                "result cache capacity must be >= 1, got %r (disable "
                "the cache with result_cache=False instead)" % (capacity,)
            )
        self.capacity = capacity
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, key):
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def store(self, key, result):
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def stats(self):
        with self._lock:
            return ResultCacheStats(
                hits=self.hits,
                misses=self.misses,
                size=len(self._entries),
                capacity=self.capacity,
                enabled=True,
            )


@dataclass
class _Query:
    """One query on its way through the engine's pipeline.

    Created when the query starts (``start`` times its result);
    :meth:`QueryEngine._prefix` fills in the plan, whether the plan
    cache supplied it, the result-cache key and — when the
    reachability index resolved them — the integer endpoint ids that
    seed a group sweep (``None`` keeps the query out of the sweep; the
    solver then resolves and validates the vertices itself).
    """

    language: Any
    source: Any
    target: Any
    #: The validated per-query ``deadline_seconds``, ``budget``,
    #: ``portfolio`` and ``max_path_edges`` (None = engine default).
    overrides: Mapping[str, Any]
    start: float = field(default_factory=time.perf_counter)
    plan: Optional[QueryPlan] = None
    cache_hit: bool = False
    result_key: Optional[tuple] = None
    source_id: Optional[int] = None
    target_id: Optional[int] = None


#: Overrides of a query that takes every engine default.
_NO_OVERRIDES: Mapping[str, Any] = {}


class QueryEngine:
    """Evaluate many RSPQs against one graph with shared compiled state.

    The engine is thread-safe: plans are immutable, the plan cache
    locks internally, and per-query state travels in a fresh
    :class:`~repro.execution.ExecutionContext`, so concurrent
    :meth:`query` calls (the query service's executor threads) share
    one engine.

    Every query — :meth:`query`, each query of a batch, and each member
    of a batch's plan group — is a :class:`_Query` that runs the same
    steps: :meth:`_prefix` (plan, result-cache lookup, reachability
    short-circuit), then :meth:`_solve` (classic solver or portfolio
    ladder), each building its answer with :meth:`_result`, the one
    result constructor.  Batches run the steps through
    :meth:`_isolated`, which turns a :class:`~repro.errors.ReproError`
    into that query's error result; a plan group runs every member's
    prefix before its shared sweep, and the solver only for members
    the sweep left open.

    Parameters
    ----------
    graph:
        A :class:`DbGraph` (compiled to an :class:`IndexedGraph` here,
        once) or an already-compiled :class:`IndexedGraph`.  The
        engine serves the compiled graph's frozen CSR view; recompile
        to serve a mutated graph.
    plan_cache_size:
        Capacity of the LRU plan cache (distinct languages kept warm).
    exact_budget:
        Step budget handed to queries that dispatch to the exponential
        solver (None = unbounded).  Must be positive when given: a
        zero or negative budget would fail every exact-strategy query,
        so it is rejected with :class:`ValueError` here rather than
        surfacing as per-query budget errors.
    deadline_seconds:
        Optional per-query wall-clock deadline; a query that overruns
        it fails with :class:`~repro.errors.DeadlineExceededError`
        (isolated per query in batch mode).  Must be positive when
        given — an engine whose default deadline is already expired is
        a misconfiguration and is rejected with :class:`ValueError`.
    result_cache / result_cache_size:
        The engine-level result cache: answered queries are replayed
        from an LRU keyed by ``(plan key, source, target)``, so a
        repeated query in a serving workload returns without touching
        a solver.  A cache hit returns the *correct* answer at ~zero
        cost, so per-query budgets/deadlines do not apply to it.
        ``result_cache=False`` disables it; ``result_cache_size``
        bounds the entry count.
    use_reach_index:
        Consult the graph's label-constrained reachability index: the
        engine short-circuits queries whose target is provably
        unreachable under the plan's label mask (no solver runs), and
        the solver cores use the same index for frontier pruning.  The
        index is built eagerly at engine construction (compile time).
    vectorize / group_min_size:
        Default knobs for :meth:`run_batch`'s vectorized execution:
        batch queries sharing one plan key are grouped, and groups of
        at least ``group_min_size`` sweep-eligible members are decided
        together by walk reachability in the product graph
        (:mod:`repro.engine.vectorized`: a multi-source BFS sweep over
        the CSR arrays, or lookups in the plan's walk certificate once
        its sweeps have paid for one) instead of one solver run per
        query.  Results stay bit-identical to serial
        execution; ``vectorize=False`` restores the strictly
        per-query batch path.  ``group_min_size`` must be >= 1.
    portfolio:
        Route hard-regime (exact-strategy) queries through the anytime
        strategy ladder of :mod:`repro.engine.portfolio` by default.
        Ladder answers carry a ``confidence``: certified results are
        exact, probabilistic negatives report their ``failure_bound``
        and are **never** stored in the result cache.  Queries can
        override the default either way (``query(portfolio=...)``).
    portfolio_failure_probability / portfolio_seed:
        One-sided error bound δ of each randomized ladder rung and the
        root of their deterministic random streams.
    """

    def __init__(self, graph: Any, plan_cache_size: int = 128,
                 exact_budget: int | None = None,
                 deadline_seconds: float | None = None,
                 result_cache: bool = True,
                 result_cache_size: int = 1024,
                 use_reach_index: bool = True,
                 vectorize: bool = True,
                 group_min_size: int = 2,
                 portfolio: bool = False,
                 portfolio_failure_probability: float = 1e-3,
                 portfolio_seed: int = 0):
        # Validate before compiling: a misconfigured engine must fail
        # instantly, not after an O(V+E) graph compile.
        if exact_budget is not None and exact_budget <= 0:
            raise ValueError(
                "exact_budget must be a positive step count or None "
                "for unbounded, got %r" % (exact_budget,)
            )
        if group_min_size < 1:
            raise ValueError(
                "group_min_size must be >= 1, got %r" % (group_min_size,)
            )
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(
                "deadline_seconds must be positive or None for no "
                "deadline, got %r (an engine default that is already "
                "expired would fail every query)" % (deadline_seconds,)
            )
        if not 0.0 < portfolio_failure_probability < 1.0:
            raise ValueError(
                "portfolio_failure_probability must be in (0, 1), "
                "got %r" % (portfolio_failure_probability,)
            )
        self._result_cache = (
            _ResultCache(result_cache_size) if result_cache else None
        )
        self.use_reach_index = use_reach_index
        self.graph = (
            graph if isinstance(graph, IndexedGraph) else IndexedGraph(graph)
        )
        #: The frozen CSR view every solver receives; built once per
        #: engine so no query pays for it.
        self.view = self.graph.view()
        if use_reach_index:
            # Compile-time indexing: pay for the SCC condensation
            # here, not on the first short-circuit check.
            self.view.reachability()
        self.plan_cache = PlanCache(plan_cache_size)
        #: Walk certificates of hot plans (decide whole plan groups).
        self._certificates = CertificateCache(self.view)
        self.exact_budget = exact_budget
        self.deadline_seconds = deadline_seconds
        self.vectorize = vectorize
        self.group_min_size = group_min_size
        self.portfolio = portfolio
        self.portfolio_failure_probability = portfolio_failure_probability
        self.portfolio_seed = portfolio_seed
        self._compile_lock = threading.Lock()
        self._inflight: dict[tuple, _PlanCompilation] = {}

    # -- planning ---------------------------------------------------------------

    @staticmethod
    def _check_overrides(deadline_seconds, budget, max_path_edges=None):
        """Validate per-query/batch overrides before any query runs."""
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ValueError(
                "deadline_seconds override must be >= 0, got %r"
                % (deadline_seconds,)
            )
        if budget is not None and budget <= 0:
            raise ValueError(
                "budget override must be a positive step count, got %r"
                % (budget,)
            )
        if max_path_edges is not None and max_path_edges < 0:
            raise ValueError(
                "max_path_edges must be >= 0 or None for unbounded, "
                "got %r" % (max_path_edges,)
            )

    def _new_context(self, overrides):
        """A fresh per-query context; overrides beat engine defaults."""
        budget = overrides.get("budget")
        deadline_seconds = overrides.get("deadline_seconds")
        return ExecutionContext(
            budget=self.exact_budget if budget is None else budget,
            deadline_seconds=(
                self.deadline_seconds
                if deadline_seconds is None
                else deadline_seconds
            ),
        )

    def cache_stats(self) -> PlanCacheStats:
        """Engine-lifetime plan-cache counters (an independent snapshot)."""
        return self.plan_cache.stats_snapshot()

    def result_cache_stats(self) -> ResultCacheStats:
        """Engine-lifetime result-cache counters (hits / misses plus
        size and capacity); ``enabled=False`` when the cache is off."""
        if self._result_cache is None:
            return ResultCacheStats(enabled=False)
        return self._result_cache.stats()

    @property
    def snapshot_path(self) -> str | None:
        """Path of the snapshot backing this engine's graph, or None.

        Set when the compiled graph was loaded from, attached to, or
        saved as a snapshot file.  A pre-fork pool
        (:class:`repro.service.workers.WorkerPool`) for this engine
        points its workers at that file instead of spooling a copy.
        """
        return getattr(self.graph, "_snapshot_path", None)

    def save_snapshot(self, path: Any) -> int:
        """Persist the compiled graph; returns the snapshot byte size.

        Afterwards the engine is snapshot-backed (see
        :attr:`snapshot_path`), and a :func:`load_snapshot` of the
        same file in this process reuses the graph's already-compiled
        condensation instead of re-thawing it.
        """
        from ..service.snapshot import save_snapshot as _save_snapshot

        return _save_snapshot(self.graph, path)

    def reachability_info(self) -> dict[str, Any] | None:
        """JSON-safe shape of the reachability index (or None if off)."""
        if not self.use_reach_index:
            return None
        return self.view.reachability().describe()

    @property
    def view_kind(self) -> str:
        """Backend of the graph view the solvers run on ("csr")."""
        return self.view.kind

    def plan_for(
        self, language: "str | Language"
    ) -> tuple[QueryPlan, bool]:
        """The cached plan for ``language``, compiling on a miss.

        Returns ``(plan, cache_hit)``.  Under concurrent misses on the
        same key exactly one caller compiles (single-flight); the
        others wait for its insertion and count as cache hits, so an
        engine never compiles one language twice however many threads
        race on it.
        """
        key = plan_key(language)
        # Optimistic fast path: warm hits never touch the compile lock,
        # so a hot cache scales across threads instead of serializing.
        plan = self.plan_cache.get(key)
        if plan is not None:
            return plan, True
        while True:
            with self._compile_lock:
                # The fast path above already recorded this miss.
                plan = self.plan_cache.get(key, count_miss=False)
                if plan is not None:
                    return plan, True
                compilation = self._inflight.get(key)
                if compilation is None:
                    compilation = _PlanCompilation()
                    self._inflight[key] = compilation
                    leader = True
                else:
                    leader = False
            if not leader:
                # Wait for the leader, then re-look the key up: on
                # success it is now cached (a hit); if the leader's
                # compile raised, take over and surface our own error.
                compilation.done.wait()
                continue
            try:
                plan = QueryPlan.compile(
                    language, key=key, exact_budget=self.exact_budget,
                    use_reach_pruning=self.use_reach_index,
                    portfolio_config={
                        "seed": self.portfolio_seed,
                        "failure_probability": (
                            self.portfolio_failure_probability
                        ),
                    },
                )
            except BaseException:
                with self._compile_lock:
                    del self._inflight[key]
                compilation.done.set()
                raise
            with self._compile_lock:
                self.plan_cache.put(key, plan)
                del self._inflight[key]
            compilation.done.set()
            return plan, False

    # -- querying ----------------------------------------------------------------

    def query(self, language: "str | Language", source: Any, target: Any,
              deadline_seconds: float | None = None,
              budget: int | None = None,
              portfolio: bool | None = None,
              max_path_edges: int | None = None) -> EngineResult:
        """Answer one RSPQ; returns an :class:`EngineResult`.

        ``deadline_seconds`` / ``budget`` override the engine defaults
        for this query only (the serving tier uses this to map a
        per-request deadline onto the query's execution context).  They
        bound *work*, so a result replayed from the result cache — or
        proved by the reachability index without any search — is
        returned even under a budget no fresh solve could meet.

        ``portfolio`` overrides the engine's default routing of
        hard-regime queries through the anytime strategy ladder
        (``None`` keeps the engine default; it never affects finite or
        tractable plans, which stay on their polynomial solvers).
        ``max_path_edges`` bounds the answer to simple paths of at
        most that many edges (k-RSPQ); ``None`` asks the classical
        unbounded question.

        Raises :class:`~repro.errors.ReproError` on bad input (unknown
        vertex, unparseable regex, exceeded budget or deadline);
        ``run_batch`` isolates such failures per query instead.
        """
        self._check_overrides(deadline_seconds, budget, max_path_edges)
        return self._answer(_Query(language, source, target, {
            "deadline_seconds": deadline_seconds,
            "budget": budget,
            "portfolio": portfolio,
            "max_path_edges": max_path_edges,
        }))

    def _portfolio_mode(self, plan, overrides):
        """``(use_portfolio, max_path_edges)`` for one query.

        The per-query override beats the engine default; a plan
        without a ladder (finite/tractable — already polynomial)
        never uses the portfolio regardless.
        """
        requested = overrides.get("portfolio")
        use = self.portfolio if requested is None else requested
        if use and plan.portfolio is None:
            use = False
        return use, overrides.get("max_path_edges")

    def _result_key(self, q):
        """The result-cache key for one query's effective mode.

        Portfolio witnesses need not be shortest paths and bounded
        (k-RSPQ) queries answer a different question, so both are
        tagged apart from the classic 3-tuple key — neither may ever
        be replayed as a classic answer (or vice versa).
        """
        use_portfolio, max_path_edges = self._portfolio_mode(
            q.plan, q.overrides
        )
        if use_portfolio or max_path_edges is not None:
            return (
                q.plan.key, q.source, q.target,
                (
                    "portfolio" if use_portfolio else "bounded",
                    max_path_edges,
                ),
            )
        return (q.plan.key, q.source, q.target)

    def _answer(self, q):
        """``q`` start to finish: :meth:`_prefix`, then :meth:`_solve`."""
        result = self._prefix(q)
        return self._solve(q) if result is None else result

    def _prefix(self, q):
        """Plan, result-cache lookup and reachability short-circuit.

        Returns ``q``'s result when one of them decided it, else None
        (``q`` then carries what :meth:`_solve` and a group sweep
        need).  Raises :class:`~repro.errors.ReproError` for an
        unparseable language or an unknown vertex.
        """
        q.plan, q.cache_hit = self.plan_for(q.language)
        q.result_key = self._result_key(q)
        if self._result_cache is not None:
            cached = self._result_cache.lookup(q.result_key)
            if cached is not None:
                # Only certified results are ever stored; the replayed
                # confidence is carried over rather than assumed, so a
                # store-policy bug would surface in results.
                return self._result(
                    q, cached.path, cached.stats.steps,
                    strategy=cached.strategy,
                    decompose_failed=cached.decompose_failed,
                    confidence=cached.confidence,
                    failure_bound=cached.failure_bound,
                    result_cache_hit=True,
                    short_circuit=cached.stats.short_circuit,
                )
        if self._unreachable(q):
            # Provably NOT_FOUND: the target is not even
            # walk-reachable under any label L can use, and every
            # simple path is a path.  No solver runs.
            return self._store(q, self._result(q, short_circuit=True))
        return None

    def _unreachable(self, q):
        """True when the reachability index proves ``q`` NOT_FOUND.

        Resolves ``q``'s endpoint ids on the way; unknown vertices
        raise :class:`~repro.errors.GraphError` exactly as the solver
        would have.  With the index off nothing is resolved (the
        solver validates vertices itself, keeping its error messages)
        and nothing is proved; a same-vertex query is never
        short-circuited (the empty-word case belongs to the solver).
        """
        if not self.use_reach_index:
            return False
        view = self.view
        q.source_id = view.vertex_id(q.source)
        q.target_id = view.vertex_id(q.target)
        if q.source_id == q.target_id:
            return False
        return not view.reachability().can_reach(
            q.source_id, q.target_id, view.label_mask(q.plan.used_symbols)
        )

    def _solve(self, q):
        """Answer ``q`` past its prefix: the plan's solver or ladder.

        Builds the per-query context, dispatches to the portfolio
        ladder or the plan's classic solver, applies the
        ``max_path_edges`` bound, and caches the result when it is
        certified (a probabilistic NOT_FOUND must never be replayed as
        definitive).
        """
        ctx = self._new_context(q.overrides)
        plan = q.plan
        use_portfolio, max_path_edges = self._portfolio_mode(
            plan, q.overrides
        )
        if use_portfolio:
            outcome = plan.portfolio.solve(
                self.view, q.source, q.target, ctx=ctx,
                max_path_edges=max_path_edges,
            )
            # ``steps`` aggregates every rung's work: each rung ran on
            # a budget-capped child context folded back into ``ctx``.
            result = self._result(
                q, outcome.path, ctx.steps, strategy=outcome.strategy,
                confidence=outcome.confidence,
                failure_bound=outcome.failure_bound,
            )
        else:
            path = plan.solver.shortest_simple_path(
                self.view, q.source, q.target, ctx=ctx
            )
            if max_path_edges is not None and path is not None and (
                len(path) > max_path_edges
            ):
                # The classic solver answers the unbounded question
                # with the *shortest* simple path; if even that
                # overshoots the bound, no bounded path exists — a
                # certified negative.
                path = None
            result = self._result(q, path, plan.solver.steps_in(ctx))
        return self._store(q, result)

    def _store(self, q, result):
        """Cache ``result`` under ``q``'s key when it is certified."""
        if self._result_cache is not None and (
            result.confidence == CONFIDENCE_CERTIFIED
        ):
            self._result_cache.store(q.result_key, result)
        return result

    def _result(self, q, path=None, steps=0, error=None, strategy=None,
                decompose_failed=None, confidence=CONFIDENCE_CERTIFIED,
                failure_bound=None, **flags):
        """The one :class:`EngineResult` constructor.

        ``path`` is ``q``'s answer (None = NOT_FOUND) after ``steps``
        of work; ``strategy`` and ``decompose_failed`` default to
        ``q``'s plan.  With ``error`` set it is instead the isolated
        failure result batch mode returns.  ``flags`` are the
        :class:`QueryStats` markers of how the answer was produced.
        """
        if error is not None:
            strategy, decompose_failed, steps = STRATEGY_ERROR, False, None
        if strategy is None:
            strategy = q.plan.strategy
        if decompose_failed is None:
            decompose_failed = q.plan.decompose_failed
        return EngineResult(
            language=q.language,
            source=q.source,
            target=q.target,
            found=path is not None,
            path=path,
            strategy=strategy,
            decompose_failed=decompose_failed,
            stats=QueryStats(
                strategy=strategy,
                steps=steps,
                plan_cache_hit=q.cache_hit,
                seconds=time.perf_counter() - q.start,
                **flags,
            ),
            confidence=confidence,
            failure_bound=failure_bound,
            error=None if error is None else str(error),
        )

    def _isolated(self, q, step):
        """``step(q)``, with a :class:`~repro.errors.ReproError` turned
        into ``q``'s error result so one query cannot abort a batch."""
        try:
            return step(q)
        except ReproError as err:
            return self._result(q, error=err)

    def reach_only_result(
        self, language: "str | Language", source: Any, target: Any
    ) -> "EngineResult | None":
        """A certified NOT_FOUND from the reachability index alone.

        The deepest rung of the serving tier's degradation ladder:
        answer *only* what the label-constrained reachability index
        can prove without running any solver.  Returns the same
        short-circuit :class:`EngineResult` a full query would have
        produced when the index proves the target unreachable, and
        ``None`` when the index is off or cannot decide (the caller
        sheds the request rather than guessing).

        Never wrong by construction: a short-circuit NOT_FOUND is a
        proof, not an estimate.  Raises exactly what plan compilation
        or vertex resolution would raise on a full query.
        """
        q = _Query(language, source, target, _NO_OVERRIDES)
        q.plan, q.cache_hit = self.plan_for(language)
        if not self._unreachable(q):
            return None
        return self._result(q, short_circuit=True)

    def exists(
        self, language: "str | Language", source: Any, target: Any
    ) -> bool:
        """Decision variant (plan-cached, index-short-circuited)."""
        plan, _cache_hit = self.plan_for(language)
        q = _Query(language, source, target, _NO_OVERRIDES, plan=plan)
        if self._unreachable(q):
            return False
        return plan.solver.exists(
            self.view, source, target, ctx=self._new_context(q.overrides)
        )

    # -- vectorized batch execution ----------------------------------------------

    def _sweep_allowed(self, overrides):
        """True when this batch's groups may run shared sweeps.

        A sweep proves negatives with no per-query solver run, so a
        query whose budget or deadline would have expired mid-solve
        could come back answered instead of errored.  Bit-identity
        with serial execution is the contract, so any *effective*
        budget or deadline — engine default or batch override —
        disables sweeping and every query runs the per-query path.
        """
        budget = overrides.get("budget")
        if (self.exact_budget if budget is None else budget) is not None:
            return False
        deadline = overrides.get("deadline_seconds")
        effective_deadline = (
            self.deadline_seconds if deadline is None else deadline
        )
        return effective_deadline is None

    def _run_group(self, members, overrides, min_size, sweep_ok, stats):
        """Answer one plan-key group; returns ``(index, result)`` pairs.

        Stage A runs each member's :meth:`_prefix` in input order, so
        every cache and serving counter moves as a per-query run
        would; duplicate endpoint pairs of a still-pending member are
        deferred and answered per query after the group resolves, so
        their result-cache accounting matches serial execution hit for
        hit.  Stage B decides the pending members together with
        :func:`sweep_group` when eligible — by the plan's walk
        certificate once it has one, else by one shared BFS sweep whose
        work goes towards buying it; walk positives and everything
        undecided fall back to the authoritative per-query
        :meth:`_solve`.
        """
        results = []
        pending = []
        deferred = []
        seen_pairs = set()
        for index, (language, source, target) in members:
            pair = (source, target)
            if pair in seen_pairs:
                stats.deferred_duplicates += 1
                deferred.append((index, language, source, target))
                continue
            q = _Query(language, source, target, overrides)
            result = self._isolated(q, self._prefix)
            if result is None:
                seen_pairs.add(pair)
                pending.append((index, q))
                continue
            if result.stats.result_cache_hit:
                stats.peeled_cache_hits += 1
            elif result.stats.short_circuit:
                stats.peeled_short_circuits += 1
            results.append((index, result))
        sweep_members = [
            (index, q) for index, q in pending if q.source_id is not None
        ]
        swept = set()
        if sweep_ok and len(sweep_members) >= min_size:
            stats.sweeps += 1
            plan = sweep_members[0][1].plan
            sweep_outcome = sweep_group(
                self.view, plan,
                [
                    (member, q.source_id, q.target_id)
                    for member, (index, q) in enumerate(sweep_members)
                ],
                self._certificates.lookup(plan),
            )
            self._certificates.charge(plan, sweep_outcome.expansions)
            for member in sweep_outcome.negatives:
                index, q = sweep_members[member]
                swept.add(index)
                stats.swept_negatives += 1
                results.append((index, self._store(q, self._result(
                    q, steps=sweep_outcome.steps[member], vectorized=True,
                ))))
        for index, q in pending:
            if index in swept:
                continue
            stats.fallback_solves += 1
            results.append((index, self._isolated(q, self._solve)))
        for index, language, source, target in deferred:
            results.append((index, self._isolated(
                _Query(language, source, target, overrides), self._answer,
            )))
        return results

    def _run_grouped(self, queries, overrides, min_size):
        """Answer ``queries`` through plan-key groups, in input order.

        Groups run in first-occurrence order, then the ungroupable
        queries (no plan key) one by one.  Returns the results plus
        the :class:`VectorizedBatchStats` of the batch.
        """
        groups, ungroupable = group_by_plan(list(enumerate(queries)))
        stats = VectorizedBatchStats(
            groups=len(groups),
            grouped_queries=sum(
                len(members) for members in groups.values()
            ),
        )
        sweep_ok = self._sweep_allowed(overrides)
        results: list = [None] * len(queries)
        for members in groups.values():
            for index, result in self._run_group(
                members, overrides, min_size, sweep_ok, stats
            ):
                results[index] = result
        for index, (language, source, target) in ungroupable:
            results[index] = self._isolated(
                _Query(language, source, target, overrides), self._answer
            )
        return results, stats

    def run_shard(self, queries: list[tuple], overrides: dict[str, Any],
                  vectorize: bool, group_min_size: int) -> BatchResult:
        """Answer ``queries`` in order, with the batch knobs resolved.

        The one batch path: :meth:`run_batch` answers a whole batch
        here, and every :class:`~repro.service.workers.WorkerPool`
        worker answers its shard here.  With ``vectorize`` the queries
        sharing a plan are grouped and groups of at least
        ``group_min_size`` sweep-eligible members share one product
        sweep; without it each query runs on its own.  ``overrides``
        holds the validated per-query ``deadline_seconds``, ``budget``,
        ``portfolio`` and ``max_path_edges``.  The returned
        :class:`BatchResult` carries this call's plan-cache and
        result-cache counter deltas.
        """
        start = time.perf_counter()
        plan_before = self.cache_stats()
        results_before = self.result_cache_stats()
        stats = None
        if vectorize:
            results, stats = self._run_grouped(
                queries, overrides, group_min_size
            )
        else:
            results = [
                self._isolated(
                    _Query(language, source, target, overrides),
                    self._answer,
                )
                for language, source, target in queries
            ]
        return BatchResult(
            results=results,
            seconds=time.perf_counter() - start,
            cache_stats=self.plan_cache.stats_delta(plan_before),
            result_cache_stats=(
                None if self._result_cache is None
                else self.result_cache_stats().since(results_before)
            ),
            stats=stats,
        )

    def run_batch(self, queries: Iterable[tuple],
                  deadline_seconds: float | None = None,
                  budget: int | None = None,
                  vectorize: bool | None = None,
                  group_min_size: int | None = None,
                  portfolio: bool | None = None,
                  max_path_edges: int | None = None) -> BatchResult:
        """Answer an iterable of ``(language, source, target)`` triples.

        Queries run in this process against the shared indexed graph;
        plans are compiled at most once per distinct language (LRU
        permitting).  A query that raises
        :class:`~repro.errors.ReproError` (unknown vertex, bad regex,
        exceeded budget/deadline) does not abort the batch: it yields
        an :class:`EngineResult` with ``error`` set and the remaining
        queries still run.  Results always come back in input order.
        To spread a batch over several cores, run it on a
        :class:`~repro.service.workers.WorkerPool` instead; its
        answers are identical, path for path.

        Parameters
        ----------
        deadline_seconds / budget:
            Per-batch overrides of the engine defaults, applied to
            every query's execution context (each query still gets its
            own deadline measured from its own start).  Validated
            upfront: a negative deadline or non-positive budget raises
            :class:`ValueError` before any query runs.  An effective
            budget or deadline also disables group sweeps for the
            batch (per-query contracts must bite exactly as serial).
        vectorize / group_min_size:
            Per-batch overrides of the engine's vectorization knobs
            (None keeps the engine default): ``vectorize=False`` runs
            the strictly per-query batch path; ``group_min_size``
            (>= 1) sets the smallest plan-key group worth sweeping.
        portfolio / max_path_edges:
            Applied to every query in the batch: ``portfolio``
            overrides the engine's default hard-regime ladder routing
            (None keeps it), ``max_path_edges`` bounds every answer to
            simple paths of at most that many edges (k-RSPQ).

        Returns a :class:`BatchResult` whose ``cache_stats`` carries
        the real plan-cache counter deltas for this batch and whose
        ``stats`` reports the vectorized-execution counters (None with
        ``vectorize=False``).
        """
        self._check_overrides(deadline_seconds, budget, max_path_edges)
        # The engine keeps each knob under its constructor kwarg name.
        use_vectorize, min_size = batch_knobs(
            vars(self), vectorize, group_min_size
        )
        overrides = {
            "deadline_seconds": deadline_seconds,
            "budget": budget,
            "portfolio": portfolio,
            "max_path_edges": max_path_edges,
        }
        return self.run_shard(
            list(queries), overrides, use_vectorize, min_size
        )

    def _worker_engine_kwargs(self):
        """Constructor kwargs reproducing this engine in a pool worker."""
        return {
            "plan_cache_size": self.plan_cache.capacity,
            "exact_budget": self.exact_budget,
            "deadline_seconds": self.deadline_seconds,
            "use_reach_index": self.use_reach_index,
            "result_cache": self._result_cache is not None,
            "result_cache_size": (
                self._result_cache.capacity
                if self._result_cache is not None
                else 1024
            ),
            "vectorize": self.vectorize,
            "group_min_size": self.group_min_size,
            "portfolio": self.portfolio,
            "portfolio_failure_probability": (
                self.portfolio_failure_probability
            ),
            "portfolio_seed": self.portfolio_seed,
        }


#: :class:`QueryEngine` constructor defaults, by kwarg name.
_ENGINE_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(QueryEngine).parameters.items()
}


def batch_knobs(settings: Mapping[str, Any], vectorize: bool | None = None,
                group_min_size: int | None = None) -> tuple[bool, int]:
    """``(vectorize, group_min_size)`` one batch runs with.

    ``settings`` maps :class:`QueryEngine` constructor kwargs to their
    values: a per-batch override beats its setting, and a missing
    setting takes the constructor default.  In-process batches and
    pooled ones (whose parent process holds only its workers' kwargs)
    both resolve here, so the two cannot drift apart.  Raises
    :class:`ValueError` for a ``group_min_size`` below 1.
    """
    if vectorize is None:
        vectorize = settings.get("vectorize", _ENGINE_DEFAULTS["vectorize"])
    if group_min_size is None:
        group_min_size = settings.get(
            "group_min_size", _ENGINE_DEFAULTS["group_min_size"]
        )
    if group_min_size < 1:
        raise ValueError(
            "group_min_size must be >= 1, got %r" % (group_min_size,)
        )
    return vectorize, group_min_size
