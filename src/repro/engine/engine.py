"""The batch query engine: one compiled graph, many cached plans.

:class:`QueryEngine` binds an :class:`~repro.engine.indexed.IndexedGraph`
(compiled once from the caller's :class:`~repro.graphs.dbgraph.DbGraph`)
to a plan cache (a :class:`~repro.lru.LruCache` of
:class:`~repro.engine.plan.QueryPlan`) and answers
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
a :class:`repro.service.workers.WorkerPool`, which deals it out
round-robin; each worker process groups and answers its shard through
the same :meth:`QueryEngine.run_shard`.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Optional

if TYPE_CHECKING:
    from ..languages import Language

from ..core.solver import CONFIDENCE_CERTIFIED
from ..errors import ReproError
from ..execution import ExecutionContext
from ..graphs.dbgraph import Path
from ..lru import CacheStats, LruCache
from .indexed import IndexedGraph
from .plan import QueryPlan, group_by_plan, plan_key
from .vectorized import (
    GROUP_MIN_SIZE,
    CertificateCache,
    VectorizedBatchStats,
    sweep_group,
)

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
    #: (no solver ran; ``steps`` is 0).
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
    #: Plan-cache counts made during this batch (the delta over the
    #: engine's cache; summed over the workers of a pooled batch).
    #: Unlike per-result accounting this counts plans that were
    #: compiled but whose query then errored.
    cache_stats: CacheStats
    #: Result-cache counts made during this batch, likewise (not
    #: ``enabled`` when the engine's result cache is off).
    result_cache_stats: CacheStats
    #: Worker processes the batch ran on (1 = in-process).
    workers: int = 1
    #: Plan-group counters — groups formed, sweeps run, members peeled
    #: by cache/short-circuit, sweep-proven negatives.
    stats: VectorizedBatchStats = field(default_factory=VectorizedBatchStats)

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
        return self.cache_stats.inserts

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
        if self.result_cache_stats.hits:
            results = " — results: %d cache hits" % (
                self.result_cache_stats.hits
            )
        if self.stats.sweeps:
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


@dataclass
class _Query:
    """One query on its way through the engine's pipeline.

    Created when the query starts (``start`` times its result);
    :meth:`QueryEngine._prefix` fills in the plan, whether the plan
    cache supplied it, the result-cache key and — unless the result
    cache answered the query — the integer endpoint ids that seed a
    group sweep.
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
    short-circuit), then :meth:`_solve` (the plan's solver), each
    building its answer with :meth:`_result`, the one result
    constructor.  Batches run the steps through
    :meth:`_isolated`, which turns a :class:`~repro.errors.ReproError`
    into that query's error result; a plan group runs every member's
    prefix before its shared sweep, and the solver only for members
    the sweep left open.

    The graph's label-constrained reachability index is built here, at
    construction.  The prefix answers a query without running a solver
    when the index proves its target unreachable under the plan's label
    mask, and every solver prunes its search with the same index.
    Every simple L-labelled path is also an L-labelled walk, so neither
    changes an answer.

    Parameters
    ----------
    graph:
        A :class:`DbGraph` (compiled to an :class:`IndexedGraph` here,
        once) or an already-compiled :class:`IndexedGraph`.  The
        engine serves the compiled graph's frozen CSR arrays;
        recompile to serve a mutated graph.
    plan_cache_size:
        Capacity of the LRU plan cache (distinct languages kept warm);
        at least 1.
    exact_budget:
        Step budget of every query's context (None = unbounded): it
        caps the query's ``steps``, which every search charges (walk
        nodes, exact-search expansions, anchored-DFS steps, the words
        a finite language tries), so no search answers with more
        steps than its budget.  Must be positive when given: a zero or
        negative budget would fail every query that searches, so it
        is rejected with :class:`ValueError` here rather than
        surfacing as per-query budget errors.
    deadline_seconds:
        Optional per-query wall-clock deadline; a query that overruns
        it fails with :class:`~repro.errors.DeadlineExceededError`
        (isolated per query in batch mode).  Must be positive when
        given — an engine whose default deadline is already expired is
        a misconfiguration and is rejected with :class:`ValueError`.
    result_cache_size:
        Capacity of the engine-level result cache: answered queries
        are replayed from an LRU keyed by ``(plan key, source,
        target)``, so a repeated query in a serving workload returns
        without touching a solver.  A cache hit returns the *correct*
        answer at ~zero cost, so per-query budgets/deadlines do not
        apply to it.  0 turns the cache off.
    portfolio:
        Route hard-regime (exact-strategy) queries through the anytime
        strategy ladder of :mod:`repro.core.solver` (its randomized
        middle rungs) by default.  Ladder answers carry a
        ``confidence``: certified results are exact, probabilistic
        negatives report their ``failure_bound`` and are **never**
        stored in the result cache.  Queries can override the default
        either way (``query(portfolio=...)``).
    portfolio_failure_probability / portfolio_seed:
        One-sided error bound δ of each randomized ladder rung and the
        root of their deterministic random streams.
    """

    def __init__(self, graph: Any, plan_cache_size: int = 128,
                 exact_budget: int | None = None,
                 deadline_seconds: float | None = None,
                 result_cache_size: int = 1024,
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
        if deadline_seconds is not None and not (
            0 < deadline_seconds < math.inf
        ):
            raise ValueError(
                "deadline_seconds must be positive and finite or None "
                "for no deadline, got %r (an engine default that is "
                "already expired would fail every query, and a NaN or "
                "infinite one never fires)" % (deadline_seconds,)
            )
        if not 0.0 < portfolio_failure_probability < 1.0:
            raise ValueError(
                "portfolio_failure_probability must be in (0, 1), "
                "got %r" % (portfolio_failure_probability,)
            )
        if plan_cache_size < 1:
            raise ValueError(
                "plan_cache_size must be >= 1, got %r" % (plan_cache_size,)
            )
        if result_cache_size < 0:
            raise ValueError(
                "result_cache_size must be >= 0 (0 turns the result "
                "cache off), got %r" % (result_cache_size,)
            )
        self.graph = (
            graph if isinstance(graph, IndexedGraph) else IndexedGraph(graph)
        )
        #: The GraphView every solver receives: the compiled graph
        #: itself, walked straight off its CSR arrays.
        self.view = self.graph.view()
        # Compile-time indexing: pay for the SCC condensation here,
        # not on the first short-circuit check.
        self.view.reachability()
        self.plan_cache: LruCache[tuple, QueryPlan] = LruCache(
            plan_cache_size
        )
        #: Answered queries by result key (see :meth:`_result_key`).
        self._result_cache: LruCache[tuple, EngineResult] = LruCache(
            result_cache_size
        )
        #: Walk certificates of hot plans (decide whole plan groups).
        self._certificates = CertificateCache(self.view)
        self.exact_budget = exact_budget
        self.deadline_seconds = deadline_seconds
        self.portfolio = portfolio
        self.portfolio_failure_probability = portfolio_failure_probability
        self.portfolio_seed = portfolio_seed

    # -- planning ---------------------------------------------------------------

    @staticmethod
    def _check_overrides(deadline_seconds, budget, max_path_edges=None):
        """Validate per-query/batch overrides before any query runs."""
        if deadline_seconds is not None and not (
            0 <= deadline_seconds < math.inf
        ):
            raise ValueError(
                "deadline_seconds override must be >= 0 and finite, "
                "got %r" % (deadline_seconds,)
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

    def cache_stats(self) -> CacheStats:
        """Engine-lifetime plan-cache counters (an independent snapshot)."""
        return self.plan_cache.stats()

    def result_cache_stats(self) -> CacheStats:
        """Engine-lifetime result-cache counters (hits / misses plus
        size and capacity); not ``enabled`` when the cache is off."""
        return self._result_cache.stats()

    def reachability_info(self) -> dict[str, Any]:
        """JSON-safe shape of the graph's reachability index (always a
        dict; ``/stats`` reports it as ``reachability_index``)."""
        return self.view.reachability().describe()

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
        return self.plan_cache.get_or_build(
            plan_key(language), lambda key: QueryPlan.compile(
                language, key=key,
                seed=self.portfolio_seed,
                failure_probability=self.portfolio_failure_probability,
            ),
        )

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
        if use and not plan.solver.has_ladder:
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
        cached = self._result_cache.get(q.result_key)
        if cached is not None:
            # Only certified results are ever stored; the replayed
            # confidence is carried over rather than assumed, so a
            # store-policy bug would surface in results.  No search
            # ran for this request, so it reports 0 steps.
            return self._result(
                q, cached.path,
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
        would have.  A same-vertex query is never short-circuited (the
        empty-word case belongs to the solver).
        """
        view = self.view
        q.source_id = view.vertex_id(q.source)
        q.target_id = view.vertex_id(q.target)
        if q.source_id == q.target_id:
            return False
        return not view.reachability().can_reach(
            q.source_id, q.target_id, view.label_mask(q.plan.used_symbols)
        )

    def _solve(self, q):
        """Answer ``q`` past its prefix with the plan's solver.

        Builds the per-query context, runs the solver in ``q``'s mode
        and caches the result when it is certified (a probabilistic
        NOT_FOUND must never be replayed as definitive).
        """
        ctx = self._new_context(q.overrides)
        use_portfolio, max_path_edges = self._portfolio_mode(
            q.plan, q.overrides
        )
        answer = q.plan.solver.solve(
            self.view, q.source, q.target, ctx=ctx,
            max_path_edges=max_path_edges, portfolio=use_portfolio,
        )
        return self._store(q, self._result(
            q, answer.path, ctx.steps, strategy=answer.strategy,
            confidence=answer.confidence,
            failure_bound=answer.failure_bound,
        ))

    def _store(self, q, result):
        """Cache ``result`` under ``q``'s key when it is certified."""
        if result.confidence == CONFIDENCE_CERTIFIED:
            self._result_cache.put(q.result_key, result)
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
        ``None`` when it cannot decide (the caller sheds the request
        rather than guessing).

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

    # -- batch execution ---------------------------------------------------------

    def _sweep_allowed(self, overrides):
        """True when this batch's groups may run shared sweeps.

        A sweep proves negatives with no per-query solver run, so a
        query whose budget or deadline would have expired mid-solve
        could come back answered instead of errored.  Bit-identity
        with per-query execution is the contract, so any *effective*
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

    def _run_group(self, members, overrides, sweep_ok, stats):
        """Answer one plan-key group; returns ``(index, result)`` pairs.

        Stage A runs each member's :meth:`_prefix` in input order, so
        every cache and serving counter moves as a per-query run
        would; duplicate endpoint pairs of a still-pending member are
        deferred and answered per query after the group resolves, so
        their result-cache accounting matches per-query execution hit
        for hit.  Stage B decides the pending members together with
        :func:`sweep_group` when there are at least
        :data:`GROUP_MIN_SIZE` of them — by the plan's walk
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
        swept = set()
        if sweep_ok and len(pending) >= GROUP_MIN_SIZE:
            stats.sweeps += 1
            plan = pending[0][1].plan
            sweep_outcome = sweep_group(
                self.view, plan,
                [
                    (member, q.source_id, q.target_id)
                    for member, (index, q) in enumerate(pending)
                ],
                self._certificates.lookup(plan),
            )
            self._certificates.charge(plan, sweep_outcome.expansions)
            # A swept negative is what the solver's walk check would
            # have decided, so it carries that check's strategy.
            strategy = plan.solver.walk_strategy(
                self._portfolio_mode(plan, overrides)[0]
            )
            for member in sweep_outcome.negatives:
                index, q = pending[member]
                swept.add(index)
                stats.swept_negatives += 1
                results.append((index, self._store(q, self._result(
                    q, steps=sweep_outcome.steps[member], strategy=strategy,
                    vectorized=True,
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

    def run_shard(self, queries: list[tuple],
                  overrides: Mapping[str, Any]) -> BatchResult:
        """Answer ``queries`` in order, grouped by plan.

        The one batch path: :meth:`run_batch` answers a whole batch
        here, and every :class:`~repro.service.workers.WorkerPool`
        worker answers its shard here.  Queries sharing a plan key
        form a group (:meth:`_run_group`); groups run in
        first-occurrence order, then the queries without a plan key
        one by one.  ``overrides`` holds the validated per-query
        ``deadline_seconds``, ``budget``, ``portfolio`` and
        ``max_path_edges``.  The returned :class:`BatchResult` carries
        this call's plan-cache, result-cache and group counter deltas.
        """
        start = time.perf_counter()
        plan_before = self.cache_stats()
        results_before = self.result_cache_stats()
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
                members, overrides, sweep_ok, stats
            ):
                results[index] = result
        for index, (language, source, target) in ungroupable:
            results[index] = self._isolated(
                _Query(language, source, target, overrides), self._answer
            )
        return BatchResult(
            results=results,
            seconds=time.perf_counter() - start,
            cache_stats=self.cache_stats().since(plan_before),
            result_cache_stats=self.result_cache_stats().since(
                results_before
            ),
            stats=stats,
        )

    def run_batch(self, queries: Iterable[tuple],
                  deadline_seconds: float | None = None,
                  budget: int | None = None,
                  portfolio: bool | None = None,
                  max_path_edges: int | None = None) -> BatchResult:
        """Answer an iterable of ``(language, source, target)`` triples.

        Queries run in this process against the shared indexed graph;
        plans are compiled at most once per distinct language (LRU
        permitting), and queries sharing a plan are decided together
        where a walk sweep can prove them NOT_FOUND
        (:meth:`run_shard`).  A query that raises
        :class:`~repro.errors.ReproError` (unknown vertex, bad regex,
        exceeded budget/deadline) does not abort the batch: it yields
        an :class:`EngineResult` with ``error`` set and the remaining
        queries still run.  Results always come back in input order,
        answered exactly as :meth:`query` answers each one.  To spread
        a batch over several cores, run it on a
        :class:`~repro.service.workers.WorkerPool` instead; its
        answers are identical, path for path.

        Parameters
        ----------
        deadline_seconds / budget:
            Per-batch overrides of the engine defaults, applied to
            every query's execution context (each query still gets its
            own deadline measured from its own start).  Validated
            upfront: a negative or non-finite deadline or a
            non-positive budget raises :class:`ValueError` before any
            query runs.  An effective budget or deadline also disables
            group sweeps for the batch (per-query contracts must bite
            exactly as they would per query).
        portfolio / max_path_edges:
            Applied to every query in the batch: ``portfolio``
            overrides the engine's default hard-regime ladder routing
            (None keeps it), ``max_path_edges`` bounds every answer to
            simple paths of at most that many edges (k-RSPQ).

        Returns a :class:`BatchResult` whose ``cache_stats`` carries
        the real plan-cache counter deltas for this batch and whose
        ``stats`` reports the plan-group counters.
        """
        self._check_overrides(deadline_seconds, budget, max_path_edges)
        return self.run_shard(list(queries), {
            "deadline_seconds": deadline_seconds,
            "budget": budget,
            "portfolio": portfolio,
            "max_path_edges": max_path_edges,
        })
