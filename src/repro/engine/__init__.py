"""repro.engine — indexed graphs, cached query plans, batch execution.

The trichotomy solvers are correct one query at a time, but a workload
of many queries repeats two kinds of work:

**Per-graph work.**  ``DbGraph`` stores adjacency as dicts of sets; the
solvers want a *deterministic* neighbour order, which the seed obtained
by re-sorting adjacency by ``repr`` at every expansion.
:class:`IndexedGraph` compiles the graph once: vertices become
contiguous ints, forward and reverse adjacency become pre-sorted
tuples, and each label gets CSR-style ``indptr``/``targets`` arrays —
forward *and* reverse — for label-restricted traversal.  Its frozen
:class:`~repro.engine.indexed.CsrView` implements the integer-native
:class:`~repro.graphs.view.GraphView` API the solver cores walk, so
every engine query runs on precompiled int adjacency end to end — and
returns bit-identical paths to a direct solve on the ``DbGraph``'s own
dict-backed view, because both views share the canonical repr order.
(The compiled graph also duck-types the ``DbGraph`` read API for
callers that want name-level reads.)

**Per-language work.**  Answering ``solve_rspq(regex, ...)`` parses the
regex, determinises and minimises the automaton, classifies it against
the trichotomy, and (for trC languages) computes a Ψtr decomposition —
all before touching the graph.  A :class:`~repro.engine.plan.QueryPlan`
does that once; :class:`QueryEngine` keeps plans in an LRU
:class:`~repro.engine.plan.PlanCache` keyed by regex text (or by
canonical minimal-DFA signature for ``Language`` objects), so repeated
languages skip straight to the search.

When does compilation pay off?
------------------------------

* **Many queries, one graph** — the target workload.  Graph compilation
  is one O(V + E) pass amortised over the whole batch, and each plan is
  amortised over every query that shares its language.  On a mixed
  100-query workload the engine is several times faster than per-query
  ``solve_rspq`` (``benchmarks/bench_engine_batch.py`` asserts ≥ 3×).
* **One query, one graph** — roughly break-even: you pay one graph
  pass and one plan compile, the same work ``solve_rspq`` does, minus
  the re-sorting the solvers no longer repeat.
* **Mutating graphs** — an engine always serves its compiled graph,
  a frozen snapshot (so its result cache never goes stale); build a
  new engine after a mutation (``QueryEngine(graph)`` recompiles).  If
  the graph changes on every query, stay with ``solve_rspq`` on the
  raw ``DbGraph``, whose own sorted-adjacency caches invalidate
  safely.

One query pipeline
------------------

However a query arrives — ``QueryEngine.query``, one query of a
batch, or one member of a batch's plan group — it takes the same
steps: the cached plan, a result-cache lookup, the reachability-index
short-circuit, then the plan's solver (or the portfolio ladder for
hard-regime plans).  A batch adds only per-query error isolation and,
for a plan group, one shared walk decision — a product BFS sweep while
the plan is cold, lookups in its cached walk certificate once it is
hot — whose proven negatives skip the solver
(:mod:`repro.engine.vectorized`).

Parallel batches
----------------

Plans are frozen and the solvers re-entrant — all per-query state
(work counters, budget, optional deadline) travels in an
:class:`~repro.execution.ExecutionContext` — so one cached plan can
serve many in-flight queries at once, and concurrent ``query`` calls
compile a plan exactly once per distinct language even when threads
race on it (single-flight).  ``run_batch`` answers a batch in this
process, in input order, with failures isolated per query.  Every
solver runs under the GIL, so a batch reaches more cores one way only:
:class:`repro.service.workers.WorkerPool`, whose worker processes
attach one shared snapshot of the compiled graph and answer their
shards through the same ``QueryEngine.run_shard``, path-for-path
identical to ``run_batch``.  ``BatchResult.cache_stats`` and
``QueryEngine.cache_stats()`` report the real plan-cache counters
(hits / misses / evictions / compiles).

Entry points
------------

* ``QueryEngine(graph).run_batch([(language, source, target), ...])``
  — batch evaluation with per-query stats (strategy, solver steps,
  plan cache hit, seconds), real plan-cache counters, and a
  ``summary()``.
* ``QueryEngine(graph).query(language, source, target)`` — one query.
* ``IndexedGraph(graph)`` — the compiled view, usable directly with any
  solver in :mod:`repro.algorithms` / :mod:`repro.core`.
* CLI: ``repro batch GRAPH QUERIES --workers N --jsonl OUT`` (see
  ``repro batch --help``); ``--workers`` above 1 runs the batch on a
  ``WorkerPool`` of N processes.
"""

from .indexed import IndexedGraph
from .plan import PlanCache, PlanCacheStats, QueryPlan, group_by_plan, plan_key
from .portfolio import (
    CONFIDENCE_CERTIFIED,
    CONFIDENCE_PROBABILISTIC,
    PortfolioOutcome,
    PortfolioSolver,
    RungReport,
)
from .vectorized import VectorizedBatchStats
from .engine import (
    STRATEGY_ERROR,
    BatchResult,
    EngineResult,
    QueryEngine,
    QueryStats,
    ResultCacheStats,
)

__all__ = [
    "BatchResult",
    "CONFIDENCE_CERTIFIED",
    "CONFIDENCE_PROBABILISTIC",
    "EngineResult",
    "IndexedGraph",
    "PlanCache",
    "PlanCacheStats",
    "PortfolioOutcome",
    "PortfolioSolver",
    "QueryEngine",
    "QueryPlan",
    "QueryStats",
    "ResultCacheStats",
    "RungReport",
    "STRATEGY_ERROR",
    "VectorizedBatchStats",
    "group_by_plan",
    "plan_key",
]
