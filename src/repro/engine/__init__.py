"""repro.engine — indexed graphs, cached query plans, batch execution.

The trichotomy solvers are correct one query at a time, but a workload
of many queries repeats two kinds of work:

**Per-graph work.**  ``DbGraph`` stores its edge set, with dict-of-set
adjacency built on the first read; the solvers want a *deterministic*
neighbour order, which the seed obtained by re-sorting adjacency by
``repr`` at every expansion.  :class:`IndexedGraph` compiles the edge
set once into the int64 arrays a snapshot stores (one integer key per
edge and direction, each direction sorted once): vertices become
contiguous ints, and forward and reverse adjacency become one
repr-sorted CSR each, whose vertex slices group edges by label, so a
label-restricted traversal filters the slice.  The compiled graph is
the one integer-native :class:`~repro.graphs.view.GraphView` the
solver cores walk: every engine query runs on the engine's own
compile, and a direct solve on a ``DbGraph`` runs on the graph's
memoised compile (``DbGraph.view()``), so both return bit-identical
paths.
(``IndexedGraph.to_dbgraph()`` rebuilds the name-level ``DbGraph``
for callers that want string reads.)

**Per-language work.**  Answering ``solve_rspq(regex, ...)`` parses the
regex, determinises and minimises the automaton, classifies it against
the trichotomy, and (for trC languages) computes a Ψtr decomposition —
all before touching the graph.  A :class:`~repro.engine.plan.QueryPlan`
does that once; :class:`QueryEngine` keeps plans in an
:class:`~repro.lru.LruCache` keyed by regex text (or by canonical
minimal-DFA signature for ``Language`` objects), so repeated
languages skip straight to the search.

When does compilation pay off?
------------------------------

* **Many queries, one graph** — the target workload.  Graph
  compilation (two O(E log E) key sorts) is amortised over the whole
  batch, and each plan is amortised over every query that shares its
  language.  On a mixed 100-query workload the engine is several times
  faster than per-query ``solve_rspq``
  (``benchmarks/bench_engine_batch.py`` asserts ≥ 3×).
* **One query, one graph** — break-even: you pay one graph compile
  and one plan compile, the same work ``solve_rspq`` does (a direct
  solve compiles the graph too, through ``DbGraph.view()``).
* **Mutating graphs** — an engine always serves its compiled graph,
  a frozen snapshot (so its result cache never goes stale); build a
  new engine after a mutation (``QueryEngine(graph)`` recompiles).  A
  direct ``solve_rspq`` on the raw ``DbGraph`` always sees the current
  graph, but each write costs one O(E log E) compile before the next
  direct solve; solves between writes share that compile.

One query pipeline
------------------

However a query arrives — ``QueryEngine.query``, one query of a
batch, or one member of a batch's plan group — it takes the same
steps: the cached plan, a result-cache lookup, the reachability-index
short-circuit, then the plan's one solver
(:class:`~repro.core.solver.RspqSolver`; a hard-regime query that opts
into the portfolio also runs its randomized middle rungs, and its
answer carries a ``confidence``, :data:`CONFIDENCE_CERTIFIED` or
:data:`CONFIDENCE_PROBABILISTIC`).  A batch adds only per-query error
isolation and, for a plan group (every batch is grouped by plan), one
shared walk decision — a product BFS sweep while the plan is cold,
lookups in its cached walk certificate once it is hot — whose proven
negatives skip the solver (:mod:`repro.engine.vectorized`).

Parallel batches
----------------

Plans are frozen and the solvers re-entrant — all per-query state
(work count, budget, optional deadline) travels in an
:class:`~repro.execution.ExecutionContext` — so one cached plan can
serve many in-flight queries at once, and concurrent ``query`` calls
compile a plan exactly once per distinct language even when threads
race on it (single-flight).  ``run_batch`` answers a batch in this
process, in input order, with failures isolated per query.  Every
solver runs under the GIL, so a batch reaches more cores one way only:
:class:`repro.service.workers.WorkerPool`, which deals the batch
round-robin over worker processes that attach one shared snapshot of
the compiled graph; each groups and answers its shard through the
same ``QueryEngine.run_shard``, path-for-path identical to
``run_batch``.  ``BatchResult.cache_stats`` and
``QueryEngine.cache_stats()`` report the real plan-cache counters as
a :class:`~repro.lru.CacheStats` (hits / misses / evictions, and one
insert per plan compiled).

Entry points
------------

* ``QueryEngine(graph).run_batch([(language, source, target), ...])``
  — batch evaluation with per-query stats (strategy, solver steps,
  plan cache hit, seconds), real plan-cache counters, and a
  ``summary()``.
* ``QueryEngine(graph).query(language, source, target)`` — one query.
* ``IndexedGraph(graph)`` — the compiled view, usable directly with any
  ``GraphView`` solver in :mod:`repro.algorithms` / :mod:`repro.core`;
  ``to_dbgraph()`` for the rest.
* CLI: ``repro batch GRAPH QUERIES --workers N --jsonl OUT`` (see
  ``repro batch --help``); ``--workers`` above 1 runs the batch on a
  ``WorkerPool`` of N processes.
"""

from .indexed import IndexedGraph
from .plan import QueryPlan, group_by_plan, plan_key
from ..core.solver import CONFIDENCE_CERTIFIED, CONFIDENCE_PROBABILISTIC
from .vectorized import VectorizedBatchStats
from .engine import (
    STRATEGY_ERROR,
    BatchResult,
    EngineResult,
    QueryEngine,
    QueryStats,
)

__all__ = [
    "BatchResult",
    "CONFIDENCE_CERTIFIED",
    "CONFIDENCE_PROBABILISTIC",
    "EngineResult",
    "IndexedGraph",
    "QueryEngine",
    "QueryPlan",
    "QueryStats",
    "STRATEGY_ERROR",
    "VectorizedBatchStats",
    "group_by_plan",
    "plan_key",
]
