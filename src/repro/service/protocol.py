"""Wire format shared by the HTTP service and the ``--jsonl`` output.

One :class:`~repro.engine.engine.EngineResult` serialises to one flat
JSON object.  The field order is part of the contract — consumers may
stream-parse or diff outputs byte-for-byte — and is pinned by
:data:`RESULT_FIELDS`:

``language, source, target, strategy, found, length, word, path,
decompose_failed, steps, seconds, plan_cache_hit, result_cache_hit,
short_circuit, vectorized, confidence, failure_bound, degraded,
error``

* ``language`` — the language spec as a string (regex text).
* ``source`` / ``target`` — endpoints exactly as queried (JSON keeps
  int/string vertex names apart).
* ``strategy`` — the dispatched solver (``finite-AC0`` /
  ``trc-nice-path`` / ``exact-backtracking``) or ``error``.
* ``found`` — whether a simple path exists; ``length`` / ``word`` /
  ``path`` are ``null`` when it does not (or on error).
* ``decompose_failed`` — the tractable-but-undecomposed warning flag.
* ``steps`` — the dispatched solver's work counter; ``seconds`` —
  wall-clock for this query; ``plan_cache_hit`` — whether the plan was
  already cached.
* ``result_cache_hit`` — the answer was replayed from the engine
  result cache (no solver ran; ``steps`` reports the original solve).
* ``short_circuit`` — the reachability index proved NOT_FOUND under
  the plan's label mask and no solver ran (``steps`` is 0).
* ``vectorized`` — a plan group's shared walk decision proved the
  answer (batch mode only; ``steps`` reports the BFS sweep rounds
  this query rode, 0 when the plan's walk certificate decided it).
* ``confidence`` — ``certified`` for exact answers (every classic
  strategy, and portfolio answers backed by a witness or proof);
  ``probabilistic`` for portfolio negatives whose randomized rungs
  may have missed a path.
* ``failure_bound`` — the error bound of a probabilistic negative;
  ``null`` when ``confidence`` is ``certified``.
* ``degraded`` — the serving tier answered below full service (the
  degradation ladder routed this query through the portfolio or the
  reachability index only); always ``false`` for direct engine use.
  Degraded answers are never *wrong* — ``confidence`` /
  ``failure_bound`` still say exactly how strong the answer is.
* ``error`` — ``null`` for answered queries, otherwise the message of
  the isolated per-query failure.

:func:`result_record` is the single producer of that shape; both
``repro batch --jsonl`` and the server's ``/query`` and ``/batch``
responses go through it, so differential tooling can compare the two
transports directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..engine.engine import BatchResult, EngineResult

#: The documented, deterministic field order of one result record.
RESULT_FIELDS = (
    "language",
    "source",
    "target",
    "strategy",
    "found",
    "length",
    "word",
    "path",
    "decompose_failed",
    "steps",
    "seconds",
    "plan_cache_hit",
    "result_cache_hit",
    "short_circuit",
    "vectorized",
    "confidence",
    "failure_bound",
    "degraded",
    "error",
)


def result_record(result: EngineResult,
                  degraded: bool = False) -> dict[str, Any]:
    """One :class:`EngineResult` as a dict in :data:`RESULT_FIELDS` order."""
    return {
        "language": str(result.language),
        "source": result.source,
        "target": result.target,
        "strategy": result.strategy,
        "found": result.found,
        "length": result.length,
        "word": None if result.path is None else result.path.word,
        "path": (
            None if result.path is None else list(result.path.vertices)
        ),
        "decompose_failed": result.decompose_failed,
        "steps": result.stats.steps,
        "seconds": result.stats.seconds,
        "plan_cache_hit": result.stats.plan_cache_hit,
        "result_cache_hit": result.stats.result_cache_hit,
        "short_circuit": result.stats.short_circuit,
        "vectorized": result.stats.vectorized,
        "confidence": result.confidence,
        "failure_bound": result.failure_bound,
        "degraded": degraded,
        "error": result.error,
    }


def batch_record(batch: BatchResult,
                 degraded: bool = False) -> dict[str, Any]:
    """A :class:`BatchResult` as a JSON-safe dict (results + counters)."""
    record: dict[str, Any] = {
        "results": [
            result_record(result, degraded=degraded)
            for result in batch.results
        ],
        "seconds": batch.seconds,
        "workers": batch.workers,
        "found_count": batch.found_count,
        "error_count": batch.error_count,
        "plans_compiled": batch.plans_compiled,
        "plan_cache_hits": batch.plan_cache_hits,
        "cache_stats": {
            "hits": batch.cache_stats.hits,
            "misses": batch.cache_stats.misses,
            "evictions": batch.cache_stats.evictions,
            "compiles": batch.cache_stats.compiles,
        },
    }
    if batch.result_cache_stats is not None:
        record["result_cache_stats"] = {
            "hits": batch.result_cache_stats.hits,
            "misses": batch.result_cache_stats.misses,
        }
    if batch.stats is not None:
        record["vectorized_stats"] = batch.stats.as_dict()
    return record
