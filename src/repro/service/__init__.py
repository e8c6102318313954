"""repro.service — the long-lived, multi-graph query serving tier.

The engine layer (:mod:`repro.engine`) answers one batch against one
compiled graph, in process.  This package turns that into a service:

* :class:`GraphRegistry` (:mod:`repro.service.registry`) hosts many
  named graphs, each bound to its compiled
  :class:`~repro.engine.IndexedGraph` and a thread-safe plan cache,
  with register/evict semantics and per-graph serving stats;
* :mod:`repro.service.snapshot` persists a compiled graph (CSR arrays
  + label table behind a versioned, checksummed header) so a restarted
  service warm-starts from disk instead of recompiling — loading a
  snapshot skips every repr-sort the compile pass pays for, and
  *attaching* (:func:`attach_snapshot`) maps the file read-only with
  zero array copies so many processes share one copy of the graph;
* :class:`WorkerPool` (:mod:`repro.service.workers`) pre-forks N
  query workers attached to one shared snapshot mapping — the
  multi-core serving path (``repro serve --worker-processes N``) with
  crash detection, respawn-with-backoff and deadline-aware dispatch;
* :class:`QueryService` (:mod:`repro.service.server`) is a stdlib-only
  asyncio JSON-over-HTTP server (``repro serve``) exposing
  query/batch/classify/stats/graph-management endpoints, with
  admission control (bounded in-flight queries, immediate 429 beyond
  capacity) and per-request deadlines mapped onto each query's
  :class:`~repro.execution.ExecutionContext`;
* :class:`ServiceClient` (:mod:`repro.service.client`) is the matching
  stdlib HTTP client plus a load generator that drives a live server
  and checks responses path-for-path against direct
  :func:`~repro.core.solver.solve_rspq` answers;
* :mod:`repro.service.protocol` pins the wire format — in particular
  :data:`~repro.service.protocol.RESULT_FIELDS`, the documented,
  deterministic field order shared by the HTTP responses and the
  ``repro batch --jsonl`` output;
* :mod:`repro.service.resilience` holds the self-healing primitives —
  per-graph :class:`CircuitBreaker`, deadline-aware
  :class:`LoadShedder` and the graceful-degradation
  :class:`DegradationLadder` the server wires together;
* :mod:`repro.service.faults` is the deterministic fault-injection
  harness (:class:`FaultPlan`) the chaos tests drive — worker
  crash/hang/slow-reply, snapshot corruption, spool IO errors and
  clock-skewed deadlines, all dormant unless a plan is explicitly
  installed.

Everything here is standard library only, by design: the serving tier
must run wherever the solvers do.

Submodules load lazily (PEP 562): ``from repro.service import X``
works for every name below, but importing just the wire protocol (as
the CLI does for ``--jsonl``) does not drag in the asyncio server or
the HTTP client.
"""

from importlib import import_module

#: Public name -> defining submodule (resolved on first attribute use).
_EXPORTS = {
    "GraphRegistry": ".registry",
    "GraphStats": ".registry",
    "RegisteredGraph": ".registry",
    "attach_snapshot": ".snapshot",
    "load_snapshot": ".snapshot",
    "save_snapshot": ".snapshot",
    "snapshot_info": ".snapshot",
    "WorkerPool": ".workers",
    "QueryService": ".server",
    "ServiceConfig": ".server",
    "ServiceThread": ".server",
    "ServiceClient": ".client",
    "run_load": ".client",
    "verify_against_direct": ".client",
    "RESULT_FIELDS": ".protocol",
    "result_record": ".protocol",
    "FaultPlan": ".faults",
    "BreakerConfig": ".resilience",
    "CircuitBreaker": ".resilience",
    "DegradationLadder": ".resilience",
    "LadderConfig": ".resilience",
    "LoadShedder": ".resilience",
    "ShedConfig": ".resilience",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        )
    value = getattr(import_module(submodule, __name__), name)
    globals()[name] = value  # cache: next access skips this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
