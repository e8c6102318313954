"""Serving from one compile vs direct solves on a graph under writes.

Every solve walks the compiled CSR graph
(:class:`~repro.engine.indexed.IndexedGraph`); what differs between
the engine path and a direct solve on a mutable ``DbGraph`` is how
often the graph is compiled.  An engine compiles once (or thaws a
snapshot) and serves that frozen copy.  A direct solve walks the
``DbGraph``'s memoised compile (``DbGraph.view()``), which every write
invalidates, so the first solve after a write recompiles the graph —
one O(E log E) pass (see ``repro.engine``'s cost model).

One measurement over a seeded mixed-regime workload (finite / trC /
NP-hard languages, warm plans on BOTH sides, answers asserted
path-for-path identical before any clock starts):

* **serving under writes** — the graph takes a result-neutral write
  between queries.  The direct side recompiles the graph before every
  solve, while the CSR side amortises one compile across the whole
  workload — the acceptance bar (≥2×) is asserted here, and the
  measured gap is far larger.  Every write adds an edge from a
  *fresh* vertex, so no simple path between pre-existing vertices
  changes and the snapshot-semantics answers stay exactly equal
  (asserted).

Wall-clock assertions skip under ``REPRO_BENCH_PROFILE=smoke``; the
equality assertions always run.
"""

import time

from benchmarks.conftest import record_metric, scaled, skip_if_smoke
from benchmarks.workloads import distinct_languages, mixed_workload

import pytest

from repro.core.solver import RspqSolver
from repro.engine import IndexedGraph

#: Serving-scale sparse workload: the per-write recompile grows with
#: |E| while the searches stay short — the amortisation regime.
WRITES_SHAPE = dict(
    num_queries=scaled(80, 12),
    num_vertices=scaled(3000, 60),
    num_edges=scaled(7500, 150),
)
#: Timed repetitions per side (min is reported, warm-up not counted).
REPS = scaled(3, 1)


@pytest.fixture(scope="module")
def writes_workload():
    """Seeded mixed-regime workload plus warm plans for every language."""
    graph, queries = mixed_workload(seed=17, **WRITES_SHAPE)
    solvers = {
        language: RspqSolver(language)
        for language in distinct_languages(queries)
    }
    return graph, queries, solvers


def _run(solvers, queries, target):
    return [
        solvers[language].shortest_simple_path(target, source, goal)
        for language, source, goal in queries
    ]


def _assert_paths_identical(reference, candidate, queries):
    for query, expected, got in zip(queries, reference, candidate):
        assert (expected is None) == (got is None), query
        if expected is not None:
            assert got.vertices == expected.vertices, query
            assert got.labels == expected.labels, query


def _measure(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _mutating_db_pass(pristine, queries, solvers):
    """The DbGraph path under writes: one result-neutral write per query.

    Each write hangs an edge off a *fresh* vertex, so no simple path
    between pre-existing vertices gains or loses a candidate — but the
    graph's memoised compile is dropped, exactly as by any real write,
    so every solve recompiles the graph first.
    """
    graph = pristine.copy()
    anchor = next(iter(graph.vertices()))
    results = []
    start = time.perf_counter()
    for language, source, goal in queries:
        graph.add_edge(graph.fresh_vertex(), "a", anchor)
        results.append(
            solvers[language].shortest_simple_path(graph, source, goal)
        )
    return time.perf_counter() - start, results


def test_serving_under_writes_csr_speedup_at_least_2x(writes_workload):
    graph, queries, solvers = writes_workload

    # CSR side: the view was compiled at registration (or thawed from a
    # snapshot) before the workload arrives — warm-start serving — so
    # the timed pass is pure solving, like the warm plans it rides on.
    view = IndexedGraph(graph).view()

    def csr_pass():
        return _run(solvers, queries, view)

    csr_results = csr_pass()  # warm-up + oracle
    _db_seconds, db_results = _mutating_db_pass(graph, queries, solvers)
    # Snapshot semantics: the writes are result-neutral by construction,
    # so the compiled view's answers match the live graph's exactly.
    _assert_paths_identical(db_results, csr_results, queries)

    db_seconds = min(
        _mutating_db_pass(graph, queries, solvers)[0] for _ in range(REPS)
    )
    csr_seconds = min(_measure(csr_pass) for _ in range(REPS))
    speedup = db_seconds / csr_seconds if csr_seconds else float("inf")
    record_metric("csr_solvers", "writes_db_seconds", round(db_seconds, 6))
    record_metric("csr_solvers", "writes_csr_seconds", round(csr_seconds, 6))
    record_metric("csr_solvers", "writes_speedup", round(speedup, 3))
    skip_if_smoke()
    # The acceptance bar: warm-plan CSR-backed solving at least 2x the
    # DbGraph path on a mixed workload (measured far higher here).
    assert speedup >= 2.0, (db_seconds, csr_seconds)
