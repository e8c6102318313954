"""Command-line interface: classify languages and run queries.

Usage (also via ``python -m repro``)::

    repro classify 'a*(bb+ + eps)c*'
    repro witness 'a*ba*'
    repro explain 'a*ba*' --graph graph.txt
    repro solve 'a*c*' graph.txt 0 5
    repro psitr 'a*(bb+ + eps)c*'
    repro batch graph.txt queries.txt
    repro batch graph.txt queries.txt --workers 4 --jsonl results.jsonl
    repro snapshot graph.txt graph.snap
    repro serve --graph social=graph.txt --snapshot web=graph.snap

The graph file uses the text format of :mod:`repro.graphs.io`
(``e source label target`` per line).  A batch queries file has one
``source target regex`` query per line (the regex may contain spaces;
``#`` comments and blank lines are ignored); the batch is executed by
:class:`repro.engine.QueryEngine` — graph compiled once, plans cached —
or, with ``--workers N`` above 1, by a
:class:`repro.service.workers.WorkerPool` of N processes.
``snapshot`` compiles a graph and persists the compiled view for
warm-starts; ``serve`` hosts registered graphs behind the JSON/HTTP
query service of :mod:`repro.service`.
Exit status is 0 on success, 1 for "no path" answers, 2 for usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .errors import ReproError
from .languages import language
from .core.trichotomy import classify
from .core.witness import find_hardness_witness
from .core.psitr import decompose
from .core.solver import (
    ALGEBRAIC_MAX_EDGES,
    COLOR_CODING_MAX_EDGES,
    LADDER,
    STRATEGY_FINITE,
    STRATEGY_TRACTABLE,
    RspqSolver,
    ladder_shares,
)
from .engine import QueryEngine
from .graphs import io as graph_io
from .service.protocol import RESULT_FIELDS, result_record


def _engine_flags():
    """Parent parsers ``(budget, engine)`` of the engine flags.

    ``solve`` takes only the step budget; ``batch`` and ``serve`` share
    every flag below, each declared here once.  :func:`_engine_kwargs`
    maps them onto :class:`~repro.engine.QueryEngine` kwargs and
    :func:`_check_engine_flags` range-checks them.
    """
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget",
        type=int,
        default=None,
        help="step budget: caps each query's steps (walk nodes plus "
        "search steps, or the words a finite L tries)",
    )
    engine = argparse.ArgumentParser(add_help=False, parents=[budget])
    engine.add_argument(
        "--plan-cache-size",
        type=int,
        default=128,
        help="LRU capacity of the query-plan cache (default 128)",
    )
    engine.add_argument(
        "--result-cache-size",
        type=int,
        default=1024,
        help="LRU capacity of the engine result cache (default 1024); "
        "repeated identical queries replay without re-solving, and 0 "
        "turns the cache off (every query re-solves)",
    )
    engine.add_argument(
        "--portfolio",
        action="store_true",
        help="route exact-strategy (NP-hard) queries through the "
        "anytime solver portfolio: bounded-length probe, Monte-Carlo "
        "color coding, algebraic detection, exact fallback; negatives "
        "may be probabilistic (see the result 'confidence' field); "
        "per-request 'portfolio' overrides it either way",
    )
    engine.add_argument(
        "--portfolio-failure-probability",
        type=float,
        default=1e-3,
        metavar="DELTA",
        help="calibrated bound on a probabilistic NOT_FOUND being "
        "wrong (default 1e-3); smaller = more trials = slower",
    )
    engine.add_argument(
        "--portfolio-seed",
        type=int,
        default=0,
        help="base seed for the portfolio's randomized rungs "
        "(default 0); results are deterministic per seed",
    )
    return budget, engine


def _build_parser():
    budget_flags, engine_flags = _engine_flags()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regular simple path queries: the PODS'13 trichotomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify RSPQ(L) per Theorem 2"
    )
    p_classify.add_argument("regex", help="regular expression for L")

    p_witness = sub.add_parser(
        "witness", help="print a Property-(1) hardness witness (L ∉ trC)"
    )
    p_witness.add_argument("regex")

    p_psitr = sub.add_parser(
        "psitr", help="print a Ψtr decomposition (L ∈ trC)"
    )
    p_psitr.add_argument("regex")

    p_explain = sub.add_parser(
        "explain",
        help="print the compiled query plan without executing a search",
        description="Compile the plan for REGEX (parse -> minimal DFA "
        "-> trichotomy classification -> strategy dispatch) and print "
        "what the engine would run: the classification, the chosen "
        "strategy, whether the Psi-tr decomposition failed (exact "
        "fallback), the plan-cache key kind, which graph view the "
        "solvers would walk, and — with --graph — the label-mask "
        "coverage of the reachability index (plus, with --source and "
        "--target, the index verdict for that exact query).  No graph "
        "search is executed.",
    )
    p_explain.add_argument("regex")
    p_explain.add_argument(
        "--graph",
        default=None,
        metavar="PATH",
        help="optional graph file; when given, the report describes "
        "the compiled view the engine would serve this graph through "
        "and the reachability index's label-mask coverage for REGEX",
    )
    p_explain.add_argument(
        "--source",
        default=None,
        help="with --graph and --target: report the reachability-index "
        "verdict (short_circuit: unreachable / solver would run) for "
        "this query without running it",
    )
    p_explain.add_argument(
        "--target",
        default=None,
        help="query target for the index verdict (see --source)",
    )

    p_solve = sub.add_parser(
        "solve", help="find a shortest simple L-labeled path in a graph",
        parents=[budget_flags],
    )
    p_solve.add_argument("regex")
    p_solve.add_argument("graph", help="path to a graph file (text format)")
    p_solve.add_argument("source")
    p_solve.add_argument("target")

    p_batch = sub.add_parser(
        "batch",
        parents=[engine_flags],
        help="run many queries against one graph via the plan-cached "
        "engine (repro.engine.QueryEngine)",
        description="Evaluate a file of RSPQs against one graph.  The "
        "graph is compiled to an indexed view once and query plans "
        "(regex -> DFA -> classification -> decomposition) are cached "
        "in an LRU, so repeated languages are planned only once.  Each "
        "query line reads 'source target regex' (the regex may contain "
        "spaces; '#' comments and blank lines are skipped).",
    )
    p_batch.add_argument("graph", help="path to a graph file (text format)")
    p_batch.add_argument(
        "queries", help="path to a queries file (source target regex)"
    )
    p_batch.add_argument(
        "--stats",
        action="store_true",
        help="print per-query solver steps and timings",
    )
    p_batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the batch (default 1 = in this "
        "process); N > 1 runs it on a pre-forked pool attached to a "
        "temporary snapshot of the compiled graph; results are "
        "identical path-for-path for every worker count",
    )
    p_batch.add_argument(
        "--max-path-edges",
        type=int,
        default=None,
        metavar="K",
        help="answer the bounded k-RSPQ variant: only simple paths of "
        "at most K edges count; the walk check certifies a negative "
        "when no L-walk fits in K edges, and with --portfolio the "
        "color-coding and algebraic rungs (Theorem 7, FPT in K) run "
        "before the exact search",
    )
    p_batch.add_argument(
        "--jsonl",
        metavar="OUT",
        default=None,
        help="stream each query result as one JSON object per line to "
        "OUT; keys appear in the documented deterministic order "
        "(repro.service.protocol.RESULT_FIELDS): %s"
        % ", ".join(RESULT_FIELDS),
    )

    p_snapshot = sub.add_parser(
        "snapshot",
        help="compile a graph and persist the compiled view for "
        "warm-starts (repro.service.snapshot)",
        description="Compile GRAPH (text format) into an indexed view "
        "and write it to OUT as a versioned, checksummed snapshot.  "
        "'repro serve --snapshot name=OUT' then warm-starts from it "
        "without recompiling.",
    )
    p_snapshot.add_argument("graph", help="path to a graph file")
    p_snapshot.add_argument("out", help="path to write the snapshot to")

    p_serve = sub.add_parser(
        "serve",
        parents=[engine_flags],
        help="host registered graphs behind the JSON-over-HTTP query "
        "service (repro.service)",
        description="Start the long-lived multi-graph query service.  "
        "Graphs come from --graph name=path (text format, compiled at "
        "startup) and --snapshot name=path (warm-started from a "
        "compiled snapshot).  Endpoints: POST /query, POST /batch, "
        "POST /classify, POST /graphs, DELETE /graphs/<name>, GET "
        "/graphs, GET /stats, GET /healthz.",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--graph",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register a graph from a text-format file (repeatable)",
    )
    p_serve.add_argument(
        "--snapshot",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register a graph from a compiled snapshot (repeatable)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="solver threads (default 4)",
    )
    p_serve.add_argument(
        "--worker-processes",
        type=int,
        default=0,
        metavar="N",
        help="pre-fork N query worker processes per graph, all "
        "attached to one shared read-only snapshot mapping — the "
        "multi-core serving path (default 0 = in-process threads "
        "only)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission control: queries in flight beyond this are "
        "rejected immediately with 429 (default 64)",
    )
    p_serve.add_argument(
        "--deadline-seconds",
        type=float,
        default=None,
        help="default per-query wall-clock deadline (requests may "
        "override per query); unset = no deadline",
    )
    p_serve.add_argument(
        "--max-graphs",
        type=int,
        default=64,
        help="cap on simultaneously registered graphs — POST /graphs "
        "beyond it is rejected with 409 so unauthenticated "
        "registrations cannot grow memory unboundedly (default 64)",
    )
    p_serve.add_argument(
        "--soft-inflight",
        type=int,
        default=None,
        metavar="N",
        help="load-shedding pressure watermark: above "
        "N in-flight queries, single-query (cheap-to-retry) requests "
        "are shed with 429 before the hard cap bites (default: off)",
    )
    p_serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive worker-crash failures that open a graph's "
        "circuit breaker (default 5)",
    )
    p_serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="base cooldown before an open circuit admits a half-open "
        "probe; doubles per consecutive open (default 1.0)",
    )
    p_serve.add_argument(
        "--breaker-max-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="cap on the breaker's exponential cooldown (default 30)",
    )
    p_serve.add_argument(
        "--watchdog-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard-kill a pool worker busy on one request for longer "
        "than this (reclaims wedged workers even for requests "
        "without deadlines; default: off)",
    )
    p_serve.add_argument(
        "--degrade-crash-threshold",
        type=int,
        default=3,
        metavar="N",
        help="worker-loss events per window that climb one "
        "degradation rung (default 3)",
    )
    p_serve.add_argument(
        "--degrade-recovery-seconds",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="quiet seconds before the service steps one degradation "
        "rung back down (default 5)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="seconds SIGTERM/SIGINT shutdown waits for in-flight "
        "requests before closing worker pools (default 10)",
    )
    return parser


def _cmd_classify(args):
    lang = language(args.regex)
    result = classify(lang.dfa, with_witness=False)
    print("language   : %s" % args.regex)
    print("minimal DFA: %d states over {%s}" % (
        lang.num_states, ", ".join(sorted(lang.alphabet))))
    print("finite     : %s" % result.finite)
    print("in trC     : %s" % result.in_trc)
    print("RSPQ(L) is : %s" % result.complexity_class.value)
    return 0


def _cmd_witness(args):
    lang = language(args.regex)
    witness = find_hardness_witness(lang.dfa)
    if witness is None:
        print("L is in trC — RSPQ(L) is tractable, no hardness witness.")
        return 1
    print("Property-(1) witness (drives the Lemma 5 reduction):")
    for name, word in zip(
        ("wl", "w1", "wm", "w2", "wr"), witness.words()
    ):
        print("  %s = %r" % (name, word))
    return 0


def _psitr_lines(expression):
    """A Ψtr expression one sequence per line, each after the first
    behind the union's ``+``."""
    if not expression.sequences:
        return ["∅"]
    return [
        ("+ " if index else "  ") + str(sequence)
        for index, sequence in enumerate(expression.sequences)
    ]


def _cmd_psitr(args):
    lang = language(args.regex)
    print("\n".join(_psitr_lines(decompose(lang))))
    return 0


def _cmd_explain(args):
    from .engine import QueryPlan

    # Validate the argument combination before printing anything, so
    # a usage error never emits a half-report on stdout.
    if (args.source is None) != (args.target is None):
        raise ReproError(
            "--source and --target must be given together"
        )
    if args.source is not None and args.graph is None:
        raise ReproError(
            "--source/--target need --graph to resolve the vertices"
        )
    plan = QueryPlan.compile(args.regex)
    lang = plan.language
    classification = plan.classification
    if plan.decompose_failed:
        decompose_note = "FAILED — silent exact fallback"
    elif plan.strategy == STRATEGY_TRACTABLE:
        decompose_note = "ok (Ψtr anchored search)"
    else:
        decompose_note = "n/a for this strategy"
    print("language       : %s" % args.regex)
    print("minimal DFA    : %d states over {%s}" % (
        lang.num_states, ", ".join(sorted(lang.alphabet))))
    print("finite         : %s" % classification.finite)
    print("in trC         : %s" % classification.in_trc)
    print("RSPQ(L) is     : %s" % classification.complexity_class.value)
    print("strategy       : %s" % plan.strategy)
    print("decomposition  : %s" % decompose_note)
    expression = plan.solver.expression
    if expression is not None:
        if expression.k is None:
            print("Ψtr            : extracted from the regex, %d sequence(s)"
                  % len(expression.sequences))
        else:
            chains = sum(1 for sequence in expression.sequences if sequence.terms)
            print("Ψtr            : synthesized from the minimal DFA, k=%d, "
                  "%d chain(s)" % (expression.k, chains))
        for index, line in enumerate(_psitr_lines(expression)):
            print("%s%s" % ("  sequences    : " if index == 0 else " " * 17, line))
    if plan.solver.has_ladder:
        print(
            "portfolio      : %s (opt-in via engine portfolio=True or "
            "per-query override)" % " -> ".join(LADDER)
        )
        shares = ladder_shares()
        print(
            "  budget split : %s (share of remaining budget per rung)"
            % ", ".join(
                "%s=%.0f%%" % (name, shares[name] * 100.0)
                for name in LADDER
            )
        )
        print(
            "  calibration  : failure bound %g, color rung up to %d "
            "edges, algebraic rung up to %d edges"
            % (
                plan.solver.failure_probability,
                COLOR_CODING_MAX_EDGES,
                ALGEBRAIC_MAX_EDGES,
            )
        )
    # The CLI always plans from a regex string, so the key is always
    # text-kinded (Language objects key by canonical DFA signature).
    print("plan key kind  : %s (plans cached by exact regex text)"
          % plan.key[0])
    print("label mask     : {%s} (symbols some word of L uses)"
          % ", ".join(sorted(plan.used_symbols)))
    if args.graph is not None:
        graph = graph_io.load(args.graph)
        engine = QueryEngine(graph)
        print(
            "graph view     : csr (IndexedGraph over %s: |V|=%d |E|=%d, "
            "one CSR per direction, edges grouped by label)"
            % (
                args.graph,
                engine.graph.num_vertices,
                engine.graph.num_edges,
            )
        )
        index = engine.view.reachability()
        usable = sorted(
            plan.used_symbols & set(engine.graph.labels())
        )
        print(
            "label coverage : %d/%d graph labels usable by L: {%s} "
            "(index: %d components, %d condensation edges)"
            % (
                len(usable),
                len(engine.graph.labels()),
                ", ".join(usable),
                index.num_comps,
                index.num_condensation_edges,
            )
        )
        if args.source is not None:
            # Text-format graphs only ever carry string vertex names,
            # so the raw arguments resolve directly (exactly like
            # `repro solve`); unknown names raise the usual GraphError.
            if engine.reach_only_result(
                args.regex, args.source, args.target
            ) is not None:
                print(
                    "index verdict  : short_circuit: unreachable — %r "
                    "cannot reach %r under L's label mask; the engine "
                    "answers NOT_FOUND without running a solver"
                    % (args.source, args.target)
                )
            elif plan.strategy == STRATEGY_FINITE:
                print(
                    "index verdict  : reachable under L's label mask — "
                    "the %s solver would run" % plan.strategy
                )
            else:
                print(
                    "index verdict  : reachable under L's label mask — "
                    "the walk check runs first; the %s solver runs only "
                    "if the shortest walk is not simple" % plan.strategy
                )
    else:
        print(
            "graph view     : csr (IndexedGraph) everywhere: the "
            "engine/service compiles one per graph, direct solve_rspq "
            "walks the DbGraph's memoised compile"
        )
    print("plan compile   : %.6fs" % plan.compile_seconds)
    return 0


def _flag(dest):
    """The command-line spelling of the option stored at ``dest``."""
    return "--" + dest.replace("_", "-")


def _require(args, dest, valid, requirement):
    """A usage error naming the flag when option ``dest`` holds a value
    ``valid`` rejects (unset and absent options are never checked)."""
    value = getattr(args, dest, None)
    if value is not None and not valid(value):
        raise ReproError(
            "%s %s, got %r" % (_flag(dest), requirement, value)
        )


def _check_engine_flags(args):
    """Range-check whichever flags of :func:`_engine_flags` ``args``
    carries."""
    _require(args, "budget", lambda v: v > 0,
             "must be a positive step count")
    _require(args, "plan_cache_size", lambda v: v >= 1, "must be >= 1")
    _require(args, "result_cache_size", lambda v: v >= 0,
             "must be >= 0 (0 turns the result cache off)")
    _require(args, "portfolio_failure_probability",
             lambda v: 0.0 < v < 1.0, "must be in (0, 1)")


def _engine_kwargs(args):
    """:class:`~repro.engine.QueryEngine` kwargs from the engine flags."""
    return {
        "plan_cache_size": args.plan_cache_size,
        "exact_budget": args.budget,
        "result_cache_size": args.result_cache_size,
        "portfolio": args.portfolio,
        "portfolio_failure_probability": args.portfolio_failure_probability,
        "portfolio_seed": args.portfolio_seed,
    }


def _cmd_solve(args):
    _check_engine_flags(args)
    lang = language(args.regex)
    graph = graph_io.load(args.graph)
    solver = RspqSolver(lang, exact_budget=args.budget)
    result = solver.solve(graph, args.source, args.target)
    print("strategy: %s" % result.strategy)
    if not result.found:
        print("no simple path labeled in L from %s to %s"
              % (args.source, args.target))
        return 1
    print("length  : %d" % result.length)
    print("word    : %s" % result.path.word)
    print("path    : %s" % " -> ".join(str(v) for v in result.path.vertices))
    return 0


def _parse_queries(path):
    """Parse a queries file into ``(regex, source, target)`` triples."""
    queries = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(None, 2)
            if len(fields) != 3:
                raise ReproError(
                    "queries line %d: expected 'source target regex', "
                    "got %r" % (line_number, raw_line.rstrip("\n"))
                )
            source, target, regex = fields
            queries.append((regex, source, target))
    return queries


def _write_jsonl(path, results):
    """Stream one compact JSON object per result to ``path``.

    Keys appear in the documented order of
    :data:`repro.service.protocol.RESULT_FIELDS` — deterministic, so
    JSONL outputs of equal batches are byte-identical and diffable.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for result in results:
            handle.write(json.dumps(result_record(result), default=str))
            handle.write("\n")


def _pooled_batch(graph, engine_kwargs, queries, workers, **overrides):
    """``queries`` answered on a pool of ``workers`` processes.

    The pool's workers build their engines from ``engine_kwargs`` and
    attach to a snapshot of ``graph``, compiled and spooled to a
    temporary directory that is removed afterwards.  This process
    builds no engine of its own.
    """
    from .service.snapshot import save_snapshot
    from .service.workers import WorkerPool

    with tempfile.TemporaryDirectory(prefix="repro-batch-") as spool:
        path = os.path.join(spool, "graph.snap")
        save_snapshot(graph, path)
        with WorkerPool(
            path, engine_kwargs=engine_kwargs, workers=workers,
        ) as pool:
            return pool.run_batch(queries, **overrides)


def _cmd_batch(args):
    _check_engine_flags(args)
    _require(args, "workers", lambda v: v >= 1, "must be >= 1")
    _require(args, "max_path_edges", lambda v: v >= 0, "must be >= 0")
    graph = graph_io.load(args.graph)
    queries = _parse_queries(args.queries)
    engine_kwargs = _engine_kwargs(args)
    if args.workers > 1:
        batch = _pooled_batch(
            graph, engine_kwargs, queries, args.workers,
            max_path_edges=args.max_path_edges,
        )
    else:
        batch = QueryEngine(graph, **engine_kwargs).run_batch(
            queries, max_path_edges=args.max_path_edges
        )
    if args.jsonl:
        _write_jsonl(args.jsonl, batch.results)
    for result in batch.results:
        if result.error is not None:
            answer = "error: %s" % result.error
        elif result.found:
            answer = "length %d, word %s" % (result.length, result.path.word)
        elif result.failure_bound is not None:
            answer = (
                "no path (probabilistic, failure bound %g)"
                % result.failure_bound
            )
        else:
            answer = "no path"
        flag = "  [warning: decompose failed, exact fallback]" if (
            result.decompose_failed
        ) else ""
        print(
            "[%s] %s -> %s under %s: %s%s"
            % (
                result.strategy,
                result.source,
                result.target,
                result.language,
                answer,
                flag,
            )
        )
        if args.stats:
            print(
                "    steps=%s plan_cache_hit=%s vectorized=%s time=%.6fs"
                % (
                    result.stats.steps,
                    result.stats.plan_cache_hit,
                    result.stats.vectorized,
                    result.stats.seconds,
                )
            )
    print(batch.summary())
    if batch.error_count:
        return 2
    return 0 if batch.found_count == len(queries) else 1


def _cmd_snapshot(args):
    from .engine import IndexedGraph
    from .service.snapshot import save_snapshot

    graph = graph_io.load(args.graph)
    indexed = IndexedGraph(graph)
    size = save_snapshot(indexed, args.out)
    print(
        "snapshot %s: |V|=%d |E|=%d, %d bytes"
        % (args.out, indexed.num_vertices, indexed.num_edges, size)
    )
    return 0


def _parse_named_paths(pairs, option):
    """``NAME=PATH`` pairs from a repeatable option."""
    parsed = []
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ReproError(
                "%s expects NAME=PATH, got %r" % (option, pair)
            )
        parsed.append((name, path))
    return parsed


def _cmd_serve(args):
    import asyncio

    from .service import GraphRegistry, QueryService, ServiceConfig
    from .service import faults

    try:
        # Dormant unless REPRO_FAULTS carries a JSON fault spec; the
        # chaos harness uses this to inject faults into a real
        # `repro serve` process without touching its code paths.
        faults.install_from_env()
    except ValueError as err:
        raise ReproError(str(err)) from err

    graphs = _parse_named_paths(args.graph, "--graph")
    snapshots = _parse_named_paths(args.snapshot, "--snapshot")
    if not graphs and not snapshots:
        raise ReproError(
            "serve needs at least one --graph NAME=PATH or "
            "--snapshot NAME=PATH"
        )
    _check_engine_flags(args)
    _require(args, "deadline_seconds", lambda v: 0 < v < math.inf,
             "must be positive and finite")
    _require(args, "max_graphs", lambda v: v >= 1, "must be >= 1")
    _require(args, "worker_processes", lambda v: v >= 0, "must be >= 0")
    _require(args, "watchdog_seconds", lambda v: v > 0, "must be positive")
    pool_kwargs = {}
    if args.watchdog_seconds is not None:
        pool_kwargs["watchdog_seconds"] = args.watchdog_seconds
    registry = GraphRegistry(
        engine_kwargs=dict(
            _engine_kwargs(args), deadline_seconds=args.deadline_seconds
        ),
        max_graphs=args.max_graphs,
        worker_processes=args.worker_processes,
        pool_kwargs=pool_kwargs,
    )
    try:
        for name, path in graphs:
            entry = registry.register(name, graph_io.load(path))
            print(
                "registered %s from %s (compiled in %.3fs)"
                % (name, path, entry.stats.prepare_seconds)
            )
        for name, path in snapshots:
            entry = registry.register_snapshot(name, path)
            print(
                "registered %s from snapshot %s (warm-started in %.3fs)"
                % (name, path, entry.stats.prepare_seconds)
            )
        try:
            config = ServiceConfig(
                workers=args.workers,
                max_inflight=args.max_inflight,
                soft_inflight=args.soft_inflight,
                breaker_threshold=args.breaker_threshold,
                breaker_cooldown=args.breaker_cooldown,
                breaker_max_cooldown=args.breaker_max_cooldown,
                degrade_crash_threshold=args.degrade_crash_threshold,
                degrade_recovery_seconds=args.degrade_recovery_seconds,
                drain_timeout=args.drain_timeout,
            )
        except ValueError as err:
            raise ReproError(str(err)) from err
        service = QueryService(registry, config)
        pool_note = (
            ", worker_processes=%d/graph" % args.worker_processes
            if args.worker_processes
            else ""
        )

        def announce(port):
            # Printed after bind so --port 0 reports the real port.
            print(
                "serving %d graph(s) on http://%s:%d (workers=%d, "
                "max_inflight=%d%s)"
                % (len(registry), args.host, port, args.workers,
                   args.max_inflight, pool_note),
                flush=True,
            )

        try:
            # SIGTERM/SIGINT drain in-flight requests and close the
            # registry (worker pools, spool dirs) before exiting.
            asyncio.run(
                service.serve_until_interrupted(
                    args.host, args.port, ready=announce
                )
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        print("shut down cleanly", flush=True)
    finally:
        registry.close()
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "psitr": _cmd_psitr,
    "explain": _cmd_explain,
    "solve": _cmd_solve,
    "batch": _cmd_batch,
    "snapshot": _cmd_snapshot,
    "serve": _cmd_serve,
}


def main(argv=None):
    """CLI entry point; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
