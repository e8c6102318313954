"""Seeded inputs for the three workloads.

Everything the server sees comes from here: graph files in the
``repro.graphs.io`` text format and a fixed list of requests.  The
same ``(seed, seconds)`` always gives the same inputs; ``seconds``
only sets how many requests the list holds (a nominal rate times the
run length), so a run sends a fixed list and never stops on a clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from benchmarks.workloads import (
    MIXED_LANGUAGES,
    random_regexes,
    sweep_skewed_workload,
)
from repro.graphs import io as graph_io


@dataclass(frozen=True)
class Op:
    """One request of a workload's list.

    ``kind`` is ``query`` or ``batch`` (reads), ``register`` or
    ``evict`` (writes).  Reads carry ``(language, source, target)``
    triples; a ``query`` carries exactly one.
    """

    kind: str
    graph: str
    queries: tuple = ()
    budget: int | None = None
    graph_text: str | None = None

    @property
    def is_read(self) -> bool:
        return self.kind in ("query", "batch")


@dataclass
class Workload:
    #: Closed-loop client threads of the timed phase.
    clients: int
    #: Extra ``repro serve`` flags beside ``--port`` and ``--graph``.
    serve_args: tuple
    #: Graphs registered at start-up: name -> text.
    graphs: dict
    #: The query that ends set-up (its answer is the first one).
    probe: Op
    #: Requests sent after set-up and before timing.
    warmup: list
    #: The timed request list.
    ops: list
    #: Certify negatives by the absence of any L-labelled walk before
    #: falling back to the direct solver (see ``gate.Reference``).
    certify_walks: bool = False

    def graph_texts(self) -> dict:
        """Every graph the workload ever registers: name -> text."""
        texts = dict(self.graphs)
        for op in self.ops:
            if op.kind == "register":
                texts[op.graph] = op.graph_text
        return texts


# -- point-pool ---------------------------------------------------------------

#: Community graph: COMMUNITIES random communities of COMMUNITY_SIZE
#: vertices, DEGREE random out-edges per vertex inside its community,
#: and BRIDGES one-way edges from each community into the next one.
COMMUNITIES = 64
COMMUNITY_SIZE = 300
DEGREE = 3
BRIDGES = 2
POINT_QUERIES_PER_SECOND = 400
#: Share of queries whose target lies in an earlier community: the
#: bridges only lead forward, so the reachability index proves them.
CROSS_SHARE = 0.15
#: Share of queries that repeat an earlier query.
REPEAT_SHARE = 0.25
#: The graph and the distinct queries come from this seed; the run's
#: seed orders the queries and picks which of them repeat.  Solver
#: cost per query is heavy-tailed (a few queries of the trc language
#: take 50-100 ms, most well under 1 ms), so a seed-dependent query
#: set made the run's work depend on the seed.
POOL_SEED = 0


def community_graph_text(rng):
    lines = []
    for community in range(COMMUNITIES):
        base = community * COMMUNITY_SIZE
        for offset in range(COMMUNITY_SIZE):
            for _ in range(DEGREE):
                lines.append("e v%d %s v%d" % (
                    base + offset, rng.choice("abc"),
                    base + rng.randrange(COMMUNITY_SIZE),
                ))
        if community + 1 < COMMUNITIES:
            for _ in range(BRIDGES):
                lines.append("e v%d %s v%d" % (
                    base + rng.randrange(COMMUNITY_SIZE), rng.choice("abc"),
                    base + COMMUNITY_SIZE + rng.randrange(COMMUNITY_SIZE),
                ))
    return "\n".join(lines) + "\n"


def _vertex(community, rng):
    return "v%d" % (community * COMMUNITY_SIZE + rng.randrange(COMMUNITY_SIZE))


def point_pool(seed, seconds):
    pool = random.Random(POOL_SEED)
    text = community_graph_text(pool)
    total = seconds * POINT_QUERIES_PER_SECOND
    repeats = round(total * REPEAT_SHARE)
    triples = []
    for index in range(total - repeats):
        if pool.random() < CROSS_SHARE:
            community = pool.randrange(1, COMMUNITIES)
            source = _vertex(community, pool)
            target = _vertex(pool.randrange(community), pool)
        else:
            community = pool.randrange(COMMUNITIES)
            source = _vertex(community, pool)
            target = _vertex(community, pool)
            while target == source:
                target = _vertex(community, pool)
        language = MIXED_LANGUAGES[index % len(MIXED_LANGUAGES)]
        triples.append((language, source, target))
    rng = random.Random(seed)
    rng.shuffle(triples)
    for _ in range(repeats):
        position = rng.randrange(1, len(triples) + 1)
        triples.insert(position, triples[rng.randrange(position)])
    # Same-vertex warm-up queries never occur in the timed list
    # (source != target there); two in a row reach both workers.
    warmup = [
        Op("query", "g", ((language, "v%d" % n, "v%d" % n),))
        for language in MIXED_LANGUAGES for n in (1, 2)
    ]
    return Workload(
        clients=2,
        serve_args=("--worker-processes", "2"),
        graphs={"g": text},
        probe=Op("query", "g", (("a", "v0", "v0"),)),
        warmup=warmup,
        ops=[Op("query", "g", (triple,)) for triple in triples],
    )


# -- batch-sweep ----------------------------------------------------------------

SWEEP_VERTICES = 500
#: Plans of every batch; each gets PER_PLAN distinct endpoint pairs,
#: all provable negatives (a ``b`` edge only ever enters the sink).
SWEEP_LANGUAGES = ("a*ba*", "a^+ba*", "(aa)*b")
PER_PLAN = 16
#: Languages of the one positive per batch (source -> sink), answered
#: by the per-query solver after the sweep finds a witness walk.
POSITIVE_LANGUAGES = ("a*ba*", "a^+ba*")
SWEEP_BATCHES_PER_SECOND = 24


def batch_sweep(seed, seconds):
    batches = seconds * SWEEP_BATCHES_PER_SECOND
    per_batch = PER_PLAN * len(SWEEP_LANGUAGES)
    graph, drawn = sweep_skewed_workload(
        batches * per_batch, SWEEP_VERTICES, seed=seed
    )
    rng = random.Random(seed)
    pairs = [(str(source), str(target)) for _l, source, target in drawn]
    sources = [str(vertex) for vertex in range(SWEEP_VERTICES)]
    rng.shuffle(sources)
    positives = [
        (language, source, "sink")
        for language in POSITIVE_LANGUAGES for source in sources
    ]
    rng.shuffle(positives)
    ops = []
    for number in range(batches):
        triples = []
        for plan_index, language in enumerate(SWEEP_LANGUAGES):
            offset = (number * len(SWEEP_LANGUAGES) + plan_index) * PER_PLAN
            triples.extend(
                (language, source, target)
                for source, target in pairs[offset:offset + PER_PLAN]
            )
        if number < len(positives):
            triples.insert(rng.randrange(len(triples) + 1), positives[number])
        ops.append(Op("batch", "g", tuple(triples)))
    warmup = [Op("batch", "g", tuple(
        (language, "1", "1") for language in SWEEP_LANGUAGES
    ))]
    return Workload(
        clients=1,
        serve_args=(),
        graphs={"g": graph_io.dumps(graph)},
        probe=Op("query", "g", (("a", "0", "0"),)),
        warmup=warmup,
        ops=ops,
        certify_walks=True,
    )


# -- adhoc-register -----------------------------------------------------------------

ROUND_VERTICES = 300
ROUND_EDGES = 900
QUERIES_PER_ROUND = 20
#: Fresh languages per second of run; compile cost is heavy-tailed
#: (most plans take a few ms, a few take seconds), so the pool of
#: regexes is fixed and the seed only orders it and draws the graphs
#: and endpoints.  The total compile work of a run then does not
#: depend on the seed.
REGEXES_PER_SECOND = 12
REGEX_POOL_SEED = 0
REGEX_DEPTH = 1
#: Step budget of every ad-hoc query.
STEP_BUDGET = 200_000
ENDPOINT_DRAWS = 100


def random_graph_text(rng, vertices, edges):
    lines = ["v r%d" % vertex for vertex in range(vertices)]
    for _ in range(edges):
        lines.append("e r%d %s r%d" % (
            rng.randrange(vertices), rng.choice("abc"), rng.randrange(vertices),
        ))
    return "\n".join(lines) + "\n"


def adhoc_register(seed, seconds, endpoints_ok):
    """Rounds of register -> fresh-regex queries -> evict.

    ``endpoints_ok(graph_name, text, language, source, target)`` is the
    reference check that keeps only endpoint pairs whose direct
    answer fits well inside the step budget (see ``gate.Reference``),
    so the workload holds no query that fails by design.
    """
    rng = random.Random(seed)
    regexes = random_regexes(
        seconds * REGEXES_PER_SECOND, seed=REGEX_POOL_SEED,
        max_depth=REGEX_DEPTH,
    )
    rng.shuffle(regexes)
    ops = []
    for number in range(0, len(regexes), QUERIES_PER_ROUND):
        name = "round-%03d" % (number // QUERIES_PER_ROUND)
        text = random_graph_text(rng, ROUND_VERTICES, ROUND_EDGES)
        ops.append(Op("register", name, graph_text=text))
        for language in regexes[number:number + QUERIES_PER_ROUND]:
            for _attempt in range(ENDPOINT_DRAWS):
                source = "r%d" % rng.randrange(ROUND_VERTICES)
                target = "r%d" % rng.randrange(ROUND_VERTICES)
                if source != target and endpoints_ok(
                    name, text, language, source, target
                ):
                    break
            else:
                raise RuntimeError(
                    "no endpoints within the step budget for %r" % language)
            ops.append(Op(
                "query", name, ((language, source, target),),
                budget=STEP_BUDGET,
            ))
        ops.append(Op("evict", name))
    base = random_graph_text(rng, ROUND_VERTICES, ROUND_EDGES)
    return Workload(
        clients=1,
        serve_args=(),
        graphs={"base": base},
        probe=Op("query", "base", (("a", "r0", "r0"),)),
        warmup=[],
        ops=ops,
    )


WORKLOADS = ("point-pool", "batch-sweep", "adhoc-register")
