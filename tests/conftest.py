"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools
import json
import multiprocessing
import random

import pytest

from benchmarks.workloads import random_regexes
from repro import catalog
from repro.engine.plan import QueryPlan
from repro.errors import ReproError
from repro.graphs.generators import random_labeled_graph

#: The regex sets the dispatch and Ψtr tests cover: perfbench
#: adhoc-register's pool and a deeper one, as ``random_regexes`` args.
REGEX_POOLS = {"depth1": (180, 0, 1), "depth3": (190, 3, 3)}


@pytest.fixture
def rng():
    return random.Random(20130622)  # PODS 2013 conference date


def _pool_workers():
    return {
        process for process in multiprocessing.active_children()
        if process.name.startswith("repro-pool-")
    }


@pytest.fixture(scope="module", autouse=True)
def no_leaked_pool_workers():
    """Fail a test module that leaves a pool worker process running.

    Only workers that were not alive when the module started count, so
    one leak fails the module that made it, not every module after it.
    """
    before = _pool_workers()
    yield
    leaked = sorted(
        process.name for process in _pool_workers() - before
    )
    if leaked:
        pytest.fail("pool workers left running: %s" % ", ".join(leaked))


def random_instance(seed, alphabet, max_vertices=12):
    """A reproducible random (graph, x, y) triple."""
    rand = random.Random(seed)
    n = rand.randint(4, max_vertices)
    m = rand.randint(n, 3 * n)
    graph = random_labeled_graph(n, m, alphabet, seed=seed)
    return graph, rand.randrange(n), rand.randrange(n)


def paths_agree(path_a, path_b):
    """Both None, or both found with equal length."""
    if (path_a is None) != (path_b is None):
        return False
    return path_a is None or len(path_a) == len(path_b)


def per_query(engine, queries, **overrides):
    """Each ``(language, source, target)`` answered by ``engine.query``.

    The reference every batch path is held to: the
    :class:`~repro.engine.EngineResult` of each answered query, in
    input order, and ``str(err)`` for a query that raised a
    :class:`~repro.errors.ReproError` (a batch reports that text as the
    query's ``error``).  ``overrides`` go to every ``query`` call.
    """
    answers = []
    for language, source, target in queries:
        try:
            answers.append(engine.query(language, source, target, **overrides))
        except ReproError as err:
            answers.append(str(err))
    return answers


@functools.lru_cache(maxsize=None)
def pool_plans(pool):
    """``(regex, QueryPlan)`` for every regex of ``pool`` — "catalog" or
    a :data:`REGEX_POOLS` key — compiled once per test session."""
    if pool == "catalog":
        regexes = [entry.regex for entry in catalog.entries()]
    else:
        count, seed, depth = REGEX_POOLS[pool]
        regexes = random_regexes(count, seed=seed, max_depth=depth)
    return tuple((regex, QueryPlan.compile(regex)) for regex in regexes)


def infinite_trc_plans(pool):
    """The plans of ``pool`` whose language is infinite and in trC."""
    return [
        (regex, plan) for regex, plan in pool_plans(pool)
        if plan.classification.in_trc and not plan.classification.finite
    ]


def brute_force_length(graph, dfa, source, target):
    """Length of a shortest simple L-labelled path, by enumerating every
    simple path out of ``source`` (small graphs only), or ``None``."""
    best = None

    def extend(vertex, state, seen, length):
        nonlocal best
        if vertex == target:
            if state in dfa.accepting and (best is None or length < best):
                best = length
            return
        for label, nxt in graph.out_edges(vertex):
            if nxt not in seen and label in dfa.alphabet:
                seen.add(nxt)
                extend(nxt, dfa.transition(state, label), seen, length + 1)
                seen.discard(nxt)

    if source == target:
        return 0 if dfa.initial in dfa.accepting else None
    extend(source, dfa.initial, {source}, 0)
    return best


def read_http_response(stream):
    """``(status, headers, parsed JSON body)`` of the next HTTP response
    on ``stream``, a binary file over a socket; header names are
    lower-cased."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, json.loads(body)
