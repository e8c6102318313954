"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.errors import ReproError
from repro.graphs.generators import random_labeled_graph


@pytest.fixture
def rng():
    return random.Random(20130622)  # PODS 2013 conference date


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
