"""Algebraic bounded simple-path detection (Koutis–Williams style).

The algebraic rung of the hard-regime portfolio ladder
(:mod:`repro.core.solver`): decide whether a simple L-labeled
path with at most k edges exists *without* searching for one, by
evaluating the walk-generating polynomial over the group algebra
``GF(2^16)[Z_2^r]`` with ``r = k + 1``.

Each vertex ``v`` draws a random group element ``g_v ∈ Z_2^r`` and
every (layer, edge) transition a random nonzero field scalar.  Walks
accumulate the product of their vertices' ``(x_0 + g_v)`` factors:

* a walk that **revisits** a vertex contains ``(x_0 + g_v)^2 =
  x_0 + 2·g_v·x_0 + g_v^2 = 2·x_0 = 0`` in characteristic 2 (the
  group algebra is commutative, so the two occurrences meet), so
  every non-simple walk contributes *exactly zero* — not merely with
  high probability;
* simple walks contribute products of *distinct* factors, which
  survive with constant probability over the random draws.

A nonzero evaluation therefore **certifies** that a simple path of
the observed length exists (there is no witness to extract — that is
the exact rung's job); a zero evaluation is a probabilistic negative:
simple-path contributions may have cancelled.  Repeating with
independent draws drives the one-sided failure probability below δ
using the conservative per-run success bound
:data:`SINGLE_RUN_SUCCESS_PROBABILITY`.

Group-algebra elements are dense vectors of ``2^r`` field scalars
(index = group element as an r-bit mask); multiplying by
``(x_0 + g)`` is one XOR-shifted vector add, and scaling is a
log/antilog table lookup per entry.  The ``2^r`` factor caps the
usable rank at :data:`MAX_GROUP_RANK` — beyond it the exact solver is
the better spend of the same budget.

Arithmetic is ``GF(2^16)`` under the primitive polynomial ``0x1100B``
(the same ``x^16 + x^12 + x^3 + x + 1`` the Jerasure coding library
uses for w = 16), with exp/log tables built the first time a run or
:func:`gf_mul` reads them (:func:`_gf_tables`): about 5 MB of tuples
and 20 ms, paid only by a process that reaches the algebraic rung.
"""

from __future__ import annotations

import functools
import math
import random

from ..core.product import transition_rows
from ..graphs.view import as_graph_view
from ..languages import Language

#: Conservative lower bound on one run detecting an existing simple
#: path (the classical Koutis–Williams analysis gives ≥ 1/5).
SINGLE_RUN_SUCCESS_PROBABILITY = 0.2

#: Largest supported group rank r = max_edges + 1: vectors carry 2^r
#: field scalars, so each extra rank doubles the per-edge work.
MAX_GROUP_RANK = 14

#: Primitive polynomial for GF(2^16) (x^16 + x^12 + x^3 + x + 1).
_GF_POLY = 0x1100B

#: Field order of GF(2^16).
_GF_ORDER = 1 << 16


@functools.cache
def _gf_tables():
    """Exp/log tables for GF(2^16); exp is doubled for index-free mult.

    Built on the first call and shared by every later one.  Two
    threads making the first call together each build the same
    immutable tuples, and one pair is kept, so no lock is needed.
    """
    size = _GF_ORDER - 1
    exp = [0] * (2 * size)
    log = [0] * _GF_ORDER
    value = 1
    for power in range(size):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & _GF_ORDER:
            value ^= _GF_POLY
    for power in range(size, 2 * size):
        exp[power] = exp[power - size]
    return tuple(exp), tuple(log)


def gf_mul(a, b):
    """Product in GF(2^16) (table-based; 0 absorbs)."""
    if a == 0 or b == 0:
        return 0
    exp, log = _gf_tables()
    return exp[log[a] + log[b]]


def runs_for_prob(failure_probability):
    """Independent runs driving the one-sided error below the target.

    Each run misses an existing path with probability at most
    ``1 - SINGLE_RUN_SUCCESS_PROBABILITY``; runs draw independent
    randomness, so ``ceil(ln δ / ln(1 - p))`` runs suffice.
    """
    if not 0.0 < failure_probability < 1.0:
        raise ValueError(
            "failure_probability must be in (0, 1), got %r"
            % (failure_probability,)
        )
    runs = math.ceil(
        math.log(failure_probability)
        / math.log1p(-SINGLE_RUN_SUCCESS_PROBABILITY)
    )
    return max(1, int(runs))


class AlgebraicSolver:
    """Witness-free bounded simple-path detector (decision only).

    Parameters
    ----------
    language:
        :class:`~repro.languages.Language` or regex string.
    seed:
        Root of the per-run random draws; runs are deterministic in
        ``(seed, source, target, run)``.
    failure_probability:
        One-sided error bound δ: ``False`` answers are wrong with
        probability at most δ; ``True`` answers are certified (every
        non-simple contribution is algebraically zero).

    Every run reads the view's label-constrained reachability index and
    drops product states in components that provably cannot reach the
    target under L's usable labels (sound, answer-preserving).
    """

    def __init__(self, language, seed=0, failure_probability=1e-3):
        if isinstance(language, str):
            language = Language(language)
        self.language = language
        self.dfa = language.dfa
        self.seed = seed
        self.failure_probability = failure_probability
        #: Symbols occurring in some word of L (the pruning label mask).
        self.used_symbols = language.used_symbols

    def _num_runs(self):
        return runs_for_prob(self.failure_probability)

    def _run_rng(self, source, target, run):
        """Deterministic per-run stream from ``(seed, source, target, run)``."""
        return random.Random(
            "%r|%r|%r|algebraic|%d" % (self.seed, source, target, run)
        )

    def exists(self, graph, source, target, max_edges, ctx=None):
        """Whether a simple L-labeled path with ≤ ``max_edges`` edges exists.

        ``True`` is certified (no witness path is produced); ``False``
        is wrong with probability at most ``failure_probability``.
        """
        if max_edges < 0:
            raise ValueError(
                "max_edges must be >= 0, got %r" % (max_edges,)
            )
        rank = max_edges + 1
        if rank > MAX_GROUP_RANK:
            raise ValueError(
                "max_edges=%d needs group rank %d > MAX_GROUP_RANK=%d "
                "(2^r vector entries per product state make larger "
                "ranks slower than exact search)"
                % (max_edges, rank, MAX_GROUP_RANK)
            )
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        if source_id == target_id:
            # The only simple path from x to x is the empty path.
            return self.dfa.initial in self.dfa.accepting
        index = view.reachability()
        mask = view.label_mask(self.used_symbols)
        if not index.can_reach(source_id, target_id, mask):
            return False
        to_target = index.comps_to(target_id, mask)
        rows = transition_rows(self.dfa, view)
        for run in range(self._num_runs()):
            if ctx is not None:
                ctx.check_deadline()
            rng = self._run_rng(source, target, run)
            if self._single_run(
                view, source_id, target_id, rows, to_target,
                index.comp_of, rng, max_edges, ctx,
            ):
                return True
        return False

    # invariant: hot-loop
    def _single_run(self, view, source_id, target_id, rows, to_target,
                    comp_of, rng, max_edges, ctx):
        """One randomized evaluation; True certifies a path exists.

        Layered DP over product states ``(vertex, dfa_state)``; the
        value of a state after layer j is the group-algebra sum over
        all j-edge walks reaching it.  A nonzero vector at an
        accepting target state after any layer ends the run.  A
        product state whose component is not set in ``to_target``
        cannot reach the target and is never entered.
        """
        size = 1 << (max_edges + 1)
        accepting = self.dfa.accepting
        randrange = rng.randrange
        group_of = [randrange(size) for _ in range(view.num_vertices)]
        exp, log = _gf_tables()
        out = view.out
        scalar = randrange(1, _GF_ORDER)
        init = [0] * size
        init[0] = scalar
        init[group_of[source_id]] ^= scalar
        current = {(source_id, self.dfa.initial): init}
        for _layer in range(max_edges):
            frontier = {}
            for (vertex_id, state), vector in current.items():
                if ctx is not None:
                    ctx.charge_step()
                for label_id, nxt in out(vertex_id):
                    row = rows[label_id]
                    if row is None or not to_target[comp_of[nxt]]:
                        continue
                    key = (nxt, row[state])
                    accumulator = frontier.get(key)
                    if accumulator is None:
                        accumulator = [0] * size
                        frontier[key] = accumulator
                    group = group_of[nxt]
                    log_c = log[randrange(1, _GF_ORDER)]
                    for index_ in range(size):
                        term = vector[index_] ^ vector[index_ ^ group]
                        if term:
                            accumulator[index_] ^= exp[log[term] + log_c]
            current = frontier
            if not current:
                return False
            for (vertex_id, state), vector in current.items():
                if vertex_id == target_id and state in accepting:
                    if any(vector):
                        return True
        return False
