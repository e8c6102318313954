"""k-RSPQ by color coding (Theorem 7, after Alon-Yuster-Zwick).

k-RSPQ asks for a simple L-labeled path of size (number of edges) at
most k.  Theorem 7: FPT in k, time ``O(2^O(k) |A_L| |G| log |G|)``.

The engine is the paper's dynamic program over colored vertices:

    f(v, q, S) = 1  iff a path from x to v uses exactly the colors S
                 (all distinct) and drives A_L from its initial state
                 to q,

computed over a k'-coloring with k' = k + 1 (a path with k edges has
k + 1 vertices).  A coloring family guarantees some coloring renders
the witness path colorful:

* ``exhaustive`` — all ``k'^n`` colorings (exact, tiny inputs only);
* ``monte-carlo`` — calibrated random colorings: a fixed simple path
  on j vertices is colorful under a uniform k'-coloring with
  probability ``p = k'!/(k'-j)!/k'^j ≥ k'!/k'^{k'}``, so
  ``ceil(ln δ / ln(1-p))`` independent trials drive the failure
  probability below δ (one-sided: "yes" answers are always certified
  by a found path).  :func:`trials_for_prob` computes the exact count
  from the log-factorial form instead of the loose ``e^{k'}`` bound
  the first cut of this module used — roughly a 2.3x trial saving at
  k' = 8 and growing with k'.

The Monte-Carlo streams are deterministic but decorrelated: each
``bounded_simple_path`` call derives its trial colorings from
``(seed, source, target, trial)``, so two queries in one batch never
replay the same coloring sequence and their failure events stay
independent — the property the portfolio ladder's combined failure
bound (:mod:`repro.core.solver`) relies on.

The DP itself is integer-native over a
:class:`~repro.graphs.view.GraphView`: vertices and labels are ids,
colorsets are bitmasks, DFA transitions are per-label list rows, and
expansions iterate the view's precomputed adjacency (the CSR partition
on compiled graphs) instead of re-sorting ``out_edges`` per vertex.
Every expansion charges the
:class:`~repro.execution.ExecutionContext`, so budgets and deadlines
bite *inside* a trial, not only between trials.

Theorem 9's explicit deterministic k-perfect family is replaced by the
Monte-Carlo construction.
"""

from __future__ import annotations

import math
import random
from itertools import product as iter_product

from ..core.product import transition_rows
from ..graphs.view import as_graph_view
from ..languages import Language


def _lfact(n):
    """``log(n!)`` via ``lgamma`` (exact enough for trial calibration)."""
    return math.lgamma(n + 1)


def trials_for_prob(path_vertices, num_colors, failure_probability):
    """Monte-Carlo repetitions for the target failure probability.

    The number of independent uniform ``num_colors``-colorings needed
    so that a *fixed* simple path on ``path_vertices`` vertices is
    colorful in at least one trial with probability at least
    ``1 - failure_probability``.  The single-trial success probability
    is ``num_colors! / (num_colors - path_vertices)! / num_colors^
    path_vertices``, computed in log space.
    """
    if not 0.0 < failure_probability < 1.0:
        raise ValueError(
            "failure_probability must be in (0, 1), got %r"
            % (failure_probability,)
        )
    if path_vertices < 1:
        raise ValueError(
            "path_vertices must be >= 1, got %r" % (path_vertices,)
        )
    if num_colors < path_vertices:
        raise ValueError(
            "num_colors (%r) must be >= path_vertices (%r): a longer "
            "path can never be colorful" % (num_colors, path_vertices)
        )
    log_colorful = (
        _lfact(num_colors)
        - _lfact(num_colors - path_vertices)
        - path_vertices * math.log(num_colors)
    )
    colorful = math.exp(log_colorful)
    if colorful >= 1.0:
        return 1
    trials = math.ceil(
        math.log(failure_probability) / math.log1p(-colorful)
    )
    return max(1, int(trials))


class ColorCodingSolver:
    """FPT solver for bounded-length simple L-labeled paths.

    Parameters
    ----------
    language:
        :class:`~repro.languages.Language` or regex string.
    seed:
        Root of every Monte-Carlo stream; runs are deterministic in
        ``(seed, source, target, trial)``.
    failure_probability:
        One-sided error bound δ: ``None`` answers are wrong with
        probability at most δ (``found`` answers carry a witness and
        are always exact).

    The DP reads the view's label-constrained reachability index and
    drops expansions into components that provably cannot reach the
    target under L's usable labels (sound: a pruned vertex can appear
    on no source-target path).
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

    # -- coloring families -------------------------------------------------------

    def _num_trials(self, num_colors):
        """Monte-Carlo repetitions for the target failure probability."""
        return trials_for_prob(
            num_colors, num_colors, self.failure_probability
        )

    def _trial_rng(self, source, target, trial):
        """The per-trial RNG stream for one solve.

        Seeded from ``(seed, source, target, trial)`` via a formatted
        string (``random.Random`` hashes string seeds with SHA-512, so
        the stream is deterministic and immune to hash randomization).
        Distinct queries draw distinct coloring sequences, keeping
        failure events independent across a batch.
        """
        return random.Random(
            "%r|%r|%r|%d" % (self.seed, source, target, trial)
        )

    def colorings(self, vertices, num_colors, family="monte-carlo"):
        """Yield colorings (dicts vertex -> color in [0, num_colors)).

        The Monte-Carlo family here is the *query-independent* stream
        (keyed on ``(seed, trial)`` only) for callers that inspect
        colorings directly; ``bounded_simple_path`` uses the
        per-query streams of :meth:`_trial_rng` instead.
        """
        vertices = list(vertices)
        if family == "exhaustive":
            for assignment in iter_product(
                range(num_colors), repeat=len(vertices)
            ):
                yield dict(zip(vertices, assignment))
            return
        if family != "monte-carlo":
            raise ValueError("unknown coloring family %r" % (family,))
        for trial in range(self._num_trials(num_colors)):
            rng = random.Random("%r|colorings|%d" % (self.seed, trial))
            yield {
                vertex: rng.randrange(num_colors) for vertex in vertices
            }

    # -- the f(v, q, S) dynamic program ---------------------------------------------

    def colorful_path(self, graph, source, target, coloring, num_colors,
                      ctx=None):
        """Shortest *colorful* L-labeled path under ``coloring`` (or None).

        Implements the paper's DP with parent pointers; colorful means
        all vertex colors distinct, which forces simplicity.
        ``coloring`` maps vertex names to colors; vertices it omits are
        treated as unusable.
        """
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        vertex_at = view.vertex_at
        colors = [
            coloring.get(vertex_at(vertex_id), -1)
            for vertex_id in range(view.num_vertices)
        ]
        found = self._colorful_path_ids(
            view, source_id, target_id, colors, ctx
        )
        if found is None:
            return None
        return view.path(*found)

    # invariant: hot-loop
    def _colorful_path_ids(self, view, source_id, target_id, colors, ctx):
        """The DP core on vertex/label ids; returns id tuples or None.

        ``colors[vertex_id]`` is the vertex's color, ``-1`` marking a
        vertex outside the coloring (never entered).  BFS layering
        makes the first accepting hit a shortest colorful path.  Every
        expanded state charges ``ctx`` (budget + periodic deadline).
        """
        dfa = self.dfa
        accepting = dfa.accepting
        if source_id == target_id:
            if dfa.initial in accepting:
                return (source_id,), ()
            return None
        if colors[source_id] < 0:
            return None
        rows = transition_rows(dfa, view)
        index = view.reachability()
        mask = view.label_mask(self.used_symbols)
        if not index.can_reach(source_id, target_id, mask):
            return None
        to_target = index.comps_to(target_id, mask)
        comp_of = index.comp_of
        out = view.out
        start_key = (source_id, dfa.initial, 1 << colors[source_id])
        table = {start_key: None}  # key -> parent (key, label_id) or None
        frontier = [start_key]
        best = None
        while frontier and best is None:
            next_frontier = []
            for key in frontier:
                if ctx is not None:
                    ctx.charge_step()
                vertex_id, state, used = key
                for label_id, nxt in out(vertex_id):
                    row = rows[label_id]
                    if row is None:
                        continue
                    color = colors[nxt]
                    if color < 0:
                        continue
                    bit = 1 << color
                    if used & bit or not to_target[comp_of[nxt]]:
                        continue
                    next_state = row[state]
                    next_key = (nxt, next_state, used | bit)
                    if next_key in table:
                        continue
                    table[next_key] = (key, label_id)
                    if nxt == target_id and next_state in accepting:
                        best = next_key
                        break
                    next_frontier.append(next_key)
                if best is not None:
                    break
            frontier = next_frontier
        if best is None:
            return None
        vertex_ids = []
        label_ids = []
        key = best
        while table[key] is not None:
            parent, label_id = table[key]
            vertex_ids.append(key[0])
            label_ids.append(label_id)
            key = parent
        vertex_ids.append(key[0])
        vertex_ids.reverse()
        label_ids.reverse()
        return tuple(vertex_ids), tuple(label_ids)

    # -- public API --------------------------------------------------------------------

    def bounded_simple_path(
        self, graph, source, target, max_edges, family="monte-carlo",
        ctx=None, shortest=False,
    ):
        """A simple L-labeled path with ≤ ``max_edges`` edges, or None.

        One-sided error under the Monte-Carlo family: a returned path
        is always a certified answer; ``None`` is wrong with
        probability at most ``failure_probability``.

        By default the first witness ends the solve — one-sided error
        means a found path needs no further trials.  ``shortest=True``
        restores the exhaust-every-trial behaviour and returns the
        shortest witness over all trials (which is the true shortest
        bounded path with the same ``1 - failure_probability``
        guarantee).
        """
        if max_edges < 0:
            raise ValueError(
                "max_edges must be >= 0, got %r" % (max_edges,)
            )
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        num_colors = max_edges + 1
        num_vertices = view.num_vertices
        if family == "exhaustive":
            trials = iter_product(range(num_colors), repeat=num_vertices)
        elif family == "monte-carlo":
            trials = (
                [
                    rng.randrange(num_colors)
                    for _ in range(num_vertices)
                ]
                for rng in (
                    self._trial_rng(source, target, trial)
                    for trial in range(self._num_trials(num_colors))
                )
            )
        else:
            raise ValueError("unknown coloring family %r" % (family,))
        best = None
        for colors in trials:
            if ctx is not None:
                ctx.check_deadline()
            found = self._colorful_path_ids(
                view, source_id, target_id, colors, ctx
            )
            if found is None:
                continue
            vertex_ids, label_ids = found
            if len(label_ids) > max_edges:
                continue
            if not shortest:
                return view.path(vertex_ids, label_ids)
            if best is None or len(label_ids) < len(best[1]):
                best = found
            if len(best[1]) == 0:
                break
        if best is None:
            return None
        return view.path(*best)

    def exists(self, graph, source, target, max_edges, family="monte-carlo",
               ctx=None):
        """Decision variant of k-RSPQ (first witness ends the solve)."""
        return (
            self.bounded_simple_path(
                graph, source, target, max_edges, family=family, ctx=ctx
            )
            is not None
        )
