"""The hard-regime solver portfolio: a budget-aware anytime ladder.

Plans whose trichotomy classification lands on the exponential exact
strategy used to fall straight into backtracking search.  The
portfolio interposes a ladder of cheaper attacks, each consuming a
slice of the query's :class:`~repro.execution.ExecutionContext`
budget/deadline and escalating cleanly to the next rung:

1. **walk-probe** — :func:`repro.core.product.walk_check`, the
   classic path's walk check: the polynomial BFS over the product
   graph ``G × A_L`` that ignores simplicity, capped at the query's
   length bound.  No accepting walk within the cap certifies
   NOT_FOUND (every simple path is a walk); a shortest accepting walk
   that happens to be simple *is* a shortest simple path and
   certifies FOUND.  Otherwise its length lower-bounds the answer and
   seeds the next rung.
2. **color-coding** — calibrated Monte-Carlo color coding
   (:class:`~repro.algorithms.color_coding.ColorCodingSolver`,
   Theorem 7) with iterative deepening from the walk lower bound.  A
   witness certifies FOUND; exhausting the trials at the query's full
   length cap yields a *probabilistic* negative with one-sided
   failure bound δ.
3. **algebraic** — witness-free multilinear detection
   (:class:`~repro.algorithms.algebraic.AlgebraicSolver`).  ``True``
   certifies a path exists (the exact rung then extracts the
   witness); ``False`` is an independent probabilistic negative that
   multiplies into the combined failure bound (independent draws).
4. **exact** — the authoritative backtracking search, given whatever
   budget remains.  If *it* runs out while a probabilistic negative
   is already in hand, the portfolio returns that negative instead of
   failing the query — the anytime contract.

Every outcome carries a ``confidence``: ``certified`` answers are
exact (witness paths, walk proofs, exact-rung results);
``probabilistic`` negatives carry their ``failure_bound``.  The
engine's result cache stores **only certified** outcomes — a
probabilistic NOT_FOUND must never be replayed as definitive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from ..algorithms.algebraic import MAX_GROUP_RANK, AlgebraicSolver
from ..algorithms.color_coding import ColorCodingSolver
from ..algorithms.exact import ExactSolver
from ..core.product import walk_check
from ..errors import BudgetExceededError, DeadlineExceededError
from ..execution import ExecutionContext
from ..graphs.dbgraph import Path
from ..graphs.view import GraphView, as_graph_view
from ..languages import Language

#: An exact answer: a witness path, a walk proof, or the exact rung.
CONFIDENCE_CERTIFIED = "certified"

#: A randomized negative; ``failure_bound`` bounds its error.
CONFIDENCE_PROBABILISTIC = "probabilistic"

#: Largest path-edge count the color-coding rung attempts: the
#: colorset DP carries ``2^(k+1)`` states per (vertex, dfa-state) and
#: the calibrated trial count grows near-exponentially in k (roughly
#: 1.1k trials at k = 6, 2.9k at k = 7, 7.4k at k = 8 for δ = 1e-3).
COLOR_CODING_MAX_EDGES = 7

#: Largest path-edge count the algebraic rung attempts (group-algebra
#: vectors carry ``2^(k+1)`` field scalars; the hard ceiling is
#: :data:`~repro.algorithms.algebraic.MAX_GROUP_RANK` - 1).
ALGEBRAIC_MAX_EDGES = 9

#: Fraction of the *remaining* budget/deadline granted to each
#: escalating rung at its entry; the exact rung gets whatever is left.
DEFAULT_BUDGET_SPLIT = {"color-coding": 0.5, "algebraic": 0.4}

#: The ladder, in escalation order.
LADDER = ("walk-probe", "color-coding", "algebraic", "exact")


@dataclass(frozen=True)
class RungReport:
    """What one ladder rung did for one query."""

    name: str
    #: "found" / "proved-absent" / "no-witness" / "detected" /
    #: "skipped" / "exhausted".
    outcome: str
    steps: int
    seconds: float
    note: str = ""


@dataclass(frozen=True)
class PortfolioOutcome:
    """The portfolio's answer for one query."""

    found: bool
    path: Optional[Path]
    #: :data:`CONFIDENCE_CERTIFIED` or :data:`CONFIDENCE_PROBABILISTIC`.
    confidence: str
    #: Error bound of a probabilistic negative; None when certified.
    failure_bound: Optional[float]
    #: ``"portfolio:<rung>"`` — the rung that produced the answer.
    strategy: str
    rungs: tuple[RungReport, ...]


class PortfolioSolver:
    """The anytime strategy ladder for one hard-regime language.

    Immutable and shareable like every plan solver: per-query state
    lives in the :class:`~repro.execution.ExecutionContext` each call
    brings (rungs run on budget-capped child contexts folded back into
    it).

    Parameters
    ----------
    language:
        :class:`~repro.languages.Language` or regex string.
    seed / failure_probability:
        Root seed and per-rung one-sided error bound δ of the
        randomized rungs.  Negatives confirmed by *both* randomized
        rungs report the product bound δ² (the rungs draw independent
        streams).
    use_reach_pruning:
        Forwarded to every rung's solver (reach-index frontier
        pruning).
    exact_budget:
        Default step budget of the exact rung for context-less calls.
    color_max_edges / algebraic_max_edges:
        Per-rung caps on the bounded path length attempted; queries
        whose effective length cap exceeds a rung's cap skip it.
    budget_split:
        ``{rung_name: fraction}`` of the remaining allowance granted
        to the color-coding and algebraic rungs at their entry.
    """

    def __init__(self, language: "str | Language", seed: int = 0,
                 failure_probability: float = 1e-3,
                 use_reach_pruning: bool = True,
                 exact_budget: "int | None" = None,
                 color_max_edges: int = COLOR_CODING_MAX_EDGES,
                 algebraic_max_edges: int = ALGEBRAIC_MAX_EDGES,
                 budget_split: "dict[str, float] | None" = None) -> None:
        if isinstance(language, str):
            language = Language(language)
        if not 0.0 < failure_probability < 1.0:
            raise ValueError(
                "failure_probability must be in (0, 1), got %r"
                % (failure_probability,)
            )
        if algebraic_max_edges + 1 > MAX_GROUP_RANK:
            raise ValueError(
                "algebraic_max_edges must be <= %d (group rank cap), "
                "got %r" % (MAX_GROUP_RANK - 1, algebraic_max_edges)
            )
        self.language = language
        self.dfa = language.dfa
        self.seed = seed
        self.failure_probability = failure_probability
        self.color_max_edges = color_max_edges
        self.algebraic_max_edges = algebraic_max_edges
        split = dict(DEFAULT_BUDGET_SPLIT)
        if budget_split is not None:
            split.update(budget_split)
        for name, fraction in split.items():
            if not 0.0 < fraction <= 1.0:
                raise ValueError(
                    "budget_split[%r] must be in (0, 1], got %r"
                    % (name, fraction)
                )
        self.budget_split = split
        self.used_symbols = language.used_symbols
        self.color = ColorCodingSolver(
            language, seed=seed, failure_probability=failure_probability,
            use_reach_pruning=use_reach_pruning,
        )
        self.algebraic = AlgebraicSolver(
            language, seed=seed, failure_probability=failure_probability,
            use_reach_pruning=use_reach_pruning,
        )
        self.exact = ExactSolver(
            language, budget=exact_budget,
            use_reach_pruning=use_reach_pruning,
        )

    # -- introspection (``repro explain``) -----------------------------------------

    def describe(self) -> "dict[str, Any]":
        """JSON-safe ladder description for ``repro explain`` / ``/stats``."""
        return {
            "ladder": list(LADDER),
            "failure_probability": self.failure_probability,
            "seed": self.seed,
            "color_max_edges": self.color_max_edges,
            "algebraic_max_edges": self.algebraic_max_edges,
            "budget_split": self.budget_split_report(),
        }

    def budget_split_report(self) -> "dict[str, float]":
        """Per-rung share of a unit budget under the configured split.

        The walk probe charges the parent context directly (it is
        polynomial); each escalating rung takes its configured fraction
        of what remains, and the exact rung takes the rest.
        """
        remaining = 1.0
        shares: dict[str, float] = {"walk-probe": 0.0}
        for name in ("color-coding", "algebraic"):
            share = remaining * self.budget_split[name]
            shares[name] = round(share, 6)
            remaining -= share
        shares["exact"] = round(remaining, 6)
        return shares

    # -- the ladder ----------------------------------------------------------------

    def solve(self, graph: Any, source: Any, target: Any,
              ctx: "ExecutionContext | None" = None,
              max_path_edges: "int | None" = None) -> PortfolioOutcome:
        """Answer one hard-regime query through the ladder.

        ``max_path_edges`` turns the query into k-RSPQ ("a simple
        L-path with at most k edges") — the bounded regime Theorem 7
        addresses; ``None`` asks the classical unbounded question.
        Raises :class:`~repro.errors.BudgetExceededError` /
        :class:`~repro.errors.DeadlineExceededError` only when the
        allowance dies with *no* answer in hand (the anytime contract
        returns a probabilistic negative instead when one exists).
        """
        if max_path_edges is not None and max_path_edges < 0:
            raise ValueError(
                "max_path_edges must be >= 0 or None, got %r"
                % (max_path_edges,)
            )
        if ctx is None:
            ctx = ExecutionContext()
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        rungs: list[RungReport] = []
        if source_id == target_id:
            # The only simple path from x to x is the empty path.
            found = self.dfa.initial in self.dfa.accepting
            path = Path.single(view.vertex_at(source_id)) if found else None
            rungs.append(RungReport(
                "walk-probe", "found" if found else "proved-absent",
                0, 0.0, "empty-path case",
            ))
            return self._certified(found, path, "walk-probe", rungs)
        # Any simple path the query admits has at most k_complete edges.
        k_complete = view.num_vertices - 1
        if max_path_edges is not None:
            k_complete = min(k_complete, max_path_edges)

        # Rung 1: walk probe (certified, polynomial, parent-charged).
        start = time.perf_counter()
        steps_before = ctx.steps
        decided, path, walk_len = walk_check(
            self.dfa, view, source_id, target_id, k_complete, ctx
        )
        probe_steps = ctx.steps - steps_before
        if decided:
            found = path is not None
            rungs.append(RungReport(
                "walk-probe", "found" if found else "proved-absent",
                probe_steps, time.perf_counter() - start,
                "shortest accepting walk is simple" if found
                else "no accepting walk within %d edges" % k_complete,
            ))
            return self._certified(found, path, "walk-probe", rungs)
        rungs.append(RungReport(
            "walk-probe", "no-witness", probe_steps,
            time.perf_counter() - start,
            "walk lower bound %d edges" % walk_len,
        ))

        # Rung 2: calibrated Monte-Carlo color coding.
        negative_bound: float | None = None
        negative_rung: str | None = None
        witness = self._run_color_rung(
            view, source_id, target_id, walk_len, k_complete, ctx, rungs
        )
        if isinstance(witness, Path):
            return self._certified(True, witness, "color-coding", rungs)
        if witness == "complete":
            negative_bound = self.failure_probability
            negative_rung = "color-coding"

        # Rung 3: algebraic multilinear detection.
        detected = self._run_algebraic_rung(
            view, source_id, target_id, k_complete, ctx, rungs
        )
        if detected is True:
            # A certified existence proof refutes any probabilistic
            # negative in hand — it must not resurface if the exact
            # rung later exhausts while extracting the witness.
            negative_bound = None
            negative_rung = None
        if detected is False:
            bound = self.failure_probability
            if negative_bound is not None:
                # Independent streams: both rungs missing a real path
                # multiplies the one-sided error bounds.
                bound = negative_bound * bound
            negative_bound = bound
            negative_rung = "algebraic"
        if negative_bound is not None:
            return PortfolioOutcome(
                found=False,
                path=None,
                confidence=CONFIDENCE_PROBABILISTIC,
                failure_bound=negative_bound,
                strategy="portfolio:%s" % negative_rung,
                rungs=tuple(rungs),
            )

        # Rung 4: exact fallback (authoritative; witness extraction
        # when the algebraic rung certified existence).
        start = time.perf_counter()
        child = ctx.child()
        try:
            path = self.exact.shortest_simple_path(
                view, source, target, ctx=child
            )
        except (BudgetExceededError, DeadlineExceededError):
            ctx.absorb(child)
            rungs.append(RungReport(
                "exact", "exhausted", child.steps,
                time.perf_counter() - start,
            ))
            if negative_bound is not None:
                # Anytime: the randomized negative beats failing the
                # query outright.
                return PortfolioOutcome(
                    found=False,
                    path=None,
                    confidence=CONFIDENCE_PROBABILISTIC,
                    failure_bound=negative_bound,
                    strategy="portfolio:%s" % negative_rung,
                    rungs=tuple(rungs),
                )
            raise
        ctx.absorb(child)
        if path is not None and max_path_edges is not None and (
            len(path) > max_path_edges
        ):
            # The shortest simple path overshoots the bound, so no
            # bounded path exists — a certified negative.
            path = None
        rungs.append(RungReport(
            "exact", "found" if path is not None else "proved-absent",
            child.steps, time.perf_counter() - start,
        ))
        return self._certified(path is not None, path, "exact", rungs)

    # -- rungs ---------------------------------------------------------------------

    def _certified(self, found: bool, path: Optional[Path], rung: str,
                   rungs: "list[RungReport]") -> PortfolioOutcome:
        return PortfolioOutcome(
            found=found,
            path=path,
            confidence=CONFIDENCE_CERTIFIED,
            failure_bound=None,
            strategy="portfolio:%s" % rung,
            rungs=tuple(rungs),
        )

    def _slice(self, ctx: ExecutionContext,
               rung: str) -> ExecutionContext:
        """A child context carrying this rung's share of what remains."""
        fraction = self.budget_split[rung]
        remaining_budget = ctx.remaining_budget()
        budget = (
            None if remaining_budget is None
            else max(1, int(remaining_budget * fraction))
        )
        remaining_seconds = ctx.remaining_seconds()
        seconds = (
            None if remaining_seconds is None
            else remaining_seconds * fraction
        )
        return ctx.child(budget=budget, seconds=seconds)

    def _run_color_rung(self, view: GraphView, source_id: int,
                        target_id: int, walk_len: int, k_complete: int,
                        ctx: ExecutionContext,
                        rungs: "list[RungReport]"):
        """Iterative-deepening color coding on a budget slice.

        Returns a witness :class:`Path`, ``"complete"`` (no witness
        and the final round covered ``k_complete`` — a probabilistic
        negative for the whole query), or ``None`` (no conclusion).
        """
        k_hi = min(k_complete, self.color_max_edges)
        if walk_len > k_hi:
            rungs.append(RungReport(
                "color-coding", "skipped", 0, 0.0,
                "walk lower bound %d exceeds rung cap %d"
                % (walk_len, k_hi),
            ))
            return None
        start = time.perf_counter()
        try:
            child = self._slice(ctx, "color-coding")
        except (BudgetExceededError, DeadlineExceededError):
            rungs.append(RungReport(
                "color-coding", "skipped", 0,
                time.perf_counter() - start, "no allowance left",
            ))
            return None
        source = view.vertex_at(source_id)
        target = view.vertex_at(target_id)
        # Deepening schedule: doubling from the walk lower bound, so a
        # short witness is found on cheap trial counts and only a true
        # negative pays for the full-depth round.
        depths = []
        k = max(1, walk_len)
        while k < k_hi:
            depths.append(k)
            k *= 2
        depths.append(k_hi)
        completed = False
        try:
            for k in depths:
                path = self.color.bounded_simple_path(
                    view, source, target, k, ctx=child
                )
                if path is not None:
                    ctx.absorb(child)
                    rungs.append(RungReport(
                        "color-coding", "found", child.steps,
                        time.perf_counter() - start,
                        "witness at depth %d" % k,
                    ))
                    return path
            completed = k_hi == k_complete
        except (BudgetExceededError, DeadlineExceededError):
            ctx.absorb(child)
            rungs.append(RungReport(
                "color-coding", "exhausted", child.steps,
                time.perf_counter() - start, "slice spent",
            ))
            return None
        ctx.absorb(child)
        rungs.append(RungReport(
            "color-coding",
            "no-witness" if completed else "skipped",
            child.steps,
            time.perf_counter() - start,
            (
                "all trials at depth %d negative" % k_hi
                if completed
                else "rung cap %d below query cap %d" % (k_hi, k_complete)
            ),
        ))
        return "complete" if completed else None

    def _run_algebraic_rung(self, view: GraphView, source_id: int,
                            target_id: int, k_complete: int,
                            ctx: ExecutionContext,
                            rungs: "list[RungReport]"):
        """Multilinear detection on a budget slice.

        Returns ``True`` (certified: a path exists — the exact rung
        must extract it), ``False`` (independent probabilistic
        negative), or ``None`` (no conclusion).
        """
        if k_complete > self.algebraic_max_edges:
            rungs.append(RungReport(
                "algebraic", "skipped", 0, 0.0,
                "query cap %d exceeds rung cap %d"
                % (k_complete, self.algebraic_max_edges),
            ))
            return None
        start = time.perf_counter()
        try:
            child = self._slice(ctx, "algebraic")
        except (BudgetExceededError, DeadlineExceededError):
            rungs.append(RungReport(
                "algebraic", "skipped", 0,
                time.perf_counter() - start, "no allowance left",
            ))
            return None
        source = view.vertex_at(source_id)
        target = view.vertex_at(target_id)
        try:
            detected = self.algebraic.exists(
                view, source, target, k_complete, ctx=child
            )
        except (BudgetExceededError, DeadlineExceededError):
            ctx.absorb(child)
            rungs.append(RungReport(
                "algebraic", "exhausted", child.steps,
                time.perf_counter() - start, "slice spent",
            ))
            return None
        ctx.absorb(child)
        rungs.append(RungReport(
            "algebraic", "detected" if detected else "no-witness",
            child.steps, time.perf_counter() - start,
        ))
        return detected
