"""Front-door RSPQ solver: classify, then dispatch (Theorem 2 in code).

``RspqSolver`` inspects the language once and picks the regime:

* finite L            → :class:`FiniteLanguageSolver` (the AC0 case),
* infinite L ∈ trC    → :class:`TractableSolver` (the NL case) when an
  anchor decomposition is available, otherwise the exact solver with
  the ``decompose_failed`` warning flag set (surfaced on both the
  solver and every :class:`RspqResult` it produces),
* L ∉ trC             → :class:`ExactSolver` (the NP-complete case; a
  work budget may be supplied).

Walk first.  Before the tractable or exact solver runs, each query
gets one shortest-walk BFS over the product ``G × A_L``
(:func:`repro.core.product.walk_check`: a forward BFS with early exit
at the first accepting target node, and a backward one alongside that
stops it early when no walk exists), capped at the query's length
bound: ``|V| - 1`` edges, the most a simple path can have, or
``max_path_edges`` when that is smaller.  It is sound because every
simple path is a walk: no L-labelled walk within the cap means no
simple one, and a shortest walk that happens to be simple is a
shortest simple path.  If the walk repeats a vertex, the query goes on
to the strategy's solver.  The paper's Figure 4 is why this is a check
and not a solver: there an L-walk exists but no simple L-path does,
and deciding that in general is the trichotomy's job.  Finite
languages keep the word search the trichotomy assigns them, without
the check.  The check's expanded nodes are charged to the query's
``steps``, so a step budget covers them too.

The middle rungs.  An exact-strategy solver also owns the randomized
attacks on Theorem 7's bounded variant k-RSPQ.  A query that asks for
them (``portfolio=True``) runs them between the walk check and the
exact search, each on a slice of the query's remaining budget and
deadline (:data:`BUDGET_SPLIT`):

1. **color-coding** — calibrated Monte-Carlo color coding
   (:class:`~repro.algorithms.color_coding.ColorCodingSolver`),
   deepening from the walk's length.  A witness certifies FOUND (it
   need not be a shortest path); all trials negative at the query's
   full length cap are a *probabilistic* NOT_FOUND with one-sided
   failure bound δ.
2. **algebraic** — witness-free multilinear detection
   (:class:`~repro.algorithms.algebraic.AlgebraicSolver`).  ``True``
   certifies that a path exists, and the exact search then extracts
   it; ``False`` is an independent probabilistic negative that
   multiplies into the failure bound.

A probabilistic negative in hand is the answer, and the exact search
does not run (the anytime contract).  These answers report the rung
that produced them as ``"portfolio:<rung>"``, ``walk-probe`` and
``exact`` included.

Every result carries a ``confidence``: ``certified`` answers are exact
(witness paths, walk proofs, exact-search results); ``probabilistic``
negatives carry their ``failure_bound``.  Results report which
strategy ran, so experiments can verify the dispatch matches the
trichotomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import BudgetExceededError, DeadlineExceededError, ReproError
from ..execution import ExecutionContext
from ..graphs.dbgraph import Path
from ..graphs.view import GraphView, as_graph_view
from ..languages import Language
from ..algorithms.algebraic import AlgebraicSolver
from ..algorithms.bounded import FiniteLanguageSolver
from ..algorithms.color_coding import ColorCodingSolver
from ..algorithms.exact import ExactSolver
from .nice_paths import TractableSolver
from .product import walk_check
from .psitr import decompose
from .trichotomy import Classification, classify


STRATEGY_FINITE = "finite-AC0"
STRATEGY_TRACTABLE = "trc-nice-path"
STRATEGY_EXACT = "exact-backtracking"

#: An exact answer: a witness path, a walk proof, or the exact search.
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

#: ``(rung, fraction)``: the share of the *remaining* budget/deadline
#: each middle rung gets at its entry; the exact search gets the rest.
BUDGET_SPLIT = (("color-coding", 0.5), ("algebraic", 0.4))

#: The rungs of a ``portfolio=True`` query, in escalation order.
LADDER = ("walk-probe", "color-coding", "algebraic", "exact")


@dataclass
class RspqResult:
    """Outcome of one RSPQ evaluation."""

    found: bool
    path: Optional[Path]
    strategy: str
    classification: Classification
    #: True when L ∈ trC but no Ψtr decomposition could be computed, so
    #: the query silently fell back to the exponential exact solver.
    decompose_failed: bool = False
    #: :data:`CONFIDENCE_CERTIFIED` or :data:`CONFIDENCE_PROBABILISTIC`.
    confidence: str = CONFIDENCE_CERTIFIED
    #: Error bound of a probabilistic negative; None when certified.
    failure_bound: Optional[float] = None

    @property
    def length(self) -> "int | None":
        return None if self.path is None else len(self.path)


def ladder_shares() -> "dict[str, float]":
    """Each rung's share of a unit budget under :data:`BUDGET_SPLIT`.

    The walk check charges the query's context directly (it is
    polynomial); each middle rung takes its fraction of what remains,
    and the exact search takes the rest.
    """
    remaining = 1.0
    shares = {"walk-probe": 0.0}
    for name, fraction in BUDGET_SPLIT:
        share = remaining * fraction
        shares[name] = round(share, 6)
        remaining -= share
    shares["exact"] = round(remaining, 6)
    return shares


class RspqSolver:
    """Evaluate regular simple path queries with the right algorithm.

    Construction does all the per-language work (classification,
    decomposition, sub-solver setup); after that the solver is
    immutable and re-entrant: every query's mutable state lives in the
    :class:`~repro.execution.ExecutionContext` threaded through
    :meth:`shortest_simple_path` / :meth:`solve` / :meth:`exists`, so
    one instance — e.g. inside a cached
    :class:`~repro.engine.plan.QueryPlan` — can serve concurrent
    queries.  A context-less call runs on a fresh context budgeted by
    ``exact_budget``.

    Every strategy's solver reads the graph view's label-constrained
    reachability index: it answers NOT_FOUND without searching when the
    target is not walk-reachable under L's usable labels, and its
    search drops product states that cannot reach the target.  Every
    simple L-labelled path is also an L-labelled walk, so the pruning
    never changes an answer.

    Parameters
    ----------
    language:
        :class:`~repro.languages.Language` or regex string.
    exact_budget:
        Step budget of a query that brings no context: it caps the
        query's one work count, as a context's ``budget`` does.  A
        query's own context carries its budget instead.
    seed / failure_probability:
        Root seed and one-sided error bound δ of each randomized
        middle rung.  Negatives confirmed by *both* rungs report the
        product bound δ² (the rungs draw independent streams).
    """

    def __init__(self, language: "str | Language",
                 exact_budget: "int | None" = None, seed: int = 0,
                 failure_probability: float = 1e-3) -> None:
        if isinstance(language, str):
            language = Language(language)
        if not 0.0 < failure_probability < 1.0:
            raise ValueError(
                "failure_probability must be in (0, 1), got %r"
                % (failure_probability,)
            )
        self.language = language
        self.classification = classify(language.dfa, with_witness=False)
        #: Symbols occurring in some word of L — the query's label mask
        #: for the reachability index (everything else is dead-state
        #: plumbing no L-labeled path can use).
        self.used_symbols = language.used_symbols
        self.exact_budget = exact_budget
        self.failure_probability = failure_probability
        self._finite_solver: "FiniteLanguageSolver | None" = None
        self._tractable_solver: "TractableSolver | None" = None
        self._exact_solver: "ExactSolver | None" = None
        self._color: "ColorCodingSolver | None" = None
        self._algebraic: "AlgebraicSolver | None" = None
        self.strategy = STRATEGY_EXACT
        self.decompose_failed = False
        #: The Ψtr decomposition a tractable plan searches (else None).
        self.expression = None
        if self.classification.finite:
            self._finite_solver = FiniteLanguageSolver(language)
            self.strategy = STRATEGY_FINITE
        elif self.classification.in_trc:
            try:
                expression = decompose(language)
            except ReproError:
                expression = None
            if expression is not None:
                self.expression = expression
                self._tractable_solver = TractableSolver(
                    language, expression=expression,
                )
                self.strategy = STRATEGY_TRACTABLE
            else:
                # L is tractable but we could not build the anchor
                # decomposition; warn rather than silently go exponential.
                self.decompose_failed = True
        if self.strategy == STRATEGY_EXACT:
            self._exact_solver = ExactSolver(language)
            self._color = ColorCodingSolver(
                language, seed=seed,
                failure_probability=failure_probability,
            )
            self._algebraic = AlgebraicSolver(
                language, seed=seed,
                failure_probability=failure_probability,
            )

    @property
    def has_ladder(self) -> bool:
        """True when ``portfolio=True`` queries run the middle rungs
        (exact-strategy plans only: the finite and tractable
        strategies are already polynomial)."""
        return self._color is not None

    def shortest_simple_path(self, graph: Any, source: Any, target: Any,
                             ctx: "ExecutionContext | None" = None,
                             ) -> "Path | None":
        """Shortest simple L-labeled path or ``None``.

        ``ctx`` (an :class:`~repro.execution.ExecutionContext`) carries
        the query's steps and budget/deadline accounting; every search
        charges its ``steps``.  Without one, the query runs on a fresh
        context budgeted by ``exact_budget`` (pass a context and read
        its ``steps`` to see the work).
        """
        return self.solve(graph, source, target, ctx=ctx).path

    def solve(self, graph: Any, source: Any, target: Any,
              ctx: "ExecutionContext | None" = None,
              max_path_edges: "int | None" = None,
              portfolio: bool = False) -> RspqResult:
        """Answer one query: walk check, middle rungs, search.

        ``max_path_edges`` turns the query into k-RSPQ ("a simple
        L-path with at most k edges"); ``None`` asks the classical
        unbounded question.  ``portfolio`` runs the middle rungs on an
        exact-strategy plan and labels the answer with its rung; other
        plans ignore it.  Raises
        :class:`~repro.errors.BudgetExceededError` /
        :class:`~repro.errors.DeadlineExceededError` when the
        allowance dies with no answer in hand.
        """
        if max_path_edges is not None and max_path_edges < 0:
            raise ValueError(
                "max_path_edges must be >= 0 or None, got %r"
                % (max_path_edges,)
            )
        if ctx is None:
            ctx = ExecutionContext(budget=self.exact_budget)
        ladder = portfolio and self.has_ladder
        if self._finite_solver is not None:
            path = self._finite_solver.shortest_simple_path(
                graph, source, target, ctx=ctx
            )
            return self._result(_within(path, max_path_edges))
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        # Any simple path the query admits has at most ``cap`` edges.
        cap = view.num_vertices - 1
        if max_path_edges is not None:
            cap = min(cap, max_path_edges)
        decided, path, walk_edges = walk_check(
            self.language.dfa, view, source_id, target_id, cap, ctx
        )
        if decided:
            return self._result(path, "walk-probe" if ladder else None)
        assert walk_edges is not None  # the walk exists but repeats a vertex
        if ladder:
            answer = self._middle_rungs(
                view, source_id, target_id, walk_edges, cap, ctx
            )
            if answer is not None:
                return answer
        if self._tractable_solver is not None:
            path = self._tractable_solver.shortest_simple_path(
                view, source, target, ctx=ctx
            )
        else:
            assert self._exact_solver is not None
            path = self._exact_solver.shortest_simple_path(
                view, source, target, ctx=ctx
            )
        return self._result(
            _within(path, max_path_edges), "exact" if ladder else None
        )

    def walk_strategy(self, portfolio: bool) -> str:
        """The strategy :meth:`solve` reports when its walk check
        decides a query: the ``walk-probe`` rung's in ``portfolio``
        mode on a plan with a ladder, else the plan's own.  The
        engine's group sweep labels its negatives with it too, since a
        sweep decides exactly what the walk check would."""
        return self._strategy(
            "walk-probe" if portfolio and self.has_ladder else None
        )

    def _strategy(self, rung: "str | None") -> str:
        return self.strategy if rung is None else "portfolio:%s" % rung

    def _result(self, path: "Path | None", rung: "str | None" = None,
                failure_bound: "float | None" = None) -> RspqResult:
        """The :class:`RspqResult` for ``path``; ``rung`` names the
        ladder rung of a ``portfolio=True`` answer, and a
        ``failure_bound`` makes it a probabilistic negative."""
        return RspqResult(
            found=path is not None,
            path=path,
            strategy=self._strategy(rung),
            classification=self.classification,
            decompose_failed=self.decompose_failed,
            confidence=(
                CONFIDENCE_CERTIFIED if failure_bound is None
                else CONFIDENCE_PROBABILISTIC
            ),
            failure_bound=failure_bound,
        )

    # -- the middle rungs ----------------------------------------------------------

    def _middle_rungs(self, view: GraphView, source_id: int,
                      target_id: int, walk_edges: int, cap: int,
                      ctx: ExecutionContext) -> "RspqResult | None":
        """Color coding, then algebraic detection, each on its slice.

        Returns a certified FOUND from a color-coding witness, a
        probabilistic NOT_FOUND, or None when the exact search must
        decide (no conclusion, or the algebraic rung proved a path
        exists and the search extracts it).
        """
        bound: "float | None" = None
        rung = "color-coding"
        witness = self._color_rung(
            view, source_id, target_id, walk_edges, cap, ctx
        )
        if isinstance(witness, Path):
            return self._result(witness, rung)
        if witness:
            bound = self.failure_probability
        detected = self._algebraic_rung(view, source_id, target_id, cap, ctx)
        if detected is True:
            # A certified existence proof refutes the color rung's
            # probabilistic negative: the exact search extracts the path.
            return None
        if detected is False:
            rung = "algebraic"
            # Independent streams: both rungs missing a real path
            # multiplies the one-sided error bounds.
            bound = self.failure_probability * (
                1.0 if bound is None else bound
            )
        if bound is None:
            return None
        return self._result(None, rung, failure_bound=bound)

    @staticmethod
    def _slice(ctx: ExecutionContext, rung: str) -> ExecutionContext:
        """A child context carrying ``rung``'s share of what remains."""
        fraction = dict(BUDGET_SPLIT)[rung]
        remaining_budget = ctx.remaining_budget()
        remaining_seconds = ctx.remaining_seconds()
        return ctx.child(
            budget=(
                None if remaining_budget is None
                else max(1, int(remaining_budget * fraction))
            ),
            seconds=(
                None if remaining_seconds is None
                else remaining_seconds * fraction
            ),
        )

    def _color_rung(self, view: GraphView, source_id: int, target_id: int,
                    walk_edges: int, cap: int,
                    ctx: ExecutionContext) -> "Path | bool":
        """Iterative-deepening color coding on a budget slice.

        Returns a witness :class:`Path`, True when no witness turned up
        and the final round covered ``cap`` (a probabilistic negative
        for the whole query), or False (no conclusion).
        """
        assert self._color is not None
        k_hi = min(cap, COLOR_CODING_MAX_EDGES)
        if walk_edges > k_hi:
            return False
        try:
            child = self._slice(ctx, "color-coding")
        except (BudgetExceededError, DeadlineExceededError):
            return False
        source = view.vertex_at(source_id)
        target = view.vertex_at(target_id)
        # Deepening schedule: doubling from the walk's length, so a
        # short witness is found on cheap trial counts and only a true
        # negative pays for the full-depth round.
        depths = []
        k = max(1, walk_edges)
        while k < k_hi:
            depths.append(k)
            k *= 2
        depths.append(k_hi)
        try:
            for k in depths:
                path = self._color.bounded_simple_path(
                    view, source, target, k, ctx=child
                )
                if path is not None:
                    return path
        except (BudgetExceededError, DeadlineExceededError):
            return False
        finally:
            ctx.absorb(child)
        return k_hi == cap

    def _algebraic_rung(self, view: GraphView, source_id: int,
                        target_id: int, cap: int,
                        ctx: ExecutionContext) -> "bool | None":
        """Multilinear detection on a budget slice.

        Returns True (certified: a path exists), False (an independent
        probabilistic negative), or None (no conclusion).
        """
        assert self._algebraic is not None
        if cap > ALGEBRAIC_MAX_EDGES:
            return None
        try:
            child = self._slice(ctx, "algebraic")
        except (BudgetExceededError, DeadlineExceededError):
            return None
        try:
            return self._algebraic.exists(
                view, view.vertex_at(source_id), view.vertex_at(target_id),
                cap, ctx=child,
            )
        except (BudgetExceededError, DeadlineExceededError):
            return None
        finally:
            ctx.absorb(child)

    def exists(self, graph: Any, source: Any, target: Any,
               ctx: "ExecutionContext | None" = None) -> bool:
        """Decision variant of RSPQ(L)."""
        if ctx is None:
            ctx = ExecutionContext(budget=self.exact_budget)
        if self._exact_solver is not None:
            view = as_graph_view(graph)
            decided, path, _edges = walk_check(
                self.language.dfa, view, view.vertex_id(source),
                view.vertex_id(target), view.num_vertices - 1, ctx,
            )
            if decided:
                return path is not None
            return self._exact_solver.exists(view, source, target, ctx=ctx)
        return (
            self.shortest_simple_path(graph, source, target, ctx=ctx)
            is not None
        )


def _within(path: "Path | None", max_path_edges: "int | None") -> "Path | None":
    """``path`` unless it overshoots the bound.  A solver's path is a
    shortest one, so no bounded path exists when it does: a certified
    negative."""
    if path is not None and max_path_edges is not None and (
        len(path) > max_path_edges
    ):
        return None
    return path


def solve_rspq(language: "str | Language", graph: Any, source: Any,
               target: Any, exact_budget: "int | None" = None,
               ctx: "ExecutionContext | None" = None) -> RspqResult:
    """One-shot helper: build a solver and answer a single query."""
    solver = RspqSolver(language, exact_budget=exact_budget)
    return solver.solve(graph, source, target, ctx=ctx)
