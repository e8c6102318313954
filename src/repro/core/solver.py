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
stops it early when no walk exists).  It is sound because every simple
path is a walk: no L-labelled walk means no simple one, and a shortest
walk that happens to be simple is a shortest simple path.  If the walk
repeats a vertex, the query goes on to the strategy's solver.  The
paper's Figure 4 is why this is a check and not a solver: there an
L-walk exists but no simple L-path does, and deciding that in general
is the trichotomy's job.  Finite languages keep the word search the
trichotomy assigns them, without the check.  The check's expanded
nodes are charged to the query's ``steps``, so a step budget covers
them too.

Results report which strategy ran, so experiments can verify the
dispatch matches the trichotomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError
from ..graphs.dbgraph import Path
from ..graphs.view import as_graph_view
from ..languages import Language
from ..algorithms.bounded import FiniteLanguageSolver
from ..algorithms.exact import ExactSolver
from .nice_paths import TractableSolver
from .product import walk_check
from .psitr import decompose
from .trichotomy import Classification, classify


STRATEGY_FINITE = "finite-AC0"
STRATEGY_TRACTABLE = "trc-nice-path"
STRATEGY_EXACT = "exact-backtracking"


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

    @property
    def length(self):
        return None if self.path is None else len(self.path)


class RspqSolver:
    """Evaluate regular simple path queries with the right algorithm.

    Construction does all the per-language work (classification,
    decomposition, sub-solver setup); after that the solver is
    immutable and re-entrant: every query's mutable state lives in the
    :class:`~repro.execution.ExecutionContext` threaded through
    :meth:`shortest_simple_path` / :meth:`solve` / :meth:`exists`, so
    one instance — e.g. inside a cached
    :class:`~repro.engine.plan.QueryPlan` — can serve concurrent
    queries.  A context-less call runs on a throwaway context.

    Parameters
    ----------
    language:
        :class:`~repro.languages.Language` or regex string.
    exact_budget:
        Step budget handed to the exponential solver when it is used.
    force_exact:
        Skip the tractable machinery (useful for baselines in benches);
        the walk check still runs first.
    use_reach_pruning:
        Consult the graph view's label-constrained reachability index
        (short-circuiting provably unreachable queries and dropping
        dead product states).  On by default; the differential suite
        pins pruned ≡ unpruned results, path for path.
    """

    def __init__(self, language, exact_budget=None, force_exact=False,
                 use_reach_pruning=True):
        if isinstance(language, str):
            language = Language(language)
        self.language = language
        self.classification = classify(language.dfa, with_witness=False)
        #: Symbols occurring in some word of L — the query's label mask
        #: for the reachability index (everything else is dead-state
        #: plumbing no L-labeled path can use).
        self.used_symbols = language.used_symbols
        self.exact_budget = exact_budget
        self.use_reach_pruning = use_reach_pruning
        self._finite_solver = None
        self._tractable_solver = None
        self._exact_solver = None
        self.strategy = STRATEGY_EXACT
        self.decompose_failed = False
        #: The Ψtr decomposition a tractable plan searches (else None).
        self.expression = None
        if force_exact:
            pass
        elif self.classification.finite:
            self._finite_solver = FiniteLanguageSolver(
                language, use_reach_pruning=use_reach_pruning
            )
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
                    use_reach_pruning=use_reach_pruning,
                )
                self.strategy = STRATEGY_TRACTABLE
            else:
                # L is tractable but we could not build the anchor
                # decomposition; warn rather than silently go exponential.
                self.decompose_failed = True
        if self.strategy == STRATEGY_EXACT:
            self._exact_solver = ExactSolver(
                language, budget=exact_budget,
                use_reach_pruning=use_reach_pruning,
            )

    def shortest_simple_path(self, graph, source, target, ctx=None):
        """Shortest simple L-labeled path or ``None``.

        ``ctx`` (an :class:`~repro.execution.ExecutionContext`) carries
        the per-query counters and budget/deadline accounting; without
        one, the walk check runs uncharged and the dispatched solver on
        a throwaway context (read :meth:`steps_in` off a context you
        pass to see the work).
        """
        if self._finite_solver is not None:
            return self._finite_solver.shortest_simple_path(
                graph, source, target, ctx=ctx
            )
        decided, path = self._walk_check(graph, source, target, ctx)
        if decided:
            return path
        if self._tractable_solver is not None:
            return self._tractable_solver.shortest_simple_path(
                graph, source, target, ctx=ctx
            )
        return self._exact_solver.shortest_simple_path(
            graph, source, target, ctx=ctx
        )

    def _walk_check(self, graph, source, target, ctx):
        """``(decided, answer)`` from :func:`~repro.core.product.walk_check`:
        when not decided, the strategy's solver must run."""
        view = as_graph_view(graph)
        decided, path, _edges = walk_check(
            self.language.dfa, view, view.vertex_id(source),
            view.vertex_id(target), ctx=ctx,
        )
        return decided, path

    def solve(self, graph, source, target, ctx=None):
        """Full result object with path and strategy information."""
        path = self.shortest_simple_path(graph, source, target, ctx=ctx)
        return RspqResult(
            found=path is not None,
            path=path,
            strategy=self.strategy,
            classification=self.classification,
            decompose_failed=self.decompose_failed,
        )

    def steps_in(self, ctx):
        """The work recorded on ``ctx``: the walk check's expanded
        nodes plus the strategy's own counter.

        Exact: walk nodes and DFS expansions, both on ``steps``;
        tractable: walk nodes (``steps``) plus anchored-DFS steps;
        finite: words tried (no walk check runs).
        """
        if self._finite_solver is not None:
            return ctx.words_tried
        if self._tractable_solver is not None:
            return ctx.steps + ctx.dfs_steps
        return ctx.steps

    def exists(self, graph, source, target, ctx=None):
        """Decision variant of RSPQ(L)."""
        if self._exact_solver is not None:
            decided, path = self._walk_check(graph, source, target, ctx)
            if decided:
                return path is not None
            return self._exact_solver.exists(graph, source, target, ctx=ctx)
        return (
            self.shortest_simple_path(graph, source, target, ctx=ctx)
            is not None
        )


def solve_rspq(language, graph, source, target, exact_budget=None, ctx=None):
    """One-shot helper: build a solver and answer a single query."""
    solver = RspqSolver(language, exact_budget=exact_budget)
    return solver.solve(graph, source, target, ctx=ctx)
