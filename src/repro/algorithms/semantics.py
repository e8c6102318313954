"""Path semantics for regular path queries: walk, trail, simple.

The introduction motivates RSPQs by contrasting three evaluation
semantics for the same regular expression (and SPARQL 1.1's draft
hybrid sits between them):

* **walk** (arbitrary path): vertices and edges may repeat — the
  classical tractable RPQ semantics, answered by
  :class:`~repro.algorithms.rpq.RpqSolver` on the shared walk layer
  (:mod:`repro.core.product`);
* **trail**: edges must be distinct (SPARQL's "simple path" drafts and
  several engines use this);
* **simple**: vertices must be distinct — the paper's subject.

This module evaluates and counts matches under each semantics so the
semantics-comparison experiment (E13) can show where they disagree.
Trail and simple evaluation are exponential backtracking in general
(both are NP-hard); counting walks is a polynomial DP per length.
"""

from __future__ import annotations

from ..core.product import transition_rows
from ..execution import ExecutionContext
from ..graphs.view import as_graph_view
from ..languages import Language
from .rpq import RpqSolver

WALK = "walk"
TRAIL = "trail"
SIMPLE = "simple"

SEMANTICS = (WALK, TRAIL, SIMPLE)


class SemanticsEvaluator:
    """Evaluate one regular path query under all three semantics.

    The trail and simple searches charge the
    :class:`~repro.execution.ExecutionContext` they are given; without
    one they run on a throwaway context budgeted by ``budget``.
    """

    def __init__(self, language, budget=None):
        if isinstance(language, str):
            language = Language(language)
        self.language = language
        self.dfa = language.dfa
        self.budget = budget

    # -- existence -------------------------------------------------------------

    def exists(self, graph, source, target, semantics, ctx=None):
        """Is there a matching path under the given semantics?"""
        if ctx is not None:
            ctx.check_deadline()
        if semantics == WALK:
            return RpqSolver(self.language).exists(graph, source, target)
        if semantics == TRAIL:
            if ctx is None:
                ctx = ExecutionContext(budget=self.budget)
            trails = self._trails(graph, source, target, ctx)
            return next(trails, None) is not None
        if semantics == SIMPLE:
            from .exact import ExactSolver

            return ExactSolver(self.language, budget=self.budget).exists(
                graph, source, target, ctx=ctx
            )
        raise ValueError("unknown semantics %r" % (semantics,))

    def evaluate_all(self, graph, source, target, ctx=None):
        """Mapping semantics -> bool for one query."""
        return {
            semantics: self.exists(graph, source, target, semantics, ctx=ctx)
            for semantics in SEMANTICS
        }

    def _trails(self, graph, source, target, ctx, max_length=None):
        """Yield the length of each L-labeled trail (edges distinct) from
        source to target, depth-first in repr order, charging ``ctx`` a
        step per extension."""
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        return self._trail_lengths(view, source_id, target_id, ctx,
                                   max_length)

    # invariant: hot-loop
    def _trail_lengths(self, view, source_id, target_id, ctx, max_length):
        rows = transition_rows(self.dfa, view)
        accepting = self.dfa.accepting
        out = view.out
        used_edges = set()
        ctx.charge_step()
        if source_id == target_id and self.dfa.initial in accepting:
            yield 0
        if max_length is not None and max_length <= 0:
            return
        # One frame per trail vertex: (vertex id, state, successors,
        # the edge that entered it).
        stack = [(source_id, self.dfa.initial, iter(out(source_id)), None)]
        while stack:
            vertex_id, state, successors, _ = stack[-1]
            for label_id, nxt in successors:
                row = rows[label_id]
                if row is None:
                    continue
                edge = (vertex_id, label_id, nxt)
                if edge in used_edges:
                    continue
                used_edges.add(edge)
                ctx.charge_step()
                next_state = row[state]
                length = len(stack)
                if nxt == target_id and next_state in accepting:
                    yield length
                if max_length is not None and length >= max_length:
                    used_edges.discard(edge)
                    continue
                stack.append((nxt, next_state, iter(out(nxt)), edge))
                break
            else:
                used_edges.discard(stack.pop()[3])

    # -- counting ----------------------------------------------------------------

    # invariant: hot-loop
    def count_walks(self, graph, source, target, max_length):
        """Number of L-labeled walks of length ≤ max_length (poly DP).

        This is the quantity whose explosion the "counting beyond a
        yottabyte" discussion [3] warns about.
        """
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        rows = transition_rows(self.dfa, view)
        accepting = self.dfa.accepting
        out = view.out
        counts = {(source_id, self.dfa.initial): 1}
        total = 0
        if source_id == target_id and self.dfa.initial in accepting:
            total += 1
        for _ in range(max_length):
            next_counts = {}
            for (vertex_id, state), count in counts.items():
                for label_id, nxt in out(vertex_id):
                    row = rows[label_id]
                    if row is None:
                        continue
                    key = (nxt, row[state])
                    next_counts[key] = next_counts.get(key, 0) + count
            counts = next_counts
            for (vertex_id, state), count in counts.items():
                if vertex_id == target_id and state in accepting:
                    total += count
        return total

    def count_trails(self, graph, source, target, max_length=None):
        """Number of L-labeled trails (edge-distinct); exponential."""
        ctx = ExecutionContext(budget=self.budget)
        trails = self._trails(graph, source, target, ctx, max_length)
        return sum(1 for _ in trails)

    def count_simple(self, graph, source, target, max_length=None):
        """Number of simple L-labeled paths; exponential."""
        from .exact import ExactSolver

        return ExactSolver(self.language, budget=self.budget).count_simple_paths(
            graph, source, target, max_length=max_length
        )
