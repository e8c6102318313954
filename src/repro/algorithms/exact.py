"""Exact RSPQ for arbitrary regular languages (worst-case exponential).

This is the baseline the trichotomy says cannot be avoided for
``L ∉ trC`` (unless NL = NP): a depth-first search over the product
graph ``G × A_L`` that tracks the set of visited vertices to enforce
simplicity.  Two prunings keep it practical on tractable-ish inputs
while leaving the exponential worst case intact:

* *liveness*: a partial path whose product node cannot reach an
  accepting target node even by a non-simple walk is abandoned;
* *admissible bounding* (for shortest-path search): walk distance to the
  goal in the product graph lower-bounds the remaining simple-path
  length.

The search is integer-native over a
:class:`~repro.graphs.view.GraphView`: product nodes pack to
``vertex_id * |Q| + state``, the visited set is a flat bytearray, DFA
transitions become per-label list rows, and the goal distances come
from the backward walk BFS of :func:`repro.core.product.walk_distances`
over the view's reverse adjacency.  Paths are materialised back to
vertex names only at result construction.

The solver doubles as the ground-truth oracle for the polynomial trC
solver in the test suite.
"""

from __future__ import annotations

from ..core.product import (
    reverse_transition_index,
    transition_rows,
    walk_distances,
)
from ..execution import ExecutionContext
from ..graphs.dbgraph import Path
from ..graphs.view import as_graph_view
from ..languages import Language


class ExactSolver:
    """Backtracking RSPQ solver, correct for every regular language.

    The solver is immutable once constructed; per-query counters and
    budget accounting live in the
    :class:`~repro.execution.ExecutionContext` given to each query, so
    one instance can serve concurrent queries.  A query without an
    explicit context runs on a throwaway one budgeted by
    ``self.budget``.

    Parameters
    ----------
    language:
        :class:`~repro.languages.Language` or regex string.
    budget:
        Default cap on search steps for context-less queries; exceeding
        it raises :class:`~repro.errors.BudgetExceededError` (the worst
        case is exponential, so callers may want a guard).  An explicit
        context's own ``budget`` — possibly None — takes precedence.

    Every query reads the view's label-constrained reachability index:
    a target that is provably walk-unreachable from the source under
    L's usable labels returns ``None`` before the backward BFS runs,
    and the goal-distance table is restricted to components the source
    can actually reach (sound — see :mod:`repro.graphs.reach`).
    """

    def __init__(self, language, budget=None):
        if isinstance(language, str):
            language = Language(language)
        self.language = language
        self.dfa = language.dfa
        self.budget = budget
        #: Symbols occurring in some word of L (the query label mask).
        self.used_symbols = language.used_symbols
        # Built once per solver: every query's backward goal-distance
        # BFS reads it (see repro.core.product.walk_distances).
        self._reverse_transitions = reverse_transition_index(self.dfa)

    # -- public API ------------------------------------------------------------

    def shortest_simple_path(self, graph, source, target, weight_fn=None,
                             ctx=None):
        """A shortest simple L-labeled path from source to target, or None.

        ``weight_fn(u, label, v) -> R+`` switches to minimum total
        weight (weights must be strictly positive).
        """
        return self._solve(
            graph, source, target, find_shortest=True, weight_fn=weight_fn,
            ctx=ctx,
        )

    def any_simple_path(self, graph, source, target, ctx=None):
        """Some simple L-labeled path (first found), or None."""
        return self._solve(
            graph, source, target, find_shortest=False, ctx=ctx
        )

    def exists(self, graph, source, target, ctx=None):
        """Decision variant of RSPQ(L)."""
        return self.any_simple_path(graph, source, target, ctx=ctx) is not None

    # invariant: hot-loop
    def _solve(self, graph, source, target, find_shortest, weight_fn=None,
               ctx=None):
        if ctx is None:
            ctx = ExecutionContext(budget=self.budget)
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        if source_id == target_id:
            if self.dfa.initial in self.dfa.accepting:
                return Path.single(view.vertex_at(source_id))
            return None
        index = view.reachability()
        mask = view.label_mask(self.used_symbols)
        if not index.can_reach(source_id, target_id, mask):
            # Provably unreachable even with regular-path semantics —
            # the simple-path answer is NOT_FOUND, no search runs.
            return None
        goal_distance = walk_distances(
            self.dfa, view, target_id, self._reverse_transitions,
            index.comps_from(source_id, mask), index.comp_of,
        )
        rows = transition_rows(self.dfa, view)
        num_states = self.dfa.num_states
        accepting = self.dfa.accepting
        start = source_id * num_states + self.dfa.initial
        if start not in goal_distance:
            return None
        out_indptr = view.out_indptr
        out_labels = view.out_labels
        out_targets = view.out_targets
        vertex_at = view.vertex_at
        label_at = view.label_at
        weighted = weight_fn is not None
        best = None
        best_metric = None
        # The partial path: its vertices and labels, its weight, and a
        # stack frame per vertex holding (state, iterator over the
        # vertex's out-edge CSR slots, weight of the edge that entered
        # it).
        vertices = [source_id]
        labels = []
        weight_so_far = 0.0
        visited = bytearray(view.num_vertices)
        visited[source_id] = 1
        ctx.charge_step()
        stack = [(
            self.dfa.initial,
            iter(range(out_indptr[source_id], out_indptr[source_id + 1])),
            0,
        )]
        while stack:
            state, slots, _ = stack[-1]
            # Metric of the partial path: its weight, or its edge count.
            metric = weight_so_far if weighted else len(labels)
            for slot in slots:
                label_id = out_labels[slot]
                nxt = out_targets[slot]
                row = rows[label_id]
                if row is None or visited[nxt]:
                    continue
                next_state = row[state]
                node = nxt * num_states + next_state
                distance = goal_distance.get(node)
                if distance is None:
                    continue
                if weighted:
                    step = weight_fn(
                        vertex_at(vertices[-1]), label_at(label_id),
                        vertex_at(nxt),
                    )
                    if step <= 0:
                        raise ValueError(
                            "edge weights must be strictly positive"
                        )
                    # Admissible bound on the remaining cost: zero
                    # (the walk distance counts edges, not weight).
                    distance = 0
                else:
                    step = 1
                if best is not None and (
                    metric + step + distance >= best_metric
                ):
                    continue
                vertices.append(nxt)
                labels.append(label_id)
                weight_so_far += step
                visited[nxt] = 1
                ctx.charge_step()
                if nxt == target_id and next_state in accepting:
                    best = (tuple(vertices), tuple(labels))
                    best_metric = weight_so_far if weighted else len(labels)
                    if not find_shortest:
                        stack.clear()
                        break
                    # A complete path is never extended: it could not
                    # return to the target without revisiting it.  A
                    # lighter (weighted) or shorter one may still come
                    # from a sibling.
                    visited[nxt] = 0
                    weight_so_far -= step
                    vertices.pop()
                    labels.pop()
                    continue
                stack.append((
                    next_state,
                    iter(range(out_indptr[nxt], out_indptr[nxt + 1])),
                    step,
                ))
                break
            else:
                _, _, step = stack.pop()
                if stack:
                    visited[vertices.pop()] = 0
                    labels.pop()
                    weight_so_far -= step
        if best is None:
            return None
        return view.path(*best)

    # invariant: hot-loop
    def count_simple_paths(self, graph, source, target, max_length=None,
                           ctx=None):
        """Number of distinct simple L-labeled paths (exponential walk).

        Used by the semantics-comparison experiment; ``max_length``
        bounds the search depth when given.
        """
        if ctx is None:
            ctx = ExecutionContext(budget=self.budget)
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        if source_id == target_id:
            # Only the empty path is simple from x to x.
            return 1 if self.dfa.initial in self.dfa.accepting else 0
        rows = transition_rows(self.dfa, view)
        accepting = self.dfa.accepting
        out_indptr = view.out_indptr
        out_labels = view.out_labels
        out_targets = view.out_targets
        count = 0
        visited = bytearray(view.num_vertices)
        visited[source_id] = 1
        ctx.charge_step()
        # One frame per path vertex: (vertex id, state, iterator over
        # its out-edge CSR slots).
        stack = [(
            source_id,
            self.dfa.initial,
            iter(range(out_indptr[source_id], out_indptr[source_id + 1])),
        )]
        while stack:
            _, state, slots = stack[-1]
            if max_length is not None and len(stack) > max_length:
                # The path already has max_length edges: no extension.
                slots = ()
            for slot in slots:
                nxt = out_targets[slot]
                row = rows[out_labels[slot]]
                if row is None or visited[nxt]:
                    continue
                visited[nxt] = 1
                ctx.charge_step()
                next_state = row[state]
                if nxt == target_id and next_state in accepting:
                    count += 1
                stack.append((
                    nxt,
                    next_state,
                    iter(range(out_indptr[nxt], out_indptr[nxt + 1])),
                ))
                break
            else:
                vertex_id, _, _ = stack.pop()
                visited[vertex_id] = 0
        return count
