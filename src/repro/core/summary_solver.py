"""Literal implementation of the paper's summary algorithm (Lemmas 15-16).

This is the *faithful* rendition of the NL procedure: enumerate
candidate summaries w.r.t. the components of the minimal DFA
(Definition 3) and complete each into a nice path under the
Definition-4 ``acc(i)`` discipline.  Its enumeration cost is
``n^{O(M·N)}`` in the worst case — the paper's algorithm is a
*complexity-theoretic* device, not an engineered one — so this solver
is intended for small graphs, cross-validation, and didactics; the
production solver is :class:`repro.core.nice_paths.TractableSolver`.

How the enumeration works
-------------------------

A candidate summary is grown edge by edge over the product
(vertex, DFA state), inside its live set: the product nodes from which
an L-labelled walk still reaches the target (the keys of
:func:`repro.core.product.walk_distances`).  Inside a strongly
connected *looping* component C the stay is either

* **short**: at most ``N + 1`` vertices annotated in C, all pinned; or
* **compressed**: the first C-vertex is pinned, a ``Σ*_C`` gap marker
  follows (Definition 3's replacement), and then exactly ``N`` more
  edges with labels in ``Σ_C`` are pinned (the N last component
  vertices), after which the run must leave C.

After a gap the DFA state is unknown within C, so the search tracks the
*set* of possible states; for ``N ≥ M²`` Lemma 10 collapses it to a
singleton before the component is left (for smaller, paper-style
illustrative bounds the search branches over the survivors).  Each
complete candidate is filled gap-by-gap with shortest ``Σ*_C``-paths
avoiding all pinned vertices and earlier ``acc(i)`` balls — shared with
the production solver — and checked simple and L-labeled, so the
algorithm is sound for every ``N``; with the paper's ``N = 2M²`` it is
also complete (Lemma 14) and returns a shortest simple L-labeled path.
"""

from __future__ import annotations

from ..errors import NotInTrCError
from ..execution import ExecutionContext
from ..graphs.dbgraph import Path
from ..graphs.view import as_graph_view
from ..languages import Language
from ..languages.analysis import (
    internal_alphabet,
    looping_states,
    strongly_connected_components,
)
from .nice_paths import _complete_candidate, _Gap, _Run
from .product import reverse_transition_index, walk_distances
from .summary import default_bound
from .trc import is_in_trc


class SummarySolver:
    """The paper's candidate-summary algorithm, executable.

    Parameters
    ----------
    language:
        A :class:`~repro.languages.Language` (or regex string) in trC.
    bound:
        The summary bound ``N`` (default: the paper's ``2M²``).
        Smaller values shrink the search as in the paper's worked
        examples; soundness is unconditional, completeness is
        guaranteed for ``N = 2M²``.
    require_trc:
        Refuse non-trC languages (default).  Disabling this turns the
        solver into a heuristic: still sound, not complete.
    """

    def __init__(self, language, bound=None, require_trc=True):
        if isinstance(language, str):
            language = Language(language)
        self.language = language
        self.dfa = language.dfa
        if require_trc and not is_in_trc(self.dfa):
            raise NotInTrCError(
                "SummarySolver requires L ∈ trC (Theorem 1)"
            )
        self.bound = default_bound(self.dfa) if bound is None else bound
        if self.bound < 1:
            raise ValueError("summary bound must be >= 1")
        components = strongly_connected_components(self.dfa)
        self._component_of = {}
        for index, component in enumerate(components):
            for state in component:
                self._component_of[state] = index
        self._components = components
        loops = looping_states(self.dfa)
        self._looping_components = {
            index
            for index, component in enumerate(components)
            if component & loops
        }
        self._sigma = {
            index: internal_alphabet(self.dfa, component)
            for index, component in enumerate(components)
        }
        self._reverse_transitions = reverse_transition_index(self.dfa)

    def _live_pairs(self, view, target):
        """``(vertex, state)`` pairs from which an L-labelled walk reaches
        ``target``: a candidate leaving them is hopeless even without
        the simplicity constraint."""
        num_states = self.dfa.num_states
        distances = walk_distances(
            self.dfa, view, view.vertex_id(target), self._reverse_transitions
        )
        return {
            (view.vertex_at(node // num_states), node % num_states)
            for node in distances
        }

    # -- public API -------------------------------------------------------------

    def shortest_simple_path(self, graph, source, target, ctx=None):
        """Shortest simple L-labeled path (complete for ``N = 2M²``).

        The search charges ``ctx`` (a throwaway context when None) one
        step per DFS step, and its gap searches poll the context's
        deadline.
        """
        graph.require_vertex(source)
        graph.require_vertex(target)
        if ctx is None:
            ctx = ExecutionContext()
        ctx.check_deadline()
        if source == target:
            if self.dfa.initial in self.dfa.accepting:
                return Path.single(source)
            return None
        search = _SummarySearch(self, graph, source, target, ctx)
        best = search.run()
        if best is not None:
            assert best.is_simple()
            assert self.language.accepts(best.word)
        return best

    def exists(self, graph, source, target, ctx=None):
        return (
            self.shortest_simple_path(graph, source, target, ctx=ctx)
            is not None
        )


class _SummarySearch:
    """One query's candidate-summary enumeration."""

    def __init__(self, solver, graph, source, target, ctx):
        self.solver = solver
        self.graph = graph
        self.source = source
        self.target = target
        self.ctx = ctx
        self.dfa = solver.dfa
        self.bound = solver.bound
        # The completion step and the live set are shared with the
        # production layers, which run integer-native over a
        # GraphView; this didactic enumeration stays on names and
        # translates at those boundaries (negligible next to the
        # n^{O(M·N)} enumeration itself).
        self.view = as_graph_view(graph)
        self.live = solver._live_pairs(self.view, target)
        self.best = None

    def run(self):
        start_state = self.dfa.initial
        if (self.source, start_state) not in self.live:
            return None
        pieces = [_Run([self.source], [])]
        component = self.solver._component_of[start_state]
        self._pinned_mode(
            state=start_state,
            pieces=pieces,
            pinned={self.source},
            component=component,
            stay=1,
            gapped_components=frozenset(),
        )
        return self.best

    # -- helpers ------------------------------------------------------------------

    def _id_pieces(self, pieces):
        """Name-level candidate pieces translated to view ids/masks."""
        view = self.view
        translated = []
        for piece in pieces:
            if isinstance(piece, _Run):
                translated.append(_Run(
                    [view.vertex_id(vertex) for vertex in piece.vertices],
                    [view.label_id(label) for label in piece.labels],
                ))
            else:
                translated.append(_Gap(view.label_mask(piece.mask)))
        return translated

    def _try_complete(self, pieces):
        id_path = _complete_candidate(
            self.view, self._id_pieces(pieces), self.ctx
        )
        if id_path is None:
            return
        path = self.view.path(*id_path)
        if not self.language_accepts(path):
            return
        if self.best is None or len(path) < len(self.best):
            self.best = path

    def language_accepts(self, path):
        return self.solver.language.accepts(path.word)

    def _too_long(self, pieces):
        if self.best is None:
            return False
        total = 0
        for piece in pieces:
            total += len(piece.labels) if isinstance(piece, _Run) else 1
        return total >= len(self.best)

    # -- pinned (singleton-state) mode ------------------------------------------------

    def _pinned_mode(self, state, pieces, pinned, component, stay,
                     gapped_components):
        self.ctx.charge_step()
        if self._too_long(pieces):
            return
        current = pieces[-1].vertices[-1]
        if (current, state) not in self.live:
            return
        if current == self.target:
            # A simple path must end here: extensions can never return.
            if state in self.dfa.accepting:
                self._try_complete(pieces)
            return
        solver = self.solver
        # Option 1: extend with a pinned edge.
        for label, nxt in sorted(self.graph.out_edges(current), key=repr):
            if label not in self.dfa.alphabet or nxt in pinned:
                continue
            next_state = self.dfa.transition(state, label)
            next_component = solver._component_of[next_state]
            if next_component == component:
                next_stay = stay + 1
                if next_stay > self.bound + 1:
                    continue  # long stays must be compressed instead
                if next_component in gapped_components:
                    # Components are left for good after their gap.
                    continue
            else:
                next_stay = 1
            run = pieces[-1]
            run.vertices.append(nxt)
            run.labels.append(label)
            pinned.add(nxt)
            self._pinned_mode(
                next_state, pieces, pinned, next_component, next_stay,
                gapped_components,
            )
            pinned.discard(nxt)
            run.vertices.pop()
            run.labels.pop()
        # Option 2: compress the current component (insert a gap).
        if (
            component in solver._looping_components
            and component not in gapped_components
            and stay == 1
        ):
            self._insert_gap(
                state, pieces, pinned, component, gapped_components
            )

    # -- gap insertion and the N pinned tail edges ---------------------------------------

    def _insert_gap(self, state, pieces, pinned, component,
                    gapped_components):
        symbols = self.solver._sigma[component]
        if not symbols:
            return
        current = pieces[-1].vertices[-1]
        candidates = self.graph.reachable_within(
            current, allowed_labels=symbols
        ) - {current}
        component_states = self.solver._components[component]
        for exit_vertex in sorted(candidates, key=repr):
            if exit_vertex in pinned:
                continue
            if not any(
                (exit_vertex, q) in self.live for q in component_states
            ):
                continue
            gap = _Gap(symbols)
            run = _Run([exit_vertex], [])
            pieces.append(gap)
            pieces.append(run)
            pinned.add(exit_vertex)
            self._tail_mode(
                frozenset(component_states),
                pieces,
                pinned,
                component,
                self.bound,
                gapped_components | {component},
            )
            pinned.discard(exit_vertex)
            pieces.pop()
            pieces.pop()

    def _tail_mode(self, state_set, pieces, pinned, component, remaining,
                   gapped_components):
        """Pin the N post-gap edges inside Σ_C, tracking a state set."""
        self.ctx.charge_step()
        if self._too_long(pieces):
            return
        current = pieces[-1].vertices[-1]
        symbols = self.solver._sigma[component]
        if remaining == 0:
            # The component must now be left (or the path may end).
            for state in sorted(state_set):
                self._leave_component(
                    state, pieces, pinned, component, gapped_components
                )
            return
        if current == self.target:
            return  # the tail still needs edges; a dead candidate
        for label in sorted(symbols):
            for nxt in sorted(
                self.graph.successors(current, label), key=repr
            ):
                if nxt in pinned:
                    continue
                next_set = frozenset(
                    self.dfa.transition(q, label) for q in state_set
                )
                if not any((nxt, q) in self.live for q in next_set):
                    continue
                run = pieces[-1]
                run.vertices.append(nxt)
                run.labels.append(label)
                pinned.add(nxt)
                self._tail_mode(
                    next_set, pieces, pinned, component, remaining - 1,
                    gapped_components,
                )
                pinned.discard(nxt)
                run.vertices.pop()
                run.labels.pop()

    def _leave_component(self, state, pieces, pinned, component,
                         gapped_components):
        """Resume singleton mode right after a compressed component."""
        current = pieces[-1].vertices[-1]
        if (current, state) not in self.live:
            return
        if current == self.target:
            if state in self.dfa.accepting:
                self._try_complete(pieces)
            return
        symbols = self.solver._sigma[component]
        for label, nxt in sorted(self.graph.out_edges(current), key=repr):
            if label not in self.dfa.alphabet or label in symbols:
                continue  # the next edge must exit the component
            if nxt in pinned:
                continue
            next_state = self.dfa.transition(state, label)
            next_component = self.solver._component_of[next_state]
            if next_component == component:
                continue
            run = pieces[-1]
            run.vertices.append(nxt)
            run.labels.append(label)
            pinned.add(nxt)
            self._pinned_mode(
                next_state, pieces, pinned, next_component, 1,
                gapped_components,
            )
            pinned.discard(nxt)
            run.vertices.pop()
            run.labels.pop()
