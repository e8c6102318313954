"""Regular path queries under *arbitrary walk* semantics.

The classical tractable baseline the paper contrasts with: select node
pairs connected by **any** walk (vertices may repeat) whose label word
lies in L.  Evaluated by BFS over the product graph in
``O(|G| · |A_L|)`` — this is the notion that "has overridden" simple
paths in theory, per the introduction.  The searches are the shared
walk layer of :mod:`repro.core.product`, run on the graph's
:class:`~repro.graphs.view.GraphView`.
"""

from __future__ import annotations

from ..core.product import shortest_walk, walk_targets
from ..graphs.view import as_graph_view
from ..languages import Language


class RpqSolver:
    """Arbitrary-walk RPQ evaluation (product-graph BFS)."""

    def __init__(self, language):
        if isinstance(language, str):
            language = Language(language)
        self.language = language
        self.dfa = language.dfa

    def exists(self, graph, source, target, ctx=None):
        """True iff some L-labeled walk connects source to target."""
        if ctx is not None:
            ctx.check_deadline()
        view = as_graph_view(graph)
        target_id = view.vertex_id(target)
        return target_id in walk_targets(
            self.dfa, view, view.vertex_id(source)
        )

    def shortest_walk(self, graph, source, target):
        """A shortest L-labeled walk (possibly non-simple), or None."""
        view = as_graph_view(graph)
        walk = shortest_walk(
            self.dfa, view, view.vertex_id(source), view.vertex_id(target)
        )
        return None if walk is None else view.path(*walk)

    def reachable_set(self, graph, source):
        """All vertices selected by the RPQ from ``source``."""
        view = as_graph_view(graph)
        targets = walk_targets(self.dfa, view, view.vertex_id(source))
        return {view.vertex_at(target_id) for target_id in targets}

    def evaluate_all_pairs(self, graph):
        """The full RPQ answer ``{(x, y)}`` (one BFS per source)."""
        view = as_graph_view(graph)
        vertex_at = view.vertex_at
        return {
            (vertex_at(source_id), vertex_at(target_id))
            for source_id in range(view.num_vertices)
            for target_id in walk_targets(self.dfa, view, source_id)
        }
