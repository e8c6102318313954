"""RSPQ on DAGs: polynomial *combined* complexity (Theorem 8 base case).

"The result for DAGs is immediate indeed, as every path in a DAG is
simple" — so RSPQ coincides with RPQ and a single product-graph BFS in
``O(|G| · |A_L|)`` (:meth:`repro.algorithms.rpq.RpqSolver.shortest_walk`)
answers the query, with the language part of the input.  This is the
directed-treewidth-0 corner of Theorem 8 and the baseline for the
combined-complexity experiment (E11).
"""

from __future__ import annotations

from collections import deque

from ..errors import GraphError
from .rpq import RpqSolver


def is_dag(graph):
    """True iff the db-graph has no directed cycle (Kahn's algorithm)."""
    in_degree = {vertex: 0 for vertex in graph.vertices()}
    for _source, _label, target in graph.edges():
        in_degree[target] += 1
    queue = deque(
        vertex for vertex, degree in in_degree.items() if degree == 0
    )
    seen = 0
    while queue:
        vertex = queue.popleft()
        seen += 1
        for _label, target in graph.out_edges(vertex):
            in_degree[target] -= 1
            if in_degree[target] == 0:
                queue.append(target)
    return seen == len(in_degree)


class DagRspqSolver:
    """Combined-complexity polynomial RSPQ solver for DAG inputs.

    Unlike the data-complexity solvers, the language is a per-query
    argument: the whole point is ``O(|G| · |A_L|)`` with both inputs
    variable.
    """

    def __init__(self, graph, check=True):
        if check and not is_dag(graph):
            raise GraphError("DagRspqSolver requires an acyclic graph")
        self.graph = graph

    def shortest_simple_path(self, language, source, target, ctx=None):
        """Shortest simple L-labeled path via one product BFS.

        In a DAG every walk is a simple path, so the shortest L-walk is
        the answer.
        """
        if ctx is not None:
            ctx.check_deadline()
        return RpqSolver(language).shortest_walk(self.graph, source, target)

    def exists(self, language, source, target, ctx=None):
        """Decision variant (combined complexity, DAG input)."""
        return (
            self.shortest_simple_path(language, source, target, ctx=ctx)
            is not None
        )
