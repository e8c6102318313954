"""DAG recognition (the Theorem 8 base case).

"The result for DAGs is immediate indeed, as every path in a DAG is
simple" — so RSPQ coincides with RPQ, and one product-graph BFS in
``O(|G| · |A_L|)`` answers the query with the language part of the
input.  No separate solver does this: for every trC and NP-hard query
:class:`~repro.core.solver.RspqSolver` first runs its walk check,
which finds a shortest L-walk.  On a DAG that walk is simple, so the
check decides every query and no simple-path search runs.
:func:`is_dag` serves the width diagnostics of
:mod:`repro.algorithms.treewidth`.
"""

from __future__ import annotations

from collections import deque


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
