"""Width measures and the Theorem-8 substitution notes.

Theorem 8 states RSPQ(Reg, G) has polynomial combined complexity on
graph classes of bounded *directed treewidth*, by adapting Johnson,
Robertson, Seymour and Thomas's dynamic program over arboreal
decompositions.  Computing arboreal decompositions has no practical
implementation (the original paper itself gives only an approximation
scheme with large hidden constants), so this reproduction covers:

* the DAG corner case exactly (:mod:`repro.algorithms.dag`) — directed
  treewidth 0, and the case the paper singles out as immediate;
* structural *diagnostics* in this module: cycle-space measurements that
  benches use to stratify inputs (a DAG check, a greedy feedback-vertex
  -set upper bound, and a min-degree undirected-treewidth upper bound).

The full arboreal DP is out of scope.
"""

from __future__ import annotations

from .dag import is_dag


def greedy_feedback_vertex_set(graph):
    """A (non-optimal) feedback vertex set by iterated max-degree removal.

    Returns a set S such that ``graph`` minus S is acyclic.  |S| upper-
    bounds how far the instance is from the tractable DAG regime.
    """
    remaining = graph.copy()
    removed = set()
    while not is_dag(remaining):
        best_vertex = None
        best_score = -1
        for vertex in remaining.vertices():
            score = remaining.out_degree(vertex) * remaining.in_degree(vertex)
            if score > best_score:
                best_score = score
                best_vertex = vertex
        removed.add(best_vertex)
        keep = [v for v in remaining.vertices() if v != best_vertex]
        remaining = remaining.subgraph(keep)
    return removed


def undirected_treewidth_upper_bound(graph):
    """Min-degree-heuristic treewidth bound of the underlying graph.

    The classic elimination-ordering heuristic: repeatedly eliminate a
    minimum-degree vertex, connecting its neighbourhood into a clique;
    the largest degree met is an upper bound on the treewidth.
    """
    neighbours = {vertex: set() for vertex in graph.vertices()}
    for source, _label, target in graph.edges():
        if source != target:
            neighbours[source].add(target)
            neighbours[target].add(source)
    bound = 0
    while neighbours:
        vertex = min(neighbours, key=lambda v: (len(neighbours[v]), repr(v)))
        degree = len(neighbours[vertex])
        bound = max(bound, degree)
        hood = neighbours.pop(vertex)
        for a in hood:
            neighbours[a].discard(vertex)
        for a in hood:
            for b in hood:
                if a != b:
                    neighbours[a].add(b)
    return bound
