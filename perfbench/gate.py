"""Correctness gate: every served answer against a direct reference.

The reference answers each distinct query with the library's direct
solver (:class:`repro.core.solver.RspqSolver`, the solver
``solve_rspq`` builds), on a :class:`DbGraph` parsed from the same
text the server received: no engine, plan or result cache, pool or
HTTP.  It runs outside the timed phase.

A served answer is correct when

* a positive is a simple path from source to target whose every edge
  exists with its label, whose word the language's DFA accepts, and
  whose length equals the reference's shortest length;
* a negative matches a reference negative;
* a step-budget failure (HTTP 422) matches a reference that overran
  the same budget.

Workloads whose negatives are too many to solve one by one
(``certify_walks``) first prove them by the walk argument: when no
L-labelled walk leads from source to target, no simple path does
either.  Only the pairs with a walk go to the direct solver.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.solver import RspqSolver
from repro.errors import AutomatonError, BudgetExceededError
from repro.execution import ExecutionContext
from repro.graphs import io as graph_io
from repro.languages import Language

FOUND = "found"
NONE = "none"
BUDGET = "budget"


class Reference:
    """Direct answers for ``(graph, language, source, target, budget)``.

    ``texts`` maps every graph name to the text the server parses.
    An outcome is ``(kind, length, steps)`` with ``kind`` one of
    FOUND / NONE / BUDGET; ``steps`` is the exact solver's expansion
    count (None when the walk argument decided).
    """

    def __init__(self, texts):
        self._texts = texts
        self._graphs = {}
        self._edges = {}
        self._solvers = {}
        self._dfas = {}
        self._outcomes = {}

    def graph(self, name):
        graph = self._graphs.get(name)
        if graph is None:
            graph = self._graphs[name] = graph_io.loads(self._texts[name])
        return graph

    def edges(self, name):
        edges = self._edges.get(name)
        if edges is None:
            edges = self._edges[name] = set(self.graph(name).edges())
        return edges

    def solver(self, language, budget=None):
        key = (language, budget)
        solver = self._solvers.get(key)
        if solver is None:
            solver = self._solvers[key] = RspqSolver(
                language, exact_budget=budget
            )
        return solver

    def dfa(self, language):
        """The language's minimal DFA (no plan or decomposition)."""
        dfa = self._dfas.get(language)
        if dfa is None:
            dfa = self._dfas[language] = Language(language).dfa
        return dfa

    def outcome(self, graph, language, source, target, budget=None):
        key = (graph, language, source, target, budget)
        outcome = self._outcomes.get(key)
        if outcome is None:
            ctx = ExecutionContext(budget=budget)
            try:
                path = self.solver(language, budget).shortest_simple_path(
                    self.graph(graph), source, target, ctx=ctx
                )
            except BudgetExceededError:
                outcome = (BUDGET, None, ctx.steps)
            else:
                outcome = (
                    (NONE, None, ctx.steps) if path is None
                    else (FOUND, len(path), ctx.steps)
                )
            self._outcomes[key] = outcome
        return outcome

    def certify_walks(self, graph, language, pairs):
        """Record NONE for every pair of ``pairs`` with no L-walk."""
        walks = walk_pairs(self.graph(graph), self.dfa(language), pairs)
        for source, target in pairs:
            if (source, target) not in walks:
                self._outcomes[(graph, language, source, target, None)] = (
                    NONE, None, None
                )


def walk_pairs(graph, dfa, pairs):
    """The pairs of ``pairs`` joined by some walk whose word is in L.

    Multi-source reachability over the product of ``graph`` and the
    minimal DFA: each product node carries a bitmask of the sources
    that reach it, and a pair has a walk when its target carries the
    source's bit in an accepting state.
    """
    sources = sorted({source for source, _target in pairs}, key=repr)
    bit = {source: 1 << index for index, source in enumerate(sources)}
    live = dfa.co_reachable_states()
    reached = defaultdict(int)
    frontier = {}
    if dfa.initial in live:
        for source in sources:
            frontier[(source, dfa.initial)] = bit[source]
            reached[(source, dfa.initial)] |= bit[source]
    alphabet = dfa.alphabet
    while frontier:
        # Breadth-first rounds: a node's new sources travel together.
        advanced = {}
        for (vertex, state), bits in frontier.items():
            for label, successor in graph.out_edges(vertex):
                if label not in alphabet:
                    continue
                node = (successor, dfa.transition(state, label))
                if node[1] not in live:
                    continue
                new = bits & ~reached[node]
                if new:
                    reached[node] |= new
                    advanced[node] = advanced.get(node, 0) | new
        frontier = advanced
    return {
        (source, target) for source, target in pairs
        if any(reached.get((target, state), 0) & bit[source]
               for state in dfa.accepting)
    }


def _accepts(dfa, word):
    try:
        return dfa.accepts(word)
    except AutomatonError:  # a label outside the language's alphabet
        return False


def check_record(reference, graph, triple, budget, record):
    """Why ``record`` (one served result) is wrong, or None."""
    language, source, target = triple
    kind, length, _steps = reference.outcome(
        graph, language, source, target, budget
    )
    if record.get("error") is not None:
        if kind == BUDGET and "budget" in record["error"]:
            return None
        return "served error %r, reference %s" % (record["error"], kind)
    if not record.get("found"):
        return None if kind == NONE else "served no path, reference %s" % kind
    if kind != FOUND:
        return "served a path, reference %s" % kind
    path, word = record.get("path"), record.get("word")
    if not isinstance(path, list) or not isinstance(word, str):
        return "positive without path/word"
    if len(path) != len(word) + 1 or record.get("length") != len(word):
        return "path, word and length disagree"
    if path[0] != source or path[-1] != target:
        return "path does not join source to target"
    if len(set(path)) != len(path):
        return "path is not simple"
    edges = reference.edges(graph)
    if any((path[i], word[i], path[i + 1]) not in edges
           for i in range(len(word))):
        return "path uses an edge the graph lacks"
    if not _accepts(reference.dfa(language), word):
        return "word %r is not in the language" % word
    if len(word) != length:
        return "length %d, reference shortest %d" % (len(word), length)
    return None


def check(reference, ops, responses):
    """``(mismatches, failed)`` over every request in ``ops``.

    ``responses[i]`` is ``(status, body)`` for ``ops[i]``.  A refused
    or failed query (non-200, or an ``error`` field) counts in
    ``failed``; a wrong answer — or a failure the reference does not
    share — is a mismatch.
    """
    mismatches = []
    failed = 0
    for index, (op, (status, body)) in enumerate(zip(ops, responses)):
        if not op.is_read:
            if status != 200:
                failed += 1
                mismatches.append("op %d %s: HTTP %s" % (index, op.kind, status))
            continue
        if status == 200:
            records = body["results"] if op.kind == "batch" else [body]
        else:
            records = [None] * len(op.queries)
        if len(records) != len(op.queries):
            mismatches.append("op %d: %d results for %d queries"
                              % (index, len(records), len(op.queries)))
            failed += len(op.queries)
            continue
        for triple, record in zip(op.queries, records):
            if record is None:
                failed += 1
                kind = reference.outcome(op.graph, *triple, op.budget)[0]
                if not (status == 422 and kind == BUDGET):
                    mismatches.append("op %d %r: HTTP %s, reference %s"
                                      % (index, triple, status, kind))
                continue
            if record.get("error") is not None:
                failed += 1
            problem = check_record(
                reference, op.graph, triple, op.budget, record
            )
            if problem is not None:
                mismatches.append("op %d %r: %s" % (index, triple, problem))
    return mismatches, failed
