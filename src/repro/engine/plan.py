"""Query plans and their cache keys.

Planning an RSPQ is expensive relative to running one: a regex is
parsed, determinised, minimised, classified against the trichotomy and
(for trC languages) decomposed into a Ψtr expression before the first
graph vertex is ever touched.  A :class:`QueryPlan` freezes all of that
— the classification, the chosen strategy and a ready
:class:`~repro.core.solver.RspqSolver` — so repeated queries on the same
language skip straight to the search.

Plans are **immutable and shareable**: the frozen dataclass holds a
re-entrant solver whose per-query state lives in the
:class:`~repro.execution.ExecutionContext` each query brings along, so
one cached plan can serve any number of concurrent queries.

An engine caches its plans in a :class:`~repro.lru.LruCache` keyed by
:func:`plan_key`: regex strings key by their text (no re-parse on a
hit), :class:`~repro.languages.Language` objects by the canonical
signature of their minimal DFA (two different regexes for the same
language share a plan).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..core.solver import RspqSolver
from ..core.trichotomy import Classification
from ..languages import Language


def _canonical_dfa_signature(dfa):
    """Representation-independent signature of the language of ``dfa``.

    Minimisation pins the automaton up to one degree of freedom the raw
    transition table still leaks: the *dead-state representation*.  The
    same language completed over a larger alphabet grows a sink state
    and extra transitions into it, so ``Language("a*")`` and
    ``Language("a*", alphabet="ab")`` — one language, two minimal DFAs —
    would key differently and silently stop sharing a plan.

    The signature therefore normalises the dead part away: it is
    computed on the *live* states only (those that can still reach an
    accepting state), over the *live* symbols only (those carrying some
    live→live transition), with live states renumbered in BFS order
    from the initial state over the sorted live alphabet.  The live
    part is exactly the trim automaton of L, which determines the
    language — so equal signatures mean equal languages, and any two
    dead-state representations of one language collide on purpose.
    RSPQ evaluation is oblivious to the difference (a word using a dead
    symbol is not in L either way), so the shared plan answers both
    spellings identically.
    """
    live = dfa.co_reachable_states()
    if dfa.initial not in live:
        # The empty language: every representation shares one key.
        return ("dfa", 0, (), (), ())
    live_symbols = tuple(sorted({
        symbol
        for state, symbol, target in dfa.transitions()
        if state in live and target in live
    }))
    # Canonical renumbering: BFS from the initial state over the sorted
    # live alphabet, through live transitions only.
    order = {dfa.initial: 0}
    queue = deque((dfa.initial,))
    while queue:
        state = queue.popleft()
        for symbol in live_symbols:
            target = dfa.transition(state, symbol)
            if target in live and target not in order:
                order[target] = len(order)
                queue.append(target)
    transitions = tuple(
        (order[state], symbol, order[dfa.transition(state, symbol)])
        for state in sorted(order, key=order.get)
        for symbol in live_symbols
        if dfa.transition(state, symbol) in live
    )
    accepting = tuple(sorted(
        order[state] for state in dfa.accepting if state in order
    ))
    return ("dfa", len(order), live_symbols, accepting, transitions)


def plan_key(language: str | Language) -> tuple:
    """A hashable cache key for a regex string or ``Language``.

    Strings key by their exact text — the cheap path, no parsing.
    ``Language`` objects key by the canonical signature of their
    minimal DFA's *live part* (see :func:`_canonical_dfa_signature`),
    which is representation-independent: ``a*`` and ``(a*)*`` collide
    on purpose, and so do two minimal DFAs differing only in their
    dead-state/sink representation (e.g. the same language completed
    over a larger alphabet).
    """
    if isinstance(language, str):
        return ("regex", language)
    if isinstance(language, Language):
        return _canonical_dfa_signature(language.dfa)
    raise TypeError(
        "plan keys need a regex string or Language, got %r" % (language,)
    )


def group_by_plan(
    indexed_queries: "list[tuple[int, tuple]]",
) -> "tuple[dict[tuple, list[tuple[int, tuple]]], list[tuple[int, tuple]]]":
    """Partition indexed batch queries by plan key for vectorized runs.

    Takes ``(position, (language, source, target))`` pairs — positions
    are the batch slots results scatter back into, so shards re-group
    to exactly the groups the parent formed.  Returns
    ``(groups, ungroupable)``: ``groups`` maps each plan key to its
    members in first-occurrence order (dict insertion order preserves
    it), and ``ungroupable`` collects queries whose language has no
    plan key — those run per query, where :func:`plan_key` raises the
    same error at the query's own turn.  Grouping never touches the
    plan cache, so it leaves the cache counters exactly as serial
    execution would.
    """
    groups: dict[tuple, list[tuple[int, tuple]]] = {}
    ungroupable: list[tuple[int, tuple]] = []
    for position, query in indexed_queries:
        try:
            key = plan_key(query[0])
        except Exception:
            ungroupable.append((position, query))
            continue
        groups.setdefault(key, []).append((position, query))
    return groups, ungroupable


@dataclass(frozen=True)
class QueryPlan:
    """A compiled, immutable, shareable evaluation plan for one language."""

    key: Any
    solver: RspqSolver
    compile_seconds: float

    @property
    def language(self) -> Language:
        return self.solver.language

    @property
    def strategy(self) -> str:
        return self.solver.strategy

    @property
    def classification(self) -> Classification:
        return self.solver.classification

    @property
    def decompose_failed(self) -> bool:
        return self.solver.decompose_failed

    @property
    def used_symbols(self) -> frozenset[str]:
        """Symbols some word of L uses — the query's label mask for the
        reachability index (anything else can never appear on an
        L-labeled path)."""
        return self.solver.used_symbols

    @classmethod
    def compile(cls, language: str | Language, key: Any = None,
                seed: int = 0,
                failure_probability: float = 1e-3) -> "QueryPlan":
        """Build a plan (regex → DFA → classification → solver) once.

        The plan's solver prunes every search with the graph's
        reachability index.  ``seed`` and ``failure_probability``
        calibrate the randomized middle rungs an exact-strategy solver
        runs for queries that opt into them, without recompiling.
        """
        if key is None:
            key = plan_key(language)
        start = time.perf_counter()
        solver = RspqSolver(
            language, seed=seed, failure_probability=failure_probability,
        )
        return cls(
            key=key,
            solver=solver,
            compile_seconds=time.perf_counter() - start,
        )

    def describe(self) -> str:
        """One-line human summary (used by the batch CLI)."""
        note = " (decompose failed — exact fallback)" if (
            self.decompose_failed
        ) else ""
        return "%s [%s]%s" % (
            self.language,
            self.strategy,
            note,
        )
