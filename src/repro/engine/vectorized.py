"""Vectorized multi-query execution: one decision for a whole plan group.

Serving traffic asks the *same few languages* against many endpoint
pairs.  Queries grouped on one plan are decided together by *walk*
reachability in the live product graph — the minimal DFA's live
states × the frozen CSR arrays, the classic polynomial RPQ evaluation
(Mendelzon & Wood, SIAM J. Comput. 1995).  Walks ignore simplicity,
which is exactly what makes them sound as a batch filter:

* **negatives are proofs** — no L-labeled walk from ``source`` to
  ``target`` means no *simple* L-labeled path either, so NOT_FOUND is
  final (the reachability-index short-circuit's argument, but exact
  for the language instead of its label mask);
* **positives are only witnesses** — an accepting walk may repeat
  vertices, so positive members go back to the per-query solver for
  the authoritative shortest simple path, keeping grouped execution
  identical, path for path, to serial execution.

:func:`sweep_group` decides a group by lookups in the plan's
:class:`WalkCertificate` (the product graph condensed once, one
big-int closure row per component; 0 steps per member) or, without
one, by a synchronized-layer multi-source BFS whose state per product
node is one big integer (bit ``i`` = member ``i``'s frontier is
there; each member is charged the rounds it rode).  The engine's
:class:`CertificateCache` buys a plan's certificate by the ski-rental
rule — once the plan's sweeps have relaxed as many product edges as a
build would cost — and only under :data:`CERTIFICATE_BIT_CAP`, so
cold and oversized plans keep the BFS sweep and no one-off batch pays
for a build it cannot pay back.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from ..core.product import live_state_row, transition_rows
from ..graphs.reach import closure, condense, successor_map

if TYPE_CHECKING:
    from ..graphs.view import GraphView
    from .plan import QueryPlan

#: A plan gets a certificate only when P² fits this many bits, where
#: P = |V| × live DFA states.  Row ``c`` only reaches components up to
#: ``c``, so at the cap (P = 8192) a certificate holds at most 4.8 MB:
#: its rows as Python ints plus the component table.
CERTIFICATE_BIT_CAP = 1 << 26
#: Plans one engine keeps a ski-rental account (and certificate) for,
#: least recently used evicted: at most 38.5 MB of certificates.
MAX_CERTIFICATES = 8
#: Ski-rental calibration: a certificate build costs about as much as
#: this many BFS edge relaxations per product node and product edge
#: (build time per node and edge over sweep time per relaxed edge read
#: 0.9-2.4 for six plans on perfbench's 500-vertex batch-sweep graph).
BUILD_COST_PER_UNIT = 1.5


@dataclass
class VectorizedBatchStats:
    """Counters for one vectorized :meth:`QueryEngine.run_batch` run.

    Summed across the workers of a pooled batch (groups never span
    workers, so the totals match what an in-process vectorized run of
    the same batch would report).
    """

    #: Distinct plan-key groups the batch planner formed.
    groups: int = 0
    #: Groups decided by :func:`sweep_group`, by BFS sweep or
    #: certificate (a group below the ``group_min_size`` threshold
    #: forms but is never decided this way).
    sweeps: int = 0
    #: Queries that entered a plan-key group (the rest had no plan key
    #: and ran per query).
    grouped_queries: int = 0
    #: Group members answered from the result cache before the sweep.
    peeled_cache_hits: int = 0
    #: Group members proven NOT_FOUND by the reachability index before
    #: the sweep.
    peeled_short_circuits: int = 0
    #: Group members proven NOT_FOUND by a sweep (no solver ran).
    swept_negatives: int = 0
    #: Group members answered by the per-query solver path: sweep
    #: positives and members of unswept groups.
    fallback_solves: int = 0
    #: Duplicate endpoint pairs replayed per query after their group
    #: resolved (serial-identical result-cache accounting).
    deferred_duplicates: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-safe shape (used by the service batch payload)."""
        return asdict(self)

    def __add__(self, other: object) -> "VectorizedBatchStats":
        if not isinstance(other, VectorizedBatchStats):
            return NotImplemented
        return VectorizedBatchStats(**{
            name: value + getattr(other, name)
            for name, value in asdict(self).items()
        })


def iter_members(bits: int) -> Iterator[int]:
    """Set bit positions of ``bits``, ascending (member decode)."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass
class SweepOutcome:
    """What one :func:`sweep_group` call decided about its members.

    ``positives`` have an accepting walk (they must be re-solved per
    query for the simple-path answer); ``negatives`` are proven
    NOT_FOUND.  ``steps[member]`` is the work charged to a decided
    member: the BFS rounds it rode, 0 under a certificate.
    """

    positives: list[int] = field(default_factory=list)
    negatives: list[int] = field(default_factory=list)
    steps: dict[int, int] = field(default_factory=dict)
    #: Synchronized BFS layers run (0 when a certificate decided).
    rounds: int = 0
    #: Product edges the BFS relaxed: its charge to the plan's
    #: ski-rental account.
    expansions: int = 0


def product_moves(view: "GraphView", dfa: Any) -> tuple[list[int], list]:
    """The live product graph of ``dfa`` × ``view``'s CSR arrays.

    Returns ``(slots, moves)``: ``slots[state]`` numbers the live DFA
    states ``0..width-1`` (-1 for dead states), and ``moves[slot]``
    lists ``(indptr, targets, next_slot)`` for every label leading
    from that live state into a live state.  Product nodes are packed
    as ``vertex_id * width + slot``.
    """
    live = live_state_row(dfa)
    live_states = [state for state in range(dfa.num_states) if live[state]]
    slots = [-1] * dfa.num_states
    for slot, state in enumerate(live_states):
        slots[state] = slot
    moves: list[list] = [[] for _ in live_states]
    for label_id, row in enumerate(transition_rows(dfa, view)):
        if row is None:
            continue
        pair = view.out_csr(label_id)
        if pair is None:
            raise ValueError(
                "walk decisions need CSR bulk adjacency "
                "(view %r has none)" % (view.kind,)
            )
        for slot, state in enumerate(live_states):
            if slots[row[state]] >= 0:
                moves[slot].append((*pair, slots[row[state]]))
    return slots, moves


def build_cost(view: "GraphView", dfa: Any) -> int | None:
    """Estimated certificate build cost in BFS edge relaxations, or
    None when the product is too big to certify (P² over the cap)."""
    _slots, moves = product_moves(view, dfa)
    nodes = view.num_vertices * len(moves)
    if nodes * nodes > CERTIFICATE_BIT_CAP:
        return None
    edges = sum(len(targets) for out in moves for _i, targets, _s in out)
    return int(BUILD_COST_PER_UNIT * (nodes + edges))


class WalkCertificate:
    """Exact walk closure of one plan's live product graph.

    :func:`product_moves`' graph, condensed and closed by
    :mod:`repro.graphs.reach`: an accepting L-walk leads ``source`` to
    ``target`` exactly when the closure row of ``(source, initial)``'s
    component meets the component of some ``(target, accepting
    state)`` — own bit included, which covers the empty walk of an
    ε ∈ L self-query.  Immutable once built.
    """

    __slots__ = ("_comp_of", "_rows", "_width", "_start", "_accepting")

    # invariant: hot-loop
    def __init__(self, view: "GraphView", dfa: Any) -> None:
        slots, moves = product_moves(view, dfa)
        width = len(moves)

        def out(node):
            vertex_id, slot = divmod(node, width)
            for indptr, targets, next_slot in moves[slot]:
                for position in range(indptr[vertex_id],
                                      indptr[vertex_id + 1]):
                    yield 0, targets[position] * width + next_slot

        comp_of, num_comps, label_edges = condense(
            view.num_vertices * width, out
        )
        self._comp_of: array = comp_of
        self._rows = closure(num_comps, [
            successor_map(edges) for edges in label_edges
        ])
        self._width = width
        #: Slot of the initial state (-1 when L is empty).
        self._start = slots[dfa.initial]
        self._accepting = tuple(slots[state] for state in dfa.accepting)

    def accepts(self, source_id: int, target_id: int) -> bool:
        """True when some L-labeled walk leads ``source_id`` to
        ``target_id`` (possibly the empty walk, when ε ∈ L)."""
        if self._start < 0:
            return False
        comp_of = self._comp_of
        width = self._width
        row = self._rows[comp_of[source_id * width + self._start]]
        base = target_id * width
        return any(
            row >> comp_of[base + slot] & 1 for slot in self._accepting
        )


# invariant: hot-loop
def sweep_group(
    view: "GraphView",
    plan: "QueryPlan",
    pending: list[tuple[int, int, int]],
    certificate: WalkCertificate | None = None,
) -> SweepOutcome:
    """Decide every pending ``(member, source_id, target_id)`` at once.

    With a ``certificate`` each member is one lookup, charged 0 steps.
    Without one, a synchronized-layer BFS over the live product graph
    advances every member together (the frontier maps packed product
    nodes to member bitmaps); members peel out at acceptance
    (positive) or when their frontier dies (proven negative), each
    charged the rounds it rode.
    """
    outcome = SweepOutcome()
    if certificate is not None:
        for member, source_id, target_id in pending:
            if certificate.accepts(source_id, target_id):
                outcome.positives.append(member)
            else:
                outcome.negatives.append(member)
                outcome.steps[member] = 0
        return outcome

    dfa: Any = plan.solver.language.dfa
    slots, moves = product_moves(view, dfa)
    width = len(moves)
    start = slots[dfa.initial]
    accept_row = bytearray(width)
    for state in dfa.accepting:
        accept_row[slots[state]] = 1

    target_bits: dict[int, int] = {}
    frontier: dict[int, int] = {}
    reached: dict[int, int] = {}
    active = 0
    for member, source_id, target_id in pending:
        if start < 0:
            # L is empty: nothing to sweep.
            outcome.negatives.append(member)
            outcome.steps[member] = 0
            continue
        if accept_row[start] and source_id == target_id:
            # ε ∈ L and the query is source → source: the empty path
            # answers it, but the per-query solver owns the answer.
            outcome.positives.append(member)
            outcome.steps[member] = 0
            continue
        bit = 1 << member
        node = source_id * width + start
        target_bits[target_id] = target_bits.get(target_id, 0) | bit
        active |= bit
        reached[node] = reached.get(node, 0) | bit
        frontier[node] = frontier.get(node, 0) | bit

    expansions = 0
    while frontier and active:
        outcome.rounds += 1
        next_frontier: dict[int, int] = {}
        for node, bits in frontier.items():
            bits &= active
            if not bits:
                continue
            vertex_id, slot = divmod(node, width)
            for indptr, targets, next_slot in moves[slot]:
                lo = indptr[vertex_id]
                hi = indptr[vertex_id + 1]
                expansions += hi - lo
                accepts = accept_row[next_slot]
                for position in range(lo, hi):
                    successor = targets[position]
                    next_node = successor * width + next_slot
                    seen = reached.get(next_node, 0)
                    new_bits = bits & ~seen
                    if not new_bits:
                        continue
                    reached[next_node] = seen | new_bits
                    if accepts:
                        hit = new_bits & target_bits.get(successor, 0)
                        if hit:
                            for member in iter_members(hit):
                                outcome.positives.append(member)
                                outcome.steps[member] = outcome.rounds
                            active &= ~hit
                            new_bits &= ~hit
                            bits &= active
                            if not new_bits:
                                continue
                    next_frontier[next_node] = (
                        next_frontier.get(next_node, 0) | new_bits
                    )
        # Members whose own frontier died this round are decided: no
        # L-walk reaches their target, so NOT_FOUND is proven for them
        # even while other members keep sweeping.
        union = 0
        for bits in next_frontier.values():
            union |= bits
        for member in iter_members(active & ~union):
            outcome.negatives.append(member)
            outcome.steps[member] = outcome.rounds
        active &= union
        frontier = next_frontier

    for member in iter_members(active):
        outcome.negatives.append(member)
        outcome.steps[member] = outcome.rounds
    outcome.expansions = expansions
    return outcome


@dataclass
class _Account:
    """One plan's ski-rental account: BFS work ``spent`` against the
    certificate's estimated ``cost``, and the certificate once bought."""

    cost: int
    spent: int = 0
    certificate: WalkCertificate | None = None


class CertificateCache:
    """One engine's walk certificates, bought by the ski-rental rule.

    Keyed by plan key (an engine serves one graph).  A plan's BFS
    sweeps charge their relaxed edges to its account; once they reach
    :func:`build_cost`, its next group builds the certificate.  At most
    :data:`MAX_CERTIFICATES` accounts are kept, least recently used
    evicted.  Racing batches may both build one; certificates are
    immutable, so a race only costs work.
    """

    def __init__(self, view: "GraphView") -> None:
        self._view = view
        self._accounts: OrderedDict[Any, _Account] = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, plan: "QueryPlan") -> WalkCertificate | None:
        """``plan``'s certificate, built now if its sweeps have paid
        for it; None while the plan is cold (or too big)."""
        with self._lock:
            account = self._accounts.get(plan.key)
            if account is None:
                return None
            self._accounts.move_to_end(plan.key)
            if account.certificate is not None or (
                account.spent < account.cost
            ):
                return account.certificate
        certificate = WalkCertificate(self._view, plan.solver.language.dfa)
        with self._lock:
            account.certificate = certificate
        return certificate

    def charge(self, plan: "QueryPlan", expansions: int) -> None:
        """Add one BFS sweep's relaxed edges to ``plan``'s account."""
        with self._lock:
            account = self._accounts.get(plan.key)
            if account is None:
                cost = build_cost(self._view, plan.solver.language.dfa)
                if cost is None:
                    return
                account = self._accounts[plan.key] = _Account(cost)
                if len(self._accounts) > MAX_CERTIFICATES:
                    self._accounts.popitem(last=False)
            account.spent += expansions
