"""Vectorized multi-query execution: one CSR sweep answers a plan group.

A batch workload is rarely a set of unrelated questions.  Serving
traffic asks the *same few languages* against many endpoint pairs, and
the per-query engine re-walks the same product graph — minimal DFA ×
compiled CSR graph — once per query.  This module collapses that
redundancy: queries grouped on one plan key advance **together** through
a single multi-source product-graph expansion over the frozen CSR
arrays.

The sweep is a synchronized-layer BFS over *walks* (simplicity is not
enforced), which is exactly what makes it sound as a batch filter:

* **negatives are proofs** — if no L-labeled walk from ``source``
  reaches ``target`` in an accepting DFA state, then certainly no
  *simple* L-labeled path exists, so the sweep's NOT_FOUND answers are
  final (the same argument behind the engine's reachability-index
  short-circuit, but exact w.r.t. the language instead of the label
  mask);
* **positives are only witnesses** — an accepting walk may repeat
  vertices, so members that accept are peeled out of the sweep and
  handed back to the per-query solver, which recomputes the authoritative
  shortest *simple* path with a fresh
  :class:`~repro.execution.ExecutionContext`.  Grouped execution is
  therefore bit-identical, path for path, to serial execution.

State per product node is one Python big integer — bit ``i`` set means
group member ``i``'s frontier occupies that node — so one dict update
advances every query that reached the node, and acceptance peels single
bits as ``(target, accepting state)`` nodes are discovered.  Dead DFA
states (no accepting state reachable) are pruned at expansion time via
the shared :func:`~repro.core.product.live_state_row`, and witness
walks are reconstructed per member from the shared arrival log.

Budgets and deadlines stay per query through
:class:`~repro.execution.GroupExecution`: every sweep round is charged
to every member it advanced, and a member whose own contract trips is
peeled without disturbing the rest of the group.  (The engine only
sweeps unbudgeted groups — see :meth:`QueryEngine.run_batch` — but the
accounting holds for direct callers.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from ..core.product import live_state_row, transition_rows

if TYPE_CHECKING:
    from ..execution import GroupExecution
    from ..graphs.view import GraphView
    from .plan import QueryPlan


@dataclass
class VectorizedBatchStats:
    """Counters for one vectorized :meth:`QueryEngine.run_batch` run.

    Summed across workers in parallel modes (groups never span
    workers, so the totals match what a serial vectorized run of the
    same batch would report).
    """

    #: Distinct plan-key groups the batch planner formed.
    groups: int = 0
    #: Multi-source product sweeps actually run (a group below the
    #: ``group_min_size`` threshold, or whose plan strategy the sweep
    #: does not understand, forms but never sweeps).
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
    #: positives, expired members, and members of unswept groups.
    fallback_solves: int = 0
    #: Duplicate endpoint pairs replayed per query after their group
    #: resolved (serial-identical result-cache accounting).
    deferred_duplicates: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-safe shape (used by the service batch payload)."""
        return {
            "groups": self.groups,
            "sweeps": self.sweeps,
            "grouped_queries": self.grouped_queries,
            "peeled_cache_hits": self.peeled_cache_hits,
            "peeled_short_circuits": self.peeled_short_circuits,
            "swept_negatives": self.swept_negatives,
            "fallback_solves": self.fallback_solves,
            "deferred_duplicates": self.deferred_duplicates,
        }

    def __add__(self, other: object) -> "VectorizedBatchStats":
        if not isinstance(other, VectorizedBatchStats):
            return NotImplemented
        return VectorizedBatchStats(
            groups=self.groups + other.groups,
            sweeps=self.sweeps + other.sweeps,
            grouped_queries=self.grouped_queries + other.grouped_queries,
            peeled_cache_hits=(
                self.peeled_cache_hits + other.peeled_cache_hits
            ),
            peeled_short_circuits=(
                self.peeled_short_circuits + other.peeled_short_circuits
            ),
            swept_negatives=self.swept_negatives + other.swept_negatives,
            fallback_solves=self.fallback_solves + other.fallback_solves,
            deferred_duplicates=(
                self.deferred_duplicates + other.deferred_duplicates
            ),
        )


def iter_members(bits: int) -> Iterator[int]:
    """Set bit positions of ``bits``, ascending (member decode)."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class SweepOutcome:
    """What one group sweep decided about its members.

    ``positives`` hold members with a witnessed accepting *walk* (they
    must be re-solved per query for the simple-path answer);
    ``negatives`` are proven NOT_FOUND; ``expired`` members tripped
    their own budget/deadline mid-sweep and must re-run per query.
    """

    __slots__ = (
        "positives",
        "negatives",
        "expired",
        "rounds",
        "_group",
        "_num_states",
        "_seed",
        "_accept_at",
        "_arrivals",
    )

    def __init__(
        self,
        group: "GroupExecution",
        num_states: int,
        seed: dict[int, int],
        accept_at: dict[int, int],
        arrivals: dict[int, list[tuple[int, int, int]]],
    ) -> None:
        self.positives: list[int] = []
        self.negatives: list[int] = []
        self.expired: dict[int, Exception] = {}
        #: Synchronized BFS layers the sweep ran.
        self.rounds: int = 0
        self._group = group
        self._num_states = num_states
        self._seed = seed
        self._accept_at = accept_at
        self._arrivals = arrivals

    def steps_of(self, member: int) -> int:
        """Sweep rounds charged to ``member`` (its reported steps)."""
        return self._group.steps_of(member)

    def witness_walk(self, member: int) -> tuple[list[int], list[int]]:
        """The accepting L-walk recorded for a positive member.

        Returns ``(vertex_ids, label_ids)`` from the member's source to
        its target; the walk may repeat vertices (it is *not* the
        simple-path answer — the per-query solver computes that).
        Reconstructed from the shared arrival log: a member's bit
        enters each product node at most once, so following the unique
        arrival event carrying the bit walks back to the member's own
        seed.  Raises :class:`KeyError` for members that never
        accepted.
        """
        node = self._accept_at[member]
        seed = self._seed[member]
        num_states = self._num_states
        bit = 1 << member
        vertices = [node // num_states]
        labels: list[int] = []
        while node != seed:
            for previous, label_id, bits in self._arrivals[node]:
                if bits & bit:
                    labels.append(label_id)
                    node = previous
                    vertices.append(node // num_states)
                    break
            else:  # pragma: no cover - impossible by construction
                raise KeyError(
                    "no arrival event for member %d at node %d"
                    % (member, node)
                )
        vertices.reverse()
        labels.reverse()
        return vertices, labels


# invariant: hot-loop
def sweep_group(
    view: "GraphView",
    plan: "QueryPlan",
    pending: list[tuple[int, int, int]],
    group: "GroupExecution",
) -> SweepOutcome:
    """Advance every pending ``(member, source_id, target_id)`` at once.

    One synchronized-layer BFS over the product graph (minimal DFA ×
    CSR arrays): the frontier maps packed product nodes
    ``vertex_id * |Q| + state`` to member bitmaps, so each node is
    expanded once per round no matter how many queries occupy it.
    Members peel out as they are decided — acceptance at their target
    (positive witness), frontier exhaustion (proven negative), or a
    tripped per-member budget/deadline (expired) — and every round is
    charged to every member still riding the sweep, keeping reported
    steps independent of scheduling.
    """
    dfa: Any = plan.solver.language.dfa
    num_states: int = dfa.num_states
    rows = transition_rows(dfa, view)
    live = live_state_row(dfa)
    accept_row = bytearray(num_states)
    for state in dfa.accepting:
        accept_row[state] = 1
    num_labels = view.num_labels
    csr = []
    for label_id in range(num_labels):
        pair = view.out_csr(label_id)
        if pair is None:
            raise ValueError(
                "sweep_group needs CSR bulk adjacency "
                "(view %r has none)" % (view.kind,)
            )
        csr.append(pair)
    initial: int = dfa.initial
    initial_accepts = bool(accept_row[initial])
    initial_live = bool(live[initial])

    seed: dict[int, int] = {}
    accept_at: dict[int, int] = {}
    arrivals: dict[int, list[tuple[int, int, int]]] = {}
    outcome = SweepOutcome(group, num_states, seed, accept_at, arrivals)

    target_bits: dict[int, int] = {}
    frontier: dict[int, int] = {}
    reached: dict[int, int] = {}
    active = 0
    for member, source_id, target_id in pending:
        bit = 1 << member
        node = source_id * num_states + initial
        seed[member] = node
        if initial_accepts and source_id == target_id:
            # ε ∈ L and the query is source → source: the empty path
            # answers it, but the per-query solver owns the answer.
            accept_at[member] = node
            outcome.positives.append(member)
            continue
        if not initial_live:
            # L is empty from the initial state: nothing to sweep.
            outcome.negatives.append(member)
            continue
        target_bits[target_id] = target_bits.get(target_id, 0) | bit
        active |= bit
        reached[node] = reached.get(node, 0) | bit
        frontier[node] = frontier.get(node, 0) | bit

    while frontier and active:
        for member in group.charge(list(iter_members(active))):
            outcome.expired[member] = group.expired[member]
            active &= ~(1 << member)
        if not active:
            break
        outcome.rounds += 1
        next_frontier: dict[int, int] = {}
        for node, bits in frontier.items():
            bits &= active
            if not bits:
                continue
            vertex_id, state = divmod(node, num_states)
            for label_id in range(num_labels):
                row = rows[label_id]
                if row is None:
                    continue
                next_state = row[state]
                if not live[next_state]:
                    continue
                indptr, targets = csr[label_id]
                lo = indptr[vertex_id]
                hi = indptr[vertex_id + 1]
                accepts = accept_row[next_state]
                for position in range(lo, hi):
                    successor = targets[position]
                    next_node = successor * num_states + next_state
                    seen = reached.get(next_node, 0)
                    new_bits = bits & ~seen
                    if not new_bits:
                        continue
                    reached[next_node] = seen | new_bits
                    arrivals.setdefault(next_node, []).append(
                        (node, label_id, new_bits)
                    )
                    if accepts:
                        hit = new_bits & target_bits.get(successor, 0)
                        if hit:
                            for member in iter_members(hit):
                                accept_at[member] = next_node
                                outcome.positives.append(member)
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
        finished = active & ~union
        if finished:
            for member in iter_members(finished):
                outcome.negatives.append(member)
            active &= ~finished
        frontier = next_frontier

    for member in iter_members(active):
        outcome.negatives.append(member)
    return outcome
