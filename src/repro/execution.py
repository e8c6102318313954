"""Per-query execution state, split out of the solver cores.

A solver that kept its own mutable work counters would be a
single-query object: two concurrent queries through one cached
:class:`~repro.engine.plan.QueryPlan` would trample each other's
counters and budget accounting.

:class:`ExecutionContext` is the fix.  It owns everything that varies
per query:

* **work counters** — exact-solver expansions (``steps``), finite-
  solver words tried (``words_tried``), and the tractable solver's
  anchored-DFS statistics (``candidates``, ``completions``,
  ``dfs_steps``, ``gap_bfs``);
* **budget accounting** — an optional cap on exact-solver expansions,
  enforced with :class:`~repro.errors.BudgetExceededError`;
* **an optional wall-clock deadline** — checked every
  ``deadline_check_interval`` charges so the hot loops stay cheap,
  raising :class:`~repro.errors.DeadlineExceededError`.

With the context threaded through, each solver's
``shortest_simple_path`` / ``exists`` is a pure function of
``(graph, source, target, ctx)``: one compiled solver (inside a frozen,
cached plan) can serve any number of concurrent queries, each carrying
its own context.  A call *without* a context runs on a throwaway one
(the exact solver budgets it with its own ``budget``), so no query
ever writes to a solver instance; to read a query's work counters,
pass a context and read them off it afterwards.
"""

from __future__ import annotations

import time

from .errors import BudgetExceededError, DeadlineExceededError

#: How many charges pass between two wall-clock reads when a deadline
#: is set.  Large enough that ``perf_counter`` stays off the hot path,
#: small enough that runaway searches are caught within milliseconds.
DEADLINE_CHECK_INTERVAL = 256


class ExecutionContext:
    """Mutable per-query state: work counters, budget, deadline.

    Create one context per query and hand it to the solver; never share
    a live context between concurrent queries (counters would mix —
    exactly the disease this class cures in the solvers).

    Parameters
    ----------
    budget:
        Optional cap on exact-solver search steps; exceeding it raises
        :class:`~repro.errors.BudgetExceededError`.  Must be positive:
        a zero or negative budget can never admit a single step, so it
        is rejected with :class:`ValueError` at construction instead of
        failing every query obscurely.
    deadline_seconds:
        Optional wall-clock allowance for this query, measured from
        context creation; exceeding it raises
        :class:`~repro.errors.DeadlineExceededError` at the next
        periodic check.  ``0.0`` is permitted and means
        already-expired (tests use it to make deadlines bite
        deterministically); negative values are rejected with
        :class:`ValueError`.
    deadline_check_interval:
        Charges between deadline checks (tests shrink this to make the
        deadline bite immediately).
    """

    __slots__ = (
        "budget",
        "deadline",
        "steps",
        "words_tried",
        "candidates",
        "completions",
        "dfs_steps",
        "gap_bfs",
        "_deadline_check_interval",
        "_charges_until_deadline_check",
    )

    def __init__(self, budget=None, deadline_seconds=None,
                 deadline_check_interval=DEADLINE_CHECK_INTERVAL):
        if budget is not None and budget <= 0:
            raise ValueError(
                "budget must be a positive step count or None for "
                "unbounded, got %r" % (budget,)
            )
        self.budget = budget
        if deadline_seconds is None:
            self.deadline = None
        elif deadline_seconds < 0:
            raise ValueError(
                "deadline_seconds must be >= 0 (0 means already "
                "expired) or None for no deadline, got %r"
                % (deadline_seconds,)
            )
        else:
            self.deadline = time.perf_counter() + deadline_seconds
        self.steps = 0
        self.words_tried = 0
        self.candidates = 0
        self.completions = 0
        self.dfs_steps = 0
        self.gap_bfs = 0
        if deadline_check_interval < 1:
            raise ValueError("deadline_check_interval must be >= 1")
        self._deadline_check_interval = deadline_check_interval
        self._charges_until_deadline_check = deadline_check_interval

    # -- charging (solver hot paths) ---------------------------------------------

    def charge_step(self):
        """One exact-solver expansion: budget + deadline accounting."""
        self.steps += 1
        if self.budget is not None and self.steps > self.budget:
            raise BudgetExceededError(
                "exact solver exceeded its %d-step budget" % self.budget,
                steps=self.steps,
            )
        if self.deadline is not None:
            self._maybe_check_deadline()

    def charge_word(self):
        """One finite-language word attempt."""
        self.words_tried += 1
        if self.deadline is not None:
            self._maybe_check_deadline()

    def charge_dfs_step(self):
        """One anchored-DFS step of the tractable solver."""
        self.dfs_steps += 1
        if self.deadline is not None:
            self._maybe_check_deadline()

    def charge_gap_bfs(self):
        """One gap-filling BFS/Dijkstra of the tractable solver."""
        self.gap_bfs += 1
        if self.deadline is not None:
            self._maybe_check_deadline()

    def count_candidate(self):
        self.candidates += 1

    def count_completion(self):
        self.completions += 1

    # -- portfolio rung slicing ---------------------------------------------------

    def remaining_budget(self):
        """Steps left under the budget (``None`` = unbounded)."""
        if self.budget is None:
            return None
        return max(0, self.budget - self.steps)

    def remaining_seconds(self):
        """Wall-clock left before the deadline (``None`` = no deadline)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.perf_counter())

    def child(self, budget=None, seconds=None):
        """A fresh context for one portfolio rung, capped by this one.

        ``budget`` / ``seconds`` request the rung's slice; the child
        never receives more than this context has left, so a ladder of
        children can never overspend the parent's contract.  Raises
        :class:`~repro.errors.BudgetExceededError` /
        :class:`~repro.errors.DeadlineExceededError` when nothing
        remains to slice — the caller's rung could not have run at
        all.  Fold the child's counters back with :meth:`absorb` when
        the rung finishes (or fails).
        """
        remaining = self.remaining_budget()
        if budget is None:
            child_budget = remaining
        elif remaining is None:
            child_budget = budget
        else:
            child_budget = min(budget, remaining)
        if child_budget is not None and child_budget < 1:
            raise BudgetExceededError(
                "exact solver exceeded its %d-step budget"
                % (self.budget or 0),
                steps=self.steps,
            )
        left = self.remaining_seconds()
        if seconds is None:
            child_seconds = left
        elif left is None:
            child_seconds = seconds
        else:
            child_seconds = min(seconds, left)
        if child_seconds is not None and child_seconds <= 0.0:
            raise DeadlineExceededError(
                "query exceeded its wall-clock deadline",
                steps=self.steps,
            )
        return ExecutionContext(
            budget=child_budget,
            deadline_seconds=child_seconds,
            deadline_check_interval=self._deadline_check_interval,
        )

    def absorb(self, child):
        """Fold a rung child's work counters into this context.

        Pure accounting: the child already enforced its (parent-capped)
        budget and deadline while running, so absorbing never raises —
        the parent's ``steps`` may land exactly at its budget but not
        beyond it while further rungs still run (each new child slices
        from what genuinely remains).
        """
        self.steps += child.steps
        self.words_tried += child.words_tried
        self.candidates += child.candidates
        self.completions += child.completions
        self.dfs_steps += child.dfs_steps
        self.gap_bfs += child.gap_bfs

    # -- deadline ----------------------------------------------------------------

    def _maybe_check_deadline(self):
        self._charges_until_deadline_check -= 1
        if self._charges_until_deadline_check > 0:
            return
        self._charges_until_deadline_check = self._deadline_check_interval
        self.check_deadline()

    def check_deadline(self):
        """Raise if the wall-clock deadline has passed (no-op without one)."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise DeadlineExceededError(
                "query exceeded its wall-clock deadline",
                steps=self.steps,
            )

    def __repr__(self):
        return (
            "ExecutionContext(steps=%d, words_tried=%d, dfs_steps=%d, "
            "candidates=%d, completions=%d, gap_bfs=%d, budget=%r)"
            % (
                self.steps,
                self.words_tried,
                self.dfs_steps,
                self.candidates,
                self.completions,
                self.gap_bfs,
                self.budget,
            )
        )
