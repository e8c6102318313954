"""Parameterized complexity of RSPQs (Section 4.2).

Two problems and the positive results the paper proves:

* **k-RSPQ** (parameter: the path size ``k``): is there a simple
  L-labeled path of size ≤ k from x to y?  FPT by color coding
  (Theorem 7): :class:`~repro.algorithms.color_coding.ColorCodingSolver`,
  which :class:`~repro.core.solver.RspqSolver` runs as a middle rung
  for queries that opt into the portfolio (``max_path_edges`` sets
  ``k``).
* **para-RSPQ** (parameter: the automaton size ``|Q_L|``): the paper's
  partial result (Corollary 1) shows FPT for the class of *finite*
  languages, because every accepted word is shorter than ``|Q_L|`` and
  k-RSPQ applies with ``k = |Q_L| - 1``.  :func:`para_rspq_finite`
  implements exactly that argument (here via the exact finite-language
  solver, whose cost is also bounded by a function of the parameter
  times a polynomial).

The paper leaves para-RSPQ(trC) open (conjectured FPT); there is
nothing to implement for the open case.
"""

from __future__ import annotations

from ..errors import ReproError
from ..languages import Language
from .bounded import FiniteLanguageSolver


def para_rspq_finite(language, graph, source, target):
    """Corollary 1: RSPQ is FPT for finite languages (parameter |Q_L|).

    Every word of a finite language has length < |Q_L|, so the query
    reduces to k-RSPQ with ``k = |Q_L| - 1``; solving it exactly costs
    ``f(|Q_L|) · poly(|G|)``.  Raises for infinite languages (the open
    case the paper conjectures about).
    """
    if isinstance(language, str):
        language = Language(language)
    if not language.is_finite():
        raise ReproError(
            "para-RSPQ is implemented for finite languages only "
            "(Corollary 1); para-RSPQ(trC) is the paper's open question"
        )
    return FiniteLanguageSolver(language).shortest_simple_path(
        graph, source, target
    )
