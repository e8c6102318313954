"""RSPQs on vertex-labeled and vertex+edge-labeled graphs (Section 4.1).

The paper adapts the dichotomy to vl-graphs via the relation
``w1 ≡vl w2`` (same last letter) and ``Loop_a(q)`` (loops whose last
letter is ``a``):

* Definition 5 / Theorem 5: RSPQ(L, vlg) is in NL iff L ∈ trC_vlg, and
  NP-complete otherwise, where trC_vlg relaxes Definition 1 to word
  pairs with a common last letter.
* Definition 6 / Theorem 6: the evl analogue with ``≡evl`` (same last
  vertex label, any edge label) over the pair alphabet ``Σ_V × Σ_E``.

Membership reads the same pair closure as the edge-labeled Lemma-6
test (:func:`repro.core.trc.violating_pairs`), with the letters split
into groups: each letter is its own group for ``≡vl``, and pair
symbols group by vertex label for ``≡evl``.  A pair of states violates
the condition when, for a group in which both have a loop ending,
``Loop_g(q2)^M · L_{q2} ⊄ L_{q1}``.  A brute-force definitional oracle
is provided for cross-validation, and :func:`solve_vlg` evaluates
queries on vl-graphs (exactly, via the encoding into db-graphs and the
quotient language λ(x)⁻¹L).
"""

from __future__ import annotations

from ..errors import GraphError
from ..graphs.vlgraph import EvlGraph, VlGraph
from ..languages import Language
from .trc import _as_minimal_dfa, _decompositions, violating_pairs


def is_in_trc_vlg(lang_or_dfa):
    """Decide ``L ∈ trC_vlg`` (Definition 5 / Theorem 5 criterion)."""
    dfa = _as_minimal_dfa(lang_or_dfa)
    groups = {letter: letter for letter in dfa.alphabet}
    return next(violating_pairs(dfa, groups), None) is None


def is_in_trc_evlg(lang_or_dfa, vertex_label_of):
    """Decide ``L ∈ trC_evlg`` over a pair-encoded alphabet.

    ``vertex_label_of`` maps each encoded symbol to its vertex-label
    component, defining the ``≡evl`` groups.
    """
    dfa = _as_minimal_dfa(lang_or_dfa)
    groups = {letter: vertex_label_of(letter) for letter in dfa.alphabet}
    return next(violating_pairs(dfa, groups), None) is None


# -- brute-force definitional oracle ----------------------------------------------


def find_trc_vlg_counterexample(lang_or_dfa, repetitions, max_length):
    """Search for a Definition-5 violation with bounded word lengths.

    Same contract as
    :func:`repro.core.trc.find_trc_counterexample`, but decompositions
    must satisfy ``w1 ≡vl w2`` (identical last letters).
    """
    dfa = _as_minimal_dfa(lang_or_dfa)
    for word in dfa.enumerate_words(max_length):
        for wl, w1, wm, w2, wr in _decompositions(word, repetitions):
            if not w1 or not w2 or w1[-1] != w2[-1]:
                continue
            pumped = wl + w1 * repetitions + w2 * repetitions + wr
            if not dfa.accepts(pumped):
                return (wl, w1, wm, w2, wr)
    return None


# -- evaluation on vl-graphs ---------------------------------------------------------


def solve_vlg(language, vlgraph, source, target, exact_budget=None, ctx=None):
    """Exact RSPQ on a vertex-labeled graph.

    The query asks for a simple path ``x = v1, …, vk = y`` whose
    *vertex-label word* ``λ(v1) λ(v2) … λ(vk)`` belongs to L.  Encoding:
    the db-graph carries ``λ(target)`` on each edge, so edge words spell
    ``λ(v2) … λ(vk)`` and the query becomes RSPQ(λ(x)⁻¹ L) on the
    encoded graph.  Evaluation uses the generic dispatcher, so languages
    whose quotient is tractable on the encoded graph run in polynomial
    time; the remainder fall back to exact search.

    Returns the result of the underlying db-graph solver.
    """
    from .solver import RspqSolver

    if not isinstance(vlgraph, VlGraph):
        raise GraphError("solve_vlg expects a VlGraph")
    if isinstance(language, str):
        language = Language(language)
    encoded = vlgraph.to_dbgraph()
    start_label = vlgraph.label_of(source)
    quotient_dfa = language.dfa.completed(
        set(vertex_label for vertex_label in _vl_labels(vlgraph))
    )
    quotient_state = quotient_dfa.run(start_label)
    quotient = Language(
        quotient_dfa.with_initial(quotient_state), name="quotient"
    )
    solver = RspqSolver(quotient, exact_budget=exact_budget)
    return solver.solve(encoded, source, target, ctx=ctx)


def _vl_labels(vlgraph):
    return {vlgraph.label_of(vertex) for vertex in vlgraph.vertices()}


def solve_evlg(language, evlgraph, source, target, encoding=None,
               exact_budget=None, ctx=None):
    """Exact RSPQ on a vertex+edge-labeled graph via the pair encoding.

    ``language`` must be given over the *encoded* pair alphabet (use
    ``encoding`` from :meth:`EvlGraph.to_dbgraph` to build it).  The
    word of a path is the sequence of ``(λ(v_{i+1}), edge label)``
    pairs, matching the convention of :func:`solve_vlg`.
    """
    from .solver import RspqSolver

    if not isinstance(evlgraph, EvlGraph):
        raise GraphError("solve_evlg expects an EvlGraph")
    encoded, used_encoding = evlgraph.to_dbgraph(pair_encoding=encoding)
    if isinstance(language, str):
        language = Language(language)
    solver = RspqSolver(language, exact_budget=exact_budget)
    return solver.solve(encoded, source, target, ctx=ctx), used_encoding
