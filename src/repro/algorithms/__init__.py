"""Baseline and comparison algorithms."""

from .algebraic import AlgebraicSolver
from .bounded import FiniteLanguageSolver, find_simple_word_path
from .color_coding import ColorCodingSolver, trials_for_prob
from .dag import is_dag
from .disjoint_paths import vertex_disjoint_paths_exist
from .exact import ExactSolver
from .rpq import RpqSolver
from .parameterized import para_rspq_finite
from .semantics import SEMANTICS, SemanticsEvaluator
from . import reductions, treewidth

__all__ = [
    "AlgebraicSolver",
    "ColorCodingSolver",
    "ExactSolver",
    "FiniteLanguageSolver",
    "RpqSolver",
    "SEMANTICS",
    "SemanticsEvaluator",
    "find_simple_word_path",
    "is_dag",
    "para_rspq_finite",
    "reductions",
    "treewidth",
    "trials_for_prob",
    "vertex_disjoint_paths_exist",
]
