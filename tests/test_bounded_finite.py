"""Tests for the finite-language (AC0) solver."""

import time

import pytest

from tests.conftest import paths_agree, random_instance

from repro import catalog
from repro.algorithms.bounded import FiniteLanguageSolver, find_simple_word_path
from repro.algorithms.exact import ExactSolver
from repro.engine import QueryEngine
from repro.errors import BudgetExceededError, ReproError
from repro.execution import ExecutionContext
from repro.graphs.dbgraph import DbGraph, Path
from repro.graphs.generators import labeled_cycle, labeled_path
from repro.languages import language


class TestFindSimpleWordPath:
    def test_exact_word(self):
        graph = labeled_path("abc")
        path = find_simple_word_path(graph, 0, 3, "abc")
        assert path is not None
        assert path.word == "abc"

    def test_word_not_present(self):
        graph = labeled_path("abc")
        assert find_simple_word_path(graph, 0, 3, "abd") is None

    def test_simplicity_enforced(self):
        # aa on a 1-cycle would have to revisit the vertex.
        graph = labeled_cycle("a")
        assert find_simple_word_path(graph, 0, 0, "a") is None

    def test_target_not_revisited_midway(self):
        # Path through the target mid-word is not simple.
        graph = DbGraph.from_edges(
            [(0, "a", 1), (1, "a", 2), (2, "a", 1)]
        )
        assert find_simple_word_path(graph, 0, 1, "aaa") is None

    def test_empty_word(self):
        graph = labeled_path("a")
        assert find_simple_word_path(graph, 0, 0, "") == Path.single(0)
        assert find_simple_word_path(graph, 0, 1, "") is None


class TestFiniteSolver:
    def test_requires_finite_language(self):
        with pytest.raises(ReproError):
            FiniteLanguageSolver(language("a*"))

    def test_shortest_word_preferred(self):
        graph = DbGraph.from_edges(
            [(0, "a", 9), (0, "b", 1), (1, "b", 9)]
        )
        solver = FiniteLanguageSolver(language("bb + a"))
        path = solver.shortest_simple_path(graph, 0, 9)
        assert path.word == "a"

    @pytest.mark.parametrize(
        "entry",
        [e for e in catalog.entries() if e.finite],
        ids=lambda e: e.name,
    )
    def test_agreement_with_exact(self, entry):
        lang = entry.language()
        alphabet = sorted(lang.alphabet) or ["a"]
        solver = FiniteLanguageSolver(lang)
        exact = ExactSolver(lang)
        for seed in range(15):
            graph, x, y = random_instance(seed, alphabet, max_vertices=8)
            assert paths_agree(
                solver.shortest_simple_path(graph, x, y),
                exact.shortest_simple_path(graph, x, y),
            ), (entry.name, seed)

    def test_word_list_is_complete(self):
        # The words the solver tries, in the order it tries them.
        dfa = FiniteLanguageSolver(language("(a + b)(a + b)?")).dfa
        assert list(dfa.enumerate_words(dfa.num_states - 1)) == [
            "a", "b", "aa", "ab", "ba", "bb",
        ]

    def test_words_come_shortest_first_without_a_cap(self):
        # 4^9 = 262,144 words: every one is generated, the path's word
        # (the last in order) included.
        graph = _d_path()
        result = QueryEngine(graph).query("(a+b+c+d)" * 9, "s", "t")
        assert result.found
        assert result.strategy == "finite-AC0"
        assert result.path.word == "d" * 9
        assert result.stats.steps == 4 ** 9

    def test_first_word_answers_without_enumerating_the_rest(self):
        # 8^10 words; the path spells the first of them.
        graph = labeled_path("a" * 10)
        solver = FiniteLanguageSolver(language("(a+b+c+d+e+f+g+h)" * 10))
        ctx = ExecutionContext()
        started = time.perf_counter()
        path = solver.shortest_simple_path(graph, 0, 10, ctx=ctx)
        assert time.perf_counter() - started < 1.0
        assert path.word == "a" * 10
        assert ctx.steps == 1

    def test_the_context_budget_caps_the_words_tried(self):
        # The path spells the last of 4^9 words; a 1000-step budget
        # stops the search after 1000 words, directly and through the
        # engine's per-query budget.
        graph = _d_path()
        regex = "(a+b+c+d)" * 9
        ctx = ExecutionContext(budget=1000)
        with pytest.raises(
            BudgetExceededError, match="^query exceeded its 1000-step budget$"
        ):
            FiniteLanguageSolver(language(regex)).shortest_simple_path(
                graph, "s", "t", ctx=ctx
            )
        assert ctx.steps == 1001
        with pytest.raises(BudgetExceededError):
            QueryEngine(graph, exact_budget=1000).query(regex, "s", "t")


def _d_path():
    """One s→t path, spelling ``d`` × 9."""
    return DbGraph.from_edges(
        [(u, "d", v) for u, v in zip("s12345678", "12345678t")]
    )
