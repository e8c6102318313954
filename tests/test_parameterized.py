"""Tests for the parameterized-complexity entry points (Section 4.2)."""

import pytest

from repro.algorithms.parameterized import para_rspq_finite
from repro.errors import ReproError
from repro.graphs.generators import labeled_path
from repro.languages import language


class TestParaRspqFinite:
    def test_finite_language(self):
        graph = labeled_path("ab")
        path = para_rspq_finite("ab + ba", graph, 0, 2)
        assert path is not None
        assert path.word == "ab"

    def test_infinite_language_rejected(self):
        graph = labeled_path("a")
        with pytest.raises(ReproError):
            para_rspq_finite("a*", graph, 0, 1)

    def test_word_length_bound_argument(self):
        # The Corollary-1 argument: words shorter than |Q_L|.
        lang = language("abc + ab")
        longest = max(len(word) for word in lang.words(10))
        assert longest < lang.num_states
