"""Regular-language toolkit: regexes, NFAs, DFAs, structural analysis.

The central convenience is :func:`language`, which takes a regex string
(or AST) and returns a :class:`Language` handle bundling the parsed
expression with its minimal complete DFA.  Everything in the paper is
stated on the minimal DFA ``A_L``, so most of the library passes
``Language`` objects around.
"""

from __future__ import annotations

from .regex import ast as regex_ast
from .regex import builder
from .regex.parser import parse as parse_regex
from .nfa import NFA, nfa_from_ast
from .dfa import DFA, dfa_from_words, from_nfa
from . import analysis, properties


class Language:
    """A regular language: regex AST + minimal complete DFA.

    Parameters
    ----------
    source:
        A regex string, a regex AST node, an :class:`NFA`, or a
        :class:`DFA`.
    alphabet:
        Optional alphabet extension; the DFA is completed over the union
        of this set and the symbols occurring in ``source``.
    name:
        Optional display name (used by the catalog and benches).
    """

    def __init__(self, source, alphabet=None, name=None):
        self.name = name
        self.ast = None
        self._used_symbols = None
        if isinstance(source, str):
            self.ast = parse_regex(source)
            nfa = nfa_from_ast(self.ast)
            self.dfa = from_nfa(nfa, alphabet).minimized()
        elif isinstance(source, regex_ast.RegexNode):
            self.ast = source
            nfa = nfa_from_ast(source)
            self.dfa = from_nfa(nfa, alphabet).minimized()
        elif isinstance(source, NFA):
            self.dfa = from_nfa(source, alphabet).minimized()
        elif isinstance(source, DFA):
            dfa = source
            if alphabet is not None:
                dfa = dfa.completed(alphabet)
            self.dfa = dfa.minimized()
        else:
            raise TypeError("unsupported language source %r" % (source,))

    # -- delegation to the DFA -------------------------------------------------

    @property
    def alphabet(self):
        return self.dfa.alphabet

    @property
    def num_states(self):
        """M — the size of Q_L in the paper's notation."""
        return self.dfa.num_states

    @property
    def used_symbols(self):
        """Symbols some word of L uses
        (:func:`~repro.languages.analysis.useful_symbols`): the label
        mask of every query on L.  Computed on first use, once per
        language, for the plan's solvers to share."""
        if self._used_symbols is None:
            self._used_symbols = analysis.useful_symbols(self.dfa)
        return self._used_symbols

    def accepts(self, word):
        return self.dfa.accepts(word)

    def is_empty(self):
        return self.dfa.is_empty()

    def is_finite(self):
        return self.dfa.is_finite()

    def shortest_word(self):
        return self.dfa.shortest_accepted()

    def words(self, max_length, limit=None):
        return properties.sample_words(self.dfa, max_length, limit)

    def equivalent(self, other):
        other_dfa = other.dfa if isinstance(other, Language) else other
        return self.dfa.equivalent(other_dfa)

    def __repr__(self):
        label = self.name or (str(self.ast) if self.ast is not None else "?")
        return "Language(%s)" % label


def language(source, alphabet=None, name=None):
    """Build a :class:`Language` from a regex string / AST / NFA / DFA."""
    return Language(source, alphabet=alphabet, name=name)


__all__ = [
    "DFA",
    "Language",
    "NFA",
    "analysis",
    "builder",
    "dfa_from_words",
    "from_nfa",
    "language",
    "nfa_from_ast",
    "parse_regex",
    "properties",
    "regex_ast",
]
