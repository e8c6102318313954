"""Recursive-descent parser for the paper's regular-expression dialect.

Grammar (whitespace is insignificant everywhere):

::

    union   ::= concat ('+' concat | '|' concat)*
    concat  ::= repeat+
    repeat  ::= atom ('*' | '?' | '^+' | '{' bounds '}' | '>=' INT)*
    atom    ::= LETTER | 'ε' | 'eps' | '∅' | '[' LETTER+ ']' | '(' union ')'
    bounds  ::= INT | INT ',' | INT ',' INT

Notes on the dialect:

* ``+`` between expressions is *union*, exactly as written in the paper
  (``bb+ + ε`` reads "bb⁺ union ε"), while a ``+`` immediately following
  an atom with no left operand pending is *one-or-more*.  This mirrors how
  the paper overloads ``+`` and resolves the ambiguity the same way a
  human reader does: a ``+`` that could continue a concatenation is
  postfix, a ``+`` followed by nothing concatenable is union.  In
  practice: ``a+b`` parses as union while ``a+ b`` and ``a+`` parse the
  postfix plus.  To force the postfix reading unambiguously, ``^+`` is
  also accepted.
* ``A>=k`` is the paper's ``A≥k`` shortcut for ``A^k A*`` (``≥`` itself is
  accepted too).
* Letters are single characters outside the reserved set
  ``()[]{}*+?|,^<>= ``.  Digits may be letters; inside ``{...}`` and
  after ``>=`` they are parsed as bounds (context decides, no
  ambiguity).
* Parentheses and postfix operators nest at most :data:`MAX_NESTING`
  deep: the parser, the AST walks and the Thompson construction
  recurse once per level, so deeper input is a syntax error rather
  than a stack overflow.

The parser is deliberately small and produces the AST of
:mod:`repro.languages.regex.ast`.
"""

from __future__ import annotations

from ...errors import RegexSyntaxError
from .ast import (
    CharClass,
    Concat,
    Empty,
    Epsilon,
    Literal,
    Optional,
    Plus,
    Repeat,
    Star,
    Union,
)

_RESERVED = set("()[]{}*+?|,^<>=≥ \t\n")
_EPSILON_TOKENS = ("ε", "eps")

#: Deepest nesting of parentheses and postfix operators
#: (``*``, ``?``, ``+``, ``{m,n}``, ``>=k``) one regex may use.
MAX_NESTING = 100


class _Parser:
    """Single-use recursive-descent parser over an input string."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        #: Parentheses open at ``pos``.
        self.open_groups = 0
        #: Nesting of the expression most recently parsed: the deepest
        #: chain of parentheses and postfix operators inside it.
        self.nesting = 0

    # -- low-level helpers -------------------------------------------------

    def _error(self, message):
        raise RegexSyntaxError(
            "%s at position %d in %r" % (message, self.pos, self.text),
            text=self.text,
            position=self.pos,
        )

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def _peek_raw(self):
        """Next character without skipping whitespace (for postfix '+')."""
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def _take(self, expected=None):
        self._skip_ws()
        if self.pos >= len(self.text):
            self._error("unexpected end of input")
        char = self.text[self.pos]
        if expected is not None and char != expected:
            self._error("expected %r, found %r" % (expected, char))
        self.pos += 1
        return char

    def _nest(self, nesting):
        """Record ``nesting`` for the current expression, within bounds."""
        if nesting > MAX_NESTING:
            self._error(
                "parentheses and postfix operators nest deeper than %d"
                % MAX_NESTING
            )
        self.nesting = nesting

    def _take_int(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self._error("expected an integer")
        return int(self.text[start:self.pos])

    def _starts_atom(self):
        char = self._peek()
        if not char:
            return False
        if char in "([":
            return True
        if char in _RESERVED:
            return False
        return True

    # -- grammar ------------------------------------------------------------

    def parse(self):
        node = self._union()
        self._skip_ws()
        if self.pos != len(self.text):
            self._error("trailing input")
        return node

    def _union(self):
        parts = [self._concat()]
        nesting = self.nesting
        while True:
            char = self._peek()
            if char == "|":
                self._take("|")
                parts.append(self._concat())
            elif char == "+":
                # Union '+' only when something concatenable follows;
                # otherwise it is a dangling postfix plus already consumed
                # by _repeat, so seeing '+' here means union context.
                self._take("+")
                parts.append(self._concat())
            else:
                break
            nesting = max(nesting, self.nesting)
        self.nesting = nesting
        if len(parts) == 1:
            return parts[0]
        return Union(tuple(parts))

    def _concat(self):
        parts = [self._repeat()]
        nesting = self.nesting
        while self._starts_atom():
            parts.append(self._repeat())
            nesting = max(nesting, self.nesting)
        self.nesting = nesting
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def _repeat(self):
        node = self._atom()
        nesting = self.nesting
        while True:
            self._skip_ws()
            char = self._peek_raw()
            if char == "*":
                self.pos += 1
                node = Star(node)
            elif char == "?":
                self.pos += 1
                node = Optional(node)
            elif char == "^":
                self.pos += 1
                self._take("+")
                node = Plus(node)
            elif char == "{":
                node = self._braces(node)
            elif char == ">" or char == "≥":
                node = self._at_least(node)
            elif char == "+" and self._plus_is_postfix():
                self.pos += 1
                node = Plus(node)
            else:
                break
            nesting += 1
            self._nest(nesting)
        self.nesting = nesting
        return node

    def _plus_is_postfix(self):
        """Decide whether a '+' at self.pos is postfix one-or-more.

        It is postfix when no atom could start right after it -- i.e. the
        '+' ends the expression, closes a group, or is itself followed by
        a union '+' (as in ``bb+ + ε``).
        """
        look = self.pos + 1
        while look < len(self.text) and self.text[look] in " \t\n":
            look += 1
        if look >= len(self.text):
            return True
        nxt = self.text[look]
        return nxt in ")+|"

    def _braces(self, node):
        self._take("{")
        low = self._take_int()
        high = low
        if self._peek() == ",":
            self._take(",")
            if self._peek() == "}":
                high = None
            else:
                high = self._take_int()
        self._take("}")
        if high is not None and high < low:
            self._error("repetition upper bound below lower bound")
        return Repeat(node, low, high)

    def _at_least(self, node):
        char = self._take()
        if char == ">":
            self._take("=")
        elif char != "≥":
            self._error("expected '>=' or '≥'")
        low = self._take_int()
        return Repeat(node, low, None)

    def _atom(self):
        char = self._peek()
        self.nesting = 0
        if char == "(":
            self._take("(")
            # Checked on the way in, before recursing any deeper.
            self.open_groups += 1
            self._nest(self.open_groups)
            node = self._union()
            self._take(")")
            self.open_groups -= 1
            self._nest(self.nesting + 1)
            return node
        if char == "[":
            return self._char_class()
        if char == "∅":
            self._take()
            return Empty()
        if char == "ε":
            self._take()
            return Epsilon()
        if self.text.startswith("eps", self.pos):
            self.pos += 3
            return Epsilon()
        if not char:
            self._error("unexpected end of input, expected an atom")
        if char in _RESERVED:
            self._error("unexpected character %r" % char)
        self._take()
        return Literal(char)

    def _char_class(self):
        self._take("[")
        symbols = []
        while True:
            char = self._peek()
            if char == "]":
                break
            if not char:
                self._error("unterminated character class")
            if char in _RESERVED:
                self._error("invalid character %r in class" % char)
            symbols.append(self._take())
        self._take("]")
        if not symbols:
            self._error("empty character class")
        return CharClass(tuple(symbols))


def parse(text):
    """Parse ``text`` into a :class:`RegexNode`.

    >>> str(parse("a*(bb+ + eps)c*"))
    'a*(bb^+ + ε)c*'
    """
    if not isinstance(text, str):
        raise RegexSyntaxError("regex input must be a string", text=repr(text))
    stripped = text.strip()
    if not stripped:
        return Epsilon()
    return _Parser(stripped).parse()
