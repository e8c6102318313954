"""Unit tests for the regex parser (paper dialect)."""

import pytest

from repro.errors import RegexSyntaxError
from repro.languages import Language
from repro.languages.regex import ast as rx
from repro.languages.regex.parser import MAX_NESTING, parse

#: Regexes that nest far past the bound, one per kind of nesting.
TOO_DEEP = {
    "parentheses": "(" * 300 + "a" + ")" * 300,
    "postfix": "a" + "*" * 2000,
}


class TestAtoms:
    def test_single_letter(self):
        assert parse("a") == rx.Literal("a")

    def test_epsilon_word(self):
        assert parse("eps") == rx.Epsilon()

    def test_epsilon_symbol(self):
        assert parse("ε") == rx.Epsilon()

    def test_empty_language(self):
        assert parse("∅") == rx.Empty()

    def test_empty_string_is_epsilon(self):
        assert parse("") == rx.Epsilon()

    def test_digit_literal(self):
        assert parse("0") == rx.Literal("0")

    def test_char_class(self):
        assert parse("[ab]") == rx.CharClass(("a", "b"))

    def test_char_class_is_sorted_and_deduplicated(self):
        assert parse("[bab]") == rx.CharClass(("a", "b"))


class TestOperators:
    def test_concatenation(self):
        assert parse("abc") == rx.Concat(
            (rx.Literal("a"), rx.Literal("b"), rx.Literal("c"))
        )

    def test_union_plus(self):
        assert parse("a + b") == rx.Union((rx.Literal("a"), rx.Literal("b")))

    def test_union_bar(self):
        assert parse("a|b") == rx.Union((rx.Literal("a"), rx.Literal("b")))

    def test_star(self):
        assert parse("a*") == rx.Star(rx.Literal("a"))

    def test_optional(self):
        assert parse("a?") == rx.Optional(rx.Literal("a"))

    def test_explicit_postfix_plus(self):
        assert parse("a^+") == rx.Plus(rx.Literal("a"))

    def test_trailing_plus_is_postfix(self):
        assert parse("ab+") == rx.Concat(
            (rx.Literal("a"), rx.Plus(rx.Literal("b")))
        )

    def test_plus_before_union_is_postfix(self):
        # The paper's "bb+ + ε" idiom.
        node = parse("bb+ + eps")
        assert node == rx.Union(
            (
                rx.Concat((rx.Literal("b"), rx.Plus(rx.Literal("b")))),
                rx.Epsilon(),
            )
        )

    def test_infix_plus_is_union(self):
        assert parse("a+b") == rx.Union((rx.Literal("a"), rx.Literal("b")))

    def test_plus_before_close_paren_is_postfix(self):
        # Groups keep their own Concat node (no flattening in the parser).
        assert parse("(ab+)c") == rx.Concat(
            (
                rx.Concat((rx.Literal("a"), rx.Plus(rx.Literal("b")))),
                rx.Literal("c"),
            )
        )


class TestBounds:
    def test_exact_repeat(self):
        assert parse("a{3}") == rx.Repeat(rx.Literal("a"), 3, 3)

    def test_range_repeat(self):
        assert parse("a{2,5}") == rx.Repeat(rx.Literal("a"), 2, 5)

    def test_open_repeat(self):
        assert parse("a{2,}") == rx.Repeat(rx.Literal("a"), 2, None)

    def test_at_least_ascii(self):
        assert parse("[ab]>=3") == rx.Repeat(rx.CharClass(("a", "b")), 3, None)

    def test_at_least_unicode(self):
        assert parse("a≥2") == rx.Repeat(rx.Literal("a"), 2, None)


class TestPaperLanguages:
    """The expressions the paper uses must all parse."""

    @pytest.mark.parametrize(
        "text",
        [
            "(aa)*",
            "a*ba*",
            "a*bc*",
            "a*(bb+ + ε)c*",
            "a*b(cc)*d",
            "a(c{2,} + eps)(a+b)*(ac)?a*",
            "(0+1)*a*ba* + 0a*",
        ],
    )
    def test_parses(self, text):
        node = parse(text)
        assert isinstance(node, rx.RegexNode)

    def test_roundtrip_through_str(self):
        for text in ["a*ba*", "a*(bb+ + eps)c*", "a*b(cc)*d", "[ab]{2,}"]:
            node = parse(text)
            assert parse(str(node)) == node


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["(a", "a)", "[", "[]", "a{", "a{2", "a{5,2}", "*a", "a>=", "a{x}"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(RegexSyntaxError):
            parse(text)

    def test_non_string_input(self):
        with pytest.raises(RegexSyntaxError):
            parse(42)

    def test_error_carries_position(self):
        try:
            parse("a)")
        except RegexSyntaxError as err:
            assert err.position is not None
        else:  # pragma: no cover
            raise AssertionError("expected a syntax error")


class TestNestingBound:
    @pytest.mark.parametrize("text", TOO_DEEP.values(), ids=TOO_DEEP.keys())
    def test_deep_nesting_is_a_syntax_error(self, text):
        with pytest.raises(RegexSyntaxError, match="nest deeper than %d"
                           % MAX_NESTING):
            Language(text)

    def test_nesting_up_to_the_bound_parses(self):
        depth = MAX_NESTING
        assert parse("(" * depth + "a" + ")" * depth) == rx.Literal("a")
        assert Language("a" + "*" * depth).accepts("aaa")
        with pytest.raises(RegexSyntaxError):
            parse("(" * (depth + 1) + "a" + ")" * (depth + 1))
        with pytest.raises(RegexSyntaxError):
            parse("(" * depth + "a*" + ")" * depth)
        with pytest.raises(RegexSyntaxError):
            parse("a" + "*" * (depth + 1))
