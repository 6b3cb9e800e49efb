"""Scanner tests: token kinds, MATLAB's context-sensitive quirks."""

import pytest

from repro.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind is not TokenKind.EOF]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokenKind.EOF]


class TestNumbers:
    def test_integer(self):
        (tok,) = [t for t in tokenize("42") if t.kind is TokenKind.NUMBER]
        assert tok.text == "42"

    def test_decimal(self):
        assert texts("3.25") == ["3.25"]

    def test_leading_dot(self):
        assert texts(".5") == [".5"]

    def test_exponent(self):
        assert texts("1e-3") == ["1e-3"]

    def test_exponent_plus(self):
        assert texts("2.5e+10") == ["2.5e+10"]

    def test_exponent_no_sign(self):
        assert texts("1e3") == ["1e3"]

    def test_imaginary_i(self):
        toks = tokenize("3i")
        assert toks[0].kind is TokenKind.IMAGINARY
        assert toks[0].text == "3"

    def test_imaginary_j(self):
        assert tokenize("2.5j")[0].kind is TokenKind.IMAGINARY

    def test_number_at_eof_is_not_imaginary(self):
        # Regression: "" in "ij" is True in Python.
        assert tokenize("10")[0].kind is TokenKind.NUMBER

    def test_identifier_after_digits_not_imaginary(self):
        toks = tokenize("3in")
        assert toks[0].kind is TokenKind.NUMBER
        assert toks[1].kind is TokenKind.IDENT


class TestStringsAndTranspose:
    def test_string_literal(self):
        toks = tokenize("'hello'")
        assert toks[0].kind is TokenKind.STRING
        assert toks[0].text == "hello"

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_transpose_after_ident(self):
        assert tokenize("x'")[1].kind is TokenKind.QUOTE

    def test_transpose_after_rparen(self):
        toks = tokenize("(x)'")
        assert toks[3].kind is TokenKind.QUOTE

    def test_transpose_after_rbracket(self):
        toks = tokenize("[1]'")
        assert toks[3].kind is TokenKind.QUOTE

    def test_string_after_assign(self):
        toks = tokenize("s = 'abc'")
        assert toks[2].kind is TokenKind.STRING

    def test_string_after_comma(self):
        toks = tokenize("f(x, 'abc')")
        assert any(t.kind is TokenKind.STRING for t in toks)

    def test_dot_transpose(self):
        assert tokenize("x.'")[1].kind is TokenKind.DOT_QUOTE

    def test_double_transpose(self):
        toks = tokenize("x''")
        assert toks[1].kind is TokenKind.QUOTE
        assert toks[2].kind is TokenKind.QUOTE


class TestOperators:
    @pytest.mark.parametrize(
        "src,kind",
        [
            ("==", TokenKind.EQ),
            ("~=", TokenKind.NE),
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
            ("&&", TokenKind.ANDAND),
            ("||", TokenKind.OROR),
            (".*", TokenKind.DOT_STAR),
            ("./", TokenKind.DOT_SLASH),
            (".\\", TokenKind.DOT_BACKSLASH),
            (".^", TokenKind.DOT_CARET),
        ],
    )
    def test_two_char(self, src, kind):
        assert tokenize(f"a {src} b")[1].kind is kind

    def test_backslash(self):
        assert tokenize("A \\ b")[1].kind is TokenKind.BACKSLASH

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestCommentsAndContinuations:
    def test_comment_to_eol(self):
        assert texts("x % comment here\ny") == ["x", "\n", "y"]

    def test_continuation(self):
        toks = texts("x = 1 + ...\n 2")
        assert "\n" not in toks

    def test_continuation_with_trailing_comment(self):
        toks = texts("x = 1 + ... trailing words\n2")
        assert toks == ["x", "=", "1", "+", "2"]

    def test_consecutive_newlines_collapse(self):
        assert texts("a\n\n\nb").count("\n") == 1


class TestBracketWhitespace:
    """MATLAB's whitespace-as-separator rule inside [ ]."""

    def test_space_separates_elements(self):
        assert texts("[1 2]") == ["[", "1", ",", "2", "]"]

    def test_negative_element(self):
        # [1 -2] is two elements
        assert texts("[1 -2]") == ["[", "1", ",", "-", "2", "]"]

    def test_subtraction_with_spaces(self):
        # [1 - 2] is one element
        assert "," not in texts("[1 - 2]")

    def test_no_separator_before_operator(self):
        assert "," not in texts("[a * b]")

    def test_newline_is_row_separator(self):
        assert ";" in texts("[1 2\n3 4]")

    def test_no_separator_inside_nested_parens(self):
        toks = texts("[f(1, 2) 3]")
        # exactly two commas: the call's and the element separator
        assert toks.count(",") == 2

    def test_transpose_then_space(self):
        assert texts("[a' b']").count(",") == 1

    def test_string_elements(self):
        toks = tokenize("['ab' 'cd']")
        strings = [t for t in toks if t.kind is TokenKind.STRING]
        assert [t.text for t in strings] == ["ab", "cd"]

    def test_not_separator_before_close(self):
        assert "," not in texts("[1 ]")

    def test_trailing_blanks_in_an_open_bracket_end_the_scan(self):
        # Used to look for the next non-blank character forever.
        assert texts("[1 \t") == ["[", "1"]


class TestKeywords:
    @pytest.mark.parametrize(
        "word", ["function", "for", "while", "if", "end", "break", "return"]
    )
    def test_keyword(self, word):
        assert tokenize(word)[0].kind is TokenKind.KEYWORD

    def test_keyword_prefix_is_ident(self):
        assert tokenize("fortune")[0].kind is TokenKind.IDENT

    def test_location_tracking(self):
        toks = tokenize("a\nbb")
        assert toks[0].location.line == 1
        assert toks[2].location.line == 2

    def test_columns_after_bulk_skips(self):
        # Comments, continuations, blank runs, strings and multi-character
        # tokens are stepped over in one go; columns must still add up.
        source = "ab  = 'x''y' + 1.5e3i ... rest\n  .* c % note\n[d   e]"
        where = {
            t.text: (t.location.line, t.location.column)
            for t in tokenize(source)
        }
        assert where["ab"] == (1, 1) and where["="] == (1, 5)
        assert where["x'y"] == (1, 7) and where["+"] == (1, 14)
        assert where["1.5e3"] == (1, 16)
        assert where[".*"] == (2, 3) and where["c"] == (2, 6)
        assert where["\n"] == (2, 14)
        assert where["d"] == (3, 2) and where[","] == (3, 3)
        assert where["e"] == (3, 6)
