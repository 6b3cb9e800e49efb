"""Scanner tests: token kinds, MATLAB's context-sensitive quirks."""

import re
import sys

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


def stream(source):
    """Every token as (kind, text, line, column), EOF included."""
    return [
        (t.kind.name, t.text, t.location.line, t.location.column)
        for t in tokenize(source)
    ]


class TestPinnedStreams:
    """Kind, text and location of every token on the scanner's edges:
    non-ASCII letters and digits, number and imaginary boundaries, tabs
    and CRLF, continuations, and error locations."""

    @pytest.mark.parametrize("source,expected", [
        # Non-ASCII letters and digits follow ``str.isalpha`` /
        # ``str.isdigit`` / ``\w``.
        ("é", [("IDENT", "é", 1, 1), ("EOF", "", 1, 2)]),
        ("xé1", [("IDENT", "xé1", 1, 1), ("EOF", "", 1, 4)]),
        ("²", [("NUMBER", "²", 1, 1), ("EOF", "", 1, 2)]),
        ("٣", [("NUMBER", "٣", 1, 1), ("EOF", "", 1, 2)]),
        ("1²", [("NUMBER", "1²", 1, 1), ("EOF", "", 1, 3)]),
        ("x²", [("IDENT", "x²", 1, 1), ("EOF", "", 1, 3)]),
        (".5i", [("IMAGINARY", ".5", 1, 1), ("EOF", "", 1, 4)]),
        ("3ix", [("NUMBER", "3", 1, 1), ("IDENT", "ix", 1, 2),
                 ("EOF", "", 1, 4)]),
        ("3i_", [("NUMBER", "3", 1, 1), ("IDENT", "i_", 1, 2),
                 ("EOF", "", 1, 4)]),
        ("y = 2.5e+3j;\r\n", [
            ("IDENT", "y", 1, 1), ("ASSIGN", "=", 1, 3),
            ("IMAGINARY", "2.5e+3", 1, 5), ("SEMICOLON", ";", 1, 12),
            ("NEWLINE", "\n", 1, 14), ("EOF", "", 2, 1)]),
        ("x.'", [("IDENT", "x", 1, 1), ("DOT_QUOTE", ".'", 1, 2),
                 ("EOF", "", 1, 4)]),
        ("x(end)'", [
            ("IDENT", "x", 1, 1), ("LPAREN", "(", 1, 2),
            ("KEYWORD", "end", 1, 3), ("RPAREN", ")", 1, 6),
            ("QUOTE", "'", 1, 7), ("EOF", "", 1, 8)]),
        ("a\t=\tb'", [
            ("IDENT", "a", 1, 1), ("ASSIGN", "=", 1, 3),
            ("IDENT", "b", 1, 5), ("QUOTE", "'", 1, 6), ("EOF", "", 1, 7)]),
        ("[1 \t2]", [
            ("LBRACKET", "[", 1, 1), ("NUMBER", "1", 1, 2),
            ("COMMA", ",", 1, 3), ("NUMBER", "2", 1, 5),
            ("RBRACKET", "]", 1, 6), ("EOF", "", 1, 7)]),
        ("a = 1;\r\nb = 2;\r\n", [
            ("IDENT", "a", 1, 1), ("ASSIGN", "=", 1, 3),
            ("NUMBER", "1", 1, 5), ("SEMICOLON", ";", 1, 6),
            ("NEWLINE", "\n", 1, 8), ("IDENT", "b", 2, 1),
            ("ASSIGN", "=", 2, 3), ("NUMBER", "2", 2, 5),
            ("SEMICOLON", ";", 2, 6), ("NEWLINE", "\n", 2, 8),
            ("EOF", "", 3, 1)]),
        ("[a\r\nb]", [
            ("LBRACKET", "[", 1, 1), ("IDENT", "a", 1, 2),
            ("SEMICOLON", ";", 1, 4), ("IDENT", "b", 2, 1),
            ("RBRACKET", "]", 2, 2), ("EOF", "", 2, 3)]),
        # A continuation inside brackets, and after a string.
        ("[1 ...\n 2]", [
            ("LBRACKET", "[", 1, 1), ("NUMBER", "1", 1, 2),
            ("COMMA", ",", 2, 1), ("NUMBER", "2", 2, 2),
            ("RBRACKET", "]", 2, 3), ("EOF", "", 2, 4)]),
        ("[a' ...\r\n b]", [
            ("LBRACKET", "[", 1, 1), ("IDENT", "a", 1, 2),
            ("QUOTE", "'", 1, 3), ("COMMA", ",", 2, 1),
            ("IDENT", "b", 2, 2), ("RBRACKET", "]", 2, 3),
            ("EOF", "", 2, 4)]),
        ("['ab' ...\n 'cd']", [
            ("LBRACKET", "[", 1, 1), ("STRING", "ab", 1, 2),
            ("COMMA", ",", 2, 1), ("STRING", "cd", 2, 2),
            ("RBRACKET", "]", 2, 6), ("EOF", "", 2, 7)]),
        ("s = 'ab' ...\n+ 1", [
            ("IDENT", "s", 1, 1), ("ASSIGN", "=", 1, 3),
            ("STRING", "ab", 1, 5), ("PLUS", "+", 2, 1),
            ("NUMBER", "1", 2, 3), ("EOF", "", 2, 4)]),
    ])
    def test_stream(self, source, expected):
        assert stream(source) == expected

    @pytest.mark.parametrize("source,message,line,column", [
        ("1.e3", "unexpected character '.'", 1, 2),
        ("1..2", "unexpected character '.'", 1, 2),
        ("x = ½", "unexpected character '½'", 1, 5),
        ("a = 1 + ...\n2;\nb = ...\n  c $", "unexpected character '$'", 4, 5),
        ("a = ...\n1;\nb = 'oops\n", "unterminated string literal", 3, 5),
        ("a = ...\n1;\nb = 'it''s\nc = 1;", "unterminated string literal",
         3, 5),
    ])
    def test_error(self, source, message, line, column):
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert str(info.value) == f"<input>:{line}:{column}: {message}"
        location = info.value.location
        assert (location.line, location.column) == (line, column)


def test_digit_class_is_str_isdigit():
    """The scanner's digit class is ``str.isdigit``, code point for code
    point, on the running Python's Unicode tables."""
    # A private name, imported here so the pinned rows above run against
    # any scanner.
    from repro.frontend.lexer import _DIGIT

    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(_DIGIT, every) == [c for c in every if c.isdigit()]


def test_kind_globals_name_their_own_members():
    from repro.frontend import tokens

    for name, kind in TokenKind.__members__.items():
        assert getattr(tokens, name) is kind
