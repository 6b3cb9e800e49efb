"""The MATLAB scanner: one master regular expression, one match per token.

The pattern recognises each lexeme; the loop applies MATLAB's context
rules, which depend on the previous token's kind or the open brackets:

* ``'`` is the transpose operator after an identifier, number, closing
  bracket, string or another transpose, and starts a string otherwise;
* inside ``[...]`` a run of blanks between the end of one element and the
  start of the next separates them (``[1 -2]`` has two elements,
  ``[1 - 2]`` one), and a newline separates rows;
* ``...`` continues a logical line across physical lines;
* ``%`` starts a comment to end of line;
* other newlines are significant (statement separators), runs collapse;
* ``3i`` / ``2.5j`` are imaginary literals.
"""

from __future__ import annotations

import re

from repro.errors import LexError, SourceLocation
from repro.frontend.tokens import (
    COMMA, DOT_QUOTE, EOF, IDENT, IMAGINARY, KEYWORD,
    LBRACKET, NEWLINE, NUMBER, QUOTE, RBRACKET, RPAREN, SEMICOLON, STRING,
    KEYWORDS, Token, TokenKind,
)

# Kinds that end an expression: a quote after one is a transpose, and a
# blank after one inside brackets may separate elements.
_TRANSPOSE_CONTEXT = frozenset({
    IDENT, NUMBER, IMAGINARY, RPAREN, RBRACKET, QUOTE, DOT_QUOTE, STRING,
})

_OPERATORS = {
    kind.value: kind for kind in TokenKind
    if kind.value[0] in "+-*/\\^.'=~<>&|()[],;:"
}

# ``str.isdigit``: the decimal digits ``\d`` matches, plus the superscript,
# subscript and circled digits that are not decimal.
# ``tests/test_lexer.py`` checks the class against every code point.
_DIGIT = (
    r"[\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079"
    r"\u2080-\u2089\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea"
    r"\u24f5-\u24fd\u24ff\u2776-\u277e\u2780-\u2788\u278a-\u2792"
    r"\U00010a40-\U00010a43\U00010e60-\U00010e68\U00011052-\U0001105a"
    r"\U0001f100-\U0001f10a]"
)
# A letter after a number's ``.`` ends the number before it: ``1.e3`` is
# ``1`` then a stray ``.``.  (``\w`` less digits and ``_`` also holds the
# numerals ``str.isalpha`` refuses, such as ``½``; an error follows
# either way, at the ``.`` rather than at the numeral.)
_LETTER = rf"(?!{_DIGIT})[^\W_]"

# One token and the blanks before it; inside brackets the loop checks
# those blanks against the element rule.
_PATTERN = re.compile(rf"""[ \t\r]*(?:
    (?P<ident>[A-Za-z_]\w*)
  | (?P<op>==|~=|<=|>=|&&|\|\||\.[*/\\^']|[-+*/\\^<>&|~=,;:])
  | (?P<newline>\n)
  | (?P<open>[(\[])
  | (?P<close>[)\]])
  | (?P<number>(?=\.?{_DIGIT}){_DIGIT}*(?:\.(?!\.|{_LETTER}){_DIGIT}*)?
        (?:[eE][+-]?{_DIGIT}+)?(?P<imaginary>[ij](?!\w))?)
  | (?P<quote>')
  | (?P<comment>%[^\n]*)
  | (?P<continuation>\.\.\.[^\n]*\n?)
  | (?P<end>\Z)      # blanks at the end of the text
  | (?P<other>[^\W\d]\w*|.)
)""", re.VERBOSE)

# What may follow a blank inside brackets and start a new element.
_STARTS_ELEMENT = re.compile(rf"\.{_DIGIT}|[+-][^ \t\r=]|~(?!=)|'|[\w(\[]")

# A string literal from its opening quote; ``''`` is an escaped quote, so
# the closing quote is the first one not followed by another.
_STRING = re.compile(r"'((?:[^'\n]|'')*)'(?!')")


class Lexer:
    """Scanner over one source string."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename
        self.tokens: list[Token] = []

    def tokenize(self) -> list[Token]:
        source, filename = self.source, self.filename
        tokens = self.tokens
        append = tokens.append
        match = _PATTERN.match
        # Open ``(`` and ``[``: blanks and newlines act as separators only
        # when the innermost one is a bracket.
        groups: list[str] = []
        last = None  # the kind of the last token
        line, line_start = 1, 0
        pos, size = 0, len(source)
        while pos < size:
            m = match(source, pos)
            group = m.lastgroup
            start = m.start(group)
            if (
                start != pos and groups and groups[-1] == "["
                and last in _TRANSPOSE_CONTEXT
                and _STARTS_ELEMENT.match(source, start)
            ):
                last = COMMA
                append(Token(COMMA, ",", line, pos - line_start + 1, filename))
            pos = m.end()
            column = start - line_start + 1
            if group == "ident":
                text = m[group]
                last = KEYWORD if text in KEYWORDS else IDENT
                append(Token(last, text, line, column, filename))
            elif group == "op" or group == "open" or group == "close":
                text = m[group]
                if group == "open":
                    groups.append(text)
                elif group == "close" and groups:
                    groups.pop()
                last = _OPERATORS[text]
                append(Token(last, text, line, column, filename))
            elif group == "newline":
                if groups and groups[-1] == "[":
                    kind = (None if last is SEMICOLON or last is LBRACKET
                            else SEMICOLON)  # a row separator
                else:
                    kind = None if last is None or last is NEWLINE else NEWLINE
                if kind is not None:
                    last = kind
                    append(Token(kind, kind.value, line, column, filename))
                line, line_start = line + 1, pos
            elif group == "number":
                text = m[group]
                if m["imaginary"]:  # ``3i``: the number before the i
                    last, text = IMAGINARY, text[:-1]
                else:
                    last = NUMBER
                append(Token(last, text, line, column, filename))
            elif group == "quote":
                if last in _TRANSPOSE_CONTEXT:
                    last = QUOTE
                    append(Token(last, "'", line, column, filename))
                else:
                    string = _STRING.match(source, start)
                    if string is None:
                        raise LexError(
                            "unterminated string literal",
                            SourceLocation(line, column, filename),
                        )
                    pos = string.end()
                    last = STRING
                    append(Token(last, string.group(1).replace("''", "'"),
                                 line, column, filename))
            elif group == "continuation":
                if source[pos - 1] == "\n":
                    line, line_start = line + 1, pos
            elif group == "other":
                # A non-ASCII letter starts an identifier (never a
                # keyword); anything else is an error.
                text = m[group]
                if not text[0].isalpha():
                    raise LexError(
                        f"unexpected character {text[0]!r}",
                        SourceLocation(line, column, filename),
                    )
                last = IDENT
                append(Token(last, text, line, column, filename))
        append(Token(EOF, "", line, pos - line_start + 1, filename))
        return tokens


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Scan ``source`` into a token list ending with EOF."""
    return Lexer(source, filename).tokenize()
