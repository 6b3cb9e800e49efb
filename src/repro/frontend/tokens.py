"""Token kinds and the token record produced by the scanner."""

from __future__ import annotations

import enum

from repro.errors import SourceLocation


class TokenKind(enum.Enum):
    NUMBER = "number"            # 3, 2.5, 1e-3
    IMAGINARY = "imaginary"      # 3i, 2.5j
    STRING = "string"            # 'text'
    IDENT = "ident"
    KEYWORD = "keyword"

    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    BACKSLASH = "\\"
    CARET = "^"
    DOT_STAR = ".*"
    DOT_SLASH = "./"
    DOT_BACKSLASH = ".\\"
    DOT_CARET = ".^"
    QUOTE = "'"                  # complex-conjugate transpose
    DOT_QUOTE = ".'"             # plain transpose

    EQ = "=="
    NE = "~="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    AND = "&"
    OR = "|"
    ANDAND = "&&"
    OROR = "||"
    NOT = "~"

    ASSIGN = "="
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMICOLON = ";"
    COLON = ":"
    NEWLINE = "\n"

    EOF = "eof"

    # Members compare by identity; hashing by identity too keeps dict and
    # set lookups keyed on kinds in C (``Enum.__hash__`` is Python code).
    __hash__ = object.__hash__


# Every kind as a module global too: ``TokenKind.IDENT`` goes through the
# enum's metaclass on each read, and the scanner and parser read kinds once
# or more per token.  In definition order; ``tests/test_lexer.py`` checks
# that each name is bound to its own member.
(NUMBER, IMAGINARY, STRING, IDENT, KEYWORD,
 PLUS, MINUS, STAR, SLASH, BACKSLASH, CARET,
 DOT_STAR, DOT_SLASH, DOT_BACKSLASH, DOT_CARET, QUOTE, DOT_QUOTE,
 EQ, NE, LT, LE, GT, GE, AND, OR, ANDAND, OROR, NOT,
 ASSIGN, LPAREN, RPAREN, LBRACKET, RBRACKET, COMMA, SEMICOLON, COLON,
 NEWLINE, EOF) = TokenKind

KEYWORDS = frozenset(
    {
        "function",
        "for",
        "while",
        "if",
        "elseif",
        "else",
        "end",
        "break",
        "continue",
        "return",
        "global",
        "clear",
        "otherwise",
        "switch",
        "case",
    }
)

class Token:
    """One lexical token: its kind, its text and where it starts.

    The :class:`SourceLocation` is built only when something reads
    :attr:`location` (the parser, once per AST node, and error reports).
    """

    __slots__ = ("kind", "text", "line", "column", "filename")

    def __init__(self, kind: TokenKind, text: str, line: int, column: int,
                 filename: str = "<input>"):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.filename = filename

    @property
    def location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column, self.filename)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r})"
