"""Token kinds and the token record produced by the scanner."""

from __future__ import annotations

import enum
from dataclasses import dataclass

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

@dataclass(frozen=True)
class Token:
    """One lexical token with its source location."""

    kind: TokenKind
    text: str
    location: SourceLocation

    @property
    def is_keyword(self) -> bool:
        return self.kind is TokenKind.KEYWORD

    def is_kw(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r})"
