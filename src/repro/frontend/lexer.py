"""The MATLAB scanner.

Handles the lexical quirks that make MATLAB scanning context-sensitive:

* ``'`` is either the transpose operator or a string delimiter, depending on
  the previous token (transpose after an identifier, number, closing bracket
  or another transpose; string otherwise);
* ``...`` continues a logical line across physical lines;
* ``%`` starts a comment to end of line;
* newlines are significant (statement separators) and are emitted as tokens;
* ``3i`` / ``2.5j`` are imaginary literals.
"""

from __future__ import annotations

import re

from repro.errors import LexError, SourceLocation
from repro.frontend.tokens import KEYWORDS, Token, TokenKind

_TRANSPOSE_CONTEXT = {
    TokenKind.IDENT,
    TokenKind.NUMBER,
    TokenKind.IMAGINARY,
    TokenKind.RPAREN,
    TokenKind.RBRACKET,
    TokenKind.QUOTE,
    TokenKind.DOT_QUOTE,
    TokenKind.STRING,
}

_TWO_CHAR = {
    "==": TokenKind.EQ,
    "~=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.ANDAND,
    "||": TokenKind.OROR,
    ".*": TokenKind.DOT_STAR,
    "./": TokenKind.DOT_SLASH,
    ".\\": TokenKind.DOT_BACKSLASH,
    ".^": TokenKind.DOT_CARET,
    ".'": TokenKind.DOT_QUOTE,
}

_ONE_CHAR = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "\\": TokenKind.BACKSLASH,
    "^": TokenKind.CARET,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "&": TokenKind.AND,
    "|": TokenKind.OR,
    "~": TokenKind.NOT,
    "=": TokenKind.ASSIGN,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    ":": TokenKind.COLON,
}


# ``\w`` is ``str.isalnum() or "_"``, character for character.
_WORD = re.compile(r"\w+")


class Lexer:
    """Streaming scanner over one source string."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1
        self.tokens: list[Token] = []
        # Stack of open grouping characters; whitespace only acts as an
        # element separator when the innermost open group is a bracket.
        self._groups: list[str] = []

    # ------------------------------------------------------------------
    def _location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column, self.filename)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _skip(self, count: int) -> None:
        """Step over ``count`` characters known to hold no newline."""
        self.pos += count
        self.column += count

    def _skip_line(self) -> None:
        """Step to the end of the current line (not over its newline)."""
        end = self.source.find("\n", self.pos)
        self._skip((len(self.source) if end < 0 else end) - self.pos)

    def _skip_newline(self) -> None:
        self.pos += 1
        self.line += 1
        self.column = 1

    def _run(self, index: int, accept) -> int:
        """The index just past the run of ``accept``-ed characters that
        starts at ``index``."""
        source, size = self.source, len(self.source)
        while index < size and accept(source[index]):
            index += 1
        return index

    def _emit(self, kind: TokenKind, text: str, length: int) -> None:
        """Append a token located here and step over its ``length``
        characters (none of them a newline)."""
        self.tokens.append(Token(kind, text, self._location()))
        self._skip(length)

    @property
    def _in_bracket(self) -> bool:
        return bool(self._groups) and self._groups[-1] == "["

    def _previous_kind(self) -> TokenKind | None:
        return self.tokens[-1].kind if self.tokens else None

    # ------------------------------------------------------------------
    def tokenize(self) -> list[Token]:
        source = self.source
        while self.pos < len(source):
            ch = source[self.pos]
            if ch in " \t\r":
                blank = self._run(self.pos, " \t\r".__contains__) - self.pos
                if self._in_bracket and self._bracket_space_separates(blank):
                    self._emit(TokenKind.COMMA, ",", 0)
                self._skip(blank)
            elif ch == "%":
                self._skip_line()
            elif ch == "." and source.startswith("...", self.pos):
                # Continuation: swallow through end of line.
                self._skip_line()
                if self.pos < len(source):
                    self._skip_newline()
            elif ch == "\n":
                if self._in_bracket:
                    # A newline inside brackets is a row separator.
                    if self._previous_kind() not in (
                        TokenKind.SEMICOLON,
                        TokenKind.LBRACKET,
                    ):
                        self._emit(TokenKind.SEMICOLON, ";", 0)
                elif self._previous_kind() not in (None, TokenKind.NEWLINE):
                    self._emit(TokenKind.NEWLINE, "\n", 0)
                self._skip_newline()
            elif ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
                self._scan_number()
            elif ch.isalpha() or ch == "_":
                text = _WORD.match(source, self.pos).group()
                self._emit(
                    TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT,
                    text, len(text),
                )
            elif ch == "'":
                if self._previous_kind() in _TRANSPOSE_CONTEXT:
                    self._emit(TokenKind.QUOTE, "'", 1)
                else:
                    self._scan_string()
            elif (two := source[self.pos: self.pos + 2]) in _TWO_CHAR:
                self._emit(_TWO_CHAR[two], two, 2)
            elif ch in _ONE_CHAR:
                if ch in "([":
                    self._groups.append(ch)
                elif ch in ")]" and self._groups:
                    self._groups.pop()
                self._emit(_ONE_CHAR[ch], ch, 1)
            else:
                raise LexError(f"unexpected character {ch!r}", self._location())
        self._emit(TokenKind.EOF, "", 0)
        return self.tokens

    def _bracket_space_separates(self, offset: int) -> bool:
        """MATLAB's whitespace rule inside ``[...]``.

        A run of spaces (``offset`` of them, from here) separates two
        elements when the previous token ends an expression and the
        upcoming text starts one.  ``[1 -2]`` has two elements; ``[1 - 2]``
        has one.
        """
        if self._previous_kind() not in _TRANSPOSE_CONTEXT:
            return False
        nxt = self._peek(offset)
        if not nxt or nxt in "*/\\^=<>&|,;:)]%\n":
            return False
        if nxt == ".":
            after = self._peek(offset + 1)
            return bool(after.isdigit())
        if nxt in "+-":
            after = self._peek(offset + 1)
            return bool(after) and after not in " \t\r="
        if nxt == "~":
            return self._peek(offset + 1) != "="
        if nxt == "'":
            return True  # string literal element
        return nxt.isalnum() or nxt in "_(["

    # ------------------------------------------------------------------
    def _scan_number(self) -> None:
        source = self.source
        start = self.pos
        end = self._run(start, str.isdigit)
        if (
            source.startswith(".", end)
            and not source.startswith(".", end + 1)
            and not source[end + 1: end + 2].isalpha()
        ):
            end = self._run(end + 1, str.isdigit)
        if source[end: end + 1] in ("e", "E"):
            digits = end + 2 if source[end + 1: end + 2] in ("+", "-") else end + 1
            if source[digits: digits + 1].isdigit():
                end = self._run(digits, str.isdigit)
        suffix = source[end: end + 2]
        if suffix[:1] in ("i", "j") and not (
            suffix[1:].isalnum() or suffix[1:] == "_"
        ):
            self._emit(TokenKind.IMAGINARY, source[start:end], end + 1 - start)
        else:
            self._emit(TokenKind.NUMBER, source[start:end], end - start)

    def _scan_string(self) -> None:
        location = self._location()
        source = self.source
        line_end = source.find("\n", self.pos)
        if line_end < 0:
            line_end = len(source)
        index = self.pos + 1  # past the opening quote
        chunks: list[str] = []
        while True:
            quote = source.find("'", index, line_end)
            if quote < 0:
                raise LexError("unterminated string literal", location)
            chunks.append(source[index:quote])
            index = quote + 1
            if not source.startswith("'", index, line_end):
                break
            chunks.append("'")  # escaped quote
            index += 1
        self._emit(TokenKind.STRING, "".join(chunks), index - self.pos)


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Scan ``source`` into a token list ending with EOF."""
    return Lexer(source, filename).tokenize()
