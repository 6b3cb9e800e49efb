"""Error hierarchy and source locations for PyMaJIC.

Every user-visible failure raised by the front end, the analyses, the
compilers and the runtime derives from :class:`MatlabError`, mirroring the
single error channel the MATLAB interpreter exposes (``error(...)``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    """A position in a MATLAB source file (1-based line and column)."""

    line: int = 0
    column: int = 0
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class MatlabError(Exception):
    """Base class for all errors surfaced to MaJIC users."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class LexError(MatlabError):
    """Raised by the scanner on malformed input text."""


class ParseError(MatlabError):
    """Raised by the parser on a syntactically invalid program."""


class UndefinedSymbolError(MatlabError):
    """A symbol could not be resolved as variable, builtin or function."""


class CodegenError(MatlabError):
    """Raised by either code generator on unsupported constructs."""


class RuntimeMatlabError(MatlabError):
    """An error raised during execution of MATLAB code (``error(...)``,
    subscript violations, dimension mismatches, ...)."""


class SubscriptError(RuntimeMatlabError):
    """Index out of bounds, non-positive or non-integer subscript."""


class DimensionError(RuntimeMatlabError):
    """Operand shapes are not conformable for the attempted operation."""


class RepositoryError(MatlabError):
    """Raised by the code repository (missing function, bad invocation)."""


class RecursionLimitError(RuntimeMatlabError):
    """User-function recursion ran past the host's recursion limit.  Every
    tier raises it with one text, wherever the host limit was reached."""

    MESSAGE = "maximum recursion depth exceeded"

    def __init__(self):
        super().__init__(self.MESSAGE)
