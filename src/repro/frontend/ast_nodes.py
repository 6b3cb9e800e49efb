"""Abstract syntax tree node definitions.

All nodes are dataclasses with identity equality (``eq=False``): the
analyses attach information to nodes through identity-keyed side tables
(:mod:`repro.inference.annotations`), so two structurally equal nodes must
remain distinguishable.

``Apply`` deserves a note: at parse time ``f(x)`` is syntactically ambiguous
between array indexing, a builtin call and a user-function call (Section
2.1).  The parser always produces an ``Apply`` node; the disambiguator
records its resolution in a side table
(:meth:`~repro.analysis.disambiguate.DisambiguationResult.kind_of`).  No
pass writes into a tree after the parser builds it; the inliner rewrites
only its own copies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SourceLocation

_LOC = SourceLocation()


# ======================================================================
# Expressions
# ======================================================================
@dataclass(eq=False)
class Expr:
    """Base class for expression nodes."""

    location: SourceLocation = field(default=_LOC, kw_only=True)


@dataclass(eq=False)
class Number(Expr):
    """A real numeric literal."""

    value: float


@dataclass(eq=False)
class ImagNumber(Expr):
    """An imaginary literal such as ``2.5i``."""

    value: float


@dataclass(eq=False)
class StringLit(Expr):
    text: str


@dataclass(eq=False)
class Ident(Expr):
    """A bare symbol occurrence (variable, builtin or function name)."""

    name: str


class UnaryKind(enum.Enum):
    NEG = "-"
    POS = "+"
    NOT = "~"


@dataclass(eq=False)
class UnaryOp(Expr):
    op: UnaryKind
    operand: Expr


@dataclass(eq=False)
class BinaryOp(Expr):
    """All infix binary operators; ``op`` holds the MATLAB spelling."""

    op: str
    left: Expr
    right: Expr


@dataclass(eq=False)
class Transpose(Expr):
    operand: Expr
    conjugate: bool


@dataclass(eq=False)
class Range(Expr):
    """The colon range expression ``start:stop`` / ``start:step:stop``."""

    start: Expr
    stop: Expr
    step: Expr | None = None


@dataclass(eq=False)
class ColonAll(Expr):
    """A bare ``:`` subscript selecting a full dimension."""


@dataclass(eq=False)
class EndMarker(Expr):
    """The ``end`` keyword used arithmetically inside a subscript."""


@dataclass(eq=False)
class MatrixLit(Expr):
    """The bracket operator ``[a b; c d]`` (vector constructor)."""

    rows: list[list[Expr]]


@dataclass(eq=False)
class Apply(Expr):
    """``name(arg, ...)`` — indexing or a call, as disambiguation decides."""

    name: str
    args: list[Expr]


# ======================================================================
# Statements
# ======================================================================
@dataclass(eq=False)
class Stmt:
    location: SourceLocation = field(default=_LOC, kw_only=True)


@dataclass(eq=False)
class LValue:
    """Assignment target: plain name or subscripted store."""

    name: str
    indices: list[Expr] | None = None
    location: SourceLocation = field(default=_LOC, kw_only=True)

    @property
    def is_indexed(self) -> bool:
        return self.indices is not None


@dataclass(eq=False)
class Assign(Stmt):
    """``lhs = expr`` (single target)."""

    target: LValue
    value: Expr
    display: bool = False


@dataclass(eq=False)
class MultiAssign(Stmt):
    """``[a, b] = f(...)`` (multi-value call result assignment)."""

    targets: list[LValue]
    call: Expr
    display: bool = False


@dataclass(eq=False)
class ExprStmt(Stmt):
    """A bare expression; its value is echoed into ``ans`` when displayed."""

    value: Expr
    display: bool = False


@dataclass(eq=False)
class If(Stmt):
    """``if``/``elseif`` chain; ``branches`` pairs conditions with bodies."""

    branches: list[tuple[Expr, list[Stmt]]]
    orelse: list[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class While(Stmt):
    cond: Expr
    body: list[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class For(Stmt):
    """``for var = iterable`` — iterates columns of the iterable's value."""

    var: str
    iterable: Expr
    body: list[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class Break(Stmt):
    pass


@dataclass(eq=False)
class Continue(Stmt):
    pass


@dataclass(eq=False)
class Return(Stmt):
    pass


@dataclass(eq=False)
class Global(Stmt):
    names: list[str] = field(default_factory=list)


@dataclass(eq=False)
class Clear(Stmt):
    """``clear`` / ``clear x y`` — wipes the dynamic symbol table."""

    names: list[str] = field(default_factory=list)


# ======================================================================
# Top level
# ======================================================================
@dataclass(eq=False)
class FunctionDef:
    """One ``function`` definition (primary or subfunction)."""

    name: str
    params: list[str]
    outputs: list[str]
    body: list[Stmt]
    location: SourceLocation = field(default=_LOC, kw_only=True)

    @property
    def nargout(self) -> int:
        return len(self.outputs)


@dataclass(eq=False)
class Program:
    """A parsed source unit: either a script or a function file.

    A function file holds the primary function first, then subfunctions.
    """

    functions: list[FunctionDef] = field(default_factory=list)
    script: list[Stmt] = field(default_factory=list)
    source: str = ""
    filename: str = "<input>"

    @property
    def is_script(self) -> bool:
        return not self.functions

    @property
    def primary(self) -> FunctionDef:
        if not self.functions:
            raise ValueError("script programs have no primary function")
        return self.functions[0]


def walk_expr(node: Expr):
    """Yield ``node`` and every expression beneath it, preorder."""
    yield node
    if isinstance(node, UnaryOp):
        yield from walk_expr(node.operand)
    elif isinstance(node, BinaryOp):
        yield from walk_expr(node.left)
        yield from walk_expr(node.right)
    elif isinstance(node, Transpose):
        yield from walk_expr(node.operand)
    elif isinstance(node, Range):
        yield from walk_expr(node.start)
        if node.step is not None:
            yield from walk_expr(node.step)
        yield from walk_expr(node.stop)
    elif isinstance(node, MatrixLit):
        for row in node.rows:
            for item in row:
                yield from walk_expr(item)
    elif isinstance(node, Apply):
        for arg in node.args:
            yield from walk_expr(arg)


def walk_stmts(body: list[Stmt]):
    """Yield every statement in ``body``, recursively, preorder."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            for _, branch in stmt.branches:
                yield from walk_stmts(branch)
            yield from walk_stmts(stmt.orelse)
        elif isinstance(stmt, (While, For)):
            yield from walk_stmts(stmt.body)


def stmt_exprs(stmt: Stmt):
    """Yield the top-level expressions contained directly in ``stmt``."""
    if isinstance(stmt, Assign):
        if stmt.target.indices:
            yield from stmt.target.indices
        yield stmt.value
    elif isinstance(stmt, MultiAssign):
        for target in stmt.targets:
            if target.indices:
                yield from target.indices
        yield stmt.call
    elif isinstance(stmt, ExprStmt):
        yield stmt.value
    elif isinstance(stmt, If):
        for cond, _ in stmt.branches:
            yield cond
    elif isinstance(stmt, While):
        yield stmt.cond
    elif isinstance(stmt, For):
        yield stmt.iterable


def targets(stmt: Stmt) -> list[LValue]:
    """The assignment targets of ``stmt``, in source order."""
    if isinstance(stmt, Assign):
        return [stmt.target]
    if isinstance(stmt, MultiAssign):
        return stmt.targets
    return []


def assigned(body: list[Stmt]) -> set[str]:
    """Every name an assignment or a ``for`` loop in ``body`` writes."""
    names: set[str] = set()
    for stmt in walk_stmts(body):
        names.update(target.name for target in targets(stmt))
        if isinstance(stmt, For):
            names.add(stmt.var)
    return names


def stored(body: list[Stmt]) -> set[str]:
    """The names ``body`` writes in place (subscripted targets)."""
    return {
        target.name
        for stmt in walk_stmts(body)
        for target in targets(stmt)
        if target.is_indexed
    }


def called_names(fn: "FunctionDef") -> set[str]:
    """Every name ``fn``'s body applies (calls or indexes)."""
    return {
        node.name
        for stmt in walk_stmts(fn.body)
        for expr in stmt_exprs(stmt)
        for node in walk_expr(expr)
        if isinstance(node, Apply)
    }


def clone(node):
    """A structural copy of an AST subtree (a node, or a list of nodes).

    The AST is a tree — no node has two parents, nothing points upward —
    so the copy needs no memo.  Everything that is not a node or a
    container of nodes (names, numbers, enum members, the frozen
    :class:`SourceLocation`) is immutable and shared with the original.
    """
    if isinstance(node, _NODES):
        twin = object.__new__(node.__class__)
        fields = twin.__dict__
        for name, value in node.__dict__.items():
            fields[name] = (
                clone(value) if isinstance(value, _CLONED) else value
            )
        return twin
    if isinstance(node, list):
        return [clone(item) for item in node]
    if isinstance(node, tuple):  # an ``If`` branch: (condition, body)
        return tuple([clone(item) for item in node])
    return node


_NODES = (Expr, Stmt, LValue, FunctionDef)
_CLONED = _NODES + (list, tuple)
