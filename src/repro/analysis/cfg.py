"""Control-flow graph construction.

The CFG is the backbone of both the disambiguator's reaching-definitions
analysis (Section 2.1) and the type-inference engine's join-over-all-paths
framework (Section 2.3).  Blocks contain *atoms* — execution points at
statement granularity:

* :class:`StmtAtom` — one simple statement (assignment, expression, clear);
* :class:`CondAtom` — evaluation of a branch/loop condition;
* :class:`ForIterAtom` — the implicit per-iteration assignment of a ``for``
  loop variable (one column of the iterable per trip).

``break``/``continue``/``return`` are represented purely through edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend import ast_nodes as ast


@dataclass(eq=False)
class Atom:
    """An execution point of the statement ``stmt``.

    What the point does with names is stated here, once, when the CFG is
    built; every pass reads it from these fields:

    * ``exprs`` — the top-level expressions it evaluates, target
      subscripts first (the order disambiguation resolves them in);
    * ``uses`` — the ``Ident`` / ``Apply`` nodes of ``exprs``, preorder;
    * ``defs`` — the names it assigns (a ``global`` declaration assigns);
    * ``kills`` — the names it clears; ``None`` for a bare ``clear``.
    """

    stmt: ast.Stmt
    exprs: list[ast.Expr] = field(init=False)
    uses: list[ast.Ident | ast.Apply] = field(init=False)
    defs: list[str] = field(init=False)
    kills: list[str] | None = field(init=False)

    def __post_init__(self) -> None:
        self.uses = [
            node
            for expr in self.exprs
            for node in ast.walk_expr(expr)
            if isinstance(node, (ast.Ident, ast.Apply))
        ]


@dataclass(eq=False)
class StmtAtom(Atom):
    def __post_init__(self) -> None:
        stmt = self.stmt
        self.exprs = list(ast.stmt_exprs(stmt))
        self.defs = [target.name for target in ast.targets(stmt)]
        self.kills = []
        if isinstance(stmt, ast.Global):
            self.defs = list(stmt.names)
        elif isinstance(stmt, ast.Clear):
            self.kills = list(stmt.names) or None
        super().__post_init__()

    def __repr__(self) -> str:  # pragma: no cover
        return f"StmtAtom({type(self.stmt).__name__})"


@dataclass(eq=False)
class CondAtom(Atom):
    """Condition evaluation of an if/while statement ``stmt``."""

    cond: ast.Expr

    def __post_init__(self) -> None:
        self.exprs, self.defs, self.kills = [self.cond], [], []
        super().__post_init__()

    def __repr__(self) -> str:  # pragma: no cover
        return "CondAtom"


@dataclass(eq=False)
class ForIterAtom(Atom):
    """The per-iteration definition of a ``for`` loop variable."""

    stmt: ast.For

    def __post_init__(self) -> None:
        self.exprs, self.defs = [self.stmt.iterable], [self.stmt.var]
        self.kills = []
        super().__post_init__()

    def __repr__(self) -> str:  # pragma: no cover
        return f"ForIterAtom({self.stmt.var})"


@dataclass(eq=False)
class BasicBlock:
    index: int
    atoms: list[Atom] = field(default_factory=list)
    successors: list["BasicBlock"] = field(default_factory=list)
    predecessors: list["BasicBlock"] = field(default_factory=list)

    def link(self, succ: "BasicBlock") -> None:
        if succ not in self.successors:
            self.successors.append(succ)
            succ.predecessors.append(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BB{self.index}({len(self.atoms)} atoms)"


class CFG:
    """A per-function control-flow graph."""

    def __init__(self):
        self.blocks: list[BasicBlock] = []
        self.entry = self.new_block()
        self.exit = self.new_block()

    def new_block(self) -> BasicBlock:
        block = BasicBlock(index=len(self.blocks))
        self.blocks.append(block)
        return block

    def atoms(self):
        """Every atom, in block order."""
        for block in self.blocks:
            yield from block.atoms

    def reverse_postorder(self) -> list[BasicBlock]:
        """Blocks in reverse postorder from the entry (good worklist order)."""
        seen: set[int] = set()
        order: list[BasicBlock] = []

        def visit(block: BasicBlock) -> None:
            stack = [(block, iter(block.successors))]
            seen.add(block.index)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ.index not in seen:
                        seen.add(succ.index)
                        stack.append((succ, iter(succ.successors)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.entry)
        order.reverse()
        return order


class _Builder:
    """Walks a statement list, threading blocks and loop/return targets."""

    def __init__(self):
        self.cfg = CFG()
        self.current = self.cfg.entry
        # Stacks of (break-target, continue-target) for enclosing loops.
        self.loop_targets: list[tuple[BasicBlock, BasicBlock]] = []

    def _terminate(self) -> None:
        """Mark the current block as fallen off (no further atoms added)."""
        self.current = self.cfg.new_block()  # unreachable continuation

    def add_statements(self, body: list[ast.Stmt]) -> None:
        for stmt in body:
            self.add_statement(stmt)

    def add_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.MultiAssign, ast.ExprStmt,
                             ast.Clear, ast.Global)):
            self.current.atoms.append(StmtAtom(stmt))
            return
        if isinstance(stmt, ast.If):
            self._add_if(stmt)
            return
        if isinstance(stmt, ast.While):
            self._add_while(stmt)
            return
        if isinstance(stmt, ast.For):
            self._add_for(stmt)
            return
        if isinstance(stmt, ast.Break):
            if self.loop_targets:
                self.current.link(self.loop_targets[-1][0])
            self._terminate()
            return
        if isinstance(stmt, ast.Continue):
            if self.loop_targets:
                self.current.link(self.loop_targets[-1][1])
            self._terminate()
            return
        if isinstance(stmt, ast.Return):
            self.current.link(self.cfg.exit)
            self._terminate()
            return
        raise TypeError(f"unsupported statement {type(stmt).__name__}")

    def _add_if(self, stmt: ast.If) -> None:
        after = self.cfg.new_block()
        for cond, body in stmt.branches:
            self.current.atoms.append(CondAtom(stmt, cond))
            cond_block = self.current
            taken = self.cfg.new_block()
            cond_block.link(taken)
            self.current = taken
            self.add_statements(body)
            self.current.link(after)
            fallthrough = self.cfg.new_block()
            cond_block.link(fallthrough)
            self.current = fallthrough
        if stmt.orelse:
            self.add_statements(stmt.orelse)
        self.current.link(after)
        self.current = after

    def _add_while(self, stmt: ast.While) -> None:
        header = self.cfg.new_block()
        after = self.cfg.new_block()
        self.current.link(header)
        header.atoms.append(CondAtom(stmt, stmt.cond))
        body_block = self.cfg.new_block()
        header.link(body_block)
        header.link(after)
        self.loop_targets.append((after, header))
        self.current = body_block
        self.add_statements(stmt.body)
        self.current.link(header)
        self.loop_targets.pop()
        self.current = after

    def _add_for(self, stmt: ast.For) -> None:
        # Evaluate the iterable once in the current block (its expression is
        # part of the ForIterAtom for analysis purposes), then loop.
        header = self.cfg.new_block()
        after = self.cfg.new_block()
        self.current.link(header)
        header.atoms.append(ForIterAtom(stmt))
        body_block = self.cfg.new_block()
        header.link(body_block)
        header.link(after)  # zero-trip exit
        self.loop_targets.append((after, header))
        self.current = body_block
        self.add_statements(stmt.body)
        self.current.link(header)
        self.loop_targets.pop()
        self.current = after


def build_cfg(body: list[ast.Stmt]) -> CFG:
    """Build the CFG of a function body or script."""
    builder = _Builder()
    builder.add_statements(body)
    builder.current.link(builder.cfg.exit)
    return builder.cfg
