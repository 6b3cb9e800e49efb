"""Function inlining (Figure 1 pass 2, Section 2.6.1).

MaJIC inlines calls to small (< 200 lines) user functions, preserving
call-by-value semantics by copying actual parameters — except read-only
formals, which are bound directly ("this can result in huge performance
gain when large matrices are passed as read-only arguments").  Recursive
calls are inlined at most :data:`MAX_RECURSION_DEPTH` levels to avoid code
explosion (Section 3.4).

The inliner is a source-level AST→AST transform that runs before
disambiguation (which is re-run afterwards, as Figure 1 notes the symbol
table must be rebuilt).  Calls nested inside expressions are first hoisted
into temporary assignments so that only statement-level calls need body
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.frontend import ast_nodes as ast

MAX_INLINE_LINES = 200
MAX_RECURSION_DEPTH = 3


@dataclass
class InlineResult:
    body: list[ast.Stmt]
    inlined_calls: int = 0


class Inliner:
    """Inlines user-function calls into one function body."""

    def __init__(
        self,
        lookup: Callable[[str], ast.FunctionDef | None],
        max_lines: int = MAX_INLINE_LINES,
        max_depth: int = MAX_RECURSION_DEPTH,
    ):
        self.lookup = lookup
        self.max_lines = max_lines
        self.max_depth = max_depth
        self._counter = 0
        self._caller_assigned: set[str] = set()
        self.inlined_calls = 0
        # Names of every function whose body was embedded (dependency
        # tracking: the caller must be recompiled when these change).
        self.inlined_names: set[str] = set()

    # ------------------------------------------------------------------
    def run(self, fn: ast.FunctionDef) -> ast.FunctionDef:
        """Return a copy of ``fn`` with eligible calls inlined."""
        clone = ast.clone(fn)
        # Names assigned in the caller may shadow function names at
        # runtime; the inliner runs before disambiguation, so it must not
        # inline anything a local assignment could shadow.
        self._caller_assigned = _assigned_names(fn.body) | set(fn.params)
        clone.body = self._inline_body(clone.body, {fn.name: 1})
        return clone

    # ------------------------------------------------------------------
    def _fresh(self, base: str) -> str:
        self._counter += 1
        name = f"{base}__il{self._counter}"
        self._caller_assigned.add(name)
        return name

    def _settled(self, expr: ast.Expr) -> bool:
        """Evaluating ``expr`` cannot draw, print or fail: a literal or a
        variable (a bare ``rand`` is an :class:`~ast.Ident` too)."""
        if isinstance(expr, ast.Ident):
            return expr.name in self._caller_assigned
        return isinstance(expr, (ast.Number, ast.ImagNumber, ast.StringLit))

    def _eligible(
        self, name: str, nargs: int, depth_map: dict[str, int]
    ) -> ast.FunctionDef | None:
        if name in self._caller_assigned:
            return None
        callee = self.lookup(name)
        if callee is None or nargs > len(callee.params):
            # Too many actuals is a run-time error: leave the call to be
            # dispatched, where it raises after the effects before it.
            return None
        if _function_lines(callee) > self.max_lines:
            return None
        if depth_map.get(name, 0) >= self.max_depth:
            return None
        if _has_blockers(callee):
            return None
        return callee

    # ------------------------------------------------------------------
    def _inline_body(
        self, body: list[ast.Stmt], depth_map: dict[str, int]
    ) -> list[ast.Stmt]:
        result: list[ast.Stmt] = []
        for stmt in body:
            result.extend(self._inline_stmt(stmt, depth_map))
        return result

    def _inline_stmt(self, stmt: ast.Stmt, depth_map: dict[str, int]) -> list[ast.Stmt]:
        out: list[ast.Stmt] = []
        if isinstance(stmt, ast.Assign):
            value, pre = self._hoist_calls(stmt.value, depth_map, top=True)
            out.extend(pre)
            indices = stmt.target.indices
            if indices:
                new_indices = []
                for index in indices:
                    idx, pre2 = self._hoist_calls(index, depth_map)
                    out.extend(pre2)
                    new_indices.append(idx)
                stmt.target.indices = new_indices
            direct = self._try_direct_inline(stmt, value, depth_map)
            if direct is not None:
                out.extend(direct)
                return out
            stmt.value = value
            out.append(stmt)
            return out
        if isinstance(stmt, ast.MultiAssign):
            call = stmt.call
            if isinstance(call, ast.Apply):
                callee = self._eligible(call.name, len(call.args), depth_map)
                if callee is not None and len(stmt.targets) <= len(callee.outputs) \
                        and all(not t.is_indexed for t in stmt.targets):
                    call, pre = self._hoist_calls(call, depth_map, top=True)
                    out.extend(pre)
                    out.extend(
                        self._expand(
                            callee, call.args,
                            [t.name for t in stmt.targets], depth_map,
                        )
                    )
                    return out
            out.append(stmt)
            return out
        if isinstance(stmt, ast.ExprStmt):
            value, pre = self._hoist_calls(stmt.value, depth_map)
            out.extend(pre)
            stmt.value = value
            out.append(stmt)
            return out
        if isinstance(stmt, ast.If):
            new_branches = []
            for cond, branch in stmt.branches:
                if not new_branches:
                    # Hoists execute before the if; an ``elseif`` condition
                    # only runs when the earlier ones fail, so its calls
                    # stay dynamic.
                    cond, pre = self._hoist_calls(cond, depth_map)
                    out.extend(pre)
                new_branches.append((cond, self._inline_body(branch, depth_map)))
            stmt.branches = new_branches
            stmt.orelse = self._inline_body(stmt.orelse, depth_map)
            out.append(stmt)
            return out
        if isinstance(stmt, ast.While):
            # Calls in a while condition cannot be hoisted (they re-run per
            # trip); leave them dynamic.
            stmt.body = self._inline_body(stmt.body, depth_map)
            out.append(stmt)
            return out
        if isinstance(stmt, ast.For):
            iterable, pre = self._hoist_calls(stmt.iterable, depth_map)
            out.extend(pre)
            stmt.iterable = iterable
            stmt.body = self._inline_body(stmt.body, depth_map)
            out.append(stmt)
            return out
        out.append(stmt)
        return out

    # ------------------------------------------------------------------
    def _try_direct_inline(
        self, stmt: ast.Assign, value: ast.Expr, depth_map: dict[str, int]
    ) -> list[ast.Stmt] | None:
        """Inline ``x = f(...)`` without a temporary."""
        if stmt.target.is_indexed or not isinstance(value, ast.Apply):
            return None
        if value.kind not in (ast.ApplyKind.USER_FUNCTION, ast.ApplyKind.UNRESOLVED):
            return None
        callee = self._eligible(value.name, len(value.args), depth_map)
        if callee is None or not callee.outputs:
            return None
        # ``value`` is already hoisted (top level), arguments included.
        return self._expand(callee, value.args, [stmt.target.name], depth_map)

    def _hoist_calls(
        self, expr: ast.Expr, depth_map: dict[str, int], top: bool = False
    ) -> tuple[ast.Expr, list[ast.Stmt]]:
        """Hoist nested inlinable calls into temp assignments."""
        pre: list[ast.Stmt] = []

        def each(nodes: list[ast.Expr], frozen: bool) -> list[ast.Expr]:
            """Rewrite operands in evaluation order.  A hoisted call runs
            ahead of the whole statement, so every operand evaluated
            before it is pinned to a temporary first — else the callee's
            draws, output and errors would overtake the operand's.  After
            an operand that cannot be pinned (``end`` and ``:`` only mean
            something inside their subscript) calls stay where they are."""
            done: list[ast.Expr] = []
            for node in nodes:
                mark = len(pre)
                node = rewrite(node, False, frozen)
                if len(pre) > mark:
                    pins = []
                    for i, earlier in enumerate(done):
                        if not self._settled(earlier):
                            temp = self._fresh("t_pin")
                            pins.append(ast.Assign(
                                target=ast.LValue(name=temp), value=earlier,
                                display=False,
                            ))
                            done[i] = ast.Ident(
                                name=temp, location=earlier.location
                            )
                    pre[mark:mark] = pins
                done.append(node)
                frozen = frozen or _positional(node)
            return done

        def rewrite(node: ast.Expr, is_top: bool, frozen: bool = False) -> ast.Expr:
            if isinstance(node, ast.Apply):
                node.args = each(node.args, frozen)
                if not frozen and not is_top and node.kind in (
                    ast.ApplyKind.USER_FUNCTION,
                    ast.ApplyKind.UNRESOLVED,
                ):
                    callee = self._eligible(node.name, len(node.args), depth_map)
                    if callee is not None and callee.outputs:
                        temp = self._fresh(f"t_{node.name}")
                        pre.extend(
                            self._expand(callee, list(node.args), [temp], depth_map)
                        )
                        return ast.Ident(name=temp, location=node.location)
            elif isinstance(node, ast.BinaryOp):
                node.left, node.right = each([node.left, node.right], frozen)
            elif isinstance(node, (ast.UnaryOp, ast.Transpose)):
                node.operand = rewrite(node.operand, False, frozen)
            elif isinstance(node, ast.Range):
                # Evaluated in source order: start, step, stop.
                if node.step is None:
                    node.start, node.stop = each([node.start, node.stop], frozen)
                else:
                    node.start, node.step, node.stop = each(
                        [node.start, node.step, node.stop], frozen)
            elif isinstance(node, ast.MatrixLit):
                flat = iter(each([e for row in node.rows for e in row], frozen))
                node.rows = [[next(flat) for _ in row] for row in node.rows]
            return node

        return rewrite(expr, top), pre

    # ------------------------------------------------------------------
    def _expand(
        self,
        callee: ast.FunctionDef,
        args: list[ast.Expr],
        targets: list[str],
        depth_map: dict[str, int],
    ) -> list[ast.Stmt]:
        """Substitute one call: bind params, rename locals, copy body."""
        self.inlined_calls += 1
        self.inlined_names.add(callee.name)
        body = ast.clone(callee.body)
        rename: dict[str, str] = {}
        mutated = _mutated_names(callee.body)

        out: list[ast.Stmt] = []
        # Bind parameters.  Call-by-value requires copies of the actuals,
        # but read-only formals of simple variable arguments are aliased
        # directly (the paper's copy elision).
        for param, arg in zip(callee.params, args):
            local = self._fresh(param)
            rename[param] = local
            out.append(
                ast.Assign(
                    target=ast.LValue(name=local),
                    value=arg,
                    display=False,
                )
            )
        for extra in callee.params[len(args):]:
            rename[extra] = self._fresh(extra)

        # Rename every other local.
        locals_ = _assigned_names(callee.body) - set(callee.params)
        for name in sorted(locals_):
            rename[name] = self._fresh(name)
        for output, target in zip(callee.outputs, targets):
            rename[output] = target
        for output in callee.outputs[len(targets):]:
            rename.setdefault(output, self._fresh(output))

        _rename_body(body, rename)
        inner_depth = dict(depth_map)
        inner_depth[callee.name] = inner_depth.get(callee.name, 0) + 1
        body = self._inline_body(body, inner_depth)
        body = _strip_returns(body)
        out.extend(body)
        return out


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _function_lines(fn: ast.FunctionDef) -> int:
    return sum(1 for _ in ast.walk_stmts(fn.body)) + 1


def _has_blockers(fn: ast.FunctionDef) -> bool:
    """Constructs that prevent inlining (returns inside loops, globals)."""
    def returns_in(body, in_loop: bool) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Return) and in_loop:
                return True
            if isinstance(stmt, ast.Global):
                return True
            if isinstance(stmt, ast.Clear) and not stmt.names:
                return True
            if isinstance(stmt, ast.If):
                for _, branch in stmt.branches:
                    if returns_in(branch, in_loop):
                        return True
                if returns_in(stmt.orelse, in_loop):
                    return True
            elif isinstance(stmt, (ast.While, ast.For)):
                if returns_in(stmt.body, True):
                    return True
        return False

    # A bare `return` is only safe to strip when it is the final top-level
    # statement; a return anywhere else changes control flow under
    # substitution and blocks inlining.
    tail = fn.body[-1] if fn.body else None
    for stmt in ast.walk_stmts(fn.body):
        if isinstance(stmt, ast.Return) and stmt is not tail:
            return True
    return returns_in(fn.body, False)


def _positional(expr: ast.Expr) -> bool:
    """Does ``expr`` mention ``end`` or a bare ``:``?"""
    return any(
        isinstance(node, (ast.EndMarker, ast.ColonAll))
        for node in ast.walk_expr(expr)
    )


def _assigned_names(body: list[ast.Stmt]) -> set[str]:
    names: set[str] = set()
    for stmt in ast.walk_stmts(body):
        if isinstance(stmt, ast.Assign):
            names.add(stmt.target.name)
        elif isinstance(stmt, ast.MultiAssign):
            names.update(t.name for t in stmt.targets)
        elif isinstance(stmt, ast.For):
            names.add(stmt.var)
    return names


def _mutated_names(body: list[ast.Stmt]) -> set[str]:
    names: set[str] = set()
    for stmt in ast.walk_stmts(body):
        if isinstance(stmt, ast.Assign) and stmt.target.is_indexed:
            names.add(stmt.target.name)
        elif isinstance(stmt, ast.MultiAssign):
            names.update(t.name for t in stmt.targets if t.is_indexed)
    return names


def _rename_expr(expr: ast.Expr, rename: dict[str, str]) -> None:
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.Ident, ast.Apply)) and node.name in rename:
            node.name = rename[node.name]


def _rename_body(body: list[ast.Stmt], rename: dict[str, str]) -> None:
    for stmt in ast.walk_stmts(body):
        if isinstance(stmt, ast.Assign):
            if stmt.target.name in rename:
                stmt.target.name = rename[stmt.target.name]
            if stmt.target.indices:
                for index in stmt.target.indices:
                    _rename_expr(index, rename)
            _rename_expr(stmt.value, rename)
        elif isinstance(stmt, ast.MultiAssign):
            for target in stmt.targets:
                if target.name in rename:
                    target.name = rename[target.name]
                if target.indices:
                    for index in target.indices:
                        _rename_expr(index, rename)
            _rename_expr(stmt.call, rename)
        elif isinstance(stmt, ast.ExprStmt):
            _rename_expr(stmt.value, rename)
        elif isinstance(stmt, ast.If):
            for cond, _ in stmt.branches:
                _rename_expr(cond, rename)
        elif isinstance(stmt, ast.While):
            _rename_expr(stmt.cond, rename)
        elif isinstance(stmt, ast.For):
            if stmt.var in rename:
                stmt.var = rename[stmt.var]
            _rename_expr(stmt.iterable, rename)
        elif isinstance(stmt, ast.Global):
            stmt.names = [rename.get(n, n) for n in stmt.names]
        elif isinstance(stmt, ast.Clear):
            stmt.names = [rename.get(n, n) for n in stmt.names]


def _strip_returns(body: list[ast.Stmt]) -> list[ast.Stmt]:
    """Drop a trailing bare ``return`` (other returns blocked inlining)."""
    while body and isinstance(body[-1], ast.Return):
        body = body[:-1]
    return body


def inline_function(
    fn: ast.FunctionDef,
    lookup: Callable[[str], ast.FunctionDef | None],
) -> tuple[ast.FunctionDef, int]:
    """Inline eligible calls in ``fn``; returns (new fn, #inlined)."""
    inliner = Inliner(lookup)
    result = inliner.run(fn)
    return result, inliner.inlined_calls
