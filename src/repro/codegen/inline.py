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

from typing import Callable

from repro.frontend import ast_nodes as ast

MAX_INLINE_LINES = 200
MAX_RECURSION_DEPTH = 3


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
        """``fn`` with eligible calls inlined: a rewritten copy, or ``fn``
        itself when no call is eligible."""
        # Names assigned in the caller may shadow function names at
        # runtime; the inliner runs before disambiguation, so it must not
        # inline anything a local assignment could shadow.
        self._caller_assigned = ast.assigned(fn.body) | set(fn.params)
        depth_map = {fn.name: 1}
        # With no eligible callee the rewrite maps every node to itself:
        # skip it, asking only about the calls it would ask about (a lookup
        # may parse a unit).
        asked: list[ast.Apply] = []
        _asked(fn.body, asked)
        if not any(self._eligible(call.name, len(call.args), depth_map)
                   for call in asked):
            return fn
        clone = ast.clone(fn)
        clone.body = self._inline_body(clone.body, depth_map)
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
                if not frozen and not is_top:
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
        locals_ = ast.assigned(callee.body) - set(callee.params)
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


def _asked(body: list[ast.Stmt], out: list[ast.Apply]) -> None:
    """Append the calls the rewrite asks :meth:`Inliner._eligible` about,
    in its order, while none is eligible (nothing is hoisted or pinned)."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            _asked_in(stmt.value, out, top=True)
            for index in stmt.target.indices or ():
                _asked_in(index, out)
            if not stmt.target.is_indexed and isinstance(stmt.value, ast.Apply):
                out.append(stmt.value)  # ``_try_direct_inline``
        elif isinstance(stmt, ast.MultiAssign):
            if isinstance(stmt.call, ast.Apply):
                out.append(stmt.call)
        elif isinstance(stmt, ast.ExprStmt):
            _asked_in(stmt.value, out)
        elif isinstance(stmt, ast.If):
            _asked_in(stmt.branches[0][0], out)  # not an ``elseif``
            for _, branch in stmt.branches:
                _asked(branch, out)
            _asked(stmt.orelse, out)
        elif isinstance(stmt, ast.While):  # not its condition
            _asked(stmt.body, out)
        elif isinstance(stmt, ast.For):
            _asked_in(stmt.iterable, out)
            _asked(stmt.body, out)


def _asked_in(expr: ast.Expr, out: list[ast.Apply], top: bool = False,
              frozen: bool = False) -> bool:
    """:func:`_asked` within one expression, as ``_hoist_calls`` walks it;
    returns :func:`_positional` of ``expr``."""
    if isinstance(expr, ast.Apply):
        operands = expr.args
    elif isinstance(expr, ast.BinaryOp):
        operands = [expr.left, expr.right]
    elif isinstance(expr, (ast.UnaryOp, ast.Transpose)):
        operands = [expr.operand]
    elif isinstance(expr, ast.Range):
        operands = [expr.start, expr.step, expr.stop]
    elif isinstance(expr, ast.MatrixLit):
        operands = [e for row in expr.rows for e in row]
    else:
        return isinstance(expr, (ast.EndMarker, ast.ColonAll))
    positional = False
    for operand in operands:
        if operand is not None:  # a range without a step
            positional |= _asked_in(operand, out, False, frozen or positional)
    if isinstance(expr, ast.Apply) and not frozen and not top:
        out.append(expr)
    return positional


def _positional(expr: ast.Expr) -> bool:
    """Does ``expr`` mention ``end`` or a bare ``:``?"""
    return any(
        isinstance(node, (ast.EndMarker, ast.ColonAll))
        for node in ast.walk_expr(expr)
    )


def _rename_expr(expr: ast.Expr, rename: dict[str, str]) -> None:
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.Ident, ast.Apply)) and node.name in rename:
            node.name = rename[node.name]


def _rename_body(body: list[ast.Stmt], rename: dict[str, str]) -> None:
    for stmt in ast.walk_stmts(body):
        for expr in ast.stmt_exprs(stmt):
            _rename_expr(expr, rename)
        for target in ast.targets(stmt):
            target.name = rename.get(target.name, target.name)
        if isinstance(stmt, ast.For):
            stmt.var = rename.get(stmt.var, stmt.var)
        elif isinstance(stmt, (ast.Global, ast.Clear)):
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
