"""The MATLAB interpreter — the paper's execution baseline.

A straightforward tree walker over boxed MxArray values.  Every operation
dispatches dynamically through the generic :mod:`repro.runtime.elementwise`
layer, every subscript is checked, every assignment copies — the costs weak
typing imposes and that MaJIC's compiled code removes.

Symbol resolution follows Section 2.1's dynamic rule exactly: a symbol is a
variable if it is bound in the dynamic symbol table, else a builtin
primitive, else a user function, else an error.

The ``call_dispatcher`` hook is how the MaJIC front end differs from the
stock interpreter: when set, user-function calls are handed to it (it
builds an invocation against the code repository) instead of being
interpreted recursively.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import RuntimeMatlabError, UndefinedSymbolError
from repro.frontend import ast_nodes as ast
from repro.runtime import builtins as rt_builtins
from repro.runtime import display
from repro.runtime import elementwise as ew
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import empty, from_ndarray, make_scalar, make_string
from repro.interp.environment import Environment

# Function lookup: name -> FunctionDef (or None).
FunctionLookup = Callable[[str], "ast.FunctionDef | None"]
# Dispatcher: (name, args, nargout) -> outputs, or None to interpret here.
CallDispatcher = Callable[[str, list[MxArray], int], "list[MxArray] | None"]


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    pass


class Interpreter:
    """Tree-walking evaluator over one workspace."""

    def __init__(
        self,
        function_lookup: FunctionLookup | None = None,
        sink: display.OutputSink | None = None,
        call_dispatcher: CallDispatcher | None = None,
        fusion: bool = True,
        native=None,
    ):
        self.function_lookup = function_lookup or (lambda name: None)
        self.sink = sink if sink is not None else display.OutputSink()
        self.call_dispatcher = call_dispatcher
        # Statistics: rough operation counts, used by tests and reports.
        self.op_count = 0
        # Fused-kernel fast path: per-node memo of matched fusion plans
        # (repro.kernels).  Entries hold a strong reference to the expr
        # so id() keys stay valid for the interpreter's lifetime.
        self.fusion_enabled = fusion
        self._fusion_plans: dict[int, tuple] = {}
        # Native tier (repro.native): offered each fused dispatch first.
        self.native = native
        # Adaptive tiering: a HotnessCounter recording fused-kernel
        # dispatches when no native engine is counting them (the engine
        # shares the same counter, so only one side records per call).
        self.kernel_hotness = None

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run_script(self, program: ast.Program, env: Environment | None = None) -> Environment:
        env = env if env is not None else Environment()
        try:
            self.exec_block(program.script, env)
        except _Return:
            pass
        return env

    def run_statements(self, body: list[ast.Stmt], env: Environment) -> None:
        try:
            self.exec_block(body, env)
        except _Return:
            pass

    def call_function(
        self, fn: ast.FunctionDef, args: list[MxArray], nargout: int = 1
    ) -> list[MxArray]:
        """Invoke a user function interpretively (call-by-value)."""
        if len(args) > len(fn.params):
            raise RuntimeMatlabError(
                f"{fn.name}: too many input arguments"
            )
        env = Environment()
        for name, value in zip(fn.params, args):
            env.set(name, value.copy())
        try:
            self.exec_block(fn.body, env)
        except _Return:
            pass
        outputs: list[MxArray] = []
        wanted = max(nargout, 1) if fn.outputs else 0
        for name in fn.outputs[:wanted]:
            value = env.get(name)
            if value is None:
                raise RuntimeMatlabError(
                    f"output argument '{name}' of {fn.name} not assigned"
                )
            outputs.append(value)
        return outputs

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_block(self, body: list[ast.Stmt], env: Environment) -> None:
        for stmt in body:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: ast.Stmt, env: Environment) -> None:
        self.op_count += 1
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, env)
        elif isinstance(stmt, ast.MultiAssign):
            self._exec_multi_assign(stmt, env)
        elif isinstance(stmt, ast.ExprStmt):
            value = self.eval_expr(stmt.value, env)
            if value is not None:
                env.set("ans", value)
                if stmt.display:
                    self.sink.write(display.format_value(value, "ans"))
        elif isinstance(stmt, ast.If):
            for cond, branch in stmt.branches:
                if self.eval_expr(cond, env).bool_value():
                    self.exec_block(branch, env)
                    return
            self.exec_block(stmt.orelse, env)
        elif isinstance(stmt, ast.While):
            while self.eval_expr(stmt.cond, env).bool_value():
                try:
                    self.exec_block(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, env)
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, ast.Return):
            raise _Return()
        elif isinstance(stmt, ast.Clear):
            env.clear(stmt.names)
        elif isinstance(stmt, ast.Global):
            for name in stmt.names:
                if not env.has(name):
                    env.set(name, empty())
        else:
            raise RuntimeMatlabError(
                f"cannot interpret {type(stmt).__name__}"
            )

    def _exec_assign(self, stmt: ast.Assign, env: Environment) -> None:
        value = self.eval_expr(stmt.value, env)
        target = stmt.target
        if target.indices is None:
            # Call-by-value: assignment stores an independent copy.
            env.set(target.name, value.copy())
        else:
            self._indexed_store(target, value, env)
        if stmt.display:
            self.sink.write(
                display.format_value(env.get(target.name), target.name)
            )

    def _indexed_store(
        self, target: ast.LValue, value: MxArray, env: Environment
    ) -> None:
        array = env.get(target.name)
        if array is None:
            array = empty()
            env.set(target.name, array)
        indices = [
            self._eval_index(index, array, position, len(target.indices), env)
            for position, index in enumerate(target.indices)
        ]
        result = ew.mlf_store(array, value, *indices)
        env.set(target.name, result)

    def _exec_multi_assign(self, stmt: ast.MultiAssign, env: Environment) -> None:
        call = stmt.call
        nargout = len(stmt.targets)
        if not isinstance(call, ast.Apply):
            raise RuntimeMatlabError("multi-assignment requires a function call")
        outputs = self._eval_call(call, env, nargout)
        if len(outputs) < nargout:
            raise RuntimeMatlabError(
                f"{call.name}: not enough output arguments"
            )
        for target, value in zip(stmt.targets, outputs):
            if target.indices is None:
                env.set(target.name, value.copy())
            else:
                self._indexed_store(target, value, env)
        if stmt.display:
            for target in stmt.targets:
                self.sink.write(
                    display.format_value(env.get(target.name), target.name)
                )

    def _exec_for(self, stmt: ast.For, env: Environment) -> None:
        iterable = self.eval_expr(stmt.iterable, env)
        if iterable.is_string:
            columns = [make_string(ch) for ch in iterable.text]
        else:
            view = iterable.view()
            columns = [
                from_ndarray(view[:, k: k + 1].copy())
                for k in range(iterable.cols)
            ]
        for column in columns:
            env.set(stmt.var, column)
            try:
                self.exec_block(stmt.body, env)
            except _Break:
                break
            except _Continue:
                continue

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    _BINOPS = {
        "+": ew.mlf_plus, "-": ew.mlf_minus,
        "*": ew.mlf_mtimes, ".*": ew.mlf_times,
        "/": ew.mlf_mrdivide, "./": ew.mlf_rdivide,
        "\\": ew.mlf_mldivide, ".\\": ew.mlf_ldivide,
        "^": ew.mlf_mpower, ".^": ew.mlf_power,
        "==": ew.mlf_eq, "~=": ew.mlf_ne,
        "<": ew.mlf_lt, "<=": ew.mlf_le, ">": ew.mlf_gt, ">=": ew.mlf_ge,
        "&": ew.mlf_and, "|": ew.mlf_or,
    }

    def eval_expr(self, expr: ast.Expr, env: Environment) -> MxArray:
        self.op_count += 1
        if isinstance(expr, ast.Number):
            return make_scalar(expr.value)
        if isinstance(expr, ast.ImagNumber):
            return make_scalar(complex(0.0, expr.value))
        if isinstance(expr, ast.StringLit):
            return make_string(expr.text)
        if isinstance(expr, ast.Ident):
            return self._eval_ident(expr, env)
        if isinstance(expr, ast.UnaryOp):
            operand = self.eval_expr(expr.operand, env)
            if expr.op is ast.UnaryKind.NEG:
                return ew.mlf_uminus(operand)
            if expr.op is ast.UnaryKind.POS:
                return ew.mlf_uplus(operand)
            return ew.mlf_not(operand)
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "&&":
                left = self.eval_expr(expr.left, env)
                if not left.bool_value():
                    return _bool(False)
                return _bool(self.eval_expr(expr.right, env).bool_value())
            if expr.op == "||":
                left = self.eval_expr(expr.left, env)
                if left.bool_value():
                    return _bool(True)
                return _bool(self.eval_expr(expr.right, env).bool_value())
            if self.fusion_enabled:
                fused = self._eval_fused(expr, env)
                if fused is not None:
                    return fused
            left = self.eval_expr(expr.left, env)
            right = self.eval_expr(expr.right, env)
            return self._BINOPS[expr.op](left, right)
        if isinstance(expr, ast.Transpose):
            operand = self.eval_expr(expr.operand, env)
            if expr.conjugate:
                return ew.mlf_ctranspose(operand)
            return ew.mlf_transpose(operand)
        if isinstance(expr, ast.Range):
            # Operands in source order (MATLAB's, and compiled code's).
            start = self.eval_expr(expr.start, env)
            if expr.step is None:
                return ew.mlf_colon(start, self.eval_expr(expr.stop, env))
            step = self.eval_expr(expr.step, env)
            return ew.mlf_colon(start, step, self.eval_expr(expr.stop, env))
        if isinstance(expr, ast.MatrixLit):
            rows = [
                ew.mlf_horzcat([self.eval_expr(item, env) for item in row])
                for row in expr.rows
            ]
            if not rows:
                return empty()
            if len(rows) == 1:
                return rows[0]
            return ew.mlf_vertcat(rows)
        if isinstance(expr, ast.Apply):
            outputs = self._eval_call(expr, env, 1)
            if not outputs:
                return empty()
            return outputs[0]
        raise RuntimeMatlabError(f"cannot interpret {type(expr).__name__}")

    def _eval_fused(self, expr: ast.BinaryOp, env: Environment):
        """Fused elementwise fast path (repro.kernels).

        Routes a structurally recognized operator tree through one cached
        NumPy kernel — bit-identical to the ``mlf_*`` chain by
        construction.  Returns ``None`` to fall back to the generic path
        (unmatched tree, unbound/string leaf, or a ``*``/``/`` node whose
        live operands need true matrix semantics).
        """
        from repro.kernels import KERNEL_CACHE, match_dynamic

        entry = self._fusion_plans.get(id(expr))
        if entry is None:
            plan = match_dynamic(expr)
            self._fusion_plans[id(expr)] = (expr, plan)
        else:
            plan = entry[1]
        if plan is None:
            return None
        values = []
        for leaf in plan.leaves:
            if isinstance(leaf, ast.Ident):
                value = env.get(leaf.name)
                if value is None or value.is_string:
                    return None
            elif isinstance(leaf, ast.Number):
                value = make_scalar(leaf.value)
            else:
                value = make_scalar(complex(0.0, leaf.value))
            values.append(value)
        if plan.has_matmul and not plan.runtime_ok(values):
            return None
        kernel = plan.kernel
        if kernel is None:
            kernel = KERNEL_CACHE.get_or_compile(
                plan.root, ("b",) * len(values)
            )
            plan.kernel = kernel
        if self.native is not None:
            result = self.native.dispatch(kernel, values)
            if result is not None:
                return result
        # Set only while no native engine counts dispatches itself (none
        # exists, or the one that does is disabled).
        if self.kernel_hotness is not None:
            self.kernel_hotness.record(kernel.name)
        return kernel.fn(*values)

    def _eval_ident(self, expr: ast.Ident, env: Environment) -> MxArray:
        value = env.get(expr.name)
        if value is not None:
            return value
        if rt_builtins.is_builtin(expr.name):
            outputs = rt_builtins.call_builtin(expr.name, [], 1, sink=self.sink)
            return outputs[0] if outputs else empty()
        outputs = self._call_user(expr.name, [], 1)
        if outputs is not None:
            return outputs[0] if outputs else empty()
        raise UndefinedSymbolError(
            f"undefined function or variable '{expr.name}'", expr.location
        )

    def _eval_index(
        self,
        index: ast.Expr,
        array: MxArray,
        position: int,
        arity: int,
        env: Environment,
    ) -> MxArray:
        if isinstance(index, ast.ColonAll):
            if arity == 1:
                count = array.numel
            else:
                count = array.rows if position == 0 else array.cols
            return ew.mlf_colon(make_scalar(1), make_scalar(count))
        return self.eval_expr(
            _EndSubstituted(index, array, position, arity, self).value(env)
            if _contains_end(index)
            else index,
            env,
        )

    def _eval_call(
        self, expr: ast.Apply, env: Environment, nargout: int
    ) -> list[MxArray]:
        # Dynamic resolution (Section 2.1): variable > builtin > function.
        array = env.get(expr.name)
        if array is not None:
            indices = [
                self._eval_index(index, array, position, len(expr.args), env)
                for position, index in enumerate(expr.args)
            ]
            if not indices:
                return [array]
            return [ew.mlf_index(array, *indices)]
        if rt_builtins.is_builtin(expr.name):
            args = [self.eval_expr(arg, env) for arg in expr.args]
            return rt_builtins.call_builtin(
                expr.name, args, nargout, sink=self.sink
            )
        args = [self.eval_expr(arg, env) for arg in expr.args]
        outputs = self._call_user(expr.name, args, nargout)
        if outputs is not None:
            return outputs
        raise UndefinedSymbolError(
            f"undefined function or variable '{expr.name}'", expr.location
        )

    def _call_user(
        self, name: str, args: list[MxArray], nargout: int
    ) -> list[MxArray] | None:
        if self.call_dispatcher is not None:
            result = self.call_dispatcher(name, args, nargout)
            if result is not None:
                return result
        fn = self.function_lookup(name)
        if fn is None:
            return None
        return self.call_function(fn, args, nargout)


def _bool(value: bool) -> MxArray:
    from repro.runtime.values import make_bool

    return make_bool(value)


def _contains_end(expr: ast.Expr) -> bool:
    return any(isinstance(n, ast.EndMarker) for n in ast.walk_expr(expr))


class _EndSubstituted:
    """Rewrites ``end`` markers in a subscript to their numeric value."""

    def __init__(self, index, array, position, arity, interp):
        self.index = ast.clone(index)
        if arity == 1:
            end_value = array.numel
        else:
            end_value = array.rows if position == 0 else array.cols
        self._substitute(self.index, end_value)

    def _substitute(self, expr, end_value: int) -> None:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.EndMarker):
                node.__class__ = ast.Number
                node.value = float(end_value)

    def value(self, env):
        return self.index
