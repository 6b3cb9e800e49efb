"""The optimizing source-code generator (Section 2.6, "speculative mode").

Where the JIT lowers to ICODE and allocates registers through the vcode
layer, this target of the shared code-selection walk
(:class:`repro.codegen.select.Walk`) builds *source* for the host
toolchain — idiomatic, expression-style code the host compiler optimizes
further — and applies the expensive optimizations the paper reserves for
ahead-of-time compilation:

* expression-style emission with every variable a host local, never a
  spill slot (the "native compiler" quality effect);
* loop versioning: subscript checks hoisted into a single loop-entry guard
  (:mod:`repro.codegen.optimizations`) — the static counterpart of the
  JIT's range-based check removal; a guard that would change no selected
  access mode is not emitted, and neither is its second arm;
* loop-invariant hoisting of pure scalar subexpressions and of array data
  pointers (enabled when the modelled native backend is strong, i.e.
  ``native_opt_level >= 2`` — the MIPS configuration);
* the shared selection rules: small-vector unrolling and scalar
  replacement, dgemv fusion and elementwise fusion into the JIT's kernels
  (``majic_opts`` — disabled for the FALCON baseline, which relies on its
  backend instead; elementwise fusion also follows the session's
  ``fusion`` switch).

Compilation through this pipeline is deliberately the slow path ("can take
several seconds" on the paper's machines): it runs several analysis passes
per loop and compiles a full source module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.disambiguate import DisambiguationResult
from repro.frontend import ast_nodes as ast
from repro.inference.annotations import Annotations, SubscriptSafety
from repro.inference.engine import InferenceOptions
from repro.codegen.jitgen import CompiledObject, compile_function
from repro.codegen.select import BOXED, RAW_INT, RAW_REAL, Walk
from repro.codegen.optimizations import (
    VersioningPlan,
    find_hoistable,
    plan_versioning,
)
from repro.obs.trace import NULL_TRACER
from repro.typesys.signature import Signature
from repro.vcode.emit import (
    EmittedFunction,
    bind_function,
    element_load,
    element_store,
    loop_header,
)

_UNARY_SRC = {
    "-": "(-{a})", "+": "{a}", "~": "(0.0 if {a} != 0 else 1.0)",
}
_LOGICAL_SRC = {"&": "and", "|": "or"}
_COMPARE_SRC = ("==", "!=", "<", "<=", ">", ">=")
#: Left-associative operators by host precedence level.  A chain of one
#: level longer than ``_FLAT_AFTER`` operators is continued without a
#: parenthesis per operator (``(a + b + c)`` is the host AST of
#: ``((a + b) + c)``), so a long source sum stays inside the host
#: tokenizer's limit of 200 nested parentheses.
_CHAIN_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1}
_FLAT_AFTER = 32


@dataclass
class SrcOptions:
    """Knobs distinguishing platforms and baselines."""

    native_opt_level: int = 1     # 1 = weak backend (SPARC), 2 = strong (MIPS)
    majic_opts: bool = True       # unrolling/dgemv (off for FALCON)
    inference: InferenceOptions = field(default_factory=InferenceOptions)


class SourceCompiler:
    """The ahead-of-time (speculative / FALCON-style) pipeline.

    ``fusion`` is the session's one elementwise-fusion switch
    (``JitOptions.fusion``); it applies where ``options.majic_opts`` does,
    so the FALCON baseline stays unfused."""

    def __init__(
        self,
        options: SrcOptions | None = None,
        fault_plan=None,
        tracer=None,
        fusion: bool = True,
    ):
        self.options = options or SrcOptions()
        self.fault_plan = fault_plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fusion = fusion and self.options.majic_opts

    def compile(
        self,
        fn: ast.FunctionDef,
        signature: Signature | None,
        disambiguation: DisambiguationResult | None = None,
        annotations: Annotations | None = None,
        mode: str = "spec",
        is_user_function=None,
        bind_own: bool = False,
    ) -> CompiledObject:
        """Compile for ``signature``; ``None`` speculates one (Section 2.5)."""
        return compile_function(
            fn, signature, site="spec", mode=mode,
            inference=self.options.inference, build=self._build,
            tracer=self.tracer, fault_plan=self.fault_plan,
            disambiguation=disambiguation, annotations=annotations,
            is_user_function=is_user_function, bind_own=bind_own,
        )

    def _build(self, fn, annotations, disambiguation):
        emitter = _SrcEmitter(
            fn, annotations, disambiguation, self.options,
            fusion=self.fusion, fault_plan=self.fault_plan, tracer=self.tracer,
        )
        source = emitter.emit()
        code = compile(source, f"<src:{fn.name}>", "exec")
        return emitter, EmittedFunction(
            name=emitter.fn_name,
            source=source,
            code=code,
            callable=bind_function(code, emitter.fn_name),
            spill_count=0,
            instruction_count=source.count("\n"),
        )


class _SrcEmitter(Walk):
    """The source-text target of the selection walk: a value is a host
    expression string, emission appends indented lines."""

    def __init__(
        self,
        fn: ast.FunctionDef,
        annotations: Annotations,
        disambiguation: DisambiguationResult,
        options: SrcOptions,
        fusion: bool = False,
        fault_plan=None,
        tracer=NULL_TRACER,
    ):
        super().__init__(
            fn, annotations, disambiguation,
            unroll_enabled=options.majic_opts,
            dgemv_enabled=options.majic_opts,
            fusion=fusion,
            fault_plan=fault_plan,
            tracer=tracer,
        )
        self.options = options
        self.fn_name = f"src_{fn.name}"
        self.lines: list[str] = []
        self.depth = 1
        self.helpers: set[str] = set()
        self.data_alias: dict[str, str] = {}
        self.prologue: list[str] = []
        self._temp = 0
        # id(code) -> (code, precedence level, operators) of each chain.
        self._chains: dict[int, tuple[str, int, int]] = {}

    def emit(self) -> str:
        self.entry()
        for name in self.fn.outputs:
            if name not in self.fn.params:
                self.prologue.append(f"    {self.var(name)} = None")
        self._block(self.fn.body)
        self.jump(ast.Return())
        params = [f"p_{i}" for i in range(len(self.fn.params))]
        header = [f"def {self.fn_name}({', '.join(params + ['rt'])}):"]
        hoists = [f"    _h_{n} = rt.{n}" for n in sorted(self.helpers)]
        return "\n".join(header + hoists + self.prologue + self.lines) + "\n"

    # ------------------------------------------------------------------
    def fresh(self, base: str) -> str:
        self._temp += 1
        return f"_{base}{self._temp}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def helper(self, name: str) -> str:
        self.helpers.add(name)
        return f"_h_{name}"

    def _block(self, body: list[ast.Stmt]) -> None:
        if not body:
            self.line("pass")
        self.stmts(body)

    def _suite(self, body: list[ast.Stmt]) -> None:
        self.depth += 1
        self._block(body)
        self.depth -= 1

    # ------------------------------------------------------------------
    # Value primitives
    # ------------------------------------------------------------------
    def var(self, name: str) -> str:
        return f"v_{name}"

    def const(self, value, kind: str) -> str:
        return repr(value)

    def call(self, helper: str, args, kind: str | None) -> str | None:
        code = f"{self.helper(helper)}({', '.join(args)})"
        if kind is not None:
            return code
        self.line(code)
        return None

    def call_own(self, args) -> str:
        return f"{self.fn_name}({', '.join([*args, 'rt'])})"

    def calls(self, code: str) -> bool:
        """Whether evaluating ``code`` calls something: a helper, or this
        function itself."""
        return "_h_" in code or f"{self.fn_name}(" in code

    def unpack(self, values: str, position: int, kind: str) -> str:
        return f"{values}[{position}]"

    def unary(self, op: str, a: str, kind: str) -> str:
        return _UNARY_SRC[op].format(a=a)

    def binary(self, op: str, a: str, b: str, kind: str) -> str:
        if op in _LOGICAL_SRC:
            if self.calls(b):
                # ``&`` / ``|`` evaluate both operands: the host's lazy
                # ``and`` / ``or`` would skip a call (a draw, a display,
                # a checked load's error) in the right one.
                return f"(1.0 if (({a}) != 0) {op} (({b}) != 0) else 0.0)"
            return _lazy_logical(op, a, b)
        if op in _COMPARE_SRC:
            return f"(1.0 if {a} {op} {b} else 0.0)"
        level = _CHAIN_LEVEL.get(op)
        if level is None:
            return f"({a} {op} {b})"
        chain = self._chains.get(id(a))
        length = 1
        if chain is not None and chain[0] is a and chain[1] == level:
            length = chain[2] + 1
        if length > _FLAT_AFTER:
            code = f"{a[:-1]} {op} {b})"
        else:
            code = f"({a} {op} {b})"
        self._chains[id(code)] = (code, level, length)
        return code

    def short_circuit(self, node: ast.BinaryOp) -> tuple[str, str]:
        # The host's and/or are lazy already.
        left, right = self.condition(node.left), self.condition(node.right)
        return _lazy_logical(node.op[0], left, right), RAW_REAL

    def bind(self, value: str, base: str, reused: bool = False) -> str:
        """Name ``value`` so it is evaluated here, once (``reused``: only
        if repeating its text would re-evaluate something)."""
        if reused and _is_simple_code(value):
            return value
        temp = self.fresh(base)
        self.line(f"{temp} = {value}")
        return temp

    def assign(self, name: str, value: str) -> None:
        self.line(f"{self.var(name)} = {value}")
        alias = self.data_alias.pop(name, None)
        if alias is not None:
            # Wholesale reassignment invalidates the hoisted pointer.
            self.line(f"{alias} = {self.var(name)}.data")

    def param(self, name: str, position: int, copy: bool) -> None:
        source = f"p_{position}"
        if copy:
            source = f"{self.helper('copy_value')}({source})"
        self.prologue.append(f"    {self.var(name)} = {source}")

    # ------------------------------------------------------------------
    # Memory primitives
    # ------------------------------------------------------------------
    def _data(self, name: str) -> str:
        return self.data_alias.get(name, f"{self.var(name)}.data")

    def load(self, name: str, indices, mode: str, kind: str) -> str:
        return element_load(
            self.var(name), self._data(name), indices, mode, self.helper
        )

    def store(self, name: str, indices, value: str, mode: str) -> None:
        if mode == "checked" and self.calls(value) and any(
            self.calls(code) for code, _ in indices
        ):
            # The value was selected first and is evaluated first, as in
            # the interpreter, not after the helper's index arguments.
            value = self.bind(value, "v")
        self.line(element_store(
            self.var(name), self._data(name), indices, value, mode,
            self.helper,
        ))

    def element(self, array: str, r: int, c: int) -> str:
        at = [(str(r + 1), RAW_INT), (str(c + 1), RAW_INT)]
        return element_load(
            array, f"{array}.data", at, "unchecked", self.helper
        )

    def elem(self, name: str, position: int) -> str:
        # Temporaries are ``_<base><n>``: no base starts with ``x``.
        return f"_x{position}_{name}"

    def assign_elements(self, name: str, values: list[str]) -> None:
        targets = [self.elem(name, position) for position in range(len(values))]
        pairs = [(t, v) for t, v in zip(targets, values) if t != v]
        if any(
            earlier in value
            for index, (_, value) in enumerate(pairs)
            for earlier, _ in pairs[:index]
        ):
            # A value reads an element written before it: assign at once.
            left = ", ".join(t for t, _ in pairs)
            self.line(f"{left} = {', '.join(v for _, v in pairs)}")
            return
        for target, value in pairs:
            self.line(f"{target} = {value}")

    def settle(self, value: str) -> str:
        # A host expression runs where its text lands: name a call here.
        return self.bind(value, "e") if self.calls(value) else value

    # ------------------------------------------------------------------
    # Control primitives
    # ------------------------------------------------------------------
    def if_(self, stmt: ast.If) -> None:
        for index, (cond, branch) in enumerate(stmt.branches):
            word = "if" if index == 0 else "elif"
            self.line(f"{word} {self.condition(cond)}:")
            self._suite(branch)
        if stmt.orelse:
            self.line("else:")
            self._suite(stmt.orelse)

    def while_(self, stmt: ast.While) -> None:
        self.line(f"while {self.condition(stmt.cond)}:")
        self._suite(stmt.body)

    def jump(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Return):
            rets = ", ".join(self.var(n) for n in self.fn.outputs)
            tail = "," if len(self.fn.outputs) == 1 else ""
            self.line(f"return ({rets}{tail})")
        else:
            self.line("break" if isinstance(stmt, ast.Break) else "continue")

    def for_each(self, stmt: ast.For, iterable: str) -> None:
        self.line(
            f"for {self.var(stmt.var)} in {self.helper('columns')}({iterable}):"
        )
        self._suite(stmt.body)

    # ------------------------------------------------------------------
    # The loop hook: hoisting + versioning around every counted loop
    # ------------------------------------------------------------------
    def counted_for(self, stmt: ast.For, start, stop, step, direction) -> None:
        # Loop-invariant hoisting (strong native backend only).
        saved_hoisted = dict(self.hoisted)
        if self.options.native_opt_level >= 2:
            variant = ast.assigned(stmt.body) | {stmt.var}
            for expr in find_hoistable(stmt.body, self.ann, variant):
                if id(expr) not in self.hoisted:
                    self.hoisted[id(expr)] = self.bind(self.expr(expr)[0], "inv")

        plan = plan_versioning(stmt, self.ann)
        if plan.worthwhile:
            lo, hi = start[0], stop[0]
            if direction < 0:
                lo, hi = hi, lo
            mark = (
                len(self.lines), len(self.prologue), self._temp,
                set(self.helpers),
            )
            outer_used, self.forcing_used = self.forcing_used, False
            self.line(f"if {self._guard_code(plan, lo, hi)}:")
            self.depth += 1
            saved_forced = set(self.forced_safe)
            self.forced_safe |= plan.forced_safe
            self._emit_counted_loop(stmt, start, stop, step, direction)
            self.forced_safe = saved_forced
            self.depth -= 1
            if self.forcing_used:
                self.line("else:")
                self.depth += 1
                self._emit_counted_loop(stmt, start, stop, step, direction)
                self.depth -= 1
            else:
                # The guard changed no selection, so both arms would be the
                # same loop: drop the guarded one and emit the loop once.
                lines, prologue, self._temp, self.helpers = mark
                del self.lines[lines:], self.prologue[prologue:]
                self._emit_counted_loop(stmt, start, stop, step, direction)
            self.forcing_used |= outer_used
        else:
            self._emit_counted_loop(stmt, start, stop, step, direction)
        self.hoisted = saved_hoisted

    def _emit_counted_loop(self, stmt, start, stop, step, direction) -> None:
        var = self.var(stmt.var)
        saved_alias = dict(self.data_alias)
        if self.options.native_opt_level >= 2:
            self._hoist_data_pointers(stmt)
        if direction == 0 or self.var_kind(stmt.var) != RAW_INT:
            # Real-stepped (or unknown-sign) loop: the frange helper
            # yields the interpreter's values.
            self.line(
                f"for {var} in {self.helper('frange')}"
                f"({start[0]}, {'1.0' if step is None else step[0]}, "
                f"{stop[0]}):"
            )
        else:
            # Integer counters iterate host range() with an immediate step.
            if step is not None:
                step = str(self.const_int_step(stmt.iterable.step)), RAW_INT
            self.line(loop_header(var, start, stop, step, direction < 0))
        self._suite(stmt.body)
        self.data_alias = saved_alias

    def _hoist_data_pointers(self, stmt: ast.For) -> None:
        """Bind ``_d_name = v_name.data`` for loop-stable arrays."""
        reassigned: set[str] = set()
        unstable: set[str] = set()
        accessed: set[str] = set()
        for inner in ast.walk_stmts(stmt.body):
            if isinstance(inner, ast.Clear):
                return  # a cleared array has no data pointer to keep
            for target in ast.targets(inner):
                if not target.is_indexed:
                    reassigned.add(target.name)
                elif isinstance(inner, ast.Assign) and (
                    id(target) in self.forced_safe
                    or self.ann.safety_of_store(target) is SubscriptSafety.SAFE
                ) and self.ann.type_of(inner.value).is_real_like:
                    accessed.add(target.name)
                else:  # a checked store (one of a complex value may widen
                    # the buffer), a growing or a multi-assignment store
                    unstable.add(target.name)
            for expr in ast.stmt_exprs(inner):
                for node in ast.walk_expr(expr):
                    if isinstance(node, ast.Apply):
                        # A call has no load safety on record: CHECKED.
                        safety = self.ann.safety_of_load(node)
                        if id(node) in self.forced_safe:
                            safety = SubscriptSafety.SAFE
                        if safety is SubscriptSafety.SAFE:
                            accessed.add(node.name)
        for name in sorted(accessed - reassigned - unstable):
            if self.var_kind(name) != BOXED or name in self.data_alias:
                continue
            alias = self.fresh(f"d_{name}")
            self.line(f"{alias} = {self.var(name)}.data")
            self.data_alias[name] = alias

    def _guard_code(self, plan: VersioningPlan, start_temp: str, stop_temp: str) -> str:
        parts: list[str] = []
        for term in plan.guard_terms:
            arr = self.var(term.array)
            shape = self.replaced.get(term.array)
            if shape is not None:
                extent = str({1: shape[0], 2: shape[1]}.get(
                    term.dim, shape[0] * shape[1]
                ))
            elif term.dim == 0:
                extent = f"({arr}.rows * {arr}.cols)"
            elif term.dim == 1:
                extent = f"{arr}.rows"
            else:
                extent = f"{arr}.cols"
            affine = term.affine
            if affine.uses_var:
                if affine.offset_expr is None:
                    lo, hi = start_temp, stop_temp
                else:
                    offset, _ = self.expr(affine.offset_expr)
                    sign = "+" if affine.offset_sign > 0 else "-"
                    lo = f"({start_temp} {sign} ({offset}))"
                    hi = f"({stop_temp} {sign} ({offset}))"
            else:
                code, _ = self.expr(affine.invariant)
                lo = hi = f"({code})"
            parts.append(f"{lo} >= 1")
            parts.append(f"{hi} <= {extent}")
        return " and ".join(dict.fromkeys(parts)) or "False"


def _lazy_logical(op: str, a: str, b: str) -> str:
    return f"(1.0 if (({a}) != 0 {_LOGICAL_SRC[op]} ({b}) != 0) else 0.0)"


def _is_simple_code(code: str) -> bool:
    """True for a bare variable or literal (safe to repeat in unrolls)."""
    return code.replace("_", "a").replace(".", "0").isalnum()
