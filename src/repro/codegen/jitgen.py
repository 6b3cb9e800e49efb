"""The JIT code generator (Section 2.6).

The shared code-selection walk (:class:`repro.codegen.select.Walk`) lowers
the typed AST to ICODE through the target in this module; the linear-scan
allocator assigns registers; the emitter produces an in-memory host
function.  No loop optimizations, no common-subexpression elimination, no
instruction scheduling — compilation speed is the design point.

Also here, because both compilers produce them: :class:`CompiledObject`,
:class:`PhaseTimes` and :func:`compile_function`, the one pipeline from a
function's AST to a compiled object.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.analysis.disambiguate import DisambiguationResult, Disambiguator
from repro.errors import CodegenError
from repro.frontend import ast_nodes as ast
from repro.inference.annotations import Annotations
from repro.inference.engine import InferenceOptions, TypeInferenceEngine
from repro.inference.speculation import Speculator
from repro.codegen.runtime_support import box, unbox
from repro.codegen.select import (
    BOXED,
    RAW_COMPLEX,
    RAW_INT,
    RAW_REAL,
    Walk,
)
from repro.obs.trace import NULL_TRACER
from repro.runtime.mxarray import IntrinsicClass
from repro.typesys.signature import INTRINSIC_OF_CLASS, Signature
from repro.vcode.emit import EmittedFunction, emit_python
from repro.vcode.icode import (
    Block,
    BreakRegion,
    ContinueRegion,
    ForEachRegion,
    ForRegion,
    FunctionIR,
    IfRegion,
    Instr,
    ReturnRegion,
    Seq,
    VRegAllocator,
    WhileRegion,
)
from repro.vcode.liveness import compute_intervals
from repro.vcode.regalloc import DEFAULT_NUM_REGISTERS, LinearScanAllocator


@dataclass
class JitOptions:
    """Pipeline switches (Figure 7's "no regalloc" lives here)."""

    num_registers: int = DEFAULT_NUM_REGISTERS
    spill_everything: bool = False
    unroll_enabled: bool = True
    dgemv_enabled: bool = True
    fusion: bool = True
    inference: InferenceOptions = field(default_factory=InferenceOptions)


@dataclass
class PhaseTimes:
    """Per-phase compile times (drives Figure 6)."""

    disambiguation: float = 0.0
    type_inference: float = 0.0
    codegen: float = 0.0

    @property
    def total(self) -> float:
        return self.disambiguation + self.type_inference + self.codegen


@dataclass
class CompiledObject:
    """One entry in the code repository."""

    name: str
    signature: Signature
    emitted: EmittedFunction
    annotations: Annotations
    param_reprs: list[str]
    output_reprs: list[str]
    mode: str = "jit"
    phase_times: PhaseTimes = field(default_factory=PhaseTimes)
    #: Source of every fused kernel the emitted code references, keyed by
    #: kernel name — rides the persistent cache entry, beside each
    #: kernel's module code, so a fresh process can re-register them
    #: (``rt.kernel_<hash>`` dispatch must never miss for disk-revived
    #: objects).
    kernel_sources: dict = field(default_factory=dict)
    #: Canonical tree encoding of each referenced kernel (same keys as
    #: ``kernel_sources``) — the native tier decodes these to rebuild
    #: trees for disk-revived kernels, so warm sessions can still promote
    #: them to C.
    kernel_keys: dict = field(default_factory=dict)

    @property
    def source(self) -> str:
        return self.emitted.source

    # Built once per version, on first use (never pickled: the disk cache
    # stores a field-by-field copy).  ``_formals``: per formal, what
    # :meth:`accepts` compares a value against.  ``_pins``: per formal, the
    # class of an actual at distance 0, or 0 — no class — when the formal
    # admits none (:meth:`exact_for`).  ``_unbox``: per formal, whether the
    # emitted code takes the argument as a raw host scalar; empty when it
    # takes every one boxed.
    _formals = None
    _pins = None
    _unbox = None

    def _bind(self) -> None:
        formals, pins = [], []
        for formal in self.signature.types:
            classes = [False] * (max(IntrinsicClass) + 1)
            pin = 0
            for klass, intrinsic in INTRINSIC_OF_CLASS.items():
                classes[klass] = intrinsic.leq(formal.intrinsic)
                if intrinsic is formal.intrinsic:
                    pin = int(klass)
            minshape, maxshape, rng = formal.minshape, formal.maxshape, formal.range
            formals.append((
                tuple(classes),
                _dim(minshape.rows), _dim(minshape.cols),
                _dim(maxshape.rows), _dim(maxshape.cols),
                rng.is_top, rng.lo, rng.hi,
            ))
            # ``Signature.distance`` is 0 for the formal's own class at its
            # exact shape when the range penalty is 0: a constant against
            # the same constant, or ⊤ against an actual whose range is
            # always ⊤ (complex, string, empty).
            pinned = formal.has_exact_shape and (
                rng.is_constant
                or rng.is_top and (pin >= _COMPLEX or minshape.numel == 0)
            )
            pins.append(pin if pinned else 0)
        self._pins = tuple(pins)
        unbox_flags = tuple(
            kind in (RAW_REAL, RAW_INT, RAW_COMPLEX) for kind in self.param_reprs
        )
        self._unbox = unbox_flags if any(unbox_flags) else ()
        # Last: a thread that sees the rows sees all three.
        self._formals = tuple(formals)

    def accepts(self, arg_values) -> bool:
        """Safety of running this version on these values (§2.2.1):
        exactly ``signature.accepts`` of the invocation signature
        ``signature_of_values(arg_values)``, answered from the values
        without building it — for a call that supplies every formal, since
        the emitted function takes each one positionally; any other arity
        is refused.  The repository's one acceptance predicate: the
        hot-call cache and ``locate`` both ask it."""
        formals = self._formals
        if formals is None:
            self._bind()
            formals = self._formals
        if len(arg_values) != len(formals):
            return False
        for value, (classes, min_rows, min_cols, max_rows, max_cols,
                    any_range, lo, hi) in zip(arg_values, formals):
            klass = value.tag
            if klass is None:
                klass = value.klass
            if not classes[klass]:
                return False
            rows, cols = value.rows, value.cols
            if (rows < min_rows or cols < min_cols
                    or rows > max_rows or cols > max_cols):
                return False
            if any_range:
                continue
            # A finite-range formal: the actual's range is ⊤ for complex,
            # string, empty and NaN-holding values (``type_of_value``),
            # which only a ⊤ formal contains; NaN fails both comparisons.
            if klass >= _COMPLEX or rows == 0 or cols == 0:
                return False
            if rows == 1 and cols == 1:
                scalar = value.data.item(0).real
                if not lo <= scalar <= hi:
                    return False
            else:
                view = value.view().real
                if not (lo <= view.min() and view.max() <= hi):
                    return False
        return True

    def exact_for(self, arg_values) -> bool:
        """Given :meth:`accepts`: is the invocation provably at distance 0
        from this signature?  Signatures of held versions are distinct, so
        no other version can then be as close, and the hot-call cache may
        serve this one without ranking."""
        pins = self._pins
        if len(arg_values) != len(pins):
            return False
        for value, pin in zip(arg_values, pins):
            if value.klass != pin:
                return False
        return True

    def invoke(self, arg_values, nargout: int, rt):
        """Execute with boxed arguments; returns boxed outputs."""
        flags = self._unbox
        if flags is None:
            self._bind()
            flags = self._unbox
        if flags:
            arg_values = [
                unbox(value) if raw else value
                for value, raw in zip(arg_values, flags)
            ]
        results = self.emitted.callable(*arg_values, rt)
        outputs = []
        for value in results[: nargout if nargout > 1 else 1]:
            if value is None:
                raise CodegenError(
                    f"output of '{self.name}' was never assigned"
                )
            outputs.append(box(value))
        return outputs


def _dim(dim) -> float:
    """A shape bound as a number (``None`` is the lattice's ∞)."""
    return math.inf if dim is None else dim


#: The classes whose values carry no range (``type_of_value`` gives them
#: ⊤) are COMPLEX and, above it in the enum, STRING: ``klass >= _COMPLEX``.
_COMPLEX = IntrinsicClass.COMPLEX


def compile_function(
    fn: ast.FunctionDef,
    signature: Signature | None,
    *,
    site: str,
    mode: str,
    inference: InferenceOptions,
    build,
    tracer=NULL_TRACER,
    fault_plan=None,
    disambiguation: DisambiguationResult | None = None,
    annotations: Annotations | None = None,
    is_user_function=None,
) -> CompiledObject:
    """The one compile pipeline behind both compilers.

    Fault-site check → disambiguation → type inference (forward from
    ``signature``; *speculation* of a signature when there is none) →
    select + emit (``build(fn, annotations, disambiguation)``, returning
    the finished walk and its :class:`EmittedFunction`) →
    :class:`CompiledObject`.  Each analysis phase runs unless its result is
    passed in, and every phase is timed and traced here, once.
    """
    if fault_plan is not None:
        fault_plan.check(site, fn.name)
    times = PhaseTimes()
    start = time.perf_counter()
    if disambiguation is None:
        with tracer.span("disambiguation", "disambiguation",
                         function=fn.name, mode=mode):
            disambiguation = Disambiguator(
                is_user_function or (lambda name: False)
            ).run_function(fn)
    times.disambiguation = time.perf_counter() - start

    start = time.perf_counter()
    if annotations is None:
        with tracer.span("type_inference", "type_inference",
                         function=fn.name, mode=mode):
            if signature is None:
                guess = Speculator(options=inference).speculate(
                    fn, disambiguation
                )
                signature, annotations = guess.signature, guess.annotations
            else:
                annotations = TypeInferenceEngine(options=inference).infer(
                    fn, signature, disambiguation
                )
    times.type_inference = time.perf_counter() - start

    start = time.perf_counter()
    with tracer.span("codegen", "codegen", function=fn.name, mode=mode):
        walk, emitted = build(fn, annotations, disambiguation)
    times.codegen = time.perf_counter() - start

    return CompiledObject(
        name=fn.name,
        signature=signature,
        emitted=emitted,
        annotations=annotations,
        param_reprs=walk.param_reprs,
        output_reprs=walk.output_reprs,
        mode=mode,
        phase_times=times,
        kernel_sources=dict(walk.kernel_sources),
        kernel_keys=dict(walk.kernel_keys),
    )


class JitCompiler:
    """The fast compilation pipeline."""

    def __init__(
        self,
        options: JitOptions | None = None,
        fault_plan=None,
        tracer=None,
    ):
        self.options = options or JitOptions()
        self.fault_plan = fault_plan
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def compile(
        self,
        fn: ast.FunctionDef,
        signature: Signature,
        disambiguation: DisambiguationResult | None = None,
        annotations: Annotations | None = None,
        mode: str = "jit",
        is_user_function=None,
    ) -> CompiledObject:
        return compile_function(
            fn, signature, site="jit", mode=mode,
            inference=self.options.inference, build=self._build,
            tracer=self.tracer, fault_plan=self.fault_plan,
            disambiguation=disambiguation, annotations=annotations,
            is_user_function=is_user_function,
        )

    def _build(self, fn, annotations, disambiguation):
        lowerer = _Lowerer(
            fn, annotations, disambiguation, self.options,
            fault_plan=self.fault_plan, tracer=self.tracer,
        )
        ir = lowerer.lower()
        intervals = compute_intervals(ir)
        allocator = LinearScanAllocator(
            num_registers=self.options.num_registers,
            spill_everything=self.options.spill_everything,
        )
        return lowerer, emit_python(ir, allocator.allocate(intervals))


class _Lowerer(Walk):
    """The ICODE target of the selection walk: a value is a virtual
    register, emission appends instructions and structured regions."""

    def __init__(
        self,
        fn: ast.FunctionDef,
        annotations: Annotations,
        disambiguation: DisambiguationResult,
        options: JitOptions,
        fault_plan=None,
        tracer=NULL_TRACER,
    ):
        super().__init__(
            fn, annotations, disambiguation,
            unroll_enabled=options.unroll_enabled,
            dgemv_enabled=options.dgemv_enabled,
            fusion=options.fusion,
            fault_plan=fault_plan,
            tracer=tracer,
        )
        self.vregs = VRegAllocator()
        self.var_regs: dict[str, int] = {}
        self.reg_kinds: dict[int, str] = {}
        self.params: list[int] = []
        self.prologue = Block()
        self.block: Block | None = None
        self.seq: Seq | None = None
        #: (name, position) -> register of a scalar-replaced element.
        self.elem_regs: dict[tuple[str, int], int] = {}

    def lower(self) -> FunctionIR:
        self.block = self.prologue
        self.entry()
        body = Seq(parts=[self.prologue, self._body(self.fn.body)])
        outputs = tuple(self.var(name) for name in self.fn.outputs)
        return FunctionIR(
            name=f"mjc_{self.fn.name}",
            params=self.params,
            body=body,
            outputs=outputs,
            variable_regs=frozenset(self.var_regs.values())
            | frozenset(self.elem_regs.values()),
            reg_kinds=self.reg_kinds,
        )

    # ------------------------------------------------------------------
    # Value primitives
    # ------------------------------------------------------------------
    def fresh(self, kind: str) -> int:
        reg = self.vregs.fresh()
        self.reg_kinds[reg] = kind
        return reg

    def emit(self, op, dst=None, args=(), aux=None) -> int | None:
        self.block.emit(Instr(op, dst, tuple(args), aux))
        return dst

    def var(self, name: str) -> int:
        reg = self.var_regs.get(name)
        if reg is None:
            reg = self.var_regs[name] = self.fresh(self.var_kind(name))
        return reg

    def const(self, value, kind: str) -> int:
        return self.emit("CONST", self.fresh(kind), (), value)

    def call(self, helper: str, args, kind: str | None) -> int | None:
        dst = self.fresh(kind) if kind is not None else None
        return self.emit("CALLRT", dst, args, helper)

    def unpack(self, values: int, position: int, kind: str) -> int:
        return self.emit("UNPACK", self.fresh(kind), (values,), position)

    def unary(self, op: str, a: int, kind: str) -> int:
        return self.emit("UN", self.fresh(kind), (a,), op)

    def binary(self, op: str, a: int, b: int, kind: str) -> int:
        return self.emit("BIN", self.fresh(kind), (a, b), op)

    def bind(self, value: int, base: str, reused: bool = False) -> int:
        return value  # a register is already evaluated exactly once

    def assign(self, name: str, value: int) -> None:
        self.emit("MOV", self.var(name), (value,))

    def param(self, name: str, position: int, copy: bool) -> None:
        self.params.append(self.var(name))
        if copy:
            self.assign(name, self.call("copy_value", [self.var(name)], BOXED))

    # ------------------------------------------------------------------
    # Memory primitives
    # ------------------------------------------------------------------
    def load(self, name: str, indices, mode: str, kind: str) -> int:
        op = "LOAD1" if len(indices) == 1 else "LOAD2"
        regs = [reg for reg, _ in indices]
        return self.emit(op, self.fresh(kind), (self.var(name), *regs), mode)

    def store(self, name: str, indices, value: int, mode: str) -> None:
        op = "STORE1" if len(indices) == 1 else "STORE2"
        regs = [reg for reg, _ in indices]
        self.emit(op, None, (self.var(name), *regs, value), mode)

    def _at(self, r: int, c: int) -> tuple[int, int]:
        """One-based subscript registers for a zero-based position."""
        return self.const(r + 1, RAW_INT), self.const(c + 1, RAW_INT)

    def element(self, array: int, r: int, c: int) -> int:
        args = (array, *self._at(r, c))
        return self.emit("LOAD2", self.fresh(RAW_REAL), args, "unchecked")

    def elem(self, name: str, position: int) -> int:
        reg = self.elem_regs.get((name, position))
        if reg is None:
            reg = self.elem_regs[name, position] = self.fresh(RAW_REAL)
        return reg

    def assign_elements(self, name: str, values: list[int]) -> None:
        targets = [self.elem(name, position) for position in range(len(values))]
        # An element read after an earlier one is written is read into a
        # copy first (``v = [v(2), v(1)]``).
        written: set[int] = set()
        moves = []
        for target, value in zip(targets, values):
            if value in written:
                value = self.emit("MOV", self.fresh(RAW_REAL), (value,))
            written.add(target)
            moves.append((target, value))
        for target, value in moves:
            if target != value:
                self.emit("MOV", target, (value,))

    # ------------------------------------------------------------------
    # Control primitives: structured regions
    # ------------------------------------------------------------------
    def _seq_of(self, lower) -> tuple[Seq, object]:
        """A fresh region sequence holding whatever ``lower()`` emits, and
        its result.  Conditions get one of their own: their short-circuit
        operators expand into regions that must land inside the header,
        not in the enclosing statement sequence."""
        saved = self.block, self.seq
        self.seq = seq = Seq(parts=[])
        self._new_block()
        result = lower()
        self.block, self.seq = saved
        return seq, result

    def _body(self, stmts: list[ast.Stmt]) -> Seq:
        return self._seq_of(lambda: self.stmts(stmts))[0]

    def _new_block(self) -> None:
        self.block = Block()
        self.seq.parts.append(self.block)

    def _region(self, region) -> None:
        self.seq.parts.append(region)
        self._new_block()

    def if_(self, stmt: ast.If) -> None:
        def build(branches, orelse) -> Seq:
            if not branches:
                return self._body(orelse)
            (cond, body), rest = branches[0], branches[1:]
            header, cond_reg = self._seq_of(lambda: self.condition(cond))
            then = self._body(body)
            return Seq(parts=[IfRegion(header=header, cond=cond_reg, then=then,
                                       orelse=build(rest, orelse))])

        self._region(build(stmt.branches, stmt.orelse))

    def while_(self, stmt: ast.While) -> None:
        header, cond_reg = self._seq_of(lambda: self.condition(stmt.cond))
        body = self._body(stmt.body)
        self._region(WhileRegion(header=header, cond=cond_reg, body=body))

    def for_each(self, stmt: ast.For, iterable: int, raw: bool = False) -> None:
        body = self._body(stmt.body)
        self._region(ForEachRegion(
            var=self.var(stmt.var), iterable=iterable,
            body=body, raw_iterable=raw,
        ))

    def counted_for(self, stmt: ast.For, start, stop, step, direction) -> None:
        if direction == 0 or self.var_kind(stmt.var) != RAW_INT:
            # Real-stepped (or unknown-sign) loop: the frange helper
            # yields the interpreter's values.
            if step is None:
                step = self.const(1.0, RAW_REAL)
            iterable = self.call("frange", [start, step, stop], BOXED)
            self.for_each(stmt, iterable, raw=True)
            return
        # Integer counters iterate host range(): integral operands.
        if step is not None:
            step = self._to_int(step)
        start, stop = self._to_int(start), self._to_int(stop)
        body = self._body(stmt.body)
        self._region(ForRegion(
            var=self.var(stmt.var), start=start, stop=stop,
            step=step, body=body, descending=direction < 0,
        ))

    def _to_int(self, reg: int) -> int:
        if self.reg_kinds.get(reg) == RAW_INT:
            return reg
        return self.call("to_int", [reg], RAW_INT)

    def jump(self, stmt: ast.Stmt) -> None:
        self._region({
            ast.Break: BreakRegion, ast.Continue: ContinueRegion,
            ast.Return: ReturnRegion,
        }[type(stmt)]())

    def short_circuit(self, node: ast.BinaryOp) -> tuple[int, str]:
        """``a && b`` / ``a || b`` with lazy right-operand evaluation."""
        result = self.fresh(RAW_REAL)
        left = self.condition(node.left)

        def mov_result(src: int, *before: Instr) -> Seq:
            return Seq(parts=[Block([*before, Instr("MOV", result, (src,))])])

        def const_result(value: float) -> Seq:
            creg = self.fresh(RAW_REAL)
            return mov_result(creg, Instr("CONST", creg, (), value))

        def eval_right():
            right = self.condition(node.right)
            one, zero = self.const(1.0, RAW_REAL), self.const(0.0, RAW_REAL)
            self._region(IfRegion(
                header=Block(), cond=right,
                then=mov_result(one), orelse=mov_result(zero),
            ))

        right_seq = self._seq_of(eval_right)[0]
        if node.op == "&&":
            then, orelse = right_seq, const_result(0.0)
        else:
            then, orelse = const_result(1.0), right_seq
        self._region(IfRegion(
            header=Block(), cond=left, then=then, orelse=orelse
        ))
        return result, RAW_REAL
