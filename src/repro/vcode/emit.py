"""Lowering register-allocated ICODE to host-executable code.

The JIT code generator "builds code fast and in memory" (Section 2.6); the
host analogue is generating Python source for one function and compiling it
with :func:`compile`.  Physical registers map to host local variables
(``pr0`` .. ``prN``); spilled virtual registers live in an explicit frame
list ``sp`` — a genuinely slower access path, which is what makes the
Figure 7 "no regalloc" ablation measurable.

A register the allocator *folded* has no location at all: its def emits
no statement, and its text is written as a nested expression where it is
read (a folded ``CONST`` is a literal at every read; a folded comparison
that an ``if`` or ``while`` tests is the bare host test).  With nothing
folded the output is plain three-address code.  Which operand positions
may hold a folded def is :func:`eager_operands`, next to the templates
that decide it.

Runtime-support helpers are hoisted into locals at the top of the emitted
function (``_h_g_add = rt.g_add``), the host equivalent of keeping
library entry points in registers.

The host text of an element load, an element store, a zero-based
subscript and a counted-loop header is written here once
(:func:`element_load`, :func:`element_store`, :func:`zero_based`,
:func:`loop_header`), for this emitter and the source-text target alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CodegenError
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
    WhileRegion,
)

if TYPE_CHECKING:
    from repro.vcode.regalloc import Assignment

_BIN_NUMERIC = {
    "+": "({a} + {b})",
    "-": "({a} - {b})",
    "*": "({a} * {b})",
    "/": "({a} / {b})",
    "**": "({a} ** {b})",
}
#: A comparison as the host test an ``if`` / ``while`` evaluates, and as
#: the 1.0 / 0.0 value anything else reads.
_BIN_TEST = {
    "<": "{a} < {b}",
    "<=": "{a} <= {b}",
    ">": "{a} > {b}",
    ">=": "{a} >= {b}",
    "==": "{a} == {b}",
    "!=": "{a} != {b}",
    "&": "({a} != 0 and {b} != 0)",
    "|": "({a} != 0 or {b} != 0)",
}
_BIN_COMPARE = {
    op: f"(1.0 if {test} else 0.0)" for op, test in _BIN_TEST.items()
}
_UN = {
    "-": "(-{a})",
    "+": "({a})",
    "~": "(0.0 if {a} != 0 else 1.0)",
    "abs": "abs({a})",
}

#: Operand positions that the templates evaluate exactly once, eagerly
#: and in operand order: the only places a folded def may stand.  The
#: right operand of ``&`` / ``|`` is evaluated lazily; a store's array
#: and index are not eager, because the host evaluates an assignment's
#: value before its target, and an access's array is not, because the
#: unchecked linear access of a matrix reads it twice.
_EAGER = {
    "CONST": slice(0),
    "MOV": slice(None),
    "BIN": slice(None),
    "UN": slice(None),
    "CALLRT": slice(None),
    "CALLSELF": slice(None),
    "UNPACK": slice(None),
    "LOAD1": slice(1, None),
    "LOAD2": slice(None),
    "STORE1": slice(2, None),
    "STORE2": slice(3, None),
}
_LAZY_RIGHT = frozenset({"&", "|"})


def eager_operands(instr: Instr) -> tuple[int, ...]:
    """The registers of ``instr`` a folded def may stand for, in the
    order the host evaluates them."""
    if instr.op == "BIN" and instr.aux in _LAZY_RIGHT:
        return instr.args[:1]
    return instr.args[_EAGER[instr.op]]


# ----------------------------------------------------------------------
# Element access and counted loops: the one host spelling of each, which
# this emitter and the source target (``codegen.srcgen._SrcEmitter``)
# both write.  A raw subscript or bound is ``(text, kind)``: kind ``"i"``
# is a host int, anything else a raw real that ``int()`` truncates.  An
# access ``mode`` is ``"checked"`` (MxArray's own checked method, through
# its ``rt`` name), ``"unchecked"``, or, for a linear access of an array
# inference proves a row or a column, ``"unchecked_row"`` /
# ``"unchecked_col"``.  ``arr`` is the array's text, ``data`` its
# buffer's and ``helper(name)`` the text that calls a runtime helper.
# ----------------------------------------------------------------------
def _host_int(text: str, kind: str) -> str:
    return text if kind == "i" else f"int({text})"


def zero_based(index) -> str:
    """A one-based raw subscript ``(text, kind)`` as a host int
    expression, zero-based."""
    return f"{_host_int(*index)} - 1"


def _checked(helper, op: str, arr: str, indices, *rest: str) -> str:
    args = ", ".join([arr, *(text for text, _ in indices), *rest])
    return f"{helper(f'checked_{op}{len(indices)}')}({args})"


def _position(arr: str, indices, mode: str) -> str:
    """The (row, column) an unchecked access reaches, column-major."""
    at = [zero_based(index) for index in indices]
    if len(at) == 2:
        return f"{at[0]}, {at[1]}"
    if mode == "unchecked_row":
        return f"0, {at[0]}"
    if mode == "unchecked_col":
        return f"{at[0]}, 0"
    return f"divmod({at[0]}, {arr}.rows)[::-1]"


def element_load(arr: str, data: str, indices, mode: str, helper) -> str:
    """The host expression reading ``arr(indices)``."""
    if mode == "checked":
        return _checked(helper, "load", arr, indices)
    if mode != "unchecked":  # a row's or a column's buffer is flat
        return f"{data}.item({zero_based(indices[0])})"
    return f"{data}.item({_position(arr, indices, mode)})"


def element_store(
    arr: str, data: str, indices, value: str, mode: str, helper
) -> str:
    """The host statement writing ``value`` to ``arr(indices)``."""
    if mode == "checked":
        return _checked(helper, "store", arr, indices, value)
    return f"{data}[{_position(arr, indices, mode)}] = {value}"


def loop_header(var: str, start, stop, step=None, descending=False) -> str:
    """The header of a counted loop of the host int ``var`` from raw
    bound ``start`` to ``stop`` inclusive, by ``step`` (one when
    ``None``)."""
    edge = "-" if descending else "+"
    stride = "" if step is None else f", {_host_int(*step)}"
    return (
        f"for {var} in range({_host_int(*start)}, "
        f"{_host_int(*stop)} {edge} 1{stride}):"
    )


@dataclass
class EmittedFunction:
    """Source text, the module code it compiles to, and the callable
    that code defines.  The disk cache stores ``code`` so that a later
    session binds the callable without compiling."""

    name: str
    source: str
    code: object
    callable: object
    spill_count: int
    instruction_count: int


class _Emitter:
    def __init__(self, ir: FunctionIR, assignment: Assignment):
        self.ir = ir
        self.assignment = assignment
        self.folded = assignment.folded
        self.lines: list[str] = []
        self.depth = 1
        self.helpers: set[str] = set()
        self.instruction_count = 0
        # Host text of each folded register, and of each folded
        # comparison as a bare test.
        self.exprs: dict[int, str] = {}
        self.tests: dict[int, str] = {}

    # ------------------------------------------------------------------
    def loc(self, reg: int) -> str:
        """The host text that reads ``reg``."""
        text = self.exprs.get(reg)
        return self.assignment.location(reg) if text is None else text

    def define(self, dst: int, expr: str) -> None:
        if dst in self.folded:
            self.exprs[dst] = expr
        else:
            self.line(f"{self.assignment.location(dst)} = {expr}")

    def test(self, reg: int) -> str:
        """``reg`` as the condition of an ``if``."""
        return self.tests.get(reg) or self.loc(reg)

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def raw(self, reg: int) -> tuple[str, str]:
        """A subscript or bound operand: its text and its kind."""
        return self.loc(reg), self.ir_kind(reg)

    def ir_kind(self, reg: int) -> str:
        return self.ir.reg_kinds.get(reg, "f")

    def helper(self, name: str) -> str:
        self.helpers.add(name)
        return f"_h_{name}"

    # ------------------------------------------------------------------
    def emit_function(self) -> str:
        params = [f"p_{i}" for i in range(len(self.ir.params))]
        body_lines: list[str] = []
        self.lines = body_lines
        for reg, pname in zip(self.ir.params, params):
            self.line(f"{self.loc(reg)} = {pname}")
        for reg in self.ir.outputs:
            if reg not in self.ir.params:
                self.line(f"{self.loc(reg)} = None")
        self.emit_region(self.ir.body)
        self.emit_return()

        header = [f"def {self.ir.name}({', '.join(params + ['rt'])}):"]
        prologue = []
        for name in sorted(self.helpers):
            prologue.append(f"    _h_{name} = rt.{name}")
        if self.assignment.frame_size:
            prologue.append(f"    sp = [None] * {self.assignment.frame_size}")
        return "\n".join(header + prologue + body_lines) + "\n"

    # ------------------------------------------------------------------
    def emit_body(self, region) -> bool:
        """``region`` one level deeper; whether it emitted a statement."""
        mark = len(self.lines)
        self.depth += 1
        self.emit_region(region)
        self.depth -= 1
        return len(self.lines) > mark

    def emit_suite(self, region) -> None:
        """``region`` as the indented suite of a compound statement."""
        if not self.emit_body(region):
            self.depth += 1
            self.line("pass")
            self.depth -= 1

    def emit_region(self, region) -> None:
        if isinstance(region, Block):
            for instr in region.instrs:
                self.emit_instr(instr)
            return
        if isinstance(region, Seq):
            for part in region.parts:
                self.emit_region(part)
            return
        if isinstance(region, IfRegion):
            self.emit_region(region.header)
            self.line(f"if {self.test(region.cond)}:")
            self.emit_suite(region.then)
            self.line("else:")
            if not self.emit_body(region.orelse):
                self.lines.pop()
            return
        if isinstance(region, WhileRegion):
            self.line("while True:")
            self.depth += 1
            self.emit_region(region.header)
            self.line(f"if not {self.test(region.cond)}:")
            self.line("    break")
            self.emit_region(region.body)
            self.depth -= 1
            return
        if isinstance(region, ForRegion):
            self.emit_for(region)
            return
        if isinstance(region, ForEachRegion):
            if region.raw_iterable:
                source = self.loc(region.iterable)
            else:
                source = f"{self.helper('columns')}({self.loc(region.iterable)})"
            self.line(f"for {self.loc(region.var)} in {source}:")
            self.emit_suite(region.body)
            return
        if isinstance(region, BreakRegion):
            self.line("break")
            return
        if isinstance(region, ContinueRegion):
            self.line("continue")
            return
        if isinstance(region, ReturnRegion):
            self.emit_return()
            return
        raise CodegenError(f"unknown region {type(region).__name__}")

    def emit_return(self) -> None:
        rets = ", ".join(self.loc(r) for r in self.ir.outputs)
        self.line(f"return ({rets}{',' if len(self.ir.outputs) == 1 else ''})")

    def emit_for(self, region: ForRegion) -> None:
        step = None if region.step is None else self.raw(region.step)
        self.line(loop_header(
            self.loc(region.var), self.raw(region.start),
            self.raw(region.stop), step, region.descending,
        ))
        self.emit_suite(region.body)

    # ------------------------------------------------------------------
    def emit_instr(self, instr: Instr) -> None:
        self.instruction_count += 1
        op = instr.op
        if op == "CONST":
            text = repr(instr.aux)
            if instr.dst in self.folded and text.startswith("-"):
                text = f"({text})"
            self.define(instr.dst, text)
            return
        if op == "MOV":
            self.define(instr.dst, self.loc(instr.args[0]))
            return
        if op == "BIN":
            a, b = (self.loc(r) for r in instr.args)
            template = _BIN_NUMERIC.get(instr.aux)
            if template is None:
                test = _BIN_TEST.get(instr.aux)
                if test is None:
                    raise CodegenError(f"unknown BIN operator {instr.aux!r}")
                template = _BIN_COMPARE[instr.aux]
                if instr.dst in self.folded:
                    self.tests[instr.dst] = test.format(a=a, b=b)
            self.define(instr.dst, template.format(a=a, b=b))
            return
        if op == "UN":
            template = _UN.get(instr.aux)
            if template is None:
                raise CodegenError(f"unknown UN operator {instr.aux!r}")
            self.define(instr.dst, template.format(a=self.loc(instr.args[0])))
            return
        if op == "CALLRT":
            helper = self.helper(instr.aux)
            args = ", ".join(self.loc(r) for r in instr.args)
            if instr.dst is not None:
                self.define(instr.dst, f"{helper}({args})")
            else:
                self.line(f"{helper}({args})")
            return
        if op == "CALLSELF":
            args = ", ".join([*(self.loc(r) for r in instr.args), "rt"])
            self.define(instr.dst, f"{self.ir.name}({args})")
            return
        if op == "UNPACK":
            self.define(instr.dst, f"{self.loc(instr.args[0])}[{instr.aux}]")
            return
        if op in ("LOAD1", "LOAD2"):
            arr, *indices = instr.args
            self.define(instr.dst, element_load(
                self.loc(arr), f"{self.loc(arr)}.data",
                [self.raw(reg) for reg in indices], instr.aux, self.helper,
            ))
            return
        if op in ("STORE1", "STORE2"):
            arr, *indices, value = instr.args
            self.line(element_store(
                self.loc(arr), f"{self.loc(arr)}.data",
                [self.raw(reg) for reg in indices], self.loc(value),
                instr.aux, self.helper,
            ))
            return
        raise CodegenError(f"unknown ICODE op {op!r}")


def bind_function(code, name: str):
    """Run module ``code`` in a fresh namespace; return the function
    ``name`` it defines."""
    namespace: dict = {}
    exec(code, namespace)
    return namespace[name]


def emit_python(ir: FunctionIR, assignment: Assignment) -> EmittedFunction:
    """Emit and compile one ICODE function."""
    emitter = _Emitter(ir, assignment)
    source = emitter.emit_function()
    code = compile(source, f"<jit:{ir.name}>", "exec")
    return EmittedFunction(
        name=ir.name,
        source=source,
        code=code,
        callable=bind_function(code, ir.name),
        spill_count=assignment.spill_count,
        instruction_count=emitter.instruction_count,
    )
