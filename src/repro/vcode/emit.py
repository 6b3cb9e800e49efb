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
#: value before its target and the unchecked linear store reads the
#: array twice.
_EAGER = {
    "CONST": slice(0),
    "MOV": slice(None),
    "BIN": slice(None),
    "UN": slice(None),
    "CALLRT": slice(None),
    "CALLSELF": slice(None),
    "UNPACK": slice(None),
    "LOAD1": slice(None),
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

    def idx(self, reg: int) -> str:
        """An index operand as a host int expression."""
        if self.ir_kind(reg) == "i":
            return self.loc(reg)
        return f"int({self.loc(reg)})"

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
        var = self.loc(region.var)
        start, stop = self.loc(region.start), self.loc(region.stop)
        if region.step is None:
            header = f"for {var} in range({start}, {stop} + 1):"
        else:
            edge = "- 1" if region.descending else "+ 1"
            header = (
                f"for {var} in range({start}, {stop} {edge}, "
                f"{self.loc(region.step)}):"
            )
        self.line(header)
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
        if op == "LOAD1":
            arr, index = instr.args
            if instr.aux == "unchecked":
                self.define(
                    instr.dst,
                    f"{self.loc(arr)}.data.item({self.idx(index)} - 1)",
                )
            else:
                helper = self.helper("checked_load1")
                self.define(
                    instr.dst, f"{helper}({self.loc(arr)}, {self.loc(index)})"
                )
            return
        if op == "LOAD2":
            arr, i, j = instr.args
            if instr.aux == "unchecked":
                self.define(
                    instr.dst,
                    f"{self.loc(arr)}.data.item("
                    f"{self.idx(i)} - 1, {self.idx(j)} - 1)",
                )
            else:
                helper = self.helper("checked_load2")
                self.define(
                    instr.dst,
                    f"{helper}({self.loc(arr)}, {self.loc(i)}, {self.loc(j)})",
                )
            return
        if op == "STORE1":
            arr, index, value = instr.args
            if instr.aux == "unchecked_row":
                self.line(
                    f"{self.loc(arr)}.data[0, {self.idx(index)} - 1] "
                    f"= {self.loc(value)}"
                )
            elif instr.aux == "unchecked_col":
                self.line(
                    f"{self.loc(arr)}.data[{self.idx(index)} - 1, 0] "
                    f"= {self.loc(value)}"
                )
            elif instr.aux == "unchecked":
                self.line(
                    f"{self.loc(arr)}.data[divmod({self.idx(index)} - 1, "
                    f"{self.loc(arr)}.rows)[::-1]] = {self.loc(value)}"
                )
            elif instr.aux == "grow":
                helper = self.helper("grow_store1")
                self.line(
                    f"{helper}({self.loc(arr)}, {self.loc(index)}, "
                    f"{self.loc(value)})"
                )
            else:
                helper = self.helper("checked_store1")
                self.line(
                    f"{helper}({self.loc(arr)}, {self.loc(index)}, "
                    f"{self.loc(value)})"
                )
            return
        if op == "STORE2":
            arr, i, j, value = instr.args
            if instr.aux == "unchecked":
                self.line(
                    f"{self.loc(arr)}.data[{self.idx(i)} - 1, "
                    f"{self.idx(j)} - 1] = {self.loc(value)}"
                )
            elif instr.aux == "grow":
                helper = self.helper("grow_store2")
                self.line(
                    f"{helper}({self.loc(arr)}, {self.loc(i)}, "
                    f"{self.loc(j)}, {self.loc(value)})"
                )
            else:
                helper = self.helper("checked_store2")
                self.line(
                    f"{helper}({self.loc(arr)}, {self.loc(i)}, "
                    f"{self.loc(j)}, {self.loc(value)})"
                )
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
