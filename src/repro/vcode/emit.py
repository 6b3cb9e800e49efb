"""Lowering register-allocated ICODE to host-executable code.

The JIT code generator "builds code fast and in memory" (Section 2.6); the
host analogue is generating Python source for one function and compiling it
with :func:`compile`.  Physical registers map to host local variables
(``pr0`` .. ``prN``); spilled virtual registers live in an explicit frame
list ``sp`` — a genuinely slower access path, which is what makes the
Figure 7 "no regalloc" ablation measurable.

Runtime-support helpers are hoisted into locals at the top of the emitted
function (``_h_plus = rt.generic_plus``), the host equivalent of keeping
library entry points in registers.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.vcode.regalloc import Assignment

_BIN_NUMERIC = {
    "+": "({a} + {b})",
    "-": "({a} - {b})",
    "*": "({a} * {b})",
    "/": "({a} / {b})",
    "%": "({a} % {b})",
    "**": "({a} ** {b})",
}
_BIN_COMPARE = {
    "<": "(1.0 if {a} < {b} else 0.0)",
    "<=": "(1.0 if {a} <= {b} else 0.0)",
    ">": "(1.0 if {a} > {b} else 0.0)",
    ">=": "(1.0 if {a} >= {b} else 0.0)",
    "==": "(1.0 if {a} == {b} else 0.0)",
    "!=": "(1.0 if {a} != {b} else 0.0)",
    "&": "(1.0 if ({a} != 0 and {b} != 0) else 0.0)",
    "|": "(1.0 if ({a} != 0 or {b} != 0) else 0.0)",
}
_UN = {
    "-": "(-{a})",
    "+": "({a})",
    "~": "(0.0 if {a} != 0 else 1.0)",
    "abs": "abs({a})",
}


@dataclass
class EmittedFunction:
    """Source text plus the compiled callable."""

    name: str
    source: str
    callable: object
    spill_count: int
    instruction_count: int


class _Emitter:
    def __init__(self, ir: FunctionIR, assignment: Assignment):
        self.ir = ir
        self.assignment = assignment
        self.lines: list[str] = []
        self.depth = 1
        self.helpers: set[str] = set()
        self.instruction_count = 0

    # ------------------------------------------------------------------
    def loc(self, reg: int) -> str:
        return self.assignment.location(reg)

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def idx(self, reg: int) -> str:
        """An index operand as a host int expression."""
        if self.ir_kind(reg) == "i":
            return self.loc(reg)
        return f"int({self.loc(reg)})"

    def ir_kind(self, reg: int) -> str:
        kinds = getattr(self.ir, "reg_kinds", None)
        return kinds.get(reg, "f") if kinds else "f"

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
        rets = ", ".join(self.loc(r) for r in self.ir.outputs)
        self.line(f"return ({rets}{',' if len(self.ir.outputs) == 1 else ''})")

        header = [f"def {self.ir.name}({', '.join(params + ['rt'])}):"]
        prologue = []
        for name in sorted(self.helpers):
            prologue.append(f"    _h_{name} = rt.{name}")
        if self.assignment.frame_size:
            prologue.append(f"    sp = [None] * {self.assignment.frame_size}")
        return "\n".join(header + prologue + body_lines) + "\n"

    # ------------------------------------------------------------------
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
            self.line(f"if {self.loc(region.cond)}:")
            self.depth += 1
            self.emit_region(region.then)
            if not _region_emits(region.then):
                self.line("pass")
            self.depth -= 1
            if _region_emits(region.orelse):
                self.line("else:")
                self.depth += 1
                self.emit_region(region.orelse)
                self.depth -= 1
            return
        if isinstance(region, WhileRegion):
            self.line("while True:")
            self.depth += 1
            self.emit_region(region.header)
            self.line(f"if not {self.loc(region.cond)}:")
            self.line("    break")
            self.emit_region(region.body)
            self.depth -= 1
            return
        if isinstance(region, ForRegion):
            self.emit_for(region)
            return
        if isinstance(region, ForEachRegion):
            self.emit_region(region.init)
            if region.raw_iterable:
                source = self.loc(region.iterable)
            else:
                source = f"{self.helper('columns')}({self.loc(region.iterable)})"
            self.line(f"for {self.loc(region.var)} in {source}:")
            self.depth += 1
            self.emit_region(region.body)
            if not _region_emits(region.body):
                self.line("pass")
            self.depth -= 1
            return
        if isinstance(region, BreakRegion):
            self.line("break")
            return
        if isinstance(region, ContinueRegion):
            self.line("continue")
            return
        if isinstance(region, ReturnRegion):
            rets = ", ".join(self.loc(r) for r in self.ir.outputs)
            self.line(
                f"return ({rets}{',' if len(self.ir.outputs) == 1 else ''})"
            )
            return
        raise CodegenError(f"unknown region {type(region).__name__}")

    def emit_for(self, region: ForRegion) -> None:
        self.emit_region(region.init)
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
        self.depth += 1
        self.emit_region(region.body)
        if not _region_emits(region.body):
            self.line("pass")
        self.depth -= 1

    # ------------------------------------------------------------------
    def emit_instr(self, instr: Instr) -> None:
        self.instruction_count += 1
        op = instr.op
        if op == "CONST":
            self.line(f"{self.loc(instr.dst)} = {instr.aux!r}")
            return
        if op == "MOV":
            self.line(f"{self.loc(instr.dst)} = {self.loc(instr.args[0])}")
            return
        if op == "BIN":
            a, b = (self.loc(r) for r in instr.args)
            template = _BIN_NUMERIC.get(instr.aux) or _BIN_COMPARE.get(instr.aux)
            if template is None:
                raise CodegenError(f"unknown BIN operator {instr.aux!r}")
            self.line(f"{self.loc(instr.dst)} = " + template.format(a=a, b=b))
            return
        if op == "UN":
            template = _UN.get(instr.aux)
            if template is None:
                raise CodegenError(f"unknown UN operator {instr.aux!r}")
            a = self.loc(instr.args[0])
            self.line(f"{self.loc(instr.dst)} = " + template.format(a=a))
            return
        if op == "CALLRT":
            helper = self.helper(instr.aux)
            args = ", ".join(self.loc(r) for r in instr.args)
            if instr.dst is not None:
                self.line(f"{self.loc(instr.dst)} = {helper}({args})")
            else:
                self.line(f"{helper}({args})")
            return
        if op == "UNPACK":
            self.line(
                f"{self.loc(instr.dst)} = {self.loc(instr.args[0])}[{instr.aux}]"
            )
            return
        if op == "LOAD1":
            arr, index = instr.args
            if instr.aux == "unchecked":
                self.line(
                    f"{self.loc(instr.dst)} = "
                    f"{self.loc(arr)}.data.item({self.idx(index)} - 1)"
                )
            else:
                helper = self.helper("checked_load1")
                self.line(
                    f"{self.loc(instr.dst)} = "
                    f"{helper}({self.loc(arr)}, {self.loc(index)})"
                )
            return
        if op == "LOAD2":
            arr, i, j = instr.args
            if instr.aux == "unchecked":
                self.line(
                    f"{self.loc(instr.dst)} = {self.loc(arr)}.data.item("
                    f"{self.idx(i)} - 1, {self.idx(j)} - 1)"
                )
            else:
                helper = self.helper("checked_load2")
                self.line(
                    f"{self.loc(instr.dst)} = {helper}({self.loc(arr)}, "
                    f"{self.loc(i)}, {self.loc(j)})"
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
        if op == "BOX":
            helper = self.helper("box")
            self.line(
                f"{self.loc(instr.dst)} = {helper}({self.loc(instr.args[0])})"
            )
            return
        if op == "UNBOX":
            helper = self.helper("unbox")
            self.line(
                f"{self.loc(instr.dst)} = {helper}({self.loc(instr.args[0])})"
            )
            return
        raise CodegenError(f"unknown ICODE op {op!r}")


def _region_emits(region) -> bool:
    """Whether a region produces at least one statement."""
    if isinstance(region, Block):
        return bool(region.instrs)
    if isinstance(region, Seq):
        return any(_region_emits(part) for part in region.parts)
    return True


def emit_python(ir: FunctionIR, assignment: Assignment) -> EmittedFunction:
    """Emit and compile one ICODE function."""
    emitter = _Emitter(ir, assignment)
    source = emitter.emit_function()
    namespace: dict = {}
    code = compile(source, f"<jit:{ir.name}>", "exec")
    exec(code, namespace)
    return EmittedFunction(
        name=ir.name,
        source=source,
        callable=namespace[ir.name],
        spill_count=assignment.spill_count,
        instruction_count=emitter.instruction_count,
    )
