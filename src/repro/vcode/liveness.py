"""Live-interval construction for linear-scan allocation.

Instructions are numbered by a left-to-right walk of the region tree.  A
virtual register's interval is [first position, last position] over all of
its defs and uses, *extended across loops*: a register live on entry to a
loop that is also touched inside it (or touched inside and used after) must
stay live for the whole loop extent, because the back edge re-reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vcode.icode import (
    Block,
    ForEachRegion,
    ForRegion,
    FunctionIR,
    IfRegion,
    ReturnRegion,
    Seq,
    WhileRegion,
)


@dataclass
class Interval:
    reg: int
    start: int
    end: int
    # Total number of touches — a cheap spill-cost proxy.
    uses: int = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"r{self.reg}:[{self.start},{self.end}]x{self.uses}"


class _Walker:
    def __init__(self):
        self.position = 0
        self.first: dict[int, int] = {}
        self.last: dict[int, int] = {}
        self.uses: dict[int, int] = {}
        self.loops: list[tuple[int, int]] = []  # (start, end) extents

    def touch(self, reg: int) -> None:
        self.first.setdefault(reg, self.position)
        self.last[reg] = self.position
        self.uses[reg] = self.uses.get(reg, 0) + 1

    def walk(self, region) -> None:
        if isinstance(region, Block):
            for instr in region.instrs:
                self.position += 1
                for reg in instr.registers():
                    self.touch(reg)
            return
        if isinstance(region, Seq):
            for part in region.parts:
                self.walk(part)
            return
        if isinstance(region, IfRegion):
            self.walk(region.header)
            self.position += 1
            self.touch(region.cond)
            self.walk(region.then)
            self.walk(region.orelse)
            return
        if isinstance(region, WhileRegion):
            start = self.position
            self.walk(region.header)
            self.position += 1
            self.touch(region.cond)
            self.walk(region.body)
            self.position += 1
            self.loops.append((start, self.position))
            return
        if isinstance(region, ForRegion):
            start = self.position
            self.position += 1
            self.touch(region.var)
            self.touch(region.start)
            self.touch(region.stop)
            if region.step is not None:
                self.touch(region.step)
            self.walk(region.body)
            self.position += 1
            self.touch(region.var)
            self.touch(region.stop)
            if region.step is not None:
                self.touch(region.step)
            self.loops.append((start, self.position))
            return
        if isinstance(region, ForEachRegion):
            start = self.position
            self.position += 1
            self.touch(region.var)
            self.touch(region.iterable)
            self.walk(region.body)
            self.position += 1
            self.loops.append((start, self.position))
            return
        if isinstance(region, ReturnRegion):
            # One position of its own; the outputs it returns are live
            # to the end already.
            self.position += 1
            return
        # Break/Continue regions touch nothing.


def compute_intervals(ir: FunctionIR) -> list[Interval]:
    """Intervals for every register, sorted by start position.

    ``ir.variable_regs`` marks registers holding MATLAB *variables* — the
    only registers whose values can cross a loop back edge under the
    lowering discipline (expression temporaries are always defined and
    consumed within one statement).  Only those intervals are extended to
    the loop end; extending everything would inflate register pressure for
    no correctness gain.
    """
    walker = _Walker()
    # Parameters are defined at position 0; outputs are None-initialized
    # there too (the emitter writes them in the prologue), so both sets
    # are live from the very start.
    for reg in ir.params:
        walker.touch(reg)
    for reg in ir.outputs:
        walker.touch(reg)
    walker.walk(ir.body)
    walker.position += 1
    for reg in ir.outputs:
        walker.touch(reg)

    intervals = {
        reg: Interval(reg, walker.first[reg], walker.last[reg], walker.uses[reg])
        for reg in walker.first
    }
    # Loop extension: a variable touched inside a loop stays live through
    # the loop's back edge.
    for loop_start, loop_end in walker.loops:
        for interval in intervals.values():
            if interval.reg not in ir.variable_regs:
                continue
            overlaps = interval.start <= loop_end and interval.end >= loop_start
            if overlaps and interval.end < loop_end:
                interval.end = loop_end
    return sorted(intervals.values(), key=lambda iv: (iv.start, iv.end))
