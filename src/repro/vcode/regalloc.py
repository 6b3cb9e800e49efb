"""Linear-scan register allocation (Poletto & Sarkar, TOPLAS 1999).

The paper's JIT re-implements tcc's register allocator; this is the same
algorithm: intervals sorted by start point, an active list sorted by end
point, expiry of dead intervals, and spill-furthest-end when the register
file is exhausted.

Allocation also decides folding.  An interval the liveness walk marked
``foldable`` is a temporary the emitter can write as a nested expression
at its one read (or a literal at its reads): it lives on the host's
operand stack, so it takes no physical register and no spill slot.

``spill_everything`` forces every interval to a spill slot, folding none
— the Figure 7 "no regalloc" ablation ("roughly equivalent to compiling
with -g"), whose code stays plain three-address code.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.vcode.liveness import Interval

#: Size of the physical register file modelled for emission.  Each
#: physical register becomes one host local variable.
DEFAULT_NUM_REGISTERS = 12


@dataclass
class Assignment:
    """Result of allocation: vreg → physical register, spill slot, or
    folded into its reads."""

    physical: dict[int, int] = field(default_factory=dict)  # vreg -> preg
    spills: dict[int, int] = field(default_factory=dict)    # vreg -> slot
    folded: set[int] = field(default_factory=set)
    num_registers: int = DEFAULT_NUM_REGISTERS

    @property
    def spill_count(self) -> int:
        return len(self.spills)

    def location(self, vreg: int) -> str:
        """Host lvalue/rvalue text for a virtual register."""
        preg = self.physical.get(vreg)
        if preg is not None:
            return f"pr{preg}"
        return f"sp[{self.spills[vreg]}]"

    @property
    def frame_size(self) -> int:
        return len(self.spills)


class LinearScanAllocator:
    """One-pass allocation over sorted live intervals."""

    def __init__(
        self,
        num_registers: int = DEFAULT_NUM_REGISTERS,
        spill_everything: bool = False,
    ):
        self.num_registers = num_registers
        self.spill_everything = spill_everything

    def allocate(self, intervals: list[Interval]) -> Assignment:
        assignment = Assignment(num_registers=self.num_registers)
        if self.spill_everything:
            for index, interval in enumerate(intervals):
                assignment.spills[interval.reg] = index
            return assignment

        free = list(range(self.num_registers - 1, -1, -1))  # pop() = lowest
        active: list[tuple[int, Interval]] = []  # sorted by end point
        next_slot = 0

        for interval in intervals:
            if interval.foldable:
                assignment.folded.add(interval.reg)
                continue
            # Expire old intervals.
            while active and active[0][0] < interval.start:
                _, expired = active.pop(0)
                free.append(assignment.physical[expired.reg])
            if not free:
                # Spill the interval that ends furthest away.
                furthest_end, furthest = active[-1]
                if furthest_end > interval.end:
                    # Steal its register; spill the furthest interval.
                    preg = assignment.physical.pop(furthest.reg)
                    assignment.spills[furthest.reg] = next_slot
                    next_slot += 1
                    active.pop()
                    assignment.physical[interval.reg] = preg
                    bisect.insort(active, (interval.end, interval),
                                  key=lambda pair: pair[0])
                else:
                    assignment.spills[interval.reg] = next_slot
                    next_slot += 1
                continue
            preg = free.pop()
            assignment.physical[interval.reg] = preg
            bisect.insort(active, (interval.end, interval),
                          key=lambda pair: pair[0])
        return assignment
