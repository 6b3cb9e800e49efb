"""Live-interval construction and fold selection for linear-scan allocation.

Instructions are numbered by a left-to-right walk of the region tree.  A
virtual register's interval is [first position, last position] over all of
its defs and uses, *extended across loops*: a register live on entry to a
loop that is also touched inside it (or touched inside and used after) must
stay live for the whole loop extent, because the back edge re-reads it.

The same walk selects the *foldable* registers: temporaries the emitter
can write as a nested host expression at their one use instead of a
statement of their own.  The walk keeps the defs not yet consumed on a
stack, as the host's operand stack would hold them.  A consumer folds the
defs on top of that stack that it reads in an eager operand position
(:func:`repro.vcode.emit.eager_operands`), last operand first, and stops
at the first pending def it cannot take; whatever is still pending is
materialised into its register.  So folded defs are exactly the run of
instructions just before their consumer, in operand order, and the host
evaluates everything in the order the ICODE does.  A single-definition
``CONST`` temporary is a literal: it folds into every read.  Whether the
folds are taken is the allocator's decision
(:class:`~repro.vcode.regalloc.LinearScanAllocator`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter

from repro.vcode.emit import eager_operands
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

#: Deepest folded expression tree, in instructions.  Each level adds at
#: most two host parentheses, so a folded statement stays far inside the
#: host tokenizer's limit of 200 nested parentheses; a def deeper than
#: this is materialised into its register.
MAX_FOLD_DEPTH = 48


@dataclass(slots=True)
class Interval:
    reg: int
    start: int
    end: int
    # The emitter can write this register as an expression at its reads.
    foldable: bool = False

    def __repr__(self) -> str:  # pragma: no cover
        fold = " folds" if self.foldable else ""
        return f"r{self.reg}:[{self.start},{self.end}]{fold}"


class _Walker:
    def __init__(self, fixed: frozenset[int]):
        self.position = 0
        self.first: dict[int, int] = {}
        self.last: dict[int, int] = {}
        self.loops: list[tuple[int, int]] = []  # (start, end) extents
        # Fold selection: registers that never fold (variables, params,
        # outputs); def and read counts; the defs awaiting a consumer, as
        # (register, tree depth); for each deferred def, the def beneath
        # it on that stack when it was deferred; the defs taken by a
        # consumer; and the CONST temporaries.
        self.fixed = fixed
        self.defs: defaultdict[int, int] = defaultdict(int)
        self.reads: defaultdict[int, int] = defaultdict(int)
        self.pending: list[tuple[int, int]] = []
        self.beneath: dict[int, int | None] = {}
        self.taken: list[int] = []
        self.literals: list[int] = []

    def touch(self, reg: int) -> None:
        self.first.setdefault(reg, self.position)
        self.last[reg] = self.position

    def consume(self, regs) -> int:
        """A consumer reads ``regs``: take the pending defs on top of the
        stack that it reads, last operand first.  Returns the depth of
        the consumer's own tree."""
        pending = self.pending
        depth = 0
        for reg in reversed(regs):
            if not pending:
                break
            top, top_depth = pending[-1]
            if top == reg and top_depth < MAX_FOLD_DEPTH:
                pending.pop()
                self.taken.append(reg)
                if top_depth > depth:
                    depth = top_depth
            elif any(reg == pend for pend, _ in pending):
                # Out of operand order, or too deep: materialise it and
                # everything still pending.
                pending.clear()
                break
            # Otherwise a plain register read: it has no side effect.
        return depth + 1

    def statement(self, regs) -> None:
        """A region header reads ``regs`` in a statement of its own;
        whatever it does not take is materialised before it."""
        for reg in regs:
            self.touch(reg)
            self.reads[reg] += 1
        if self.pending:
            self.consume(regs)
            self.pending.clear()

    def block(self, block: Block) -> None:
        first, last = self.first, self.last
        fixed, defs, reads = self.fixed, self.defs, self.reads
        pending, consume = self.pending, self.consume
        beneath, literals = self.beneath, self.literals
        position = self.position
        for instr in block.instrs:
            position += 1
            for reg in instr.args:
                if reg not in first:
                    first[reg] = position
                last[reg] = position
                reads[reg] += 1
            dst = instr.dst
            if dst is not None:
                if dst not in first:
                    first[dst] = position
                last[dst] = position
                defs[dst] += 1
                if dst not in fixed and defs[dst] == 1:
                    # A temporary's only def so far: defer it.
                    if instr.op == "CONST":
                        literals.append(dst)
                        continue
                    if pending:
                        depth = consume(eager_operands(instr))
                        beneath[dst] = pending[-1][0] if pending else None
                    else:
                        depth = 1
                        beneath[dst] = None
                    pending.append((dst, depth))
                    continue
            if pending:
                consume(eager_operands(instr))
                pending.clear()
        self.position = position

    def walk(self, region) -> None:
        if isinstance(region, Block):
            self.block(region)
            return
        if isinstance(region, Seq):
            for part in region.parts:
                self.walk(part)
            return
        if isinstance(region, IfRegion):
            self.walk(region.header)
            self.position += 1
            self.statement((region.cond,))
            self.walk(region.then)
            self.pending.clear()
            self.walk(region.orelse)
            self.pending.clear()
            return
        if isinstance(region, WhileRegion):
            self.pending.clear()
            start = self.position
            self.walk(region.header)
            self.position += 1
            self.statement((region.cond,))
            self.walk(region.body)
            self.pending.clear()
            self.position += 1
            self.loops.append((start, self.position))
            return
        if isinstance(region, ForRegion):
            start = self.position
            self.position += 1
            self.touch(region.var)
            self.defs[region.var] += 1
            bounds = (region.start, region.stop)
            if region.step is not None:
                bounds += (region.step,)
            self.statement(bounds)
            self.walk(region.body)
            self.pending.clear()
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
            self.defs[region.var] += 1
            self.statement((region.iterable,))
            self.walk(region.body)
            self.pending.clear()
            self.position += 1
            self.loops.append((start, self.position))
            return
        self.pending.clear()
        if isinstance(region, ReturnRegion):
            # One position of its own; the outputs it returns are live
            # to the end already.
            self.position += 1
        # Break/Continue regions touch nothing.

    def foldable(self) -> set[int]:
        """The folds that hold once every def and read is counted.  A
        taken def that is defined or read more than once stays a
        register, and so does every def deferred beneath it: folding
        those alone would move their evaluation after its statement."""
        defs, reads, beneath = self.defs, self.reads, self.beneath
        taken = set(self.taken)
        for reg in self.taken:
            if defs[reg] != 1 or reads[reg] != 1:
                while reg in taken:
                    taken.discard(reg)
                    reg = beneath[reg]
        taken.update(reg for reg in self.literals if defs[reg] == 1)
        return taken


def compute_intervals(ir: FunctionIR) -> list[Interval]:
    """Intervals for every register, sorted by start position.

    ``ir.variable_regs`` marks registers holding MATLAB *variables* — the
    only registers whose values can cross a loop back edge under the
    lowering discipline (expression temporaries are always defined and
    consumed within one statement).  Only those intervals are extended to
    the loop end; extending everything would inflate register pressure for
    no correctness gain.  Variables, parameters and outputs never fold.
    """
    walker = _Walker(
        ir.variable_regs | frozenset(ir.params) | frozenset(ir.outputs)
    )
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

    foldable = walker.foldable()
    last = walker.last
    intervals = {
        reg: Interval(reg, start, last[reg], reg in foldable)
        for reg, start in walker.first.items()
    }
    # Loop extension: a variable touched inside a loop stays live through
    # the loop's back edge.
    if walker.loops:
        variables = [
            intervals[reg] for reg in ir.variable_regs if reg in intervals
        ]
        for loop_start, loop_end in walker.loops:
            for interval in variables:
                overlaps = (interval.start <= loop_end
                            and interval.end >= loop_start)
                if overlaps and interval.end < loop_end:
                    interval.end = loop_end
    return sorted(intervals.values(), key=attrgetter("start", "end"))
