"""ICODE-style intermediate representation.

Instructions operate on an unbounded set of *virtual registers* (plain
integers).  Control flow is kept structured — a tree of regions — because
the final target (host Python) has no goto; the linearized instruction
order used for liveness and register allocation is the left-to-right walk
of this tree.

Instruction set (op → operands):

======== ====================================================================
``CONST``   dst, aux=literal — load an immediate
``MOV``     dst, (src,)
``BIN``     dst, (a, b), aux=operator — raw scalar op (``+ - * / % **``,
            comparisons, ``and`` ``or``)
``UN``      dst, (a,), aux=operator (``-``, ``not``, ``~``)
``CALLRT``  dst?, args, aux=helper name — call a runtime-support helper
``LOAD1``   dst, (arr, i), aux=mode — linear element load
``LOAD2``   dst, (arr, i, j), aux=mode — 2-D element load
``STORE1``  None, (arr, i, val), aux=mode
``STORE2``  None, (arr, i, j, val), aux=mode
``BOX``     dst, (src,), aux=kind — wrap raw scalar into an MxArray
``UNBOX``   dst, (src,), aux=kind — extract raw scalar (dynamic check)
``RET``     None, (r1, ..., rn) — return the listed registers
======== ====================================================================

Load/store ``mode`` is ``"checked"``, ``"grow"`` or ``"unchecked"`` — the
materialization of the subscript-safety classes of Section 2.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(eq=False)
class Instr:
    op: str
    dst: int | None
    args: tuple[int, ...] = ()
    aux: object = None

    def registers(self) -> list[int]:
        regs = list(self.args)
        if self.dst is not None:
            regs.append(self.dst)
        return regs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dst = f"r{self.dst} = " if self.dst is not None else ""
        args = ", ".join(f"r{a}" for a in self.args)
        aux = f" [{self.aux!r}]" if self.aux is not None else ""
        return f"{dst}{self.op}({args}){aux}"


# ----------------------------------------------------------------------
# Structured regions
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Block:
    """Straight-line instruction sequence."""

    instrs: list[Instr] = field(default_factory=list)

    def emit(self, instr: Instr) -> Instr:
        self.instrs.append(instr)
        return instr


@dataclass(eq=False)
class Seq:
    parts: list = field(default_factory=list)


@dataclass(eq=False)
class IfRegion:
    """``if cond_reg: then else: orelse``.

    ``header`` (a Block or Seq) computes the condition; short-circuit
    conditions expand into nested regions inside it.
    """

    header: object  # Block or Seq
    cond: int
    then: Seq
    orelse: Seq


@dataclass(eq=False)
class WhileRegion:
    """``while``: ``header`` recomputes ``cond`` each trip."""

    header: object  # Block or Seq
    cond: int
    body: Seq


@dataclass(eq=False)
class ForRegion:
    """Ascending/descending loop of an integer counter (host ``range``;
    a real-stepped loop is a :class:`ForEachRegion` over ``rt.frange``).

    ``var`` takes start, start+step, ... while ``(var - stop) * sign <= 0``.
    ``init`` computes the start/stop/step registers once.
    """

    init: Block
    var: int
    start: int
    stop: int
    step: int | None  # None = step 1
    body: Seq
    descending: bool = False


@dataclass(eq=False)
class BreakRegion:
    pass


@dataclass(eq=False)
class ContinueRegion:
    pass


@dataclass(eq=False)
class ReturnRegion:
    values: tuple[int, ...] = ()


@dataclass(eq=False)
class ForEachRegion:
    """Generic column iteration over a boxed iterable (helper-driven).

    ``raw_iterable`` marks registers already holding a host iterable
    (e.g. a ``frange`` generator), which must not be wrapped in the
    ``columns`` helper.
    """

    init: Block
    var: int          # boxed register receiving each column
    iterable: int
    body: Seq
    raw_iterable: bool = False


Region = object  # union of the classes above; kept loose for simplicity


@dataclass(eq=False)
class FunctionIR:
    """A complete lowered function."""

    name: str
    params: list[int]                # registers holding incoming arguments
    param_names: list[str]
    body: Seq
    outputs: tuple[int, ...] = ()    # registers returned at the end
    output_names: tuple[str, ...] = ()
    nregs: int = 0
    # Registers holding MATLAB variables (may be live across loop back
    # edges); everything else is a single-statement temporary.
    variable_regs: frozenset[int] = frozenset()
    # Representation kind per register: 'f' raw float, 'i' raw int,
    # 'c' raw complex, 'b' boxed MxArray.  Defaults to 'f'.
    reg_kinds: dict[int, str] = field(default_factory=dict)

    def all_blocks(self):
        yield from _blocks_of(self.body)


def _blocks_of(region):
    if isinstance(region, Block):
        yield region
    elif isinstance(region, Seq):
        for part in region.parts:
            yield from _blocks_of(part)
    elif isinstance(region, IfRegion):
        yield from _blocks_of(region.header)
        yield from _blocks_of(region.then)
        yield from _blocks_of(region.orelse)
    elif isinstance(region, WhileRegion):
        yield from _blocks_of(region.header)
        yield from _blocks_of(region.body)
    elif isinstance(region, ForRegion):
        yield region.init
        yield from _blocks_of(region.body)
    elif isinstance(region, ForEachRegion):
        yield region.init
        yield from _blocks_of(region.body)


class VRegAllocator:
    """Hands out fresh virtual register numbers."""

    def __init__(self):
        self.count = 0

    def fresh(self) -> int:
        reg = self.count
        self.count += 1
        return reg
