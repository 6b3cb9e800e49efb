"""ICODE-style intermediate representation.

Instructions operate on an unbounded set of *virtual registers* (plain
integers).  Control flow is kept structured — a tree of regions — because
the final target (host Python) has no goto; the linearized instruction
order used for liveness and register allocation is the left-to-right walk
of this tree.

Instruction set (op → operands), exactly what the JIT lowering emits:

======== ====================================================================
``CONST``   dst, aux=literal — load an immediate
``MOV``     dst, (src,)
``BIN``     dst, (a, b), aux=operator — raw scalar op (``+ - * / **``,
            comparisons, ``&`` ``|``)
``UN``      dst, (a,), aux=operator (``-``, ``+``, ``~``, ``abs``)
``CALLRT``  dst?, args, aux=helper name — call a runtime-support helper
``CALLSELF`` dst, args — call the function being compiled, by its own
            module-level name, for its tuple of results
``UNPACK``  dst, (values,), aux=position — one element of a helper's
            multiple results
``LOAD1``   dst, (arr, i), aux=mode — linear element load
``LOAD2``   dst, (arr, i, j), aux=mode — 2-D element load
``STORE1``  None, (arr, i, val), aux=mode
``STORE2``  None, (arr, i, j, val), aux=mode
======== ====================================================================

Load/store ``mode`` is ``"checked"`` or ``"unchecked"`` — the
materialization of the subscript-safety classes of Section 2.4 (a linear
unchecked access also has ``"unchecked_row"`` / ``"unchecked_col"`` forms
for operands known to be a row or a column); :mod:`repro.vcode.emit`
spells each mode.

Every literal is a ``CONST`` and every result has a register of its own:
the lowering stays three-address.  Which temporaries the host sees as
nested expressions instead is decided after it, by liveness and the
allocator (:mod:`repro.vcode.liveness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(eq=False)
class Instr:
    op: str
    dst: int | None
    args: tuple[int, ...] = ()
    aux: object = None

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

    ``var`` takes start, start+step, ... while ``(var - stop) * sign <= 0``;
    the start/stop/step registers are computed before the region.
    """

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
    """Return the function's output registers."""


@dataclass(eq=False)
class ForEachRegion:
    """Generic column iteration over a boxed iterable (helper-driven).

    ``raw_iterable`` marks registers already holding a host iterable
    (e.g. a ``frange`` generator), which must not be wrapped in the
    ``columns`` helper.
    """

    var: int          # boxed register receiving each column
    iterable: int
    body: Seq
    raw_iterable: bool = False


@dataclass(eq=False)
class FunctionIR:
    """A complete lowered function."""

    name: str
    params: list[int]                # registers holding incoming arguments
    body: Seq
    outputs: tuple[int, ...] = ()    # registers returned at the end
    # Registers holding MATLAB variables (may be live across loop back
    # edges); everything else is a single-statement temporary.
    variable_regs: frozenset[int] = frozenset()
    # Representation kind per register: 'f' raw float, 'i' raw int,
    # 'c' raw complex, 'b' boxed MxArray.  Defaults to 'f'.
    reg_kinds: dict[int, str] = field(default_factory=dict)


class VRegAllocator:
    """Hands out fresh virtual register numbers."""

    def __init__(self):
        self.count = 0

    def fresh(self) -> int:
        reg = self.count
        self.count += 1
        return reg
