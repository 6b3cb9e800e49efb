"""The vcode substrate: a RISC-like dynamic code-generation layer.

The paper's JIT builds machine code in memory through ``vcode`` [11] using
tcc's ICODE intermediate language and a re-implementation of the
linear-scan register allocator [19].  This package is the Python analogue:

* :mod:`~repro.vcode.icode` — an ICODE-style instruction set over infinite
  virtual registers (``CONST`` ``MOV`` ``BIN`` ``UN`` ``CALLRT``
  ``CALLSELF`` ``UNPACK`` ``LOAD1`` ``LOAD2`` ``STORE1`` ``STORE2``:
  exactly what the JIT lowering emits), organized into structured regions
  (host emission has no goto, so control flow stays structured);
* :mod:`~repro.vcode.liveness` — live-interval construction over the
  linearized instruction stream, with loop-extent extension; the same
  walk marks the temporaries that can fold (defined once and read once,
  just before an eager operand of their one use; a single-definition
  ``CONST`` is a literal at every read);
* :mod:`~repro.vcode.regalloc` — the Poletto–Sarkar linear-scan
  allocator, which also takes the folds: a folded register lives on the
  host's operand stack, with no physical register and no spill slot;
* :mod:`~repro.vcode.emit` — lowering of register-allocated ICODE to a
  host-executable Python function: folded registers become nested
  expressions (so one source statement is one host statement), physical
  registers become local variables, spilled registers live in an
  explicit frame list (so spilling has a real cost, which the Figure 7
  "no regalloc" ablation measures: it spills every register and folds
  none, so its code stays three-address code).

The emitter is the one reader of ICODE.  Its spilled and register-starved
code is checked against the interpreter like every other tier: the
``spill`` row of :data:`repro.backends.BACKENDS` and a two-register
``jit`` run in the differential matrix.
"""

from repro.vcode.icode import (
    Instr,
    Block,
    Seq,
    IfRegion,
    WhileRegion,
    ForRegion,
    FunctionIR,
    VRegAllocator,
)
from repro.vcode.liveness import compute_intervals
from repro.vcode.regalloc import LinearScanAllocator, Assignment
from repro.vcode.emit import emit_python

__all__ = [
    "Instr",
    "Block",
    "Seq",
    "IfRegion",
    "WhileRegion",
    "ForRegion",
    "FunctionIR",
    "VRegAllocator",
    "compute_intervals",
    "LinearScanAllocator",
    "Assignment",
    "emit_python",
]
