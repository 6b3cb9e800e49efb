"""The mcc baseline (Mathworks' compiler, as configured in Section 3.2).

mcc-generated code is the bottom row of the paper's Figure 3: every
operation remains a generic boxed library call (``mlfPower``, ``mlfTimes``,
``mlfPlus`` ...), so compilation removes the *interpretive* overhead
(parsing, dynamic symbol resolution, tree walking) but none of the dynamic
*dispatch* overhead.  The paper finds mcc "not particularly successful at
removing the interpretive overhead" — this engine reproduces that design
point by running the JIT pipeline with empty type annotations: every
expression is ⊤, so code selection falls back to the generic helpers
everywhere.

Following the paper's methodology, the harness configures mcc favourably
(batch compilation excluded from runtimes, subscript checks left to the
generic layer exactly as mcc's library does).
"""

from __future__ import annotations

from repro.baselines.engine import BaselineEngine
from repro.codegen.jitgen import CompiledObject, JitCompiler, JitOptions
from repro.codegen.runtime_support import RuntimeSupport, box
from repro.inference.annotations import Annotations
from repro.runtime import elementwise as ew
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import from_ndarray, make_scalar
from repro.typesys.signature import Signature


def _boxed(op):
    """An operator that boxes both operands and the result, like the
    MATLAB C library functions mcc-generated code calls."""

    def wrapped(a, b):
        return op(box(a), box(b))

    return wrapped


class MccRuntimeSupport(RuntimeSupport):
    """mxArray-faithful runtime: every operation allocates boxed values.

    mcc's generated C never unboxes: ``mlfPlus``/``mlfTimes``/... take and
    return ``mxArray*``.  Overriding the generic helpers (and the column
    iterator) to stay boxed reproduces that cost model.
    """

    g_add = staticmethod(_boxed(ew.mlf_plus))
    g_sub = staticmethod(_boxed(ew.mlf_minus))
    g_mul = staticmethod(_boxed(ew.mlf_mtimes))
    g_emul = staticmethod(_boxed(ew.mlf_times))
    g_div = staticmethod(_boxed(ew.mlf_mrdivide))
    g_ediv = staticmethod(_boxed(ew.mlf_rdivide))
    g_ldiv = staticmethod(_boxed(ew.mlf_mldivide))
    g_eldiv = staticmethod(_boxed(ew.mlf_ldivide))
    g_pow = staticmethod(_boxed(ew.mlf_mpower))
    g_epow = staticmethod(_boxed(ew.mlf_power))
    g_lt = staticmethod(_boxed(ew.mlf_lt))
    g_le = staticmethod(_boxed(ew.mlf_le))
    g_gt = staticmethod(_boxed(ew.mlf_gt))
    g_ge = staticmethod(_boxed(ew.mlf_ge))
    g_eq = staticmethod(_boxed(ew.mlf_eq))
    g_ne = staticmethod(_boxed(ew.mlf_ne))
    g_and = staticmethod(_boxed(ew.mlf_and))
    g_or = staticmethod(_boxed(ew.mlf_or))

    # Indexing keeps the library's scalar fast paths: the harness follows
    # the paper's methodology of configuring mcc favourably ("we manually
    # eliminated subscript checks"), so element access is not the mcc
    # bottleneck — the boxed arithmetic above is.


class MccCompilerEngine(BaselineEngine):
    """Batch compiler producing fully generic (boxed) code."""

    name = "mcc"
    # mcc does not perform MATLAB-level inlining.
    inline_enabled = False

    def __init__(self, sink=None):
        super().__init__(sink=sink)
        self._rt = MccRuntimeSupport(
            call_user=self._call_user, sink=self.sink, knows=self.knows
        )

    def _compile(self, name: str, example_args: list[MxArray]) -> CompiledObject:
        fn = self.prepared(name)
        compiler = JitCompiler(
            JitOptions(unroll_enabled=False, dgemv_enabled=False)
        )
        # Empty annotations: every type is the implicit ⊤ default, forcing
        # the generic complex-matrix code paths of Figure 3's last row.
        annotations = Annotations()
        signature = Signature.all_top(len(fn.params))
        return compiler.compile(
            fn,
            signature,
            annotations=annotations,
            mode="mcc",
            is_user_function=self.knows,
        )
