"""The FALCON baseline (DeRose & Padua's MATLAB→Fortran 90 translator).

FALCON is a batch compiler with high-quality static type inference.  It
has no calling context, but "circumvents this problem by 'peeking' into
the input files of the code it compiles and extracting type information
from there" (Section 4) — which gives it type information equivalent to
the actual invocation's signature.  Its code quality comes from the native
Fortran compiler ("FALCON relies heavily on the native Fortran compiler to
generate good code"), so it inherits the platform's native optimization
level but *not* MaJIC's own selection tricks (small-vector unrolling,
pre-allocated temporaries, dgemv fusion).

Per the paper's methodology, subscript checks are eliminated wherever safe
(we run the same range analysis plus loop versioning) and compile time is
excluded from measured runtimes.
"""

from __future__ import annotations

from repro.baselines.engine import BaselineEngine
from repro.codegen.jitgen import CompiledObject
from repro.codegen.srcgen import SourceCompiler, SrcOptions
from repro.frontend import ast_nodes as ast
from repro.runtime.display import OutputSink
from repro.runtime.mxarray import MxArray
from repro.typesys.signature import Signature, signature_of_values


class FalconCompilerEngine(BaselineEngine):
    """Batch compiler: exact types from file peeking + native backend."""

    name = "falcon"
    inline_enabled = True

    def __init__(
        self,
        native_opt_level: int = 1,
        sink: OutputSink | None = None,
    ):
        super().__init__(sink=sink)
        self.native_opt_level = native_opt_level

    def _compile(self, name: str, example_args: list[MxArray]) -> CompiledObject:
        fn = self.prepared(name)
        options = SrcOptions(
            native_opt_level=self.native_opt_level,
            majic_opts=False,       # FALCON has no MaJIC-specific selection
        )
        compiler = SourceCompiler(options)
        # "Peeking": type information equivalent to the invocation values.
        signature = signature_of_values(example_args)
        if ast.called_names(fn) & set(self._functions):
            # Calls that survive inlining (recursion) feed the one version
            # other constants: do not specialize it on this call's ranges.
            signature = Signature.of(t.widen_range() for t in signature)
        return compiler.compile(
            fn, signature, mode="falcon", is_user_function=self.knows
        )
