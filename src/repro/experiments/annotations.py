"""Table 2's instruments: one code generator, two origins of types.

"[Table 2] compares the speedups produced by the same code generator using
type annotations generated with either speculation or JIT type inference
(the speedups were calculated without considering compile time)."

Both engines therefore run the *same* (optimizing) code generator; only
the origin of the type annotations differs:

* ``jit-ann`` — forward inference from the invocation's actual signature;
* ``spec-ann`` — the speculator's backward/forward alternation, no calling
  context.  When the speculated signature does not accept the actual
  invocation, the JIT kicks in and the run uses invocation-derived
  annotations (the paper's recursive-benchmark case).

Compile time is excluded (batch warm-up before timing).
"""

from __future__ import annotations

from repro.backends import Backend
from repro.baselines.engine import BaselineEngine
from repro.codegen.jitgen import CompiledObject
from repro.codegen.srcgen import SourceCompiler, SrcOptions
from repro.frontend import ast_nodes as ast
from repro.inference.speculation import Speculator
from repro.runtime.mxarray import MxArray
from repro.typesys.signature import Signature, signature_of_values


class AnnotationEngine(BaselineEngine):
    """Optimizing codegen fed by either JIT or speculative annotations."""

    def __init__(self, use_speculation: bool, native_opt_level: int = 1,
                 sink=None):
        super().__init__(sink=sink)
        self.use_speculation = use_speculation
        self.options = SrcOptions(
            native_opt_level=native_opt_level, majic_opts=True
        )
        self.spec_misses: list[str] = []

    def _compile(self, name: str, example_args: list[MxArray]) -> CompiledObject:
        fn = self.prepared(name)
        compiler = SourceCompiler(self.options)
        invocation_sig = signature_of_values(example_args)
        if any(self.knows(name) for name in ast.called_names(fn)):
            invocation_sig = Signature.of(
                t.widen_range() for t in invocation_sig.types
            )
        if self.use_speculation:
            result = Speculator(options=self.options.inference).speculate(fn)
            padded = _pad(invocation_sig, len(result.signature))
            if result.signature.accepts(padded):
                return compiler.compile(
                    fn, result.signature,
                    annotations=result.annotations, mode="spec-ann",
                    is_user_function=self.knows,
                )
            # Speculation failed the safety check: the JIT kicks in with
            # invocation-derived annotations.
            self.spec_misses.append(name)
        return compiler.compile(
            fn, invocation_sig, mode="jit-ann", is_user_function=self.knows
        )


def _pad(signature: Signature, arity: int) -> Signature:
    from repro.typesys.mtype import MType

    if len(signature) >= arity:
        return signature
    return Signature.of(
        list(signature.types)
        + [MType.bottom() for _ in range(arity - len(signature))]
    )


#: engine name -> a one-off row for the shared timing loop (not in
#: ``repro.backends.BACKENDS``: these are an experiment's instruments, not
#: ways MaJIC serves programs).
BACKENDS = {
    name: Backend(engine=lambda platform, sink, spec=(name == "spec-ann"):
                  AnnotationEngine(spec, platform.native_opt_level, sink=sink))
    for name in ("jit-ann", "spec-ann")
}
