"""Table 2: JIT vs. speculative type inference.

"[Table 2] compares the speedups produced by the same code generator using
type annotations generated with either speculation or JIT type inference
(the speedups were calculated without considering compile time)."

Both columns therefore run the *same* (optimizing) code generator on the
SPARC configuration; only the origin of the type annotations differs:

* **JIT** — forward inference from the invocation's actual signature;
* **spec** — the speculator's backward/forward alternation, no calling
  context.  When the speculated signature does not accept the actual
  invocation, the JIT kicks in and the run uses invocation-derived
  annotations (the paper's recursive-benchmark case).

Compile time is excluded (batch warm-up before timing).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends import Backend, Program
from repro.baselines.engine import BaselineEngine
from repro.benchsuite.registry import benchmark, benchmark_names
from repro.codegen.jitgen import CompiledObject
from repro.codegen.srcgen import SourceCompiler, SrcOptions
from repro.experiments.harness import best_of, run_benchmark
from repro.experiments.report import format_table
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
        if _has_dynamic_calls(fn, self.knows):
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


def _has_dynamic_calls(fn: ast.FunctionDef, knows) -> bool:
    for stmt in ast.walk_stmts(fn.body):
        for expr in ast.stmt_exprs(stmt):
            for node in ast.walk_expr(expr):
                if isinstance(node, ast.Apply) and knows(node.name):
                    return True
    return False


@dataclass
class Table2Row:
    benchmark: str
    spec_speedup: float
    jit_speedup: float
    spec_missed: bool  # runtime recompilation was required


def _annotation_backend(use_speculation: bool) -> Backend:
    """A one-off row for the shared timing loop (not in ``BACKENDS``: it
    is an experiment's instrument, not a way MaJIC serves programs)."""
    return Backend(engine=lambda platform, sink: AnnotationEngine(
        use_speculation, platform.native_opt_level, sink=sink))


def generate(
    names: list[str] | None = None,
    repeats: int = 3,
    scale_overrides: dict[str, tuple] | None = None,
) -> list[Table2Row]:
    overrides = scale_overrides or {}
    rows = []
    for name in names or benchmark_names():
        scale = overrides.get(name, benchmark(name).default_scale)
        interp = run_benchmark(name, "interp", scale=scale, repeats=repeats)
        program = Program.benchmark(name, scale)
        jit_time, _, _ = best_of(program, _annotation_backend(False), repeats)
        spec_time, _, spec = best_of(program, _annotation_backend(True), repeats)
        rows.append(
            Table2Row(
                benchmark=name,
                spec_speedup=interp.runtime_s / spec_time if spec_time else 0.0,
                jit_speedup=interp.runtime_s / jit_time if jit_time else 0.0,
                spec_missed=bool(spec.engine.spec_misses),
            )
        )
    return rows


def render(rows: list[Table2Row]) -> str:
    header = "Table 2: JIT vs. speculative type inference (compile time excluded)"
    table = format_table(
        ["benchmark", "spec.", "JIT", "spec/JIT", "runtime recompile"],
        [
            [
                r.benchmark,
                r.spec_speedup,
                r.jit_speedup,
                r.spec_speedup / r.jit_speedup if r.jit_speedup else 0.0,
                "yes" if r.spec_missed else "",
            ]
            for r in rows
        ],
    )
    return header + "\n" + table


def main() -> str:  # pragma: no cover - CLI convenience
    text = render(generate(repeats=1))
    print(text)
    return text


if __name__ == "__main__":  # pragma: no cover
    main()
