"""Compiler explorer: walk one function through every MaJIC pass.

Shows Figure 1's pipeline on a Laplace relaxation kernel: the parsed AST,
the disambiguated symbol table, JIT vs. speculative type annotations, the
subscript-safety classification (Section 2.4), and the code each generator
emits.

Run:  python examples/compiler_explorer.py
"""

from repro.analysis.disambiguate import Disambiguator
from repro.codegen.jitgen import JitCompiler
from repro.codegen.srcgen import SourceCompiler
from repro.frontend.parser import parse
from repro.frontend.pretty import pretty_function
from repro.inference.engine import infer_function
from repro.inference.speculation import Speculator
from repro.runtime.values import from_python
from repro.typesys.signature import signature_of_values

SOURCE = """
function U = relax(n, sweeps)
U = zeros(n, n);
for i = 1:n,
  U(i, 1) = 1;
end
for s = 1:sweeps,
  for i = 2:n-1,
    for j = 2:n-1,
      U(i,j) = (U(i-1,j) + U(i+1,j) + U(i,j-1) + U(i,j+1)) / 4;
    end
  end
end
"""


def banner(title):
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def main():
    fn = parse(SOURCE).primary

    banner("Pass 1-2: parse + disambiguation (Figure 1)")
    print(pretty_function(fn))
    dis = Disambiguator(lambda n: False).run_function(fn)
    print("\nsymbol table:")
    for info in dis.symbols:
        kinds = ", ".join(sorted(k.value for k in info.kinds))
        print(f"  {info.name:8s} {kinds}"
              f"{'  (param)' if info.is_param else ''}"
              f"{'  (output)' if info.is_output else ''}")

    banner("Pass 3a: JIT type inference (exact runtime signature)")
    args = [from_python(16), from_python(10)]
    signature = signature_of_values(args)
    print(f"invocation signature: {signature}")
    annotations = infer_function(fn, signature, disambiguation=dis)
    print(f"U inferred as: {annotations.var_type('U')}")
    print(f"subscript classification: {annotations.stats()}")

    banner("Pass 3b: speculative type inference (no calling context)")
    spec = Speculator().speculate(fn, dis)
    for name, mtype in zip(fn.params, spec.signature):
        hinted = "narrowed" if spec.narrowed[name] else "no usable hints"
        print(f"  {name:8s} guessed {mtype}   [{hinted}]")
    print(f"speculative subscript classification: "
          f"{spec.annotations.stats()}")

    banner("Pass 4a: JIT code generator (ICODE -> linear scan -> host)")
    jit = JitCompiler().compile(fn, signature, disambiguation=dis,
                                annotations=annotations)
    print(jit.source)
    print(f"compile phases: disamb {jit.phase_times.disambiguation * 1e3:.2f} ms, "
          f"typeinf {jit.phase_times.type_inference * 1e3:.2f} ms, "
          f"codegen {jit.phase_times.codegen * 1e3:.2f} ms")

    banner("Pass 4b: speculative code generator (loop versioning visible)")
    src = SourceCompiler().compile(
        fn, spec.signature, disambiguation=dis, annotations=spec.annotations
    )
    print(src.source)

    banner("Both versions execute identically")
    from repro.codegen.runtime_support import RuntimeSupport
    from repro.runtime.values import to_python
    import numpy as np

    rt = RuntimeSupport(knows=lambda name: False)
    a = to_python(jit.invoke([v.copy() for v in args], 1, rt)[0])
    b = to_python(src.invoke([v.copy() for v in args], 1, rt)[0])
    print(f"max |jit - spec| = {np.abs(a - b).max()}")


if __name__ == "__main__":
    main()
