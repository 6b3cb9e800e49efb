"""Mandelbrot: a scalar, complex-arithmetic workload (Table 1's mandel).

Renders the set in ASCII and compares the interpreter against JIT and
speculative execution — including the speculator's documented blind spot:
the builtin ``i`` makes it guess complex where the JIT knows better
(Section 3.6).

Run:  python examples/mandelbrot.py
"""

import time

from repro import MajicSession
from repro.benchsuite.registry import source_of
from repro.frontend.parser import parse
from repro.interp.interpreter import Interpreter
from repro.runtime.values import from_python

SIZE, MAXITER = 40, 30
SHADES = " .:-=+*#%@"


def render(counts):
    rows = []
    for row in counts:
        line = "".join(
            SHADES[min(int(c * (len(SHADES) - 1) / MAXITER), len(SHADES) - 1)]
            for c in row
        )
        rows.append(line)
    return "\n".join(rows)


def main():
    source = source_of("mandel")

    # Interpreter baseline.
    fn = parse(source).primary
    interp = Interpreter(function_lookup=lambda n: None)
    args = [from_python(SIZE), from_python(MAXITER)]
    start = time.perf_counter()
    interp.call_function(fn, [a.copy() for a in args], 1)
    t_interp = time.perf_counter() - start

    # JIT (fresh repository; compile time included, as in the paper).
    jit = MajicSession()
    jit.add_source(source)
    start = time.perf_counter()
    counts = jit.call("mandel", SIZE, MAXITER)
    t_jit = time.perf_counter() - start

    # Speculative (compiled ahead of time; the builtin `i` defeats the
    # speculator's type guesses, so this code is generic-complex).
    spec = MajicSession()
    spec.add_source(source)
    spec.speculate_all()
    start = time.perf_counter()
    spec.call("mandel", SIZE, MAXITER)
    t_spec = time.perf_counter() - start

    print(render(counts.T))
    print()
    print(f"interpreter : {t_interp:8.3f} s")
    print(f"MaJIC JIT   : {t_jit:8.3f} s   ({t_interp / t_jit:6.1f}x)")
    print(f"MaJIC spec  : {t_spec:8.3f} s   ({t_interp / t_spec:6.1f}x)")


if __name__ == "__main__":
    main()
