"""The benchmark suite of Table 1.

Sixteen MATLAB programs (plus the paper's ``poly`` example) re-written
from their cited sources, grouped into the paper's four partially
overlapping categories:

* scalar / Fortran-like: dirich, finedif, icn, mandel, crnich;
* builtin-heavy: cgopt, qmr, sor, mei;
* small-vector array codes: orbec, orbrk, fractal, adapt;
* recursive: fibonacci, ackermann.
"""

from repro.benchsuite.registry import (
    Benchmark,
    BENCHMARKS,
    benchmark,
    benchmark_names,
    CATEGORY,
)
from repro.benchsuite.workloads import workload_for

__all__ = [
    "Benchmark",
    "BENCHMARKS",
    "benchmark",
    "benchmark_names",
    "CATEGORY",
    "workload_for",
]
