"""Experiment harnesses: one module per table/figure of the paper.

* :mod:`~repro.experiments.table1` — benchmark inventory;
* :mod:`~repro.experiments.figure4` — speedups, SPARC platform;
* :mod:`~repro.experiments.figure5` — speedups, MIPS platform;
* :mod:`~repro.experiments.figure6` — composition of JIT execution time;
* :mod:`~repro.experiments.figure7` — disabling JIT optimizations;
* :mod:`~repro.experiments.table2` — JIT vs. speculative type inference;
* :mod:`~repro.experiments.responsiveness` — foreground-visible compile
  cost: cold vs. background vs. warm disk cache.
"""

from repro.experiments.harness import (
    ENGINES,
    RunResult,
    run_benchmark,
    speedup_table,
)

__all__ = ["ENGINES", "RunResult", "run_benchmark", "speedup_table"]
