"""The paper's evaluation: one measurement matrix, every table and figure
a view of it.

* :mod:`~repro.experiments.matrix` — the clock (one ``best_of`` loop), the
  cells, the refusal of diverged runs, the result file;
* :mod:`~repro.experiments.figures` — Table 1, Figures 4–7, Table 2,
  Section 5 and responsiveness as views, each with its shape claims;
* ``python -m repro.experiments {measure --out F | render F | show NAME |
  run BENCH ...}`` — the one entry point.
"""

from repro.experiments.matrix import ENGINES, RunResult, run_benchmark

__all__ = ["ENGINES", "RunResult", "run_benchmark"]
