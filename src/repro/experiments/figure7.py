"""Figure 7: the effect of disabling individual JIT optimizations.

For each benchmark, the JIT runtime with one optimization disabled is
compared against the fully optimized JIT (performance relative to full
JIT, so 100% = no loss):

* **no ranges** — range propagation off; primarily disables subscript
  check removal (array-access-heavy codes suffer most);
* **no min. shapes** — minimum-shape propagation off; disables some check
  removal and all small-vector unrolling (small-vector codes suffer most);
* **no regalloc** — the linear-scan allocator spills every register
  ("roughly equivalent to compiling with -g").

Following the paper's intent (it isolates *steady-state* code quality,
not compile time), runtimes here exclude JIT compile time.
"""

from __future__ import annotations

from repro.benchsuite.registry import benchmark_names
from repro.core.platformcfg import AblationFlags, SPARC
from repro.experiments.harness import run_benchmark
from repro.experiments.report import format_table

ABLATIONS = {
    "no ranges": AblationFlags(no_ranges=True),
    "no min. shapes": AblationFlags(no_min_shapes=True),
    "no regalloc": AblationFlags(no_regalloc=True),
}


def generate(
    names: list[str] | None = None,
    repeats: int = 3,
    scale_overrides: dict[str, tuple] | None = None,
) -> dict[str, dict[str, float]]:
    """benchmark -> {ablation label: performance relative to full JIT}."""
    overrides = scale_overrides or {}
    rows: dict[str, dict[str, float]] = {}
    for name in names or benchmark_names():
        scale = overrides.get(name)
        full = run_benchmark(
            name, "jit", platform=SPARC, scale=scale, repeats=repeats
        )
        full_time = full.breakdown.execution
        row: dict[str, float] = {}
        for label, flags in ABLATIONS.items():
            ablated = run_benchmark(
                name, "jit", platform=SPARC, scale=scale,
                repeats=repeats, ablation=flags,
            )
            ablated_time = ablated.breakdown.execution
            row[label] = full_time / ablated_time if ablated_time > 0 else 1.0
        rows[name] = row
    return rows


def render(rows: dict[str, dict[str, float]]) -> str:
    labels = list(ABLATIONS)
    header = "Figure 7: Disabling JIT optimizations (performance relative to fully optimized JIT)"
    table = format_table(
        ["benchmark"] + labels,
        [
            [name] + [f"{row.get(label, 1.0) * 100:.0f}%" for label in labels]
            for name, row in rows.items()
        ],
    )
    return header + "\n" + table


def main() -> str:  # pragma: no cover - CLI convenience
    text = render(generate(repeats=1))
    print(text)
    return text


if __name__ == "__main__":  # pragma: no cover
    main()
