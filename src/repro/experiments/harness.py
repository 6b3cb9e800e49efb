"""The measurement harness (Section 3.2's methodology).

* the gauge is speedup ``s = t_i / t_c`` over the interpreter;
* JIT runtimes *include* JIT compile time (fresh, empty repository per
  run); speculative runtimes assume the repository compiled ahead of time
  (compile excluded) unless the speculative code fails to match, in which
  case the JIT kicks in during the run;
* mcc and FALCON are batch compilers measured with compilation excluded;
* times are "best of N runs".

Every engine is a row of :data:`repro.backends.BACKENDS` and every timed
call goes through one :func:`best_of` loop over a
:class:`repro.backends.Handle`, which reseeds the shared random stream
identically before every call and returns the call's
:class:`~repro.backends.Observation` — so a measurement can always be
checked against the interpreter's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import backends
from repro.backends import Observation, Program
from repro.benchsuite.registry import benchmark
from repro.core.platformcfg import AblationFlags, PlatformConfig, SPARC
from repro.core.timing import ExecutionBreakdown
from repro.obs import write_chrome_trace, write_prometheus

ENGINES = ("interp", "mcc", "falcon", "jit", "spec")

#: Engine name -> :data:`repro.backends.BACKENDS` label where they differ.
#: The paper's JIT bar is the default session (fused kernels on), which
#: the table calls ``fused``; its ``jit`` row is the fusion-off variant.
_BACKEND_OF = {"interp": "interpreter", "jit": "fused"}


@dataclass
class RunResult:
    """One benchmark × engine measurement."""

    benchmark: str
    engine: str
    platform: str
    runtime_s: float
    #: What the best timed call was seen to do — equal to
    #: ``backends.reference(program)`` or the time means nothing.
    observation: Observation
    repeats: int
    compile_s: float = 0.0           # excluded (batch/speculative) compile
    breakdown: ExecutionBreakdown | None = None
    scale: tuple = ()
    #: The measured (closed) session, kept only when observability was
    #: requested (``run_benchmark(trace=..., metrics=...)``) so callers
    #: can export the trace/metrics of the best run.
    session: object = None


def best_of(program: Program, backend, repeats: int, fresh: bool = False,
            **overrides):
    """The one timing loop: best of ``repeats`` calls of ``program``.

    ``fresh=True`` opens a new handle per repeat, so every timed call
    starts from an empty repository (JIT: compile time included).
    Otherwise one handle serves every repeat; a batch compiler's handle is
    warmed by one untimed call first (it compiles on first execution;
    excluded).  Returns ``(seconds, observation, handle)`` of the best
    call; the handle comes back closed."""
    best = (float("inf"), None, None)
    handle = None
    try:
        for _ in range(repeats):
            if fresh or handle is None:
                if handle is not None:
                    handle.close()
                handle = backends.open(program, backend, **overrides)
                if handle.engine is not None:
                    handle.call()
            seen = handle.call()
            if handle.elapsed < best[0]:
                best = (handle.elapsed, seen, handle)
    finally:
        if handle is not None:
            handle.close()
    return best


def _jit_breakdown(session, elapsed: float) -> ExecutionBreakdown:
    """Figure 6 without a trace: the JIT's logged phase times, the rest of
    the call being execution."""
    breakdown = ExecutionBreakdown()
    for _, mode, phases in session.repository.compile_log:
        if mode == "jit":
            breakdown.add_phases(phases)
    breakdown.execution = max(elapsed - breakdown.compile, 0.0)
    return breakdown


# ----------------------------------------------------------------------
def run_benchmark(
    name: str,
    engine: str = "jit",
    platform: PlatformConfig = SPARC,
    scale: tuple | None = None,
    repeats: int = 3,
    ablation: AblationFlags | None = None,
    trace: bool = False,
    metrics: bool = False,
) -> RunResult:
    """Measure one benchmark under one engine; best-of-``repeats``.

    ``trace``/``metrics`` (jit/spec engines only) turn on the session's
    observability recorders; the best run's session rides along on
    ``RunResult.session`` for export, and a traced jit/spec breakdown is
    derived from the span tree instead of wall-clock subtraction.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
    scale = tuple(scale if scale is not None else benchmark(name).default_scale)
    label = _BACKEND_OF.get(engine, engine)
    overrides = {}
    if backends.BACKENDS[label].session is not None:
        overrides = {"ablation": ablation, "trace": trace, "metrics": metrics}
    best, seen, handle = best_of(
        Program.benchmark(name, scale), label, repeats,
        fresh=(engine == "jit"), platform=platform, **overrides,
    )
    session = handle.session
    breakdown = None
    if session is not None and trace:
        # Spans carry the full phase/execution attribution, so the
        # Figure 6 breakdown comes straight from the trace.
        breakdown = ExecutionBreakdown.from_spans(session.obs.tracer.spans())
    elif engine == "jit":
        breakdown = _jit_breakdown(session, best)
    compile_s = handle.prepare_s
    if handle.engine is not None:
        compile_s += handle.engine.compile_seconds
    return RunResult(
        benchmark=name,
        engine=engine,
        platform=platform.name,
        runtime_s=best,
        observation=seen,
        repeats=repeats,
        compile_s=compile_s,
        breakdown=breakdown,
        scale=scale,
        session=session if (trace or metrics) else None,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI: measure one benchmark, optionally with observability exports.

    Usage::

        PYTHONPATH=src python -m repro.experiments.harness fibonacci \\
            --engine jit --trace --metrics \\
            --trace-out trace.json --metrics-out metrics.prom
    """
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("benchmark", help="benchsuite program to measure")
    parser.add_argument("--engine", default="jit", choices=ENGINES)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--scale", type=float, nargs="*", default=None,
        help="override the benchmark's default workload scale",
    )
    parser.add_argument("--trace", action="store_true",
                        help="record hierarchical spans (jit/spec engines)")
    parser.add_argument("--metrics", action="store_true",
                        help="record the metrics registry (jit/spec engines)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write Chrome-trace JSON of the best run")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write Prometheus text of the best run")
    options = parser.parse_args(argv)
    trace = options.trace or options.trace_out is not None
    metrics = options.metrics or options.metrics_out is not None
    scale = tuple(options.scale) if options.scale else None
    result = run_benchmark(
        options.benchmark,
        engine=options.engine,
        scale=scale,
        repeats=options.repeats,
        trace=trace,
        metrics=metrics,
    )
    print(
        f"{result.benchmark} [{result.engine}] best of {result.repeats}: "
        f"{result.runtime_s:.6f}s"
    )
    if result.breakdown is not None:
        shares = result.breakdown.fractions()
        print(
            "breakdown: "
            + ", ".join(f"{k}={v:.1%}" for k, v in shares.items())
        )
    session = result.session
    if session is not None:
        print()
        print(session.summary())
        if options.trace_out:
            write_chrome_trace(session.obs.tracer, options.trace_out)
            print(f"trace written to {options.trace_out}")
        if options.metrics_out:
            write_prometheus(session.obs.metrics, options.metrics_out)
            print(f"metrics written to {options.metrics_out}")
    return 0


def speedup_table(
    names: list[str],
    engines: tuple[str, ...] = ("mcc", "falcon", "jit", "spec"),
    platform: PlatformConfig = SPARC,
    repeats: int = 3,
    scale_overrides: dict[str, tuple] | None = None,
) -> dict[str, dict[str, float]]:
    """Speedups over the interpreter for a set of benchmarks/engines."""
    overrides = scale_overrides or {}
    table: dict[str, dict[str, float]] = {}
    for name in names:
        scale = overrides.get(name)
        base = run_benchmark(
            name, "interp", platform=platform, scale=scale, repeats=repeats
        )
        row: dict[str, float] = {"interp_s": base.runtime_s}
        for engine in engines:
            result = run_benchmark(
                name, engine, platform=platform, scale=scale, repeats=repeats
            )
            row[engine] = (
                base.runtime_s / result.runtime_s
                if result.runtime_s > 0
                else float("inf")
            )
        table[name] = row
    return table


if __name__ == "__main__":
    raise SystemExit(main())
