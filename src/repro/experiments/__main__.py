"""``python -m repro.experiments``: measure the matrix, render the
document, show one artifact, or run one benchmark with exports."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.figures import FIGURES, document, measure, show
from repro.experiments.matrix import ENGINES, Matrix, run_benchmark
from repro.obs import write_chrome_trace, write_prometheus


def run(options) -> None:
    """Measure one benchmark, optionally with observability exports."""
    trace = options.trace or options.trace_out is not None
    metrics = options.metrics or options.metrics_out is not None
    result = run_benchmark(
        options.benchmark,
        engine=options.engine,
        scale=tuple(options.scale) if options.scale else None,
        repeats=options.repeats,
        trace=trace,
        metrics=metrics,
    )
    print(
        f"{result.cell.benchmark} [{result.cell.engine}] best of "
        f"{options.repeats}: {result.runtime_s:.6f}s"
    )
    if options.engine == "jit" or (trace and result.session is not None):
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    sub = commands.add_parser(
        "measure", help="time every cell of every figure once; write the "
        "numbers (a few minutes)")
    sub.add_argument("--out", required=True, metavar="F")
    sub = commands.add_parser(
        "render", help="print EXPERIMENTS.md from a measured file")
    sub.add_argument("file", metavar="F")
    sub = commands.add_parser(
        "show", help="measure (best of 1) and print one table or figure")
    sub.add_argument("name", choices=list(FIGURES))
    sub = commands.add_parser("run", help=run.__doc__)
    sub.add_argument("benchmark", help="benchsuite program to measure")
    sub.add_argument("--engine", default="jit", choices=ENGINES)
    sub.add_argument("--repeats", type=int, default=3)
    sub.add_argument(
        "--scale", type=float, nargs="*", default=None,
        help="override the benchmark's default workload scale",
    )
    sub.add_argument("--trace", action="store_true",
                     help="record hierarchical spans (jit/spec engines)")
    sub.add_argument("--metrics", action="store_true",
                     help="record the metrics registry (jit/spec engines)")
    sub.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write Chrome-trace JSON of the best run")
    sub.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write Prometheus text of the best run")
    options = parser.parse_args(argv)
    if options.command == "measure":
        Path(options.out).write_text(measure().to_json())
    elif options.command == "render":
        sys.stdout.write(document(Matrix.from_json(Path(options.file).read_text())))
    elif options.command == "show":
        print(show(options.name, measure(figures=[options.name], repeats=1)))
    else:
        run(options)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
