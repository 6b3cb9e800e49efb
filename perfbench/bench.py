"""The PyMaJIC benchmark: one command, six workloads, two kinds of run.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1
                               [--out FILE]

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` is the separate traced run that attributes time to layers
(``layers.py``).  ``--workload all`` runs the six workloads in turn.
The last line of standard output is one JSON object per workload with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--out`` also
writes the full result (per-program rows, quartiles, sample counts,
derived speedups, environment stamp) for ``compare.py``.

An untraced run is ``PROCESSES`` worker processes one after the other
(see ``worker.py``).  Per cell the samples of all processes are pooled;
its value is the median of the samples, each scaled to the reference
machine speed by the calibration loops timed around it
(``worker.Probe``).  A ``*_s`` metric is the sum of the per-program
values; the unscaled fastest sample and median are kept beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = 1

#: Worker processes per untraced run, and the hash seed each runs
#: under.  Fixed, so every run (and both sides of a comparison) sees the
#: same set of dict/set orders.
PROCESSES = 3

WORKLOAD_NAMES = (
    "scalar_loops", "builtin_solvers", "small_vector", "large_vector",
    "call_heavy", "cold_session",
)

#: End-to-end metric -> the worker mode whose samples it sums.
PROGRAM_METRICS = {
    "interp_s": "interp",
    "jit_first_call_s": "jit_first_call",
    "jit_steady_s": "jit_steady",
    "spec_compile_s": "spec_compile",
    "spec_steady_s": "spec_steady",
    "native_steady_s": "native_steady",
    "warm_first_call_s": "warm_first_call",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def summary(values: list[float]) -> dict:
    """Sample count, median and quartiles."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def run_worker(workload, seed, budget, trace, workdir: Path, index: int,
               trace_out=None) -> dict:
    """Run one worker to completion and return its JSON result."""
    home = workdir / "home"
    tmp = workdir / "tmp"
    for directory in (home, tmp):
        directory.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # Every default directory of the program (~/.pymajic, tempfile)
    # resolves inside the checkout.
    env.update(PYTHONHASHSEED=str(index), HOME=str(home), TMPDIR=str(tmp))
    # glibc moves its mmap threshold as large blocks are freed: whether a
    # 512 KB temporary page-faults on every allocation (3-4x slower) then
    # depends on the process's allocation history.  Pin the thresholds.
    env.update(MALLOC_MMAP_THRESHOLD_=str(32 << 20),
               MALLOC_TRIM_THRESHOLD_=str(256 << 20),
               MALLOC_TOP_PAD_=str(16 << 20))
    env.pop("PYTHONPATH", None)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--budget", repr(budget), "--trace", str(trace),
        "--workdir", str(workdir / f"p{index}"),
        "--t0", repr(monotonic()),
    ]
    if trace_out:
        command += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: worker {index} of {workload} timed out")
    if proc.returncode != 0:
        raise SystemExit(
            f"perfbench: worker {index} of {workload} exited "
            f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# The untraced run: pool the workers' samples into the metrics
# ----------------------------------------------------------------------
def pooled_metrics(results: list[dict]) -> dict:
    """Pool the workers' samples per cell.  A cell's value is the median
    of its samples, each scaled to the reference machine speed (see
    ``worker.Probe``); the unscaled fastest sample and median are kept
    beside it.  A metric is the sum over the programs."""
    metrics = {}
    for metric, mode in PROGRAM_METRICS.items():
        pooled: dict[str, list] = {}
        for result in results:
            for program, pairs in result["samples"][mode].items():
                pooled.setdefault(program, []).extend(pairs)
        rows = {}
        for program, pairs in pooled.items():
            raw = [seconds for seconds, _ in pairs]
            scaled = summary([seconds for _, seconds in pairs])
            rows[program] = {
                **scaled,
                "raw_best": min(raw), "raw_median": statistics.median(raw),
            }
        totals = {
            key: sum(row[key] for row in rows.values())
            for key in ("q1", "median", "q3", "raw_best", "raw_median")
        }
        metrics[metric] = {
            "value": totals["median"], "unit": "s", **totals,
            "n": min(row["n"] for row in rows.values()),
            "programs": rows,
        }
    # Set-up is a whole process start: the median of the processes.
    setups = summary([result["setup"][1] for result in results])
    metrics["setup_s"] = {
        "value": setups["median"], "unit": "s", **setups,
        "raw_median": statistics.median(r["setup"][0] for r in results),
    }
    peaks = summary([result["peak_rss_mb"] for result in results])
    metrics["peak_rss_mb"] = {"value": peaks["median"], "unit": "MB", **peaks}
    return metrics


def derived_speedups(metrics: dict) -> dict:
    """The paper's ratios (Figs. 4-5), per program and as a geometric
    mean.  Reported, never gated: a faster interpreter is not a loss."""
    interp = metrics["interp_s"]["programs"]
    out = {}
    for label, metric in (("speedup_jit", "jit_first_call_s"),
                          ("speedup_spec", "spec_steady_s")):
        rows = metrics[metric]["programs"]
        per_program = {
            name: interp[name]["median"] / rows[name]["median"]
            for name in rows
        }
        out[label] = {**per_program, "geomean": geomean(per_program.values())}
    return out


def run_untraced(workload: str, seed: int, seconds: float,
                 workdir: Path) -> dict:
    budget = seconds / PROCESSES
    results = [
        run_worker(workload, seed, budget, 0, workdir, index)
        for index in range(PROCESSES)
    ]
    metrics = pooled_metrics(results)
    return {
        "metrics": metrics,
        "derived": derived_speedups(metrics),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failures": [f for r in results for f in r["failures"]],
        "expected_checked": sum(r["expected_checked"] for r in results),
        "call_counts": results[0]["call_counts"],
        "rounds": [r["rounds"] for r in results],
        "env": results[0]["env"],
    }


def run_traced(workload: str, seed: int, workdir: Path, trace_out) -> dict:
    result = run_worker(workload, seed, 0.0, 1, workdir, 0, trace_out)
    return {key: result[key] for key in (
        "metrics", "nulls", "layers", "attempted", "failed", "failures",
        "expected_checked", "call_counts", "env")}


def run_workload(workload: str, options) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if options.trace:
            trace_out = options.trace_out or (
                ROOT / ".perfbench_out" / f"trace-{workload}.json")
            Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
            body = run_traced(workload, options.seed, workdir, trace_out)
            body["trace_file"] = str(trace_out)
        else:
            body = run_untraced(
                workload, options.seed, options.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    env = body.pop("env")
    env.update(git_commit=git_commit(), processes=PROCESSES)
    return {
        "schema": SCHEMA,
        "workload": workload,
        "seed": options.seed,
        "seconds": options.seconds,
        "trace": options.trace,
        "env": env,
        **body,
    }


def driver_line(result: dict) -> str:
    """The one-line JSON object the driver reads."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": row["value"], "unit": row["unit"]}
            for name, row in result["metrics"].items()
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all", "smoke"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sampling time of an untraced run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the full result JSON here")
    parser.add_argument("--trace-out", default=None,
                        help="Chrome-trace file of a traced run")
    options = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to perfbench/ -- nothing to "
              "measure", file=sys.stderr)
        return 2
    if options.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        options.seconds = float(spec["run_seconds"])
    names = WORKLOAD_NAMES if options.workload == "all" else (options.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, options)
        for failure in results[name]["failures"]:
            print(f"perfbench: FAILED {name}: {failure}", file=sys.stderr)
        print(driver_line(results[name]), flush=True)
    if options.out:
        payload = results[names[0]] if len(names) == 1 else {
            "schema": SCHEMA, "workloads": results}
        Path(options.out).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
