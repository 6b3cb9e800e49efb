"""Compare two sets of benchmark results, one row per (metric, workload).

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are each a result file written by ``bench.py --out``
or a directory of such files (a *set of runs*: the same workloads run
several times).  For every end-to-end metric of ``BENCHMARK.json`` and
every workload both sides have, the medians over each side's runs are
compared under the metric's own bound:

* ``unresolved`` -- either side's inter-quartile spread over its runs
  exceeds the bound, so the row cannot carry a verdict (``setup_s`` is
  exempt, as it is in the driver's own acceptance check: a process
  start is the noisiest thing measured here);
* ``regressed``  -- NEW's median is worse than OLD's by more than the bound;
* ``improved``   -- NEW's median is better than OLD's by more than half
  the bound and by more than both sides' inter-quartile distances
  together (two sets of runs of one commit drift by a few percent);
* ``unchanged``  -- anything else.

A side with a single run has no spread: its rows are never
``unresolved`` and never ``improved``.  Exits 1 when a row regressed or
NEW failed a larger share of its operations than OLD, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict[str, list[dict]]:
    """``{workload: [result, ...]}`` from a file or a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = {}
    for file in files:
        payload = json.loads(file.read_text())
        results = payload.get("workloads", {payload.get("workload"): payload})
        for workload, result in results.items():
            if not result.get("trace"):
                runs.setdefault(workload, []).append(result)
    return runs


def side(runs: list[dict], metric: str):
    """Median and inter-quartile distance of one metric over the runs."""
    values = [run["metrics"][metric]["value"] for run in runs]
    median = statistics.median(values)
    if len(values) < 2:
        return median, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def failed_frac(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def verdict(old, new, bound: float, sign: float,
            spread_gated: bool = True) -> tuple[str, float]:
    """``sign`` is +1 where lower is better, -1 where higher is."""
    (old_median, old_iqd), (new_median, new_iqd) = old, new
    change = (new_median - old_median) / old_median
    if spread_gated:
        for median, iqd in (old, new):
            if iqd is not None and iqd / median > bound:
                return "unresolved", change
    if sign * change > bound:
        return "regressed", change
    gain = sign * (old_median - new_median)
    if (old_iqd is not None and new_iqd is not None
            and gain > old_iqd + new_iqd and gain > bound / 2 * old_median):
        return "improved", change
    return "unchanged", change


def compare(old_path: Path, new_path: Path, spec: dict) -> tuple[list, bool]:
    old_runs, new_runs = load_runs(old_path), load_runs(new_path)
    rows = []
    worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in old_runs or workload not in new_runs:
            continue
        old, new = old_runs[workload], new_runs[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            old_side, new_side = side(old, name), side(new, name)
            label, change = verdict(old_side, new_side, metric["bound"], sign,
                                    spread_gated=name != "setup_s")
            rows.append((workload, name, label, change, old_side, new_side,
                         metric["unit"]))
            worse |= label == "regressed"
        old_failed, new_failed = failed_frac(old), failed_frac(new)
        label = "regressed" if new_failed > old_failed else "unchanged"
        rows.append((workload, "failed_frac", label, new_failed - old_failed,
                     (old_failed, None), (new_failed, None), "ratio"))
        worse |= new_failed > old_failed
    return rows, worse


def render(rows) -> str:
    def cell(value):
        median, iqd = value
        spread = "" if iqd is None or not median else f" ±{iqd / median:.1%}"
        return f"{median:.6g}{spread}"

    lines = [f"{'workload':16s} {'metric':20s} {'old':>22s} {'new':>22s} "
             f"{'change':>8s}  verdict"]
    for workload, name, label, change, old, new, unit in rows:
        lines.append(
            f"{workload:16s} {name:20s} {cell(old) + ' ' + unit:>22s} "
            f"{cell(new) + ' ' + unit:>22s} {change:+8.1%}  {label}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, worse = compare(Path(argv[0]), Path(argv[1]), spec)
    print(render(rows))
    counts: dict[str, int] = {}
    for row in rows:
        counts[row[2]] = counts.get(row[2], 0) + 1
    print(", ".join(f"{n} {label}" for label, n in sorted(counts.items())))
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
