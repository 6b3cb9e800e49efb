"""Smoke test of the benchmark harness itself.

    python3 -m pytest perfbench/test_bench_smoke.py

Outside the tier-1 ``testpaths``.  Drives ``bench.py`` on the two-program
``smoke`` workload, untraced and traced, and checks the result against
``BENCHMARK.json`` and the contract's limits; then tampers with an
expected digest and checks that the oracle counts it as a failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(tmp_path, trace: int) -> tuple[dict, dict]:
    """``(driver line, full result)`` of one smoke run."""
    out = tmp_path / f"result-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "2", "--trace", str(trace),
         "--out", str(out), "--trace-out", str(tmp_path / "trace.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(
        out.read_text())


def test_benchmark_json_within_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_reported(tmp_path, trace, key):
    line, result = run_bench(tmp_path, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert set(line["metrics"]) == set(declared)
    for name, row in line["metrics"].items():
        assert row["unit"] == declared[name]
        assert isinstance(row["value"], (int, float))
    if trace == 0:
        assert all(row["value"] > 0 for row in line["metrics"].values())
        assert result["expected_checked"] > 0
        for key in ("git_commit", "python", "numpy", "nproc", "affinity",
                    "workers", "toolchain"):
            assert key in result["env"]
        assert result["call_counts"]["fibonacci"]["calls"] >= 1


def test_spans_resolve_and_self_times_partition_the_flows(tmp_path):
    _, result = run_bench(tmp_path, 1)
    events = [e for e in json.loads(
        (tmp_path / "trace.json").read_text())["traceEvents"]
        if e["ph"] == "X"]
    ids = {e["args"]["id"] for e in events}
    assert events and all(
        e["args"]["parent"] == -1 or e["args"]["parent"] in ids
        for e in events)
    for kind in ("first_call", "steady"):
        flow = result["layers"][kind]
        assert all(seconds >= -1e-9 for seconds in flow["self_s"].values())
        assert sum(flow["self_s"].values()) == pytest.approx(
            flow["flow_s"], rel=0.01)
    # Missing prerequisites are nulls with a reason, never silent zeros.
    assert set(result["nulls"]) <= set(result["metrics"])


TAMPER = """
import json, sys
from pathlib import Path
sys.path.insert(0, {here!r})
from worker import Bench, pin_to_one_core
pin_to_one_core()   # as a worker does, before numpy loads
from workloads import WORKLOADS
bench = Bench(WORKLOADS["smoke"], 0, Path({tmp!r}),
              expected_path=Path({tampered!r}))
bench.take_references()
print(json.dumps([bench.expected_checked, bench.attempted, bench.failed,
                  bench.failures]))
"""


def test_wrong_expected_digest_is_a_failure(tmp_path):
    stored = json.loads((HERE / "expected.json").read_text())
    stored["seeds"]["0"]["smoke"]["fibonacci"] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(stored))
    proc = subprocess.run(
        [sys.executable, "-c", TAMPER.format(
            here=str(HERE), tmp=str(tmp_path), tampered=str(tampered))],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    checked, attempted, failed, failures = json.loads(proc.stdout)
    if not checked:
        pytest.skip("expected.json was written under another numeric library")
    assert failed == 1 and failed / attempted > 0
    assert "fibonacci/interp" in failures[0]
