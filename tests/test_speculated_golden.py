"""What the speculator guesses, pinned beside what the benchmark observes.

For every program the benchmark (``perfbench/workloads.py``) calls — the
16 Table-1 programs and the benchmark-only ones — the golden file stores
the signature ``speculate_all()`` compiles the entry function for
(intrinsic and shape per parameter), the signature of the arguments the
benchmark passes it, and whether the first accepts the second (if not,
the benchmark's spec column is served by JIT code).  A change to a
backward hint rule shows here as a diff, apart from any change to what
the code generators select.

Regenerate by running this file as a script::

    PYTHONPATH=src python tests/test_speculated_golden.py
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro import MajicSession
from repro.runtime.values import from_python
from repro.typesys.signature import signature_of_values

GOLDEN = Path(__file__).parent / "golden" / "speculated_signatures.json"
WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.cache
def _workloads():
    """``perfbench/workloads.py``, loaded by path (``perfbench`` is a
    directory of scripts, not a package on the path)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_programs() -> dict:
    """name -> (program, workload) for every program of the six workloads."""
    module = _workloads()
    programs = {}
    for workload in module.WORKLOADS.values():
        if workload.name == "smoke":
            continue
        for program in workload.programs:
            programs.setdefault(program.name, (program, workload.name, module))
    return programs


def _shape(shape) -> str:
    return "x".join("inf" if dim is None else str(dim) for dim in (shape.rows, shape.cols))


def describe(signature) -> list[str]:
    """Intrinsic and shape bounds per parameter (ranges left out)."""
    out = []
    for mtype in signature.types:
        low, high = _shape(mtype.minshape), _shape(mtype.maxshape)
        out.append(
            f"{mtype.intrinsic.name.lower()} {low}"
            + ("" if low == high else f"..{high}")
        )
    return out


def speculated_entry(name: str) -> dict:
    program, workload, module = benchmark_programs()[name]
    args = program.args(module.program_rng(0, workload, name))
    observed = signature_of_values([from_python(value) for value in args])
    session = MajicSession()
    try:
        for source in program.sources:
            session.add_source(source)
        session.speculate_all()
        [version] = [
            v for v in session.repository.versions_of(name) if v.mode == "spec"
        ] or [None]
    finally:
        session.close()
    return {
        "speculated": None if version is None else describe(version.signature),
        "observed": describe(observed),
        "serves": version is not None and version.accepts(
            [from_python(value) for value in args]
        ),
    }


@pytest.mark.parametrize("name", sorted(benchmark_programs()))
def test_speculated_signature_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert speculated_entry(name) == golden[name]


def test_golden_names_every_benchmark_program():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(benchmark_programs())


if __name__ == "__main__":
    table = {name: speculated_entry(name) for name in sorted(benchmark_programs())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {GOLDEN}")
