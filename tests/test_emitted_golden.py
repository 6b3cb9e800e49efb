"""The emitted code of every Table-1 program, pinned by hash.

One smoke-scale call of each program on the ``jit``, ``fused`` and
``spec`` rows of :data:`repro.backends.BACKENDS`, on both platforms,
leaves a set of compiled versions in the repository; the sha256 of each
version's ``CompiledObject.source`` is committed in
``tests/golden/emitted_sha256.json``, keyed
``program/platform/row/function/mode/signature``.  Emission is
deterministic (no dependence on hash seeds or dict order), so a changed
hash means a code generator changed what it emits for that program —
which is either the point of the PR (regenerate, and say which keys
moved) or a refactor that was not one.

Regenerate by running this file as a script::

    PYTHONPATH=src python tests/test_emitted_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import backends
from repro.backends import Program
from repro.benchsuite.registry import benchmark_names
from repro.core.platformcfg import MIPS, SPARC

GOLDEN = Path(__file__).parent / "golden" / "emitted_sha256.json"
ROWS = ("jit", "fused", "spec")
PLATFORMS = (SPARC, MIPS)


def emitted_hashes(name: str) -> dict[str, str]:
    """``key -> sha256(source)`` for every version one call of ``name``
    leaves behind, on every row and platform that runs it."""
    hashes = {}
    for platform in PLATFORMS:
        if name in platform.excluded_benchmarks:
            continue
        for row in ROWS:
            with backends.open(
                Program.benchmark(name), row, platform=platform
            ) as handle:
                handle.call()
                repo = handle.session.repository
                for function in repo.function_names():
                    for obj in repo.versions_of(function):
                        key = "/".join((
                            name, platform.name, row, function, obj.mode,
                            repr(obj.signature),
                        ))
                        hashes[key] = hashlib.sha256(
                            obj.source.encode()
                        ).hexdigest()
    return hashes


@pytest.mark.parametrize("name", benchmark_names())
def test_emitted_code_matches_golden(name):
    golden = {
        key: digest
        for key, digest in json.loads(GOLDEN.read_text()).items()
        if key.startswith(name + "/")
    }
    assert golden, f"no golden entries for {name}; regenerate {GOLDEN.name}"
    emitted = emitted_hashes(name)
    differing = sorted(
        key for key in golden.keys() | emitted.keys()
        if golden.get(key) != emitted.get(key)
    )
    assert not differing, (
        f"emitted code of {name} differs from the golden hashes on:\n  "
        + "\n  ".join(differing)
    )


if __name__ == "__main__":
    table: dict[str, str] = {}
    for benchmark_name in benchmark_names():
        table.update(emitted_hashes(benchmark_name))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} hashes to {GOLDEN}")
