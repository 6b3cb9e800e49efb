"""Correctness oracle: what a call produced, compared bit for bit.

An *observation* is everything a call can be seen to do: the bytes of
its output values, what it printed, and where it left the shared random
stream.  Every timed call is observed and compared with the
interpreter's observation of the same call made in the same process
(never with another compiled tier); the interpreter's observation is in
turn compared, by digest, with ``expected.json`` for the seeds that file
holds, which was written once under ``Interpreter(fusion=False)``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).parent / "expected.json"


def value_bytes(value) -> tuple:
    """Logical shape, dtype and raw bytes of one boxed value -- the
    repository's own bit-identity (``repro.fuzz``): tiers may tag an
    all-integral result INT or REAL, the data may not differ."""
    if value.is_string:
        return ("char", (value.rows, value.cols), value.text.encode())
    data = value.view()
    if not data.flags.c_contiguous:
        data = data.copy()
    return (str(data.dtype), data.shape, data.tobytes())


def rng_state() -> tuple:
    """Where the shared random stream stands now, comparable by ``==``."""
    from repro.runtime.builtins import GLOBAL_RANDOM

    seed, state = GLOBAL_RANDOM.snapshot()
    return (seed, json.dumps(state, sort_keys=True))


def observe(outputs, transcript: str) -> tuple:
    """The observation of one call that just returned ``outputs``; reads
    the random stream's current state as the post-state."""
    return (tuple(value_bytes(v) for v in outputs), transcript, rng_state())


def digest(observation: tuple) -> str:
    """Stable hex digest of an observation (what ``expected.json`` holds)."""
    values, transcript, (seed, state) = observation
    h = hashlib.sha256()
    for dtype, shape, raw in values:
        h.update(f"{dtype}:{shape[0]}x{shape[1]}:{len(raw)}:".encode())
        h.update(raw)
    h.update(b"|transcript:" + transcript.encode())
    h.update(f"|rng:{seed}:{state}".encode())
    return h.hexdigest()


def numeric_fingerprint() -> str:
    """Digest of what this machine's numpy/BLAS/LAPACK compute for a few
    fixed inputs.  Bit-level results of matrix products, solves and
    eigen-decompositions depend on the library build and the CPU's
    vector units (and on how many threads the process may use), so the
    committed digests only bind where this agrees."""
    import numpy as np

    rng = np.random.default_rng(20020617)
    a = rng.random((150, 150)) + 150 * np.eye(150)
    b = rng.random((150, 1))
    sym = (a + a.T) / 2
    v = rng.random(64) + 0.5
    h = hashlib.sha256(np.__version__.encode())
    for part in (a @ b, a.T @ b, np.linalg.solve(a, b), *np.linalg.eig(sym),
                 np.sqrt(v), np.exp(v), np.sin(v), v ** 1.5,
                 np.linalg.norm(b)):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    """``{seed: {workload: {program: digest}}}``; empty when the file is
    absent or was written under a different numeric library."""
    if not path.exists():
        return {}
    stored = json.loads(path.read_text())
    if stored.get("numeric") != numeric_fingerprint():
        return {}
    return stored["seeds"]


def expected_for(expected: dict, seed: int, workload: str) -> dict:
    return expected.get(str(seed), {}).get(workload, {})


def write_expected(seeds, path: Path = EXPECTED_PATH) -> dict:
    """Regenerate ``expected.json``: every program of every workload,
    interpreted with fused kernels off (so the expectation does not
    depend on the kernel compiler either)."""
    from worker import Bench   # also puts src/ on sys.path
    from workloads import WORKLOADS

    expected: dict = {}
    for seed in seeds:
        for workload in WORKLOADS.values():
            bench = Bench(workload, seed, path.parent)
            expected.setdefault(str(seed), {})[workload.name] = {
                cell.name: digest(bench.interpret(cell, fusion=False)[1])
                for cell in bench.cells
            }
    stored = {"numeric": numeric_fingerprint(), "seeds": expected}
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return expected


if __name__ == "__main__":
    import sys

    from worker import pin_to_one_core

    # As in a worker, and before numpy loads: BLAS sizes its thread pool
    # from the affinity mask, and the thread count changes result bits.
    pin_to_one_core()
    write_expected([int(arg) for arg in sys.argv[1:]] or [0, 1])
