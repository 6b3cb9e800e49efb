"""The backend matrix, and proof that its oracle bites.

Every Table-1 program runs on every row of
:data:`repro.backends.BACKENDS` (plus MIPS-platform runs of the MaJIC
tiers) and its whole :class:`~repro.backends.Observation` — output bytes,
display transcript, error text, random-stream post-state — must equal
the interpreter's :func:`~repro.backends.reference`.  Any unsound type
annotation, removed subscript check, miscompiled selection or
thread-unsafe repository mutation shows up here — and so does a compiled
tier that stopped serving: these runs inject no fault, so a deopt or a
failed compile (which the interpreter rescues, keeping the answer right)
fails the cell with its cause.

A new backend is one row in ``repro.backends.BACKENDS``; this file needs
no change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import BACKENDS, Program, check, observation
from repro.benchsuite.registry import benchmark_names
from repro.core.platformcfg import MIPS
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.values import from_ndarray

#: Benchmarks exercised in the fast (-m "not slow") lane; the rest of the
#: matrix runs in the slow lane.
FAST_NAMES = ("fibonacci", "dirich", "fractal", "cgopt")

#: (backend label, overrides, id suffix).  The MIPS platform changes code
#: quality (fewer registers, no unrolling, a stronger native backend),
#: never results.
ROWS = [
    (label, {}, "") for label in sorted(BACKENDS) if label != "interpreter"
] + [
    (label, {"platform": MIPS}, "-mips") for label in ("jit", "fused", "spec")
]


def _matrix():
    for name in benchmark_names():
        marks = () if name in FAST_NAMES else (pytest.mark.slow,)
        for backend, overrides, suffix in ROWS:
            yield pytest.param(
                name, backend, overrides, marks=marks,
                id=f"{name}-{backend}{suffix}",
            )


@pytest.mark.parametrize(("name", "backend", "overrides"), list(_matrix()))
def test_backend_bit_identical_to_interpreter(name, backend, overrides):
    problems = check(Program.benchmark(name), backend, **overrides)
    fields = [field for field, _, _ in problems]
    causes = [
        line for field, _, got in problems if field == "fallbacks"
        for line in got
    ]
    assert not problems, "\n  ".join([
        f"{backend} run of {name} diverged from the interpreter on {fields}",
        *causes,
    ])


# ----------------------------------------------------------------------
# The oracle itself: one difference, one named field
# ----------------------------------------------------------------------
def _mat(data, dtype=np.float64):
    return from_ndarray(np.array(data, dtype=dtype))


def _seen(outputs=None, display="", error=None, draws=0):
    GLOBAL_RANDOM.seed(1)
    for _ in range(draws):
        GLOBAL_RANDOM.uniform(1, 1)
    return observation(outputs, display, error)


#: case -> (the one field that differs, kwargs of the two calls seen).
#: Every ``outputs`` pair is *equal* under the digest this oracle
#: replaced — a cosine-weighted (column-major) float sum of the first
#: output, non-finite entries zeroed — and the other three fields were
#: never looked at.
ONE_DIFFERENCE = {
    "signed zero": (
        "outputs", {"outputs": [_mat(0.0)]}, {"outputs": [_mat(-0.0)]}),
    "nan": (
        "outputs",
        {"outputs": [_mat([0.0, 1.0])]}, {"outputs": [_mat([np.nan, 1.0])]}),
    "inf": (
        "outputs",
        {"outputs": [_mat([0.0, 1.0])]}, {"outputs": [_mat([np.inf, 1.0])]}),
    "storage dtype": (
        "outputs",
        {"outputs": [_mat([1.5, 2.0])]},
        {"outputs": [_mat([1.5, 2.0], dtype=np.complex128)]},
    ),
    "shape": (
        "outputs",
        {"outputs": [_mat([1.0, 2.0, 3.0, 4.0])]},
        {"outputs": [_mat([[1.0, 3.0], [2.0, 4.0]])]},
    ),
    "second output": (
        "outputs",
        {"outputs": [_mat(1.0), _mat(2.0)]},
        {"outputs": [_mat(1.0), _mat(3.0)]},
    ),
    "trailing transcript character": (
        "display", {"display": "1\n"}, {"display": "1\n "}),
    "error text": (
        "error",
        {"error": "Index exceeds matrix dimensions."},
        {"error": "Index exceeds matrix dimensions"},
    ),
    "one extra rand draw": ("rng", {"draws": 1}, {"draws": 2}),
}


@pytest.mark.parametrize("case", ONE_DIFFERENCE)
def test_oracle_names_the_one_field_that_differs(case):
    field, left, right = ONE_DIFFERENCE[case]
    assert _seen(**left) == _seen(**left)
    assert _seen(**left) != _seen(**right)
    assert _seen(**left).diff(_seen(**right)) == (field,)
