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
no change.  ``PROBES`` holds hand-written programs for divergences no
Table-1 program reaches; they run through the same ``check`` on the same
rows.
"""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.backends import BACKENDS, Program, check, observation
from repro.benchsuite.registry import benchmark_names
from repro.core.platformcfg import MIPS
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.values import from_ndarray, from_python

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
# Probes: one program per divergence found by hand
# ----------------------------------------------------------------------
AMBIGUOUS = "function r = amb(c)\nif c, pi = 2; end\nr = pi + 1;\n"
CONTINUE = (
    "function s = cont(x)\ns = 0;\n"
    "for k = 1:0.5:x, if k == 2, continue; end, s = s + k; end\n"
)
STEPPED = "function s = stepped(x)\ns = 0;\nfor k = 0:0.1:x, s = s + k; end\n"
TOO_MANY = (
    "function r = outer(x)\ndisp(x);\nr = inner(x, 2, 3);\n"
    "function y = inner(a, b)\ny = a + b;\n"
)
COMPLEX_POWER = "function r = cpw(a, b, c)\nr = (a - b) .^ c;\n"
BARE_DISP = "function r = shown(s)\ndisp(s)\nr = 1;\n"
COMPLEX_BOUND = (
    "function s = cfor(n)\ns = 0;\nfor k = 1i:n, s = s + 1; end\n"
    "x = 2i:0.5:n;\ns = s + x(2);\n"
)
RESULT_CLASS = (
    "function s = classy(v)\nw = v * 2;\nu = w / 2;\n"
    "s = inner(u) + 10 * inner(w);\n"
    "function t = inner(w)\nt = 0;\n"
    "for k = w(1):w(2), t = t + k; if t > 99, return; end, end\n"
)
COLON_ORDER = (
    "function r = colord(n)\nv = lo(n):st(n):hi(n);\nr = sum(v);\n"
    "for k = lo(n):st(n):hi(n), r = r + k; end\n"
    "function a = lo(n)\ndisp(1);\na = n;\n"
    "function s = st(n)\ndisp(2);\ns = n + 1;\n"
    "function b = hi(n)\ndisp(3);\nb = 4 * n + 5;\n"
)
HOT_RANGES = (
    "function r = hot(x)\nr = 0;\n"
    "for k = 1:3, r = r + spec(5); end\n"
    "r = r + spec(6) + spec(5) + spec(7) + spec(5);\n"
    "v = [1 2 3] * x;\nr = r + sum(spec(v)) + sum(spec(v));\n"
    "w = [1 2 9] * x;\nr = r + sum(spec(w)) + sum(spec(v));\n"
    "r = r + spec(x > 0) + spec(1) + spec(x > 0);\ndisp(r);\nr = spec(0);\n"
    "function y = spec(a)\nif a == -1, y = a; return; end\n"
    "t = [10 20 30 40 50 60 70 80 90];\ny = a .* 2 + t(a(1));\n"
)
HIT_THEN_TOO_MANY = (
    "function r = hits(x)\nr = inner(x, 2) + inner(x, 2);\ndisp(r);\n"
    "r = inner(x, 2, 3);\n"
    "function y = inner(a, b)\nif a == -1, y = a; return; end\ny = a + b;\n"
)


def _scalar(value):
    return lambda: [from_python(value)]


#: name -> program.  What each must do is whatever the interpreter does:
#: ``pi`` is the builtin when the branch did not run (JIT code answered
#: 1.0, spec code deoptimized); a ``continue`` in a real-stepped ``for``
#: still advances it (compiled code hung), through the interpreter's
#: values ``lo + st * i`` (compiled code added ``st`` repeatedly: other
#: bits, and a different count at some bounds); too many actuals raise ``inner: too many input arguments``
#: after the caller's display (compiled code answered 3); a raw complex
#: ``.^`` is NumPy's power, not the host's (1 ulp apart in both parts); a
#: statement call with no output echoes ``ans = []`` (compiled code
#: echoed 0); a ``:`` operand contributes the real part of its first
#: element, in a ``for`` header as elsewhere (compiled code raised
#: "expected a real value").  ``result-class`` is the net under the lazily
#: answered INT-vs-REAL class, which an observation does not show: ``w``
#: (ten elements: past the unroller, so a boxed result) is an all-integer
#: product of non-integer factors and ``u`` = ``w / 2`` is not, so the two
#: calls of ``inner`` need two signatures.  A ``u`` wrongly answered INT
#: gets ``range(0, 2)`` and sums 0 + 1 where the answer is 0.5 + 1.5 (the
#: ``return`` in the loop blocks inlining, keeping ``inner`` a call).
#: ``result-class-int-first`` calls ``inner`` with the INT vector first: a
#: one-version batch compiler must not serve the REAL call from the object
#: it compiled for INT (FALCON did, and summed ``range(0, 2)``).
#: ``a:s:b`` evaluates its operands in source order, as an expression and
#: as a ``for`` header; the three operands ``disp`` so the transcript
#: shows it (the interpreter and the inliner went start, stop, step, and
#: so did a compiled ``for`` header — while a compiled expression and mcc
#: went start, step, stop).  ``-called`` gives each callee a mid-body
#: ``return``, which blocks inlining and keeps the operands real calls.
#: ``hot-call-ranges``: since PR 24 the hot-call cache holds versions
#: compiled for the observed value *ranges* (``spec(5)`` loads ``t(5)``
#: unchecked), so a version kept for a value outside them answers wrong —
#: ``spec(0)`` would read ``t(end)`` where the interpreter raises: the
#: constant, the widened, the array whose maximum leaves the compiled
#: range and the BOOL / INT pair each have to come back to their own
#: version.
#: ``hit-then-too-many``: the arity error must be the interpreter's even
#: when the callee's version sits in the hot-call cache.
PROBES = {
    "ambiguous-builtin": Program((AMBIGUOUS,), "amb", _scalar(0.0)),
    "ambiguous-variable": Program((AMBIGUOUS,), "amb", _scalar(1.0)),
    "continue-real-step": Program((CONTINUE,), "cont", _scalar(3.0)),
    "real-step-values": Program((STEPPED,), "stepped", _scalar(1.0)),
    "too-many-actuals": Program((TOO_MANY,), "outer", _scalar(1.0)),
    "complex-scalar-power": Program(
        (COMPLEX_POWER,), "cpw",
        lambda: [from_python(1j), from_python(1.0), from_python(2.5)],
    ),
    "bare-disp-echo": Program((BARE_DISP,), "shown", _scalar(3.0)),
    "complex-colon-bound": Program((COMPLEX_BOUND,), "cfor", _scalar(3.0)),
    "result-class": Program(
        (RESULT_CLASS,), "classy",
        lambda: [from_python(np.arange(0.5, 10.0))],
    ),
    "result-class-int-first": Program(
        (RESULT_CLASS.replace(
            "inner(u) + 10 * inner(w)", "10 * inner(w) + inner(u)"),),
        "classy",
        lambda: [from_python(np.arange(0.5, 10.0))],
    ),
    "colon-operand-order": Program((COLON_ORDER,), "colord", _scalar(1.0)),
    "colon-operand-order-called": Program(
        (COLON_ORDER.replace(");\n", ");\nif n < 0, return; end\n"),),
        "colord", _scalar(1.0),
    ),
    "hot-call-ranges": Program((HOT_RANGES,), "hot", _scalar(2.0)),
    "hit-then-too-many": Program((HIT_THEN_TOO_MANY,), "hits", _scalar(1.0)),
}


def _relapse(signum, frame):
    raise TimeoutError("probe still running after 60 s (a hang relapsed)")


@pytest.mark.parametrize(
    ("backend", "overrides"),
    [pytest.param(label, kw, id=f"{label}{suffix}") for label, kw, suffix in ROWS],
)
@pytest.mark.parametrize("probe", PROBES)
def test_probe_bit_identical_to_interpreter(probe, backend, overrides):
    # A hang must fail in seconds: sessions get the run watchdog (the
    # deopt it forces fails the cell as a fallback); the batch compilers
    # have none, so an alarm bounds them.
    if BACKENDS[backend].session is not None:
        overrides = {**overrides, "run_deadline": 5.0}
    previous = signal.signal(signal.SIGALRM, _relapse)
    signal.alarm(60)
    try:
        problems = check(PROBES[probe], backend, **overrides)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not problems, f"{backend} run of {probe}: {problems}"


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
