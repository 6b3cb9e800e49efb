"""Property tests for fused elementwise kernels (ISSUE 4).

The fusion guarantee is *bit-identity*: for any operands — empty, 1x1,
scalar-broadcast, real/complex/logical/char, NaN/Inf payloads — a fused
kernel must produce exactly the bytes the unfused ``g_*`` chain and the
interpreter produce, and must raise exactly the same MATLAB error when
shapes do not conform.  Four engines run every example:

* the interpreter with its fusion fast path disabled (ground truth),
* the interpreter with the fast path enabled,
* the JIT with ``fusion=False`` (the unfused ``g_*`` chain),
* the JIT with fusion on (the default).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SPARC, MajicSession
from repro.errors import MatlabError
from repro.frontend.parser import parse
from repro.interp.interpreter import Interpreter
from repro.kernels.codegen import (
    REUSE_MIN_ELEMENTS,
    bind_kernel,
    compile_kernel,
    generate_source,
)
from repro.kernels.fusion import OPS, Leaf, Node
from repro.runtime import elementwise as ew
from repro.runtime.builtins import call_builtin
from repro.runtime.display import OutputSink
from repro.runtime.values import from_python, make_scalar, make_string

# ----------------------------------------------------------------------
# Expression templates over three operands.  Each covers a different
# corner of the matcher: arithmetic chains, comparisons and logicals
# (BOOL-klass roots), value-dependent ``.^`` widening, negative-domain
# sqrt/log widening, unary builtins, and scalar literals.
# ----------------------------------------------------------------------
TEMPLATES = (
    "a .* b + c",
    "a + b .* c - a ./ b",
    "(a - b) .^ c",
    "abs(a - b) + sqrt(a .* b)",
    "log(abs(a) + 1.0) .* b - c",
    "(a < b) | (c >= a)",
    "~(a & b) + (a == c)",
    "sin(a) + cos(b) .* exp(c ./ 4.0)",
    "floor(a .* 3.0) - ceil(b ./ 2.0) + conj(c)",
    "2.0 .* a - b ./ 3.0 + 1.5",
)

#: Float payloads including signed zero, NaN and infinities.
SPECIALS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 0.5, 3.0, -7.0,
     float("nan"), float("inf"), float("-inf")]
)

#: Imaginary parts for complex operands: never exactly zero, so the
#: generated values are genuinely complex.  (A complex scalar whose imag
#: is exactly 0.0 is demoted to real at the seed JIT's raw-scalar
#: boundary — ``make_scalar`` — while the interpreter keeps the COMPLEX
#: klass; with NaN payloads that pre-existing boundary difference even
#: changes values, since real and complex NaN arithmetic differ.  That
#: boundary is not what this suite tests.)
NONZERO_SPECIALS = st.sampled_from(
    [1.0, -1.0, 2.5, -2.5, 0.5, 3.0, -7.0,
     float("nan"), float("inf"), float("-inf")]
)

shapes = st.sampled_from([(0, 0), (1, 1), (1, 3), (3, 1), (2, 2), (2, 3)])
dtypes = st.sampled_from(["real", "complex", "bool", "char"])


def make_operand(kind: str, shape: tuple[int, int], draw_float,
                 draw_imag) -> object:
    rows, cols = shape
    count = rows * cols
    reals = np.array([draw_float() for _ in range(count)],
                     dtype=np.float64).reshape(shape)
    if kind == "real":
        return from_python(reals)
    if kind == "complex":
        imags = np.array([draw_imag() for _ in range(count)],
                         dtype=np.float64).reshape(shape)
        data = np.empty(shape, dtype=np.complex128)
        data.real = reals
        data.imag = imags
        return from_python(data)
    if kind == "bool":
        value = from_python((np.nan_to_num(reals) > 0.0).astype(np.float64))
        from repro.runtime.mxarray import IntrinsicClass

        value.klass = IntrinsicClass.BOOL
        return value
    # char: a row string sized to the column count (rows collapse to 1)
    return make_string("x" * max(cols, 1))


SOURCE_TEMPLATE = "function y = f(a, b, c)\ny = {expr};\n"


def bits(value) -> tuple:
    """Bit-level digest of an MxArray result."""
    view = value.view()
    return (value.klass, view.shape, view.dtype.str, view.tobytes())


def canon_bits(value) -> tuple:
    """Value-level digest for *cross-engine* comparison.

    The pre-existing JIT raw-scalar boundary normalizes intrinsic
    classes the interpreter preserves (``make_scalar`` demotes
    zero-imag complex to real, raw ints box as INT, raw comparisons
    produce REAL where the interpreter makes BOOL) — which is why
    ``repro.backends.Observation`` compares storage bytes, not klass
    tags.  Cross-engine identity is therefore stated over
    shape + exact complex values (bitwise, NaN payloads included);
    klass/dtype bit-identity is asserted within each consumer, where
    fusion is the only variable.
    """
    view = np.asarray(value.view(), dtype=np.complex128)
    return (view.shape, view.tobytes())


def run_interp(source: str, args, fusion: bool):
    table = {fn.name: fn for fn in parse(source).functions}
    interp = Interpreter(function_lookup=table.get, sink=OutputSink(),
                         fusion=fusion)
    return interp.call_function(table["f"], list(args), 1)[0]


#: Unrolling is disabled so the unfused comparator is the ``g_*`` chain
#: the fusion guarantee is stated against.  (The unroller is a *third*
#: pre-existing codegen path with its own klass normalization: it builds
#: results element-by-element and boxes them REAL where ``from_ndarray``
#: classifies integral values INT.)
NO_UNROLL = replace(SPARC, jit_unroll=False)


def run_jit(source: str, args, fusion: bool):
    session = MajicSession(platform=NO_UNROLL, fusion=fusion)
    session.add_source(source)
    outputs = session.call_boxed("f", list(args), nargout=1)
    session.close()
    return outputs[0]


def run_engine(runner, source, args, **kwargs):
    """(outcome-kind, payload): a digest, or the error type + message.

    Host errors (e.g. ``np.ceil`` rejecting complex input, a pre-existing
    runtime limitation) are captured too: parity requires every engine to
    fail the same way, not just to succeed the same way.
    """
    try:
        return ("ok", runner(source, args, **kwargs))
    except MatlabError as exc:
        return ("error", type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 - parity across host errors
        return ("host-error", type(exc).__name__, str(exc))


def digest(outcome, canonical: bool = False) -> tuple:
    if outcome[0] != "ok":
        return outcome
    return ("ok", (canon_bits if canonical else bits)(outcome[1]))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fused_bit_identical_across_engines(data):
    template = data.draw(st.sampled_from(TEMPLATES), label="template")
    # Operand shapes are either all-equal or scalar-broadcast most of the
    # time, with occasional deliberate mismatches to test error parity.
    base = data.draw(shapes, label="base_shape")
    args = []
    for slot in "abc":
        kind = data.draw(dtypes, label=f"{slot}_dtype")
        shape = data.draw(
            st.sampled_from([base, base, base, (1, 1)]
                            + ([(2, 3), (3, 2)] if data.draw(
                                st.booleans(), label=f"{slot}_mismatch")
                               else [])),
            label=f"{slot}_shape")
        args.append(make_operand(kind, shape,
                                 lambda: data.draw(SPECIALS),
                                 lambda: data.draw(NONZERO_SPECIALS)))
    source = SOURCE_TEMPLATE.format(expr=template)

    truth = run_engine(run_interp, source, args, fusion=False)
    fast = run_engine(run_interp, source, args, fusion=True)
    unfused = run_engine(run_jit, source, args, fusion=False)
    fused = run_engine(run_jit, source, args, fusion=True)

    # The fusion guarantees: bit-identity within each consumer.
    assert digest(fast) == digest(truth), (
        f"interpreter fast path diverged: {digest(fast)} != {digest(truth)}")
    assert digest(fused) == digest(unfused), (
        f"fused JIT diverged from unfused: "
        f"{digest(fused)} != {digest(unfused)}")
    # Cross-engine: identical modulo the JIT boundary's (pre-existing)
    # complex-scalar demotion, which canon_bits applies to both sides.
    assert digest(fused, canonical=True) == digest(truth, canonical=True), (
        f"fused JIT diverged from interpreter: "
        f"{digest(fused, canonical=True)} != {digest(truth, canonical=True)}")


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.integers(0, 4), cols=st.integers(0, 4),
    other=st.sampled_from([(2, 3), (3, 2), (1, 4), (4, 1)]),
)
def test_dimension_error_message_parity(rows, cols, other):
    """Nonconformant shapes raise the same DimensionError everywhere."""
    a = from_python(np.zeros((rows, cols)))
    b = from_python(np.ones(other))
    source = SOURCE_TEMPLATE.format(expr="a .* b + a")
    outcomes = {
        "truth": digest(run_engine(run_interp, source, [a, b, a], fusion=False)),
        "fast": digest(run_engine(run_interp, source, [a, b, a], fusion=True)),
        "unfused": digest(run_engine(run_jit, source, [a, b, a], fusion=False)),
        "fused": digest(run_engine(run_jit, source, [a, b, a], fusion=True)),
    }
    assert len(set(outcomes.values())) == 1, outcomes


FIXED_POINTS = [
    ("sqrt(a .* b) + abs(b) .^ a", np.full(shape_a, 2.0), np.full(shape_b, -3.0))
    for shape_a, shape_b in [((0, 0), (0, 0)), ((1, 1), (2, 2)),
                             ((2, 2), (1, 1)), ((1, 1), (1, 1))]
] + [
    # A real scalar NaN whose sign range inference cannot prove: the
    # complex-widening scalar helpers (rt.c_log / rt.c_sqrt) must answer
    # the interpreter's real NaN, not cmath's nan+nanj.
    ("log(abs(a) + 1.0) .* b - c", float("nan"), 0.0),
    ("log(a) + sqrt(a) .* b", float("nan"), 0.0),
]


@pytest.mark.parametrize("expr,a,b", FIXED_POINTS)
def test_empty_and_scalar_fixed_points(expr, a, b):
    """Deterministic spot checks of the hairiest shapes and payloads."""
    a, b = from_python(a), from_python(b)
    source = SOURCE_TEMPLATE.format(expr=expr)
    truth = run_engine(run_interp, source, [a, b, b], fusion=False)
    fused = run_engine(run_jit, source, [a, b, b], fusion=True)
    assert digest(fused, canonical=True) == digest(truth, canonical=True)


# ----------------------------------------------------------------------
# Buffer reuse: a large dead temporary takes its parent's result
# ----------------------------------------------------------------------
#: Trees whose ``+ - .* * ./ /`` nodes take temporaries on either side
#: (on the right of ``-`` and ``./`` too), temporaries that ``.^``, a
#: builtin and a comparison produced, and temporaries beside raw scalars.
REUSE_TEMPLATES = (
    "a - b .* c",
    "a ./ (b + c)",
    "(a + b) .* (c - a)",
    "(a .* b) ./ c + a",
    "2.0 ./ (a - b) - c .* 3.0",
    "(a + b) * 0.5 - c / 2.0",
    "(a - b) .^ 2.0 - c",
    "abs(a - b) ./ (c + a)",
    "(a < b) - c .* a",
    "0.5 .* (a + b) + c .* (b - a)",
)

#: The smallest temporary the kernels reuse, and a matrix of that size.
REUSE_SHAPES = ((1, REUSE_MIN_ELEMENTS), (128, REUSE_MIN_ELEMENTS // 128))

REUSE_SPECIALS = np.array(
    [0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf], dtype=np.float64)


def large_operand(kind: str, shape, seed: int):
    """Random payloads with the specials sprinkled in; a complex
    operand's imaginary parts are never zero."""
    rng = np.random.default_rng(seed)
    count = shape[0] * shape[1]

    def payload():
        values = rng.standard_normal(count) * 4.0
        spots = rng.integers(0, count, size=16)
        values[spots] = rng.choice(REUSE_SPECIALS, size=16)
        return values.reshape(shape)

    if kind == "real":
        return from_python(payload())
    imags = rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1.0, 1.0], shape)
    return from_python(payload() + 1j * imags)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_reused_buffers_bit_identical_and_private(data):
    """At and past the reuse size, every engine answers the unfused
    interpreter's bits, leaves every operand's buffer as it was, and
    returns a buffer no operand shares."""
    template = data.draw(st.sampled_from(REUSE_TEMPLATES), label="template")
    shape = data.draw(st.sampled_from(REUSE_SHAPES), label="shape")
    args = []
    for slot in "abc":
        kind = data.draw(st.sampled_from(["real", "complex"]),
                         label=f"{slot}_kind")
        # A 1x1 operand on either side of an op, now and then.
        here = data.draw(st.sampled_from([shape, shape, (1, 1)]),
                         label=f"{slot}_shape")
        args.append(large_operand(kind, here, data.draw(
            st.integers(0, 2**16), label=f"{slot}_seed")))
    before = [arg.view().tobytes() for arg in args]
    source = SOURCE_TEMPLATE.format(expr=template)

    truth = run_engine(run_interp, source, args, fusion=False)
    assert truth[0] == "ok", truth
    for label, runner, kwargs in (
        ("interpreter fast path", run_interp, {"fusion": True}),
        ("fused JIT", run_jit, {"fusion": True}),
    ):
        outcome = run_engine(runner, source, args, **kwargs)
        assert digest(outcome) == digest(truth), (
            f"{label} diverged on {template}")
        result = outcome[1].view()
        assert not any(
            np.shares_memory(result, arg.view()) for arg in args
        ), f"{label} returned an operand's buffer on {template}"
        assert [arg.view().tobytes() for arg in args] == before, (
            f"{label} wrote into an operand on {template}")


# ----------------------------------------------------------------------
# The operator table, one row at a time
# ----------------------------------------------------------------------
#: Signed zeros, infinities, NaN, negatives, halves and integers.
ROW_REALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -3.0, -1.0, -0.5, 0.5, 1.0, 1.5,
     2.0, -2.5, 3.0])

#: Every ordered pair of ``ROW_REALS``, as two 1xN operands.
PAIR_X = np.repeat(ROW_REALS, ROW_REALS.size).reshape(1, -1)
PAIR_Y = np.tile(ROW_REALS, ROW_REALS.size).reshape(1, -1)

#: Imaginary parts for the complex operands: never zero, so the operands
#: stay complex once boxed.
ROW_IMAGS = np.array([1.0, -1.0, 0.5, -2.5, np.inf, np.nan, 3.0])


def _complex(reals):
    imags = np.resize(ROW_IMAGS, reals.size).reshape(reals.shape)
    return reals + 1j * imags


def row_tree(op):
    """The one-node tree of a row, over boxed leaves."""
    arity = 1 if OPS[op].opname is None else 2
    return Node(op, tuple(Leaf(i) for i in range(arity)))


def row_kernel(op, descs):
    """The row's NumPy kernel, built outside the process-wide cache."""
    source = generate_source("row", row_tree(op), descs)
    return bind_kernel("row", compile_kernel("row", source))


def unfused(op, *args):
    """What the interpreter's unfused chain computes for ``op``."""
    if op == "u-":
        return ew.mlf_uminus(*args)
    if op == "u~":
        return ew.mlf_not(*args)
    if OPS[op].opname is None:
        return call_builtin(op, list(args))[0]
    return Interpreter._BINOPS[op](*args)


def outcome_of(call, *args):
    try:
        return ("ok",) + bits(call(*args))
    except Exception as exc:  # noqa: BLE001 - raising is an outcome
        return ("raised", type(exc).__name__, str(exc))


def row_cases(op):
    """``(descs, kernel operands, unfused operands)`` for one row: real
    and complex operands, arrays against arrays and against every
    special as a 1x1 box and as a raw scalar.  ``*`` and ``/`` fuse only
    with a scalar on the right, so they get no array pair."""
    if OPS[op].opname is None:
        for x in (ROW_REALS.reshape(1, -1), _complex(ROW_REALS.reshape(1, -1))):
            yield ("b",), [from_python(x)], [from_python(x)]
        return
    for x, y in ((PAIR_X, PAIR_Y), (_complex(PAIR_X), _complex(PAIR_Y[:, ::-1]))):
        if op not in ("*", "/"):
            yield ("b", "b"), [from_python(x), from_python(y)], [
                from_python(x), from_python(y)]
        x = x[:, :ROW_REALS.size]
        for value in y.ravel()[:ROW_REALS.size]:
            value = value.item()
            yield ("b", "b"), [from_python(x), from_python(value)], [
                from_python(x), from_python(value)]
            yield ("b", "s"), [from_python(x), value], [
                from_python(x), make_scalar(value)]


@pytest.mark.parametrize("op", OPS)
def test_table_row_bit_identical_to_unfused_chain(op):
    """Each row's NumPy statement answers the unfused ``mlf_*`` helper's
    or the builtin's bits, or raises what it raises."""
    kernels = {}
    for descs, fused_args, plain_args in row_cases(op):
        kernel = kernels.get(descs) or kernels.setdefault(
            descs, row_kernel(op, descs))
        want = outcome_of(unfused, op, *plain_args)
        got = outcome_of(kernel, *fused_args)
        assert got == want, (op, descs, fused_args)
