"""Differential testing: grammar fuzzer + hypothesis properties.

Two generations of the same idea live here:

* The **grammar fuzzer** (:mod:`repro.fuzz`): seeded random programs —
  scalars and matrices, elementwise chains, ``for``/``while``/``if``,
  slicing, stores, a curated builtin set, ``rand`` draws, side effects
  before a failure — run on *every* backend (interpreter, JIT, fused,
  spec, background, FALCON, mcc, parallel, adaptive) asserting
  identical outputs, display text, error messages and random-stream
  post-state.  The fast lane checks a bounded seed range; the slow lane
  (``-m slow``) goes deep.  Reproduce any failure with
  ``python -m repro.fuzz --seed N --count 1``.
* The original **hypothesis properties**, kept as a second independent
  generator over the interpreter/JIT/spec trio.

Both compare whole :class:`repro.backends.Observation` values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import Program, observe, reference
from repro.fuzz import check_program, generate_program
from repro.fuzz.runner import DEFAULT_BACKENDS
from repro.runtime.values import from_python

# ----------------------------------------------------------------------
# Grammar fuzzer lanes
# ----------------------------------------------------------------------
FAST_SEEDS = range(0, 12)
DEEP_SEEDS = range(12, 112)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_fuzz_all_backends_bit_identical(seed):
    mismatches = check_program(generate_program(seed))
    assert not mismatches, "\n".join(str(m) for m in mismatches)


@pytest.mark.slow
@pytest.mark.parametrize("seed", DEEP_SEEDS)
def test_fuzz_deep_lane(seed):
    mismatches = check_program(generate_program(seed))
    assert not mismatches, "\n".join(str(m) for m in mismatches)


def test_fuzz_generator_is_deterministic():
    one, two = generate_program(42), generate_program(42)
    assert one.source == two.source
    assert one.args == two.args


def test_fuzz_grammar_reaches_key_features():
    """Across a seed window the generator must exercise the constructs
    the fuzzer exists for (fused elementwise chains, slicing, stores,
    control flow, display and error paths)."""
    seen = set()
    for seed in range(0, 60):
        seen.update(generate_program(seed).features)
    for feature in ("elementwise", "slice", "store", "while", "display",
                    "error", "reduce", "multi-assign-indexed",
                    "ambiguous-builtin", "ambiguous-call"):
        assert feature in seen, f"grammar never produced {feature!r}"


def test_fuzz_backend_labels_cover_every_engine():
    assert set(DEFAULT_BACKENDS) == {
        "jit", "spill", "fused", "spec", "background", "falcon", "mcc",
        "parallel", "adaptive",
    }

# ----------------------------------------------------------------------
# A tiny random-program generator
# ----------------------------------------------------------------------
VARS = ["a", "b", "c"]

scalars = st.sampled_from(["x", "y", "a", "b", "c", "2", "3", "0.5"])
binops = st.sampled_from(["+", "-", "*", "/"])


@st.composite
def scalar_exprs(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(scalars)
    op = draw(binops)
    left = draw(scalar_exprs(depth=depth - 1))
    right = draw(scalar_exprs(depth=depth - 1))
    if op == "/":
        # Keep divisors away from zero.
        right = f"({right} + 7)"
    return f"({left} {op} {right})"


@st.composite
def statements(draw, depth=1):
    kind = draw(
        st.sampled_from(["assign", "assign", "assign", "if", "for", "store"])
        if depth > 0
        else st.sampled_from(["assign", "store"])
    )
    if kind == "assign":
        target = draw(st.sampled_from(VARS))
        return f"{target} = {draw(scalar_exprs())};"
    if kind == "store":
        index = draw(st.integers(1, 4))
        return f"v({index}) = {draw(scalar_exprs())};"
    if kind == "if":
        cond = f"{draw(scalar_exprs(depth=1))} > {draw(scalar_exprs(depth=0))}"
        then = draw(statements(depth=0))
        orelse = draw(statements(depth=0))
        return f"if {cond},\n  {then}\nelse\n  {orelse}\nend"
    body = draw(statements(depth=0))
    stop = draw(st.integers(1, 5))
    return f"for k = 1:{stop},\n  {body}\n  a = a + k;\nend"


@st.composite
def programs(draw):
    lines = [
        "function [r, v] = randprog(x, y)",
        "a = x; b = y; c = x - y;",
        "v = zeros(1, 4);",
    ]
    for _ in range(draw(st.integers(1, 5))):
        lines.append(draw(statements()))
    lines.append("r = a + b + c + sum(v);")
    return "\n".join(lines) + "\n"


def assert_backends_agree(source, entry, host_args, nargout=1,
                          backends=("fused", "spec")):
    program = Program(
        (source,), entry, lambda: [from_python(a) for a in host_args], nargout
    )
    for backend in backends:
        diverged = reference(program).diff(observe(program, backend))
        assert not diverged, (backend, diverged, source, host_args)


@settings(max_examples=60, deadline=None)
@given(
    programs(),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
)
def test_interpreter_jit_speculative_agree(source, x, y):
    assert_backends_agree(source, "randprog", (x, y), nargout=2)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
def test_growth_pattern_agrees(rows, cols):
    """Dynamic array growth (oversizing path) across engines."""
    source = (
        "function A = growit(r, c)\n"
        "A = zeros(1, 1);\n"
        "for i = 1:r,\n  for j = 1:c,\n    A(i, j) = i * 10 + j;\n"
        "  end\nend\n"
    )
    assert_backends_agree(source, "growit", (rows, cols), backends=("fused",))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6))
def test_vector_argument_agrees(values):
    source = (
        "function s = vecsum(v)\n"
        "s = 0;\n"
        "for i = 1:length(v),\n  s = s + v(i) * i;\nend\n"
    )
    assert_backends_agree(source, "vecsum", ([values],), backends=("fused",))
