"""Property tests for the responsiveness machinery.

Two properties, both stated by ISSUE 2:

1. **Interleaving convergence** — any random interleaving of
   define / redefine / call / speculate operations against a session with
   the *background* engine produces exactly the values a fully
   synchronous session produces.  Background compilation is an
   optimization; scheduling must never be observable in results.

2. **Cache losslessness** — the persistent cache's serialization layer
   round-trips arbitrary :class:`MxArray` shapes, dtypes and intrinsic
   classes bit-for-bit (including NaN/inf payloads and logical-size vs.
   capacity distinctions).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SPARC, MajicSession
from repro.repository.cache import deserialize_payload, serialize_payload
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import from_ndarray, from_python, make_string

# ----------------------------------------------------------------------
# Property 1: define/redefine/call/speculate interleavings converge
# ----------------------------------------------------------------------
NAMES = ("f0", "f1", "f2")
#: Hypothesis runs hundreds of sessions: leave the host recursion limit be.
KEEP_LIMIT = replace(SPARC, host_recursion_limit=0)

#: Source template variants; redefinition picks a different variant.
TEMPLATES = (
    "function y = {name}(x)\ny = x * {k} + 1;\n",
    "function y = {name}(x)\ny = x + {k};\n",
    "function y = {name}(x)\ny = x.^2 - {k};\n",
    "function y = {name}(x)\nif x > {k},\n  y = x - {k};\nelse\n  y = x + {k};\nend\n",
)


def _source(name: str, variant: int, k: int) -> str:
    return TEMPLATES[variant % len(TEMPLATES)].format(name=name, k=k)


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("define"),
            st.sampled_from(NAMES),
            st.integers(0, len(TEMPLATES) - 1),
            st.integers(1, 5),
        ),
        st.tuples(st.just("call"), st.sampled_from(NAMES), st.integers(-4, 9)),
        st.tuples(st.just("speculate")),
    ),
    min_size=1,
    max_size=12,
)


def _apply(session: MajicSession, script, background: bool):
    """Run one op sequence; returns every observable value produced."""
    defined: set[str] = set()
    observed: list = []
    for op in script:
        if op[0] == "define":
            _, name, variant, k = op
            session.add_source(_source(name, variant, k))
            defined.add(name)
        elif op[0] == "call":
            _, name, arg = op
            if name in defined:
                observed.append(session.call(name, arg))
        elif op[0] == "speculate":
            if background:
                session.speculate_async()
            else:
                session.speculate_all()
    if background:
        assert session.drain_speculation(timeout=60), "speculation queue hung"
    # Final sweep: after draining, every function must still agree.
    for name in sorted(defined):
        observed.append(session.call(name, 3))
    return observed


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=ops, workers=st.integers(1, 3))
def test_interleavings_converge_to_synchronous_results(script, workers):
    sync = MajicSession(platform=KEEP_LIMIT)
    expected = _apply(sync, script, background=False)
    with MajicSession(
        background=True, workers=workers, platform=KEEP_LIMIT
    ) as session:
        actual = _apply(session, script, background=True)
    assert actual == expected


@pytest.mark.slow
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=ops, workers=st.integers(1, 4))
def test_interleavings_converge_exhaustive(script, workers):
    sync = MajicSession(platform=KEEP_LIMIT)
    expected = _apply(sync, script, background=False)
    with MajicSession(
        background=True, workers=workers, platform=KEEP_LIMIT
    ) as session:
        actual = _apply(session, script, background=True)
    assert actual == expected


# ----------------------------------------------------------------------
# Property 2: the cache round-trips arbitrary MxArrays losslessly
# ----------------------------------------------------------------------
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
any_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


@st.composite
def mxarrays(draw) -> MxArray:
    kind = draw(st.sampled_from(["real", "complex", "bool", "int", "string"]))
    if kind == "string":
        text = draw(st.text(min_size=0, max_size=20))
        return make_string(text)
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    if kind == "bool":
        data = np.array(
            draw(
                st.lists(
                    st.booleans(), min_size=rows * cols, max_size=rows * cols
                )
            ),
            dtype=np.bool_,
        ).reshape(rows, cols)
        return from_ndarray(data)
    if kind == "int":
        data = np.array(
            draw(
                st.lists(
                    st.integers(-(2**31), 2**31),
                    min_size=rows * cols,
                    max_size=rows * cols,
                )
            ),
            dtype=np.float64,
        ).reshape(rows, cols)
        return from_ndarray(data)
    if kind == "complex":
        reals = draw(
            st.lists(any_floats, min_size=rows * cols, max_size=rows * cols)
        )
        imags = draw(
            st.lists(any_floats, min_size=rows * cols, max_size=rows * cols)
        )
        data = np.empty(rows * cols, dtype=np.complex128)
        data.real = np.array(reals, dtype=np.float64)
        data.imag = np.array(imags, dtype=np.float64)
        return MxArray(IntrinsicClass.COMPLEX, data.reshape(rows, cols))
    data = np.array(
        draw(st.lists(any_floats, min_size=rows * cols, max_size=rows * cols)),
        dtype=np.float64,
    ).reshape(rows, cols)
    return from_ndarray(data)


def _bit_identical(a: MxArray, b: MxArray) -> bool:
    if a.klass is not b.klass or a.rows != b.rows or a.cols != b.cols:
        return False
    va, vb = np.asarray(a.view()), np.asarray(b.view())
    if va.shape != vb.shape or va.dtype != vb.dtype:
        return False
    return va.tobytes() == vb.tobytes()  # NaN payloads included


@settings(max_examples=80, deadline=None)
@given(value=mxarrays())
def test_cache_round_trips_mxarrays_losslessly(value):
    revived = deserialize_payload(serialize_payload(value))
    assert isinstance(revived, MxArray)
    assert _bit_identical(value, revived)
    if value.is_string:
        assert revived.text == value.text


@settings(max_examples=30, deadline=None)
@given(values=st.lists(mxarrays(), min_size=0, max_size=4))
def test_cache_round_trips_mxarray_containers(values):
    revived = deserialize_payload(serialize_payload(values))
    assert len(revived) == len(values)
    for before, after in zip(values, revived):
        assert _bit_identical(before, after)


def test_oversized_array_round_trip_keeps_logical_size():
    """Capacity slack (the oversizing optimization) must not leak into
    the logical dimensions across a round trip."""
    value = from_python(np.zeros((2, 2)))
    grown = value.copy()
    grown.set2(3, 3, 7.0)  # grows, possibly with slack capacity
    revived = deserialize_payload(serialize_payload(grown))
    assert (revived.rows, revived.cols) == (grown.rows, grown.cols)
    assert _bit_identical(grown, revived)
