"""MxArray runtime tests: subscripts, growth, oversizing, class tags."""

import pickle
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backends
from repro.backends import Program
from repro.codegen import runtime_support
from repro.errors import DimensionError, MatlabError, SubscriptError
from repro.kernels import DESC_BOXED, KERNEL_CACHE, Leaf, Node
from repro.runtime import elementwise as ew
from repro.runtime import linalg
from repro.runtime import mxarray as mxarray_module
from repro.runtime.builtins import call_builtin
from repro.runtime.display import format_value
from repro.runtime.mxarray import IntrinsicClass, MxArray, classify_ndarray
from repro.runtime.values import (
    empty,
    from_ndarray,
    from_python,
    make_bool,
    make_matrix,
    make_scalar,
    make_string,
    to_python,
)


class TestConstruction:
    def test_scalar_int_class(self):
        assert make_scalar(3).klass is IntrinsicClass.INT

    def test_scalar_real_class(self):
        assert make_scalar(3.5).klass is IntrinsicClass.REAL

    def test_scalar_complex(self):
        assert make_scalar(1 + 2j).klass is IntrinsicClass.COMPLEX

    def test_complex_with_zero_imag_is_real(self):
        value = make_scalar(complex(2.0, 0.0))
        assert value.klass is IntrinsicClass.INT

    def test_bool(self):
        b = make_bool(True)
        assert b.klass is IntrinsicClass.BOOL and b.scalar() == 1.0

    def test_matrix_shape(self):
        m = make_matrix([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)

    def test_ragged_matrix_rejected(self):
        with pytest.raises(DimensionError):
            make_matrix([[1, 2], [3]])

    def test_empty(self):
        e = empty()
        assert e.is_empty and e.shape == (0, 0)

    def test_string(self):
        s = make_string("abc")
        assert s.is_string and s.cols == 3

    def test_from_python_roundtrip_scalar(self):
        assert to_python(from_python(2.5)) == 2.5

    def test_from_python_roundtrip_matrix(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(to_python(from_python(data)), data)

    def test_from_python_list(self):
        assert from_python([1, 2, 3]).shape == (1, 3)

    def test_from_python_string(self):
        assert to_python(from_python("hi")) == "hi"


class TestScalarQueries:
    def test_scalar_extraction(self):
        assert make_scalar(7).scalar() == 7.0

    def test_scalar_of_matrix_raises(self):
        with pytest.raises(DimensionError):
            make_matrix([[1, 2]]).scalar()

    def test_bool_value_nonzero(self):
        assert make_scalar(3).bool_value() is True
        assert make_scalar(0).bool_value() is False

    def test_bool_value_matrix_all(self):
        assert make_matrix([[1, 2]]).bool_value() is True
        assert make_matrix([[1, 0]]).bool_value() is False

    def test_bool_value_empty(self):
        assert empty().bool_value() is False


class TestIndexing:
    def test_linear_load_column_major(self):
        m = make_matrix([[1, 2], [3, 4]])
        # Column-major: A(2) is row 2 column 1.
        assert m.get_linear(2) == 3.0

    def test_get2(self):
        m = make_matrix([[1, 2], [3, 4]])
        assert m.get2(1, 2) == 2.0

    def test_load_out_of_bounds(self):
        with pytest.raises(SubscriptError):
            make_matrix([[1, 2]]).get_linear(3)

    def test_load_zero_index(self):
        with pytest.raises(SubscriptError):
            make_matrix([[1, 2]]).get_linear(0)

    def test_load_fractional_index(self):
        with pytest.raises(SubscriptError):
            make_matrix([[1, 2]]).get_linear(1.5)

    def test_store_in_bounds(self):
        m = make_matrix([[1.0, 2.0]])
        m.set_linear(2, 9.0)
        assert m.get_linear(2) == 9.0


class TestGrowth:
    def test_vector_grows_on_store(self):
        v = make_matrix([[1.0, 2.0]])
        v.set_linear(5, 7.0)
        assert v.shape == (1, 5)
        assert v.get_linear(3) == 0.0  # zero fill
        assert v.get_linear(5) == 7.0

    def test_column_vector_grows_down(self):
        v = make_matrix([[1.0], [2.0]])
        v.set_linear(4, 9.0)
        assert v.shape == (4, 1)

    def test_matrix_linear_growth_rejected(self):
        m = make_matrix([[1, 2], [3, 4]])
        with pytest.raises(SubscriptError):
            m.set_linear(5, 1.0)

    def test_matrix_2d_growth(self):
        m = make_matrix([[1.0]])
        m.set2(3, 4, 5.0)
        assert m.shape == (3, 4)
        assert m.get2(3, 4) == 5.0
        assert m.get2(2, 2) == 0.0

    def test_growth_from_empty(self):
        e = empty()
        e.set_linear(3, 1.0)
        assert e.shape == (1, 3)

    def test_oversizing_capacity_exceeds_shape(self):
        m = make_matrix([[0.0] * 4] * 4)
        m.set2(10, 10, 1.0)
        cap = m.capacity
        assert cap[0] >= 10 and cap[1] >= 10
        # The paper: "about 10% more space ... than strictly necessary".
        assert cap[0] > 10 or cap[1] > 10

    def test_oversized_size_queries_stay_accurate(self):
        m = make_matrix([[0.0] * 4] * 4)
        m.set2(10, 10, 1.0)
        assert m.shape == (10, 10)  # never reports the slack

    def test_growth_within_capacity_keeps_buffer(self):
        m = make_matrix([[0.0] * 4] * 4)
        m.set2(10, 10, 1.0)
        buffer = m.data
        m.set2(11, 10, 2.0)  # fits the oversized capacity
        assert m.data is buffer

    def test_grow_zero_fills_exposed_region(self):
        m = make_matrix([[1.0, 1.0], [1.0, 1.0]])
        m.set2(3, 3, 5.0)
        m.set2(4, 4, 6.0)
        assert m.get2(3, 1) == 0.0
        assert m.get2(4, 3) == 0.0


class TestClassWidening:
    def test_real_store_widens_int_array(self):
        m = make_matrix([[1, 2]])
        assert m.klass is IntrinsicClass.INT
        m.set_linear(1, 0.5)
        assert m.klass is IntrinsicClass.REAL

    def test_complex_store_widens_buffer(self):
        m = make_matrix([[1.0, 2.0]])
        m.set_linear(1, 1 + 2j)
        assert m.klass is IntrinsicClass.COMPLEX
        assert m.get_linear(1) == 1 + 2j

    def test_complex_with_zero_imag_stored_as_real(self):
        m = make_matrix([[1.0, 2.0]])
        m.set_linear(1, complex(5.0, 0.0))
        assert m.klass is not IntrinsicClass.COMPLEX
        assert m.get_linear(1) == 5.0


class TestCopy:
    def test_copy_is_independent(self):
        a = make_matrix([[1.0, 2.0]])
        b = a.copy()
        a.set_linear(1, 9.0)
        assert b.get_linear(1) == 1.0

    def test_copy_drops_capacity_slack(self):
        a = make_matrix([[0.0] * 4] * 4)
        a.set2(10, 10, 1.0)
        b = a.copy()
        assert b.capacity == b.shape

    def test_equality(self):
        assert make_matrix([[1, 2]]) == make_matrix([[1, 2]])
        assert make_matrix([[1, 2]]) != make_matrix([[1, 3]])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(make_scalar(1))


# ----------------------------------------------------------------------
# The class contract (DESIGN.md, "Value runtime"): BOOL / COMPLEX / STRING
# are explicit tags following the eager store rules; INT-vs-REAL is
# answered from the data on a ``klass`` read, so at every read it equals
# ``classify_ndarray(view())``.  ``repro.backends.Observation`` does not
# compare classes — these properties are the net.
# ----------------------------------------------------------------------
REALISH = "int-or-real"   # the model's name for "not BOOL / COMPLEX / STRING"
_STORED = st.sampled_from([
    0.0, 1.0, 2.0, -3.0, 0.5, float("nan"), float("inf"), True,
    complex(1.0, 2.0), complex(1.0, 0.0),
])
_SUBSCRIPT = st.integers(1, 4)
_START = st.sampled_from([
    np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.5, 1.0, 4.0]]),
    np.array([[7.0]]), np.array([[0.25]]), np.zeros((0, 0)),
    np.array([[True, False, True]]), np.array([[1.0 + 2.0j, 3.0]]),
    "text",
])
_STEP = st.one_of(
    st.tuples(st.sampled_from(["plus", "times", "lt", "not", "copy",
                               "pickle", "read"]), _STORED),
    st.tuples(st.just("set2"), _SUBSCRIPT, _SUBSCRIPT, _STORED),
    st.tuples(st.just("set_linear"), _SUBSCRIPT, _STORED),
    st.tuples(st.just("mlf_store"),
              st.lists(_SUBSCRIPT, min_size=1, max_size=3), _STORED),
)


def _complex_valued(value) -> bool:
    return isinstance(value, complex) and value.imag != 0.0


def _model_after_store(model, value, elementwise_rule: bool):
    """The eager rules: what BOOL / COMPLEX become under a store."""
    if model is IntrinsicClass.COMPLEX or _complex_valued(value):
        return IntrinsicClass.COMPLEX
    if (
        elementwise_rule                      # set2 / set_linear keep a mask
        and model is IntrinsicClass.BOOL      # logical under a 0/1 store;
        and complex(value).real in (0.0, 1.0)  # mlf_store never does
    ):
        return IntrinsicClass.BOOL
    return REALISH


@contextmanager
def counted_classifications():
    """The shapes ``MxArray.klass`` hands to ``classify_ndarray`` inside
    the block, in order."""
    calls = []

    def counting(data):
        calls.append(data.shape)
        return classify_ndarray(data)

    with mock.patch.object(mxarray_module, "classify_ndarray", counting):
        yield calls


@settings(max_examples=300, deadline=None, derandomize=True)
@given(start=_START, steps=st.lists(_STEP, max_size=8), reads=st.data())
def test_class_contract_over_histories(start, steps, reads):
    with counted_classifications() as classified:
        _run_history(start, steps, reads, classified)


def _run_history(start, steps, reads, classified):
    box = from_python(start)
    if box.is_string:
        model = IntrinsicClass.STRING
    elif box.tag in (IntrinsicClass.BOOL, IntrinsicClass.COMPLEX):
        model = box.tag
    else:
        model = REALISH

    def check(read_class: bool) -> None:
        # BOOL? / COMPLEX? / STRING? is on the tag, at no classification.
        before = len(classified)
        if model is REALISH:
            assert box.tag in (None, IntrinsicClass.INT, IntrinsicClass.REAL)
        else:
            assert box.tag is model
        assert box.is_string == (model is IntrinsicClass.STRING)
        box.copy()
        to_python(box)
        format_value(box, "x")
        call_builtin("isreal", [box])
        pickle.dumps(box)
        if box.is_scalar:
            box.scalar()
        assert len(classified) == before
        if read_class and model is REALISH:
            assert box.klass is classify_ndarray(box.view())
            assert box.klass is box.tag, "the answer is cached"

    check(read_class=True)
    for step in steps:
        op, value = step[0], step[-1]
        operand = from_python(value)
        stores = op in ("set2", "set_linear", "mlf_store")
        if stores and model is IntrinsicClass.STRING:
            continue    # char arrays are not stored into
        if op in ("plus", "times"):
            fn = ew.mlf_plus if op == "plus" else ew.mlf_times
            box = fn(box, operand)
            model = (
                IntrinsicClass.COMPLEX
                if model is IntrinsicClass.COMPLEX or _complex_valued(value)
                else REALISH
            )
        elif op == "lt":
            box, model = ew.mlf_lt(box, operand), IntrinsicClass.BOOL
        elif op == "not":
            box, model = ew.mlf_not(box), IntrinsicClass.BOOL
        elif op == "copy":
            box = box.copy()
        elif op == "pickle":
            tag = box.tag
            box = pickle.loads(pickle.dumps(box))
            assert box.tag is tag, "an unanswered class travels unanswered"
        elif op == "read":
            box.klass
        elif op == "mlf_store":
            index = from_python([float(k) for k in step[1]])
            try:
                box = ew.mlf_store(box, operand, index)
            except MatlabError:
                continue    # a matrix cannot grow linearly
            model = _model_after_store(model, value, elementwise_rule=False)
        else:
            try:
                if op == "set2":
                    box.set2(step[1], step[2], value)
                else:
                    box.set_linear(step[1], value)
            except MatlabError:
                continue
            model = _model_after_store(model, value, elementwise_rule=True)
        check(read_class=reads.draw(st.booleans()))
    check(read_class=True)


def _fused(op_tree, *operands):
    kernel = KERNEL_CACHE.get_or_compile(op_tree, (DESC_BOXED,) * len(operands))
    return kernel.fn(*operands)


def _builtin(name, *args):
    return call_builtin(name, list(args))[0]


def _span(count):
    return ew.mlf_colon(make_scalar(1), make_scalar(count))


def _first_column(a):
    return ew.mlf_index(a, _span(a.rows), make_scalar(1))


#: name -> (a, b) -> result box, for square ``a`` and ``b`` of one shape:
#: every producer that boxes its result without a copy, and the ones that
#: must keep copying because NumPy hands them the operand back
#: (``matrix_power(A, 1)``, ``reshape``, ``real`` of real data, ``diag``).
PRODUCERS = {
    "plus": ew.mlf_plus, "minus": ew.mlf_minus, "times": ew.mlf_times,
    "rdivide": ew.mlf_rdivide, "power": ew.mlf_power,
    "mtimes": ew.mlf_mtimes, "mldivide": ew.mlf_mldivide,
    "mpower-1": lambda a, b: ew.mlf_mpower(a, make_scalar(1)),
    "uminus": lambda a, b: ew.mlf_uminus(a),
    "uplus": lambda a, b: ew.mlf_uplus(a),
    "transpose": lambda a, b: ew.mlf_transpose(a),
    "ctranspose": lambda a, b: ew.mlf_ctranspose(b),
    "lt": ew.mlf_lt, "eq": ew.mlf_eq, "and": ew.mlf_and,
    "not": lambda a, b: ew.mlf_not(a),
    "horzcat": lambda a, b: ew.mlf_horzcat([a, b]),
    "horzcat-1": lambda a, b: ew.mlf_horzcat([a]),
    "vertcat": lambda a, b: ew.mlf_vertcat([a, b]),
    "index": lambda a, b: ew.mlf_index(a, _span(a.numel)),
    "index2": lambda a, b: ew.mlf_index(a, _span(a.rows), _span(a.cols)),
    "index-all": lambda a, b: ew.mlf_index_all(a),
    "store": lambda a, b: ew.mlf_store(a.copy(), b, _span(a.numel)),
    "kernel": lambda a, b: _fused(
        Node("+", (Node(".*", (Leaf(0), Leaf(1))), Leaf(0))), a, b),
    "kernel-conj": lambda a, b: _fused(Node("conj", (Leaf(0),)), a),
    "kernel-abs": lambda a, b: _fused(Node("abs", (Leaf(0),)), b),
    "dgemv": lambda a, b: linalg.dgemv(
        2.0, a, _first_column(b), 1.0, _first_column(a)),
    "rt.dgemv": lambda a, b: runtime_support.dgemv(
        1.0, a, _first_column(b), 0.0, None),
    "dgemm": lambda a, b: linalg.dgemm(1.0, a, b, 1.0, a),
    "inv": lambda a, b: linalg.inv(
        ew.mlf_plus(a, ew.mlf_times(_builtin("eye", make_scalar(a.rows)),
                                    make_scalar(50)))),
    "hcat-raw": lambda a, b: runtime_support.hcat(1.0, 2.5, a.get2(1, 1)),
    "reshape": lambda a, b: _builtin(
        "reshape", a, make_scalar(a.rows), make_scalar(a.cols)),
    "real": lambda a, b: _builtin("real", a),
    "abs": lambda a, b: _builtin("abs", a),
    "cumsum": lambda a, b: _builtin("cumsum", a),
    "diag": lambda a, b: _builtin("diag", a),
    "tril": lambda a, b: _builtin("tril", a),
    "sort": lambda a, b: _builtin("sort", a),
    "max2": lambda a, b: _builtin("max", a, b),
}

_cell = st.sampled_from([0.0, 1.0, -2.0, 0.5, 3.25])


@st.composite
def _square_pair(draw):
    n = draw(st.integers(1, 3))
    def matrix():
        flat = draw(st.lists(_cell, min_size=n * n, max_size=n * n))
        data = np.array(flat).reshape(n, n)
        if draw(st.booleans()):
            data = data + 1j * np.array(
                draw(st.lists(_cell, min_size=n * n, max_size=n * n))
            ).reshape(n, n)
        return from_python(data)
    return matrix(), matrix()


def _bytes(box: MxArray) -> tuple:
    view = np.ascontiguousarray(box.view())
    return (view.shape, view.dtype.str, view.tobytes())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair=_square_pair())
def test_no_result_aliases_an_operand_or_another_result(pair):
    """What boxing a fresh buffer without a copy could break: a result is
    mutated in place and something else moves with it."""
    a, b = pair
    live = {"a": a, "b": b}
    with np.errstate(all="ignore"):
        for name, produce in PRODUCERS.items():
            try:
                live[name] = produce(a, b)
            except MatlabError:
                pass    # singular systems and the like: nothing to alias
    for name, box in live.items():
        for other_name, other in live.items():
            if other is not box:
                assert not np.shares_memory(box.data, other.data), (
                    f"{name} shares its buffer with {other_name}")
    before = {name: _bytes(box) for name, box in live.items()}
    for name, box in live.items():
        if name in ("a", "b") or box.is_empty:
            continue
        box.set2(1, 1, 12345.678)
        moved = [
            other for other in live
            if other != name and _bytes(live[other]) != before[other]
        ]
        assert not moved, f"mutating {name} through set2 moved {moved}"
        before[name] = _bytes(box)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair=_square_pair())
def test_every_result_is_c_ordered(pair):
    """The layout property: a box holds C-ordered data, as the
    interpreter's copy of every value it assigns does, so compiled code
    (which elides those copies) hands BLAS what the interpreter does.  A
    matrix product's last bit depends on its operands' layout."""
    a, b = pair
    with np.errstate(all="ignore"):
        for name, produce in PRODUCERS.items():
            try:
                box = produce(a, b)
            except MatlabError:
                continue
            assert box.data.flags.c_contiguous, name


def test_column_major_sources_box_c_ordered():
    # A caller's column-major array, and reshape's column-major result.
    fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    assert from_ndarray(fortran).data.flags.c_contiguous
    assert from_python(fortran).data.flags.c_contiguous
    shaped = _builtin(
        "reshape", from_python(np.arange(9.0).reshape(1, 9)),
        make_scalar(3), make_scalar(3),
    )
    assert shaped.data.flags.c_contiguous
    assert np.array_equal(shaped.view(), np.arange(9.0).reshape(3, 3).T)


#: program -> classify_ndarray calls in one steady JIT call at the
#: registry's smoke scale; the eager classifier this replaced made
#: 450 / 480 / 200 / 88 / 568.  The counts repeat exactly.  What is left is
#: what a signature read forces: ``cgopt``'s two array actuals (scalar
#: actuals are answered by ``float.is_integer``, not by the classifier).
STEADY_CLASSIFICATIONS = {
    "orbec": 0, "orbrk": 0, "fractal": 0, "fibonacci": 0, "cgopt": 2,
}


@pytest.mark.parametrize("name", STEADY_CLASSIFICATIONS)
def test_steady_call_classifies_only_for_a_signature(name):
    """The work ceiling of the lazy class, beside the inference solver's
    (``test_annotations_golden.py``): no boxed result is classified unless
    somebody reads its class."""
    with backends.open(Program.benchmark(name), "fused") as handle:
        handle.call()
        handle.call()
        with counted_classifications() as calls:
            handle.call()
    assert len(calls) == STEADY_CLASSIFICATIONS[name], calls
