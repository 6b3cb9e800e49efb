"""Runtime-support helper tests (the `rt` namespace of generated code)."""

import numpy as np
import pytest

from repro.codegen import runtime_support as rts
from repro.codegen.select import UNROLL_LIMIT
from repro.errors import RuntimeMatlabError, UndefinedSymbolError
from repro.runtime import elementwise as ew
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import (
    from_ndarray,
    from_python,
    make_matrix,
    make_scalar,
    to_python,
)


class TestPolymorphicOps:
    def test_raw_raw(self):
        assert rts.g_add(2.0, 3.0) == 5.0

    def test_raw_boxed(self):
        result = rts.g_add(1.0, make_matrix([[1, 2]]))
        assert np.array_equal(to_python(result), [[2, 3]])

    def test_mtimes_matrix(self):
        a = make_matrix([[1, 2], [3, 4]])
        result = rts.g_mul(a, a)
        assert np.array_equal(to_python(result), [[7, 10], [15, 22]])

    def test_pow_negative_fractional(self):
        result = rts.g_pow(-4.0, 0.5)
        assert isinstance(result, complex)

    def test_relational_raw(self):
        assert rts.g_lt(1.0, 2.0) == 1.0
        assert rts.g_ge(1.0, 2.0) == 0.0

    def test_neg_boxed(self):
        result = rts.g_neg(make_matrix([[1, -2]]))
        assert np.array_equal(to_python(result), [[-1, 2]])

    def test_transpose_raw_identity(self):
        assert rts.g_transpose(3.0) == 3.0
        assert rts.g_ctranspose(1 + 2j) == 1 - 2j


class TestUnboxTruth:
    def test_unbox_real_rejects_complex(self):
        with pytest.raises(RuntimeMatlabError):
            rts.unbox_real(1 + 2j)

    def test_unbox_real_accepts_zero_imag(self):
        assert rts.unbox_real(complex(3.0, 0.0)) == 3.0

    def test_truth_matrix(self):
        assert rts.truth(make_matrix([[1, 1]])) is True
        assert rts.truth(make_matrix([[1, 0]])) is False

    def test_truth_raw(self):
        assert rts.truth(2.5) and not rts.truth(0.0)


class TestIndexHelpers:
    def test_g_index_scalar_fast_path(self):
        a = make_matrix([[1, 2], [3, 4]])
        assert rts.g_index2(a, 2.0, 1.0) == 3.0
        assert rts.g_index1(a, 3.0) == 2.0  # column-major

    def test_g_index_colon(self):
        a = make_matrix([[1, 2], [3, 4]])
        col = rts.index_col(a, 2.0)
        assert np.array_equal(to_python(col), [[2], [4]])
        row = rts.index_row(a, 1.0)
        assert np.array_equal(to_python(row), [[1, 2]])

    def test_index_all(self):
        a = make_matrix([[1, 2], [3, 4]])
        assert np.array_equal(to_python(rts.index_all(a)), [[1], [3], [2], [4]])

    def test_g_store_creates_from_none(self):
        result = rts.g_store1(None, 3.0, 5.0)
        assert isinstance(result, MxArray)
        assert np.array_equal(result.view(), [[0, 0, 5]])

    def test_g_store2_grows(self):
        a = make_matrix([[1.0]])
        result = rts.g_store2(a, 2.0, 3.0, 9.0)
        assert result.shape == (2, 3)

    def test_end_dim(self):
        a = make_matrix([[1, 2, 3], [4, 5, 6]])
        assert rts.end_dim(a, 1) == 2
        assert rts.end_dim(a, 2) == 3
        assert rts.end_dim(a, 0) == 6


class TestIterationConstruction:
    def test_frange_ascending(self):
        assert list(rts.frange(1.0, 1.0, 3.0)) == [1.0, 2.0, 3.0]

    def test_frange_descending(self):
        assert list(rts.frange(3.0, -1.0, 1.0)) == [3.0, 2.0, 1.0]

    def test_frange_zero_step_empty(self):
        assert list(rts.frange(1.0, 0.0, 5.0)) == []

    def test_columns_row_vector_yields_raw(self):
        values = list(rts.columns(make_matrix([[1, 2, 3]])))
        assert values == [1, 2, 3]

    def test_columns_matrix_yields_boxed(self):
        cols = list(rts.columns(make_matrix([[1, 2], [3, 4]])))
        assert all(isinstance(c, MxArray) for c in cols)
        assert np.array_equal(to_python(cols[0]), [[1], [3]])

    def test_hcat_vcat(self):
        row = rts.hcat(1.0, 2.0, 3.0)
        assert np.array_equal(to_python(row), [[1, 2, 3]])
        mat = rts.vcat(row, row)
        assert mat.shape == (2, 3)

    def test_pack(self):
        # Row-major elements into a fresh array whose class is answered
        # from the data.
        mat = rts.pack(2, 3, 1, 2, 3, 4.5, 5, 6)
        assert mat.shape == (2, 3) and mat.data.dtype == np.float64
        assert np.array_equal(to_python(mat), [[1, 2, 3], [4.5, 5, 6]])
        assert mat.klass is IntrinsicClass.REAL
        assert rts.pack(1, 2, 1, 0).klass is IntrinsicClass.INT
        assert rts.pack(1, 2, 1, 2) is not rts.pack(1, 2, 1, 2)


class TestDgemv:
    def test_conformable_fast_path(self):
        a = make_matrix([[1, 2], [3, 4]])
        x = make_matrix([[1], [1]])
        y = make_matrix([[10], [10]])
        result = rts.dgemv(2.0, a, x, 1.0, y)
        assert np.array_equal(to_python(result), [[16], [24]])

    def test_no_addend(self):
        a = make_matrix([[1, 2], [3, 4]])
        x = make_matrix([[1], [1]])
        result = rts.dgemv(1.0, a, x, 0.0, None)
        assert np.array_equal(to_python(result), [[3], [7]])

    def test_fallback_when_matrix_is_scalar(self):
        # Code selection guessed wrong: alpha*A*x with scalar A must still
        # compute the generic product.
        result = rts.dgemv(2.0, make_scalar(3.0), make_scalar(4.0), 0.0, None)
        assert to_python(result) == 24.0

    def test_fallback_mismatched_addend(self):
        a = make_matrix([[1, 2], [3, 4]])
        x = make_matrix([[1], [1]])
        bad_y = make_matrix([[1, 2, 3]])
        with pytest.raises(Exception):
            rts.dgemv(1.0, a, x, 1.0, bad_y)

    def test_zero_beta_reads_the_addend(self):
        # 0*Inf and 0*NaN are NaN: a zero-scaled addend still counts.
        a = make_matrix([[1, 2], [3, 4]])
        x = make_matrix([[1], [1]])
        y = from_ndarray(np.array([[np.inf], [np.nan]]))
        result = rts.dgemv(1.0, a, x, 0.0, y).view()
        assert np.isnan(result).all()

    def test_zero_beta_checks_the_addend_shape(self):
        a = make_matrix([[1, 2], [3, 4]])
        x = make_matrix([[1], [1]])
        with pytest.raises(RuntimeMatlabError):
            rts.dgemv(1.0, a, x, 0.0, make_matrix([[1, 2, 3]]))


#: Every ``(rows, inner, cols)`` an unrolled product admits: two
#: operands, neither a scalar and neither past the unroll limit, and a
#: result of 2..UNROLL_LIMIT elements.
PRODUCT_SHAPES = [
    (rows, inner, cols)
    for rows in range(1, UNROLL_LIMIT + 1)
    for inner in range(UNROLL_LIMIT + 1)
    for cols in range(1, UNROLL_LIMIT + 1)
    if (rows, inner) != (1, 1) and (inner, cols) != (1, 1)
    and rows * inner <= UNROLL_LIMIT and inner * cols <= UNROLL_LIMIT
    and 2 <= rows * cols <= UNROLL_LIMIT
]

#: Element values: ordinary and integral reals, signed zeros, infinities
#: and NaN.
_POOL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1.0, -3.0, 0.1])


def _literal(values: np.ndarray) -> MxArray:
    """``values`` as the interpreter builds a matrix literal."""
    return ew.mlf_vertcat([
        ew.mlf_horzcat([make_scalar(float(v)) for v in row]) for row in values
    ])


class TestMtimesElements:
    """An unrolled product is the interpreter's ``A * B``, bit for bit:
    for unrolled operands (row-major elements) and boxed ones alike."""

    CASES = 100_000

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bit_identical_to_mtimes(self):
        rng = np.random.default_rng(0)
        per_shape = -(-self.CASES // len(PRODUCT_SHAPES))
        count = 0
        for rows, inner, cols in PRODUCT_SHAPES:
            lefts, rights = (
                np.where(
                    rng.random(shape) < 0.1,
                    rng.choice(_POOL, shape),
                    rng.standard_normal(shape),
                )
                for shape in ((per_shape, rows, inner), (per_shape, inner, cols))
            )
            for case, (a, b) in enumerate(zip(lefts, rights)):
                if case % 10:
                    left, right = from_ndarray(a), from_ndarray(b)
                else:
                    left, right = _literal(a), _literal(b)
                expected = ew.mlf_mtimes(left, right).view().ravel("F").tobytes()
                forms = [((left,), (right,))]
                if inner:
                    unrolled = (a.ravel().tolist(), b.ravel().tolist())
                    forms += [
                        unrolled, (unrolled[0], (right,)), ((left,), unrolled[1]),
                    ]
                for left_form, right_form in forms:
                    got = rts.mtimes_elements(
                        rows, inner, cols, *left_form, *right_form
                    )
                    assert np.array(got).tobytes() == expected, (
                        rows, inner, cols, a, b,
                    )
                count += 1
        assert count >= self.CASES

    def test_elements_are_host_floats(self):
        got = rts.mtimes_elements(2, 2, 1, 1.0, 2.0, 3.0, 4.0, 1, 0)
        assert got == [1.0, 3.0]
        assert all(type(value) is float for value in got)

    def test_boxed_operand_keeps_its_layout(self):
        # A boxed operand is multiplied as it is, as the interpreter's
        # ``A * x`` multiplies it: repacked in the other order, about half
        # of these products can differ in the last bit (BLAS sums in a
        # layout-dependent order).
        rng = np.random.default_rng(1)
        for _ in range(200):
            boxed = MxArray(None, np.asfortranarray(rng.standard_normal((3, 3))))
            x = rng.standard_normal((3, 1))
            expected = ew.mlf_mtimes(boxed, from_ndarray(x)).view()
            got = rts.mtimes_elements(3, 3, 1, boxed, *x.ravel().tolist())
            assert np.array(got).tobytes() == expected.ravel("F").tobytes()


class TestRuntimeSupportInstance:
    def test_builtin_dispatch(self):
        rt = rts.RuntimeSupport(knows=lambda name: False)
        (result,) = rt.builtin("size", 1, make_matrix([[1, 2, 3]]))
        assert np.array_equal(to_python(result), [[1, 3]])

    def test_builtin1(self):
        rt = rts.RuntimeSupport(knows=lambda name: False)
        assert to_python(rt.builtin1("sum", make_matrix([[1, 2, 3]]))) == 6.0

    def test_call_user_without_dispatcher_raises(self):
        rt = rts.RuntimeSupport(knows=lambda name: False)
        with pytest.raises(RuntimeMatlabError):
            rt.call_user("nothing", 1)

    def test_ambiguous_lookup_prefers_variable(self):
        rt = rts.RuntimeSupport(knows=lambda name: False)
        assert rt.ambiguous_lookup("pi", 42.0) == 42.0
        # The call form indexes it.
        row = make_matrix([[5, 6, 7]])
        value = rt.ambiguous_lookup("v", row, None, make_scalar(2))
        assert to_python(value) == 6.0

    def test_ambiguous_lookup_falls_back_to_builtin(self):
        import math

        rt = rts.RuntimeSupport(knows=lambda name: False)
        value = rt.ambiguous_lookup("pi", None)
        assert to_python(value) == pytest.approx(math.pi)
        # The call form passes its arguments.
        value = rt.ambiguous_lookup("abs", None, None, make_scalar(-3))
        assert to_python(value) == 3.0

    def test_ambiguous_lookup_of_an_unknown_name_raises(self):
        rt = rts.RuntimeSupport(knows=lambda name: False)
        with pytest.raises(
            UndefinedSymbolError, match="undefined function or variable 'v'"
        ):
            rt.ambiguous_lookup("v", None)

    def test_display_value_writes_sink(self):
        rt = rts.RuntimeSupport(knows=lambda name: False)
        rt.display_value("x", 7.0)
        assert "x =" in rt.sink.getvalue()

    def test_scalar_math_entries_are_helpers(self):
        # The builtins' typed entries, set on RuntimeSupport by the one
        # registry loop (their bits: tests/test_builtins.py).
        rt = rts.RuntimeSupport(knows=lambda name: False)
        assert rt.round_of(-2.5) == -3.0
        assert rt.mod_of(-1.0, 3.0) == 2.0
        assert rt.rem_of(-1.0, 3.0) == -1.0
        assert rt.sign_of(-7.0) == -1.0
        assert rt.fix_of(-2.7) == -2.0
        assert rt.sqrt_of(-4.0) == 2j


def test_rand_scalar_is_the_builtins_draw():
    """``rand`` in a raw-real position: the value and the stream step of
    the builtin's ``uniform(1, 1)``, and a snapshot taken before it is
    not the state after it."""
    from repro.runtime.builtins import GLOBAL_RANDOM

    GLOBAL_RANDOM.seed(7)
    boxed = [GLOBAL_RANDOM.uniform(1, 1)[0, 0] for _ in range(1000)]
    state = GLOBAL_RANDOM.snapshot()
    GLOBAL_RANDOM.seed(7)
    raw = [rts.rand_scalar() for _ in range(1000)]
    assert all(type(value) is float for value in raw)
    assert raw == boxed
    assert GLOBAL_RANDOM.snapshot() == state
    rts.rand_scalar()
    assert GLOBAL_RANDOM.snapshot() != state
