"""Builtin library tests."""

import numpy as np
import pytest

from repro.errors import RuntimeMatlabError
from repro.runtime.builtins import BUILTINS, call_builtin, is_builtin
from repro.runtime.display import OutputSink
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import from_python, make_scalar, make_string, to_python


def call(name, *args, nargout=1, sink=None):
    boxed = [from_python(a) for a in args]
    outs = call_builtin(name, boxed, nargout, sink=sink)
    return [to_python(o) for o in outs]


class TestConstructors:
    def test_zeros_square(self):
        (z,) = call("zeros", 3)
        assert np.array_equal(z, np.zeros((3, 3)))

    def test_zeros_rect(self):
        (z,) = call("zeros", 2, 4)
        assert z.shape == (2, 4)

    def test_ones(self):
        (o,) = call("ones", 2, 2)
        assert np.array_equal(o, np.ones((2, 2)))

    def test_eye(self):
        (e,) = call("eye", 3)
        assert np.array_equal(e, np.eye(3))

    @pytest.mark.parametrize("name", ["zeros", "ones", "eye"])
    def test_sizes_truncate_and_clamp(self, name):
        (a,) = call(name, 2.7, -1.5)
        assert a.shape == (2, 0)
        (b,) = call(name, -3)
        assert b.shape == (0, 0)

    @pytest.mark.parametrize("name", ["zeros", "ones", "eye", "rand"])
    @pytest.mark.parametrize("size", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_size_is_a_matlab_error(self, name, size):
        with pytest.raises(RuntimeMatlabError, match="Size inputs must be"):
            call(name, 1, size)
        with pytest.raises(RuntimeMatlabError, match="Size inputs must be"):
            call(name, size)

    @pytest.mark.parametrize("name", ["zeros", "ones", "eye"])
    def test_typed_entry_is_the_boxed_builtin(self, name):
        host = BUILTINS[name].host
        for dims in [(3,), (2, 4), (2.5, 0), (-1, 2), (1, 1)]:
            (boxed,) = call_builtin(name, [from_python(d) for d in dims], 1)
            typed = host(*dims)
            assert typed.shape == boxed.shape
            assert typed.view().tobytes() == boxed.view().tobytes()
            assert typed.klass is boxed.klass

    def test_rand_range(self):
        (r,) = call("rand", 5, 5)
        assert np.all((r >= 0) & (r < 1))

    def test_rand_deterministic_after_seed(self):
        from repro.runtime.builtins import GLOBAL_RANDOM

        GLOBAL_RANDOM.seed(42)
        (a,) = call("rand", 3, 3)
        GLOBAL_RANDOM.seed(42)
        (b,) = call("rand", 3, 3)
        assert np.array_equal(a, b)

    def test_linspace(self):
        (v,) = call("linspace", 0, 1, 5)
        assert np.allclose(v, [[0, 0.25, 0.5, 0.75, 1.0]])

    def test_reshape_column_major(self):
        (r,) = call("reshape", np.array([[1.0, 3.0], [2.0, 4.0]]), 1, 4)
        assert np.array_equal(r, [[1, 2, 3, 4]])


class TestQueries:
    def test_size_vector_result(self):
        (sz,) = call("size", np.zeros((2, 5)))
        assert np.array_equal(sz, [[2, 5]])

    def test_size_two_outputs(self):
        r, c = call("size", np.zeros((2, 5)), nargout=2)
        assert (r, c) == (2.0, 5.0)

    def test_size_dim(self):
        assert call("size", np.zeros((2, 5)), 2) == [5.0]

    def test_length(self):
        assert call("length", np.zeros((2, 5))) == [5.0]

    def test_length_empty(self):
        assert call("length", np.zeros((0, 0))) == [0.0]

    def test_numel(self):
        assert call("numel", np.zeros((2, 5))) == [10.0]

    def test_isempty(self):
        assert call("isempty", np.zeros((0, 0))) == [True]
        assert call("isempty", 1.0) == [False]


class TestMath:
    def test_abs_complex_is_real(self):
        assert call("abs", 3 + 4j) == [5.0]

    def test_sqrt_negative_goes_complex(self):
        (r,) = call("sqrt", -4.0)
        assert abs(r - 2j) < 1e-12

    def test_floor_ceil_round_fix(self):
        assert call("floor", 2.7) == [2.0]
        assert call("ceil", 2.2) == [3.0]
        assert call("round", 2.5) == [3.0]
        assert call("fix", -2.7) == [-2.0]

    def test_mod_rem_sign_conventions(self):
        assert call("mod", -1.0, 3.0) == [2.0]
        assert call("rem", -1.0, 3.0) == [-1.0]

    def test_sign(self):
        assert call("sign", -5.0) == [-1.0]

    def test_elementwise_over_matrix(self):
        (r,) = call("abs", np.array([[-1.0, 2.0]]))
        assert np.array_equal(r, [[1, 2]])

    def test_mod_of_zero_divisor_is_the_dividend(self):
        # https://www.mathworks.com/help/matlab/ref/mod.html
        (r,) = call("mod", np.array([[5.0, -2.5, 7.0]]), 0.0)
        assert r.tolist() == [[5.0, -2.5, 7.0]]
        assert np.isnan(call("rem", 5.0, 0.0)[0])


def _nan(bits: int) -> float:
    return np.array(bits, dtype=np.uint64).view(np.float64).item()


#: The edges every sample includes: signed zeros and infinities, NaNs of
#: both signs and with a payload, the domain bound 0 and its neighbours,
#: asin/acos's bounds, exp's overflow threshold and its neighbours, the
#: smallest subnormal, halves (round), and huge trig arguments.
_EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
    _nan(0x7FF8000000000123), _nan(0xFFF8000000000123),
    5e-324, -5e-324, 1.0, -1.0, 0.5, -0.5, 2.5, -2.5, 1e300, -1e300,
    709.782712893384, np.nextafter(709.782712893384, np.inf),
    np.nextafter(709.782712893384, -np.inf), -745.2, 710.5, -710.5,
]


def _samples(count: int, seed: int) -> list:
    """``count`` host numbers: uniform and log-uniform reals of both
    signs, complex values built from both, and :data:`_EDGES` (also as
    real and imaginary parts)."""
    rng = np.random.default_rng(seed)
    third = count // 3
    uniform = rng.uniform(-10.0, 10.0, third)
    spread = np.exp(rng.uniform(-745.0, 709.0, third))
    spread *= rng.choice([-1.0, 1.0], third)
    parts = rng.choice(np.concatenate([uniform, spread]), (third, 2))
    edges = [float(e) for e in _EDGES]
    return (
        [float(v) for v in np.concatenate([uniform, spread])] + edges
        + [complex(a, b) for a, b in parts]
        + [complex(a, b) for a in edges for b in edges]
    )


def _box(value) -> MxArray:
    """A 1x1 of the number's own type: a complex with a zero imaginary
    part stays complex, as a raw complex does."""
    if isinstance(value, complex):
        return MxArray(IntrinsicClass.COMPLEX, np.array([[value]]))
    return MxArray(None, np.array([[value]]))


class TestScalarEntries:
    """Every elementwise builtin's typed entry is its boxed impl on a 1x1,
    bit for bit (NaN sign and payload and signed zeros included), and
    answers a host ``float`` or ``complex``: compiled code calls the entry
    where the interpreter calls the impl.  Complex ``abs`` is the one
    exemption: the entry is Python's ``abs``, whose ``hypot`` differs in
    the last bit from NumPy's complex ``abs`` kernel (it uses an FMA, and
    Python 3.11 has no ``math.fma``) on about a third of these samples;
    mandel calls it 58 times a call, where NumPy's would double the
    call's time."""

    CASES = 100_000
    ENTRIES = sorted(
        name for name, builtin in BUILTINS.items()
        if builtin.host is not None and not builtin.int_scalar_affinity
    )

    def test_every_math_builtin_has_an_entry(self):
        assert self.ENTRIES == sorted([
            "abs", "sqrt", "exp", "log", "log2", "log10", "sin", "cos",
            "tan", "asin", "acos", "atan", "sinh", "cosh", "tanh", "floor",
            "ceil", "round", "fix", "sign", "conj", "mod", "rem",
        ])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ENTRIES)
    def test_entry_is_the_boxed_impl(self, name):
        builtin = BUILTINS[name]
        if name == "abs":
            values = [
                v for v in _samples(self.CASES * 3 // 2, seed=0)
                if not isinstance(v, complex)
            ]
        else:
            values = _samples(self.CASES, seed=0)
        if builtin.max_args == 1:
            cases = [(v,) for v in values]
        else:
            shuffled = list(values)
            np.random.default_rng(1).shuffle(shuffled)
            cases = list(zip(values, shuffled))
        assert len(cases) >= self.CASES
        impl, host = builtin.impl, builtin.host
        for args in cases:
            try:
                want = impl([_box(a) for a in args], 1)[0].view()
            except TypeError:  # e.g. ``floor`` of a complex
                with pytest.raises(TypeError):
                    host(*args)
                continue
            got = host(*args)
            assert type(got) in (float, complex), (name, args)
            assert (np.array(got).dtype, np.array(got).tobytes()) == (
                want.dtype, want.tobytes()
            ), (name, args)


class TestReductions:
    def test_sum_vector(self):
        assert call("sum", np.array([[1.0, 2.0, 3.0]])) == [6.0]

    def test_sum_matrix_columnwise(self):
        (r,) = call("sum", np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(r, [[4, 6]])

    def test_max_with_index(self):
        value, index = call("max", np.array([[3.0, 9.0, 1.0]]), nargout=2)
        assert (value, index) == (9.0, 2.0)

    def test_max_two_args_elementwise(self):
        (r,) = call("max", np.array([[1.0, 5.0]]), np.array([[3.0, 2.0]]))
        assert np.array_equal(r, [[3, 5]])

    def test_min(self):
        assert call("min", np.array([[3.0, 9.0, 1.0]])) == [1.0]

    def test_any_all(self):
        assert call("any", np.array([[0.0, 1.0]])) == [True]
        assert call("all", np.array([[0.0, 1.0]])) == [False]

    def test_find(self):
        (idx,) = call("find", np.array([[0.0, 5.0, 0.0, 7.0]]))
        assert np.array_equal(idx, [[2, 4]])

    def test_sort_with_order(self):
        values, order = call("sort", np.array([[3.0, 1.0, 2.0]]), nargout=2)
        assert np.array_equal(values, [[1, 2, 3]])
        assert np.array_equal(order, [[2, 3, 1]])


class TestLinalg:
    def test_norm_vector(self):
        assert call("norm", np.array([[3.0], [4.0]])) == [5.0]

    def test_norm_one(self):
        assert call("norm", np.array([[3.0], [-4.0]]), 1) == [7.0]

    def test_eig_symmetric_real(self):
        (vals,) = call("eig", np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(np.sort(vals.ravel()), [1, 2, 3])

    def test_eig_two_outputs(self):
        v, d = call("eig", np.diag([2.0, 5.0]), nargout=2)
        assert np.allclose(sorted(np.diag(d)), [2, 5])

    def test_inv(self):
        (r,) = call("inv", np.array([[2.0, 0.0], [0.0, 4.0]]))
        assert np.allclose(r, [[0.5, 0], [0, 0.25]])

    def test_det(self):
        assert call("det", np.array([[2.0, 0.0], [0.0, 3.0]])) == [
            pytest.approx(6.0)
        ]

    def test_chol_upper(self):
        (r,) = call("chol", np.array([[4.0, 0.0], [0.0, 9.0]]))
        assert np.allclose(r, [[2, 0], [0, 3]])

    def test_chol_not_spd(self):
        with pytest.raises(RuntimeMatlabError):
            call("chol", np.array([[-1.0]]))

    def test_diag_both_ways(self):
        (d,) = call("diag", np.array([[1.0, 2.0]]))
        assert np.array_equal(d, [[1, 0], [0, 2]])
        (v,) = call("diag", np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(v, [[1], [4]])

    def test_tril_triu(self):
        a = np.arange(1.0, 10.0).reshape(3, 3)
        (lower,) = call("tril", a)
        assert lower[0, 1] == 0 and lower[1, 0] == a[1, 0]
        (upper,) = call("triu", a, 1)
        assert upper[0, 0] == 0 and upper[0, 1] == a[0, 1]


class TestConstantsAndIO:
    def test_pi(self):
        assert call("pi") == [pytest.approx(np.pi)]

    def test_imaginary_unit(self):
        assert call("i") == [1j]

    def test_inf_nan(self):
        assert call("Inf") == [float("inf")]
        assert np.isnan(call("NaN")[0])

    def test_eps(self):
        assert call("eps")[0] == np.finfo(np.float64).eps

    def test_disp_writes_to_sink(self):
        sink = OutputSink()
        call("disp", "hello", sink=sink)
        assert sink.getvalue() == "hello\n"

    def test_fprintf(self):
        sink = OutputSink()
        call("fprintf", "x=%d y=%.1f\\n", 3.0, 2.5, sink=sink)
        assert sink.getvalue() == "x=3 y=2.5\n"

    def test_sprintf(self):
        assert call("sprintf", "%d-%d", 1.0, 2.0) == ["1-2"]

    def test_error_raises(self):
        with pytest.raises(RuntimeMatlabError, match="boom"):
            call("error", "boom")

    def test_num2str(self):
        assert call("num2str", 42.0) == ["42"]

    def test_strcmp(self):
        assert call("strcmp", "a", "a") == [True]
        assert call("strcmp", "a", "b") == [False]


class TestRegistry:
    def test_is_builtin(self):
        assert is_builtin("zeros") and not is_builtin("no_such_fn")

    def test_registry_size(self):
        # The suite's benchmarks lean on a substantial library.
        assert len(BUILTINS) >= 60

    def test_arity_check(self):
        with pytest.raises(RuntimeMatlabError):
            call("sqrt")

    def test_int_scalar_affinity_flags(self):
        # Section 2.5's builtin-argument hints.
        for name in ("zeros", "ones", "rand", "size"):
            assert BUILTINS[name].int_scalar_affinity
        assert not BUILTINS["sqrt"].int_scalar_affinity
