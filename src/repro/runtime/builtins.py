"""The builtin-function registry (MATLAB's precompiled library).

Builtins are the third symbol kind the disambiguator resolves (variable /
builtin / user function, Section 2.1).  Each entry carries the runtime
implementation used by every engine, plus metadata the compiler passes
consult (arity, purity, and whether its arguments have the "integer scalar
affinity" that feeds the speculator of Section 2.5).

Every entry's ``impl`` takes and returns boxed MxArray values; the
interpreter calls it, and so does generated code whenever inference has
not typed the arguments (compiled code cannot speed up library internals
— the paper's explanation for why builtin-heavy benchmarks barely benefit
from compilation).  A builtin may also carry a *typed entry*
(``Builtin.host``): one implementation on host numbers, which its boxed
``impl`` wraps.  Code selection calls it directly, without boxes, when
inference types every argument an exact real scalar.  ``zeros``, ``ones``
and ``eye`` have one (``zeros_of`` / ``ones_of`` / ``eye_of``, on their
host size arguments).  A math builtin whose result turns complex on
part of the real line carries that bound (``Builtin.domain``): its
``impl``, the fused kernels' widening guard, the C kernels' bail-out and
the inference rules all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import DimensionError, RuntimeMatlabError
from repro.runtime import display, linalg
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import (
    empty,
    from_ndarray,
    make_bool,
    make_scalar,
    make_string,
)

# ----------------------------------------------------------------------
# Deterministic MATLAB-style RNG (shared by every engine so that the
# interpreter, JIT and speculative runs of a randomized benchmark compute
# identical results when reseeded identically).
# ----------------------------------------------------------------------
class MatlabRandom:
    """Global random stream, reseedable like ``rand('seed', n)``."""

    def __init__(self, seed: int = 0):
        self.seed(seed)

    def seed(self, value: int) -> None:
        self._seed = int(value)
        self._rng = np.random.default_rng(self._seed)
        self._captured = None

    def snapshot(self):
        """Capture the stream state (deoptimization re-execution support:
        a half-run compiled call must not advance the stream the
        interpreter re-run will read).  The capture is kept until the
        stream next moves — every method that moves it drops it — so a
        call that draws nothing snapshots for the price of a read."""
        captured = self._captured
        if captured is None:
            captured = self._captured = (
                self._seed, self._rng.bit_generator.state
            )
        return captured

    def restore(self, state) -> None:
        self._seed, bitgen_state = state
        self._rng = np.random.default_rng(self._seed)
        self._rng.bit_generator.state = bitgen_state
        self._captured = None

    def uniform(self, rows: int, cols: int) -> np.ndarray:
        self._captured = None
        return self._rng.random((rows, cols))

    def draw(self) -> float:
        """``uniform(1, 1)``'s one value, as a host float: the same value
        and the same step of the stream."""
        self._captured = None
        return self._rng.random()

    def normal(self, rows: int, cols: int) -> np.ndarray:
        self._captured = None
        return self._rng.standard_normal((rows, cols))


GLOBAL_RANDOM = MatlabRandom()


@dataclass(frozen=True)
class Builtin:
    """Registry entry for one builtin function."""

    name: str
    impl: Callable[[list[MxArray], int], list[MxArray]]
    min_args: int = 0
    max_args: int = 2
    max_out: int = 1
    pure: bool = True
    # Section 2.5: arguments of zeros/ones/rand/size(…,2)/… are "likely
    # integer scalars" — the hint the backward speculation rules exploit.
    int_scalar_affinity: bool = False
    doc: str = ""
    # The typed entry: the implementation on host numbers that ``impl``
    # wraps, called by compiled code whose arguments inference typed
    # exact real scalars (exposed on RuntimeSupport under its own name).
    host: Callable | None = None
    # The real bound below which an elementwise math builtin's result is
    # complex (``sqrt``, ``log``: 0); ``None`` when a real argument always
    # gives a real result.
    domain: float | None = None


BUILTINS: dict[str, Builtin] = {}


def register(
    name: str,
    min_args: int = 0,
    max_args: int = 2,
    max_out: int = 1,
    pure: bool = True,
    int_scalar_affinity: bool = False,
    doc: str = "",
    host: Callable | None = None,
    domain: float | None = None,
):
    """Decorator adding a builtin implementation to the registry."""

    def wrap(fn: Callable[[list[MxArray], int], list[MxArray]]):
        BUILTINS[name] = Builtin(
            name=name,
            impl=fn,
            min_args=min_args,
            max_args=max_args,
            max_out=max_out,
            pure=pure,
            int_scalar_affinity=int_scalar_affinity,
            doc=doc or (fn.__doc__ or "").strip(),
            host=host,
            domain=domain,
        )
        return fn

    return wrap


def is_builtin(name: str) -> bool:
    return name in BUILTINS


def call_builtin(
    name: str,
    args: list[MxArray],
    nargout: int = 1,
    sink: display.OutputSink | None = None,
) -> list[MxArray]:
    """Invoke a builtin with arity checking; returns its output list."""
    entry = BUILTINS.get(name)
    if entry is None:
        raise RuntimeMatlabError(f"undefined builtin function '{name}'")
    if not entry.min_args <= len(args) <= entry.max_args:
        raise RuntimeMatlabError(
            f"{name}: expected between {entry.min_args} and "
            f"{entry.max_args} arguments, got {len(args)}"
        )
    if name in _SINK_BUILTINS:
        return entry.impl(args, nargout, sink)  # type: ignore[call-arg]
    return entry.impl(args, nargout)


_SINK_BUILTINS = {"disp", "fprintf"}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _dims_from_args(args: list[MxArray], default=(1, 1)) -> tuple:
    """The two size arguments of a call, as host numbers: a two-element
    vector is both, a scalar is a square's side."""
    if not args:
        return default
    if len(args) == 1:
        if args[0].numel == 2:
            flat = args[0].view().ravel()
            return flat[0], flat[1]
        n = args[0].scalar()
        return n, n
    return args[0].scalar(), args[1].scalar()


def _size_int(size) -> int:
    """One size argument as an integer: its real part truncated toward
    zero.  MATLAB's sizes are integer values
    (https://www.mathworks.com/help/matlab/ref/zeros.html: "specified as
    an integer value"), so a NaN or Inf size is an error; the message
    text is this project's own.  A fractional size is truncated, not
    refused, as the boxed builtins always did."""
    try:
        return int(size.real)
    except (ValueError, OverflowError):
        raise RuntimeMatlabError(
            "Size inputs must be integer values, not NaN or Inf."
        ) from None


def _shape(rows, cols=None) -> tuple[int, int]:
    """The shape of a constructor's result for host size arguments
    (``cols`` omitted: a square).  A negative size is treated as 0 (the
    same reference page)."""
    rows = _size_int(rows)
    rows = rows if rows > 0 else 0
    if cols is None:
        return rows, rows
    cols = _size_int(cols)
    return rows, cols if cols > 0 else 0


def _unary_math(name: str, fn, domain: float | None = None):
    @register(name, min_args=1, max_args=1, doc=f"elementwise {name}",
              domain=domain)
    def impl(args: list[MxArray], nargout: int) -> list[MxArray]:
        a = args[0]
        view = a.view()
        if a.is_string:
            view = np.array([[float(ord(c)) for c in a.text]])
        if domain is not None and not np.iscomplexobj(view):
            if view.size and np.any(view < domain):
                view = view.astype(np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            return [from_ndarray(fn(view))]

    return impl


# ----------------------------------------------------------------------
# Array constructors
# ----------------------------------------------------------------------
def zeros_of(rows, cols=None) -> MxArray:
    """``zeros(rows, cols)`` on host numbers (``zeros(n)``: no ``cols``)."""
    return MxArray(None, np.zeros(_shape(rows, cols)))


def ones_of(rows, cols=None) -> MxArray:
    """``ones(rows, cols)`` on host numbers (``ones(n)``: no ``cols``)."""
    return MxArray(None, np.ones(_shape(rows, cols)))


def eye_of(rows, cols=None) -> MxArray:
    """``eye(rows, cols)`` on host numbers (``eye(n)``: no ``cols``)."""
    return MxArray(None, np.eye(*_shape(rows, cols)))


@register("zeros", 0, 2, int_scalar_affinity=True, doc="matrix of zeros",
          host=zeros_of)
def _zeros(args, nargout):
    return [zeros_of(*_dims_from_args(args))]


@register("ones", 0, 2, int_scalar_affinity=True, doc="matrix of ones",
          host=ones_of)
def _ones(args, nargout):
    return [ones_of(*_dims_from_args(args))]


@register("eye", 0, 2, int_scalar_affinity=True, doc="identity matrix",
          host=eye_of)
def _eye(args, nargout):
    return [eye_of(*_dims_from_args(args))]


@register("rand", 0, 2, pure=False, int_scalar_affinity=True,
          doc="uniform random matrix")
def _rand(args, nargout):
    if args and args[0].is_string:
        if len(args) == 2:
            # The legacy ``rand('seed', s)``: the reference page
            # (https://www.mathworks.com/help/matlab/ref/rand.html) says
            # nothing of the seed's values, so a NaN or Inf one raises
            # ``_size_int``'s error and a negative one this project's own.
            seed = _size_int(args[1].scalar())
            if seed < 0:
                raise RuntimeMatlabError(
                    "The seed must be a nonnegative integer."
                )
            GLOBAL_RANDOM.seed(seed)
        return [empty()]
    return [MxArray(IntrinsicClass.REAL, GLOBAL_RANDOM.uniform(
        *_shape(*_dims_from_args(args))))]


@register("randn", 0, 2, pure=False, int_scalar_affinity=True,
          doc="normal random matrix")
def _randn(args, nargout):
    return [MxArray(IntrinsicClass.REAL, GLOBAL_RANDOM.normal(
        *_shape(*_dims_from_args(args))))]


@register("linspace", 2, 3, int_scalar_affinity=True, doc="linearly spaced vector")
def _linspace(args, nargout):
    # https://www.mathworks.com/help/matlab/ref/linspace.html, on ``n``:
    # "If n is 1, linspace returns x2.  If n is zero or negative, linspace
    # returns an empty 1-by-0 matrix.  If n is not an integer, linspace
    # rounds down and returns floor(n) points."  The page says nothing of
    # a NaN or Inf ``n``: ``_size_int``'s error.
    lo = float(np.real(args[0].scalar()))
    hi = float(np.real(args[1].scalar()))
    n = max(_size_int(args[2].scalar()), 0) if len(args) > 2 else 100
    if n == 1:
        return [make_scalar(hi)]
    return [from_ndarray(np.linspace(lo, hi, n).reshape(1, -1))]


@register("reshape", 2, 3, doc="reshape preserving column-major order")
def _reshape(args, nargout):
    # https://www.mathworks.com/help/matlab/ref/reshape.html: the sizes
    # are integers whose product is numel(A).  A negative size is an
    # extent of 0, as for the constructors, so it fails that product
    # unless A is empty.
    a = args[0]
    r, c = _shape(*_dims_from_args(args[1:]))
    if r * c != a.numel:
        raise DimensionError("reshape: element counts must match")
    return [from_ndarray(a.view().T.reshape(c, r).T)]


@register("repmat", 3, 3, int_scalar_affinity=True, doc="tile a matrix")
def _repmat(args, nargout):
    # https://www.mathworks.com/help/matlab/ref/repmat.html: a repetition
    # factor is an integer value, and "if n is 0 or negative, the result
    # is an empty array".
    a = args[0]
    return [from_ndarray(np.tile(a.view(), _shape(
        args[1].scalar(), args[2].scalar()
    )))]


# ----------------------------------------------------------------------
# Shape queries
# ----------------------------------------------------------------------
@register("size", 1, 2, max_out=2, int_scalar_affinity=True,
          doc="array dimensions")
def _size(args, nargout):
    a = args[0]
    if len(args) == 2:
        # https://www.mathworks.com/help/matlab/ref/size.html: "dim —
        # Queried dimension, specified as a positive integer scalar".
        dim = np.real(args[1].scalar())
        if not (dim >= 1 and float(dim).is_integer()):
            raise RuntimeMatlabError(
                "Dimension argument must be a positive integer scalar."
            )
        if dim == 1:
            return [make_scalar(a.rows)]
        if dim == 2:
            return [make_scalar(a.cols)]
        return [make_scalar(1)]
    if nargout >= 2:
        return [make_scalar(a.rows), make_scalar(a.cols)]
    return [from_ndarray(np.array([[float(a.rows), float(a.cols)]]))]


@register("length", 1, 1, doc="max(size(A)), 0 for empty")
def _length(args, nargout):
    a = args[0]
    if a.is_string:
        return [make_scalar(len(a.text))]
    return [make_scalar(0 if a.is_empty else max(a.rows, a.cols))]


@register("numel", 1, 1, doc="number of elements")
def _numel(args, nargout):
    a = args[0]
    return [make_scalar(len(a.text) if a.is_string else a.numel)]


@register("isempty", 1, 1, doc="true for 0-element arrays")
def _isempty(args, nargout):
    a = args[0]
    return [make_bool(len(a.text) == 0 if a.is_string else a.is_empty)]


@register("isreal", 1, 1, doc="true unless the array is complex")
def _isreal(args, nargout):
    return [make_bool(args[0].tag is not IntrinsicClass.COMPLEX)]


@register("isscalar", 1, 1, doc="true for 1x1 arrays")
def _isscalar(args, nargout):
    return [make_bool(args[0].is_scalar)]


# ----------------------------------------------------------------------
# Elementary elementwise math
# ----------------------------------------------------------------------
_unary_math("abs", np.abs)
_unary_math("sqrt", np.sqrt, domain=0.0)
_unary_math("exp", np.exp)
_unary_math("log", np.log, domain=0.0)
_unary_math("log2", np.log2, domain=0.0)
_unary_math("log10", np.log10, domain=0.0)
_unary_math("sin", np.sin)
_unary_math("cos", np.cos)
_unary_math("tan", np.tan)
_unary_math("asin", np.arcsin)
_unary_math("acos", np.arccos)
_unary_math("atan", np.arctan)
_unary_math("sinh", np.sinh)
_unary_math("cosh", np.cosh)
_unary_math("tanh", np.tanh)
def _matlab_round(data):
    """MATLAB rounds halves away from zero; numpy rounds halves to even."""
    return np.sign(data) * np.floor(np.abs(data) + 0.5)


_unary_math("floor", np.floor)
_unary_math("ceil", np.ceil)
_unary_math("round", _matlab_round)
_unary_math("fix", np.trunc)
_unary_math("sign", np.sign)
_unary_math("conj", np.conj)


@register("real", 1, 1, doc="real part")
def _real(args, nargout):
    return [from_ndarray(np.real(args[0].view()).copy())]


@register("imag", 1, 1, doc="imaginary part")
def _imag(args, nargout):
    return [from_ndarray(np.imag(args[0].view()).copy())]


@register("angle", 1, 1, doc="phase angle")
def _angle(args, nargout):
    return [from_ndarray(np.angle(args[0].view()))]


@register("atan2", 2, 2, doc="four-quadrant arctangent")
def _atan2(args, nargout):
    return [from_ndarray(np.arctan2(np.real(args[0].view()), np.real(args[1].view())))]


@register("mod", 2, 2, doc="modulus after flooring division")
def _mod(args, nargout):
    a, b = args[0].view(), args[1].view()
    with np.errstate(divide="ignore", invalid="ignore"):
        return [from_ndarray(np.mod(np.real(a), np.real(b)))]


@register("rem", 2, 2, doc="remainder after truncating division")
def _rem(args, nargout):
    a, b = np.real(args[0].view()), np.real(args[1].view())
    with np.errstate(divide="ignore", invalid="ignore"):
        return [from_ndarray(np.fmod(a, b))]


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _reduce(name: str, vector_fn, matrix_fn):
    @register(name, 1, 2, max_out=2, doc=f"columnwise {name}")
    def impl(args, nargout):
        a = args[0]
        view = a.view()
        if len(args) == 2 and not args[1].is_string:
            # max(a, b) / min(a, b): elementwise two-argument form.
            if name in ("max", "min"):
                b = args[1].view()
                fn = np.maximum if name == "max" else np.minimum
                return [from_ndarray(fn(np.real(view), np.real(b)))]
        if a.is_empty:
            return [empty(), empty()][: max(nargout, 1)]
        if a.is_vector or a.is_scalar:
            flat = view.ravel()
            result = vector_fn(flat)
            outs = [make_scalar(result)]
            if nargout >= 2 and name in ("max", "min"):
                arg_fn = np.argmax if name == "max" else np.argmin
                outs.append(make_scalar(int(arg_fn(np.real(flat))) + 1))
            return outs
        result = matrix_fn(view)
        outs = [from_ndarray(np.atleast_2d(result))]
        if nargout >= 2 and name in ("max", "min"):
            arg_fn = np.argmax if name == "max" else np.argmin
            outs.append(from_ndarray(np.atleast_2d(arg_fn(np.real(view), axis=0) + 1)))
        return outs

    return impl


def _complex_max(flat):
    return flat[int(np.argmax(np.abs(flat)))] if np.iscomplexobj(flat) else np.max(flat)


def _complex_min(flat):
    return flat[int(np.argmin(np.abs(flat)))] if np.iscomplexobj(flat) else np.min(flat)


_reduce("sum", np.sum, lambda v: np.sum(v, axis=0))
_reduce("prod", np.prod, lambda v: np.prod(v, axis=0))
_reduce("mean", np.mean, lambda v: np.mean(v, axis=0))
_reduce("max", _complex_max, lambda v: np.max(np.real(v), axis=0))
_reduce("min", _complex_min, lambda v: np.min(np.real(v), axis=0))


@register("cumsum", 1, 1, doc="cumulative sum")
def _cumsum(args, nargout):
    a = args[0]
    axis = 0 if a.rows > 1 else 1
    return [from_ndarray(np.cumsum(a.view(), axis=axis))]


@register("any", 1, 1, doc="true if any element is nonzero")
def _any(args, nargout):
    a = args[0]
    if a.is_vector or a.is_scalar or a.is_empty:
        return [make_bool(bool(np.any(a.view() != 0)))]
    return [from_ndarray(np.any(a.view() != 0, axis=0).astype(float).reshape(1, -1))]


@register("all", 1, 1, doc="true if all elements are nonzero")
def _all(args, nargout):
    a = args[0]
    if a.is_vector or a.is_scalar or a.is_empty:
        return [make_bool(bool(np.all(a.view() != 0)))]
    return [from_ndarray(np.all(a.view() != 0, axis=0).astype(float).reshape(1, -1))]


@register("find", 1, 1, doc="indices of nonzero elements")
def _find(args, nargout):
    a = args[0]
    positions = np.flatnonzero(a.view().T.ravel() != 0) + 1
    if a.rows > 1:
        return [from_ndarray(positions.astype(float).reshape(-1, 1))]
    return [from_ndarray(positions.astype(float).reshape(1, -1))]


@register("sort", 1, 1, max_out=2, doc="ascending sort")
def _sort(args, nargout):
    a = args[0]
    view = np.real(a.view())
    if a.is_vector or a.is_scalar:
        order = np.argsort(view.ravel(), kind="stable")
        sorted_flat = a.view().ravel()[order]
        shape = (-1, 1) if a.rows > 1 else (1, -1)
        outs = [from_ndarray(sorted_flat.reshape(shape))]
        if nargout >= 2:
            outs.append(from_ndarray((order + 1).astype(float).reshape(shape)))
        return outs
    order = np.argsort(view, axis=0, kind="stable")
    outs = [from_ndarray(np.take_along_axis(a.view(), order, axis=0))]
    if nargout >= 2:
        outs.append(from_ndarray((order + 1).astype(float)))
    return outs


# ----------------------------------------------------------------------
# Linear algebra (delegating to the kernels in repro.runtime.linalg)
# ----------------------------------------------------------------------
@register("norm", 1, 2, doc="vector or matrix norm")
def _norm(args, nargout):
    kind: float | str = 2
    if len(args) == 2:
        kind = args[1].text if args[1].is_string else float(np.real(args[1].scalar()))
    return [make_scalar(linalg.norm(args[0], kind))]


@register("eig", 1, 1, max_out=2, doc="eigenvalues / eigenvectors")
def _eig(args, nargout):
    if nargout >= 2:
        vectors, values = linalg.eig_pair(args[0])
        return [vectors, values]
    return [linalg.eig_values(args[0])]


@register("inv", 1, 1, doc="matrix inverse")
def _inv(args, nargout):
    return [linalg.inv(args[0])]


@register("det", 1, 1, doc="determinant")
def _det(args, nargout):
    return [make_scalar(linalg.det(args[0]))]


@register("chol", 1, 1, doc="Cholesky factorization")
def _chol(args, nargout):
    return [linalg.chol(args[0])]


@register("diag", 1, 1, doc="diagonal matrix / matrix diagonal")
def _diag(args, nargout):
    return [linalg.diag(args[0])]


@register("tril", 1, 2, doc="lower-triangular part")
def _tril(args, nargout):
    k = int(np.real(args[1].scalar())) if len(args) == 2 else 0
    return [linalg.tril(args[0], k)]


@register("triu", 1, 2, doc="upper-triangular part")
def _triu(args, nargout):
    k = int(np.real(args[1].scalar())) if len(args) == 2 else 0
    return [linalg.triu(args[0], k)]


@register("dot", 2, 2, doc="vector dot product")
def _dot(args, nargout):
    return [make_scalar(linalg.dot(args[0], args[1]))]


# ----------------------------------------------------------------------
# Constants (implemented as nullary builtins, as in MATLAB)
# ----------------------------------------------------------------------
@register("pi", 0, 0, doc="3.14159...")
def _pi(args, nargout):
    return [make_scalar(float(np.pi))]


@register("eps", 0, 0, doc="floating-point relative accuracy")
def _eps(args, nargout):
    return [make_scalar(float(np.finfo(np.float64).eps))]


@register("inf", 0, 0, doc="positive infinity")
def _inf(args, nargout):
    return [make_scalar(float("inf"))]


@register("Inf", 0, 0, doc="positive infinity")
def _Inf(args, nargout):
    return [make_scalar(float("inf"))]


@register("nan", 0, 0, doc="not-a-number")
def _nan(args, nargout):
    return [make_scalar(float("nan"))]


@register("NaN", 0, 0, doc="not-a-number")
def _NaN(args, nargout):
    return [make_scalar(float("nan"))]


@register("i", 0, 0, doc="imaginary unit")
def _imag_unit(args, nargout):
    return [make_scalar(1j)]


@register("j", 0, 0, doc="imaginary unit")
def _imag_unit_j(args, nargout):
    return [make_scalar(1j)]


# ----------------------------------------------------------------------
# Output / errors
# ----------------------------------------------------------------------
@register("disp", 1, 1, pure=False, doc="display a value")
def _disp(args, nargout, sink=None):
    text = args[0].text + "\n" if args[0].is_string else display.format_value(args[0])
    if sink is not None:
        sink.write(text)
    return []


@register("fprintf", 1, 8, pure=False, doc="formatted output")
def _fprintf(args, nargout, sink=None):
    fmt = args[0]
    if not fmt.is_string:
        raise RuntimeMatlabError("fprintf: first argument must be a format string")
    text = display.sprintf(fmt.text, list(args[1:]))
    if sink is not None:
        sink.write(text)
    return []


@register("sprintf", 1, 8, doc="formatted string")
def _sprintf(args, nargout):
    fmt = args[0]
    if not fmt.is_string:
        raise RuntimeMatlabError("sprintf: first argument must be a format string")
    return [make_string(display.sprintf(fmt.text, list(args[1:])))]


@register("num2str", 1, 1, doc="number to string")
def _num2str(args, nargout):
    return [make_string(display.format_scalar(args[0].scalar()))]


@register("error", 1, 2, pure=False, doc="raise a MATLAB error")
def _error(args, nargout):
    message = args[0].text if args[0].is_string else display.format_value(args[0])
    raise RuntimeMatlabError(message)


@register("strcmp", 2, 2, doc="string equality")
def _strcmp(args, nargout):
    a, b = args
    return [make_bool(a.is_string and b.is_string and a.text == b.text)]
