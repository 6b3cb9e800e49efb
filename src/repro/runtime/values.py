"""Constructors and coercions between host values and MxArray boxes."""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.runtime.mxarray import IntrinsicClass, MxArray, classify_ndarray


def scalar_payload(value: float | int | complex | bool) -> float | complex:
    """What :func:`make_scalar` stores for a raw host scalar: bools and
    ints as floats, a complex with zero imaginary part as its real part —
    so raw operands promote NumPy dtypes exactly as their boxes would."""
    if isinstance(value, complex):
        return value.real if value.imag == 0.0 else value
    return float(value)


def make_scalar(value: float | int | complex) -> MxArray:
    """Box a host scalar with the most precise intrinsic class."""
    if isinstance(value, bool):
        return make_bool(value)
    if isinstance(value, complex):
        if value.imag == 0.0:
            value = value.real
        else:
            return MxArray(
                IntrinsicClass.COMPLEX,
                np.array([[value]], dtype=np.complex128),
            )
    value = float(value)
    klass = IntrinsicClass.INT if value.is_integer() else IntrinsicClass.REAL
    return MxArray(klass, np.array(value, ndmin=2))


def make_bool(value: bool) -> MxArray:
    return MxArray(
        IntrinsicClass.BOOL, np.array([[1.0 if value else 0.0]])
    )


def make_string(text: str) -> MxArray:
    return MxArray(IntrinsicClass.STRING, text=text)


def make_matrix(rows: list[list[float | complex]]) -> MxArray:
    """Box a rectangular nested list."""
    if not rows:
        return empty()
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DimensionError("matrix rows have inconsistent lengths")
    data = np.array(rows)
    if data.dtype == np.bool_ or data.dtype.kind in "iu":
        data = data.astype(np.float64)
    return MxArray(classify_ndarray(data), data)


def empty() -> MxArray:
    """The 0x0 empty array ``[]``."""
    return MxArray(IntrinsicClass.REAL, np.zeros((0, 0)))


def from_ndarray(data: np.ndarray, klass: IntrinsicClass | None = None) -> MxArray:
    """Box a numpy array of unknown provenance: always a copy, as 2-D
    ``float64`` / ``complex128`` in C order.  Unless a class is forced,
    real data is boxed with INT-vs-REAL unanswered (``MxArray.klass`` asks
    the data).  C order because a matrix product's BLAS sums depend on
    its operands' layout: the interpreter copies every value it assigns
    in C order, and compiled code, which elides those copies, must see
    the same layout (a caller's or ``reshape``'s column-major array)."""
    data = np.atleast_2d(np.asarray(data))
    if data.dtype == np.bool_:
        klass = IntrinsicClass.BOOL
    elif klass is None and data.dtype.kind == "c":
        klass = IntrinsicClass.COMPLEX
    dtype = np.complex128 if klass is IntrinsicClass.COMPLEX else np.float64
    return MxArray(klass, data.astype(dtype, order="C"))


_FLOAT64 = np.dtype(np.float64)
_COMPLEX128 = np.dtype(np.complex128)


def box_result(data) -> MxArray:
    """Box what a ufunc, a BLAS call or a fused kernel just returned.

    Nothing else holds such a buffer, so a 2-D ``float64`` / ``complex128``
    array is adopted as it is; anything else (a 0-d result of all-scalar
    operands, another dtype) takes :func:`from_ndarray`'s normalizing copy.
    Never pass a view of an operand: the box would alias it.
    """
    if type(data) is np.ndarray and data.ndim == 2:
        dtype = data.dtype
        if dtype is _FLOAT64:
            return MxArray(None, data)
        if dtype is _COMPLEX128:
            return MxArray(IntrinsicClass.COMPLEX, data)
    return from_ndarray(data)


def from_python(value) -> MxArray:
    """Coerce an arbitrary host value into an MxArray.

    Accepts scalars, strings, nested lists, numpy arrays and MxArrays
    themselves (returned as-is).  This is the entry point the public
    :class:`~repro.core.majic.MajicSession` API uses for call arguments.
    """
    if isinstance(value, MxArray):
        return value
    if isinstance(value, str):
        return make_string(value)
    if isinstance(value, bool):
        return make_bool(value)
    if isinstance(value, (int, float, complex)):
        return make_scalar(value)
    if isinstance(value, np.ndarray):
        return from_ndarray(value)
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return empty()
        if isinstance(seq[0], (list, tuple)):
            return make_matrix([list(r) for r in seq])
        return make_matrix([seq])
    raise TypeError(f"cannot convert {type(value).__name__} to MxArray")


def to_python(value: MxArray):
    """Unbox an MxArray into the natural host value.

    Scalars become float/complex/bool, strings become str, everything else
    becomes a numpy array (a copy of the logical view).
    """
    if not isinstance(value, MxArray):
        return value
    if value.is_string:
        return value.text
    if value.is_scalar:
        if value.tag is IntrinsicClass.BOOL:
            return bool(value.data[0, 0])
        return value.scalar()
    return value.view().copy()
