"""Generic polymorphic operators over MxArray boxes (the ``mlf*`` layer).

These functions are the analogue of the MATLAB C library operators the
paper's generic generated code calls (``mlfPlus``, ``mlfTimes``, ... in
Figure 3).  They perform full runtime dispatch: class checks, shape
conformance checks, scalar broadcasting, and complex widening.  Both the
interpreter and the mcc baseline route *every* operation through this layer;
that per-operation overhead is precisely what MaJIC's compiled code removes.

Results are boxed with ``box_result``, which adopts the buffer: every
argument it is given here is the fresh result of a ufunc, a BLAS / LAPACK
call, a fancy index or a ``copy()``.  The one NumPy call that can hand an
operand back (``matrix_power(A, 1)``) is boxed by ``from_ndarray``'s copy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import DimensionError, RuntimeMatlabError
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import box_result, from_ndarray, make_bool, make_scalar


def _string_to_numeric(a: MxArray) -> MxArray:
    """MATLAB silently treats strings as char-code row vectors in math."""
    codes = np.array([[float(ord(ch)) for ch in a.text]])
    if codes.size == 0:
        codes = np.zeros((0, 0))
    return MxArray(IntrinsicClass.INT, codes)


_STRING = IntrinsicClass.STRING


def _numeric(a: MxArray) -> MxArray:
    if a.tag is _STRING:
        return _string_to_numeric(a)
    return a


def _binary_views(a: MxArray, b: MxArray, opname: str):
    """Conformance-check two operands, returning broadcastable views."""
    if a.tag is _STRING or b.tag is _STRING:
        a, b = _numeric(a), _numeric(b)
    av, bv = a.view(), b.view()
    if av.shape == bv.shape or a.is_scalar or b.is_scalar:
        return av, bv
    raise DimensionError(
        f"matrix dimensions must agree in '{opname}' "
        f"({a.rows}x{a.cols} vs {b.rows}x{b.cols})"
    )


def _bool_box(truth: np.ndarray) -> MxArray:
    """Box a relational / logical result as a tagged logical array."""
    return MxArray(IntrinsicClass.BOOL, truth.astype(np.float64))


def _elementwise(opname: str, fn: Callable) -> Callable[[MxArray, MxArray], MxArray]:
    def op(a: MxArray, b: MxArray) -> MxArray:
        av, bv = _binary_views(a, b, opname)
        return box_result(fn(av, bv))

    op.__name__ = f"mlf_{opname}"
    return op


mlf_plus = _elementwise("plus", np.add)
mlf_minus = _elementwise("minus", np.subtract)
mlf_times = _elementwise("times", np.multiply)          # .*


def mlf_rdivide(a: MxArray, b: MxArray) -> MxArray:     # ./
    av, bv = _binary_views(a, b, "rdivide")
    with np.errstate(divide="ignore", invalid="ignore"):
        return box_result(np.true_divide(av, bv))


def mlf_ldivide(a: MxArray, b: MxArray) -> MxArray:     # .\
    return mlf_rdivide(b, a)


def mlf_power(a: MxArray, b: MxArray) -> MxArray:       # .^
    av, bv = _binary_views(a, b, "power")
    negative_base = np.any(np.real(av) < 0) and not np.iscomplexobj(av)
    fractional_exp = np.any(bv != np.floor(np.real(bv)))
    if negative_base and fractional_exp:
        av = av.astype(np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        return box_result(np.power(av, bv))


def mlf_mtimes(a: MxArray, b: MxArray) -> MxArray:      # *
    a, b = _numeric(a), _numeric(b)
    if a.is_scalar or b.is_scalar:
        return mlf_times(a, b)
    if a.cols != b.rows:
        raise DimensionError(
            f"inner matrix dimensions must agree in '*' "
            f"({a.rows}x{a.cols} vs {b.rows}x{b.cols})"
        )
    return box_result(a.view() @ b.view())


def mlf_mrdivide(a: MxArray, b: MxArray) -> MxArray:    # /
    a, b = _numeric(a), _numeric(b)
    if b.is_scalar:
        return mlf_rdivide(a, b)
    # A/B == (B' \ A')'
    return mlf_transpose(mlf_mldivide(mlf_transpose(b), mlf_transpose(a)))


def mlf_mldivide(a: MxArray, b: MxArray) -> MxArray:    # \
    a, b = _numeric(a), _numeric(b)
    if a.is_scalar:
        return mlf_rdivide(b, a)
    if a.rows != b.rows:
        raise DimensionError(
            "matrix dimensions must agree in '\\' "
            f"({a.rows}x{a.cols} vs {b.rows}x{b.cols})"
        )
    av, bv = a.view(), b.view()
    try:
        if a.rows == a.cols:
            solution = np.linalg.solve(av, bv)
        else:
            solution, *_ = np.linalg.lstsq(av, bv, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise RuntimeMatlabError(f"mldivide failed: {exc}") from exc
    return box_result(solution)


def mlf_mpower(a: MxArray, b: MxArray) -> MxArray:      # ^
    a, b = _numeric(a), _numeric(b)
    if a.is_scalar and b.is_scalar:
        return mlf_power(a, b)
    if a.rows == a.cols and b.is_scalar:
        exponent = b.scalar()
        if exponent == int(np.real(exponent)):
            return from_ndarray(
                np.linalg.matrix_power(a.view(), int(np.real(exponent)))
            )
    raise DimensionError("unsupported operands for '^'")


def mlf_uminus(a: MxArray) -> MxArray:
    a = _numeric(a)
    return box_result(-a.view())


def mlf_uplus(a: MxArray) -> MxArray:
    return _numeric(a).copy()


def mlf_transpose(a: MxArray) -> MxArray:               # .'
    if a.is_string:
        a = _string_to_numeric(a)
    return box_result(a.view().T.copy())


def mlf_ctranspose(a: MxArray) -> MxArray:              # '
    if a.is_string:
        a = _string_to_numeric(a)
    return box_result(np.conj(a.view()).T.copy())


# ----------------------------------------------------------------------
# Relational operators: MATLAB compares real parts only (Section 2.5:
# "relational operators disregard the imaginary components").
# ----------------------------------------------------------------------
def _relational(opname: str, fn: Callable) -> Callable:
    def op(a: MxArray, b: MxArray) -> MxArray:
        if a.is_string and b.is_string:
            if opname == "eq":
                return make_bool(a.text == b.text)
            if opname == "ne":
                return make_bool(a.text != b.text)
        av, bv = _binary_views(a, b, opname)
        return _bool_box(fn(np.real(av), np.real(bv)))

    op.__name__ = f"mlf_{opname}"
    return op


mlf_lt = _relational("lt", np.less)
mlf_le = _relational("le", np.less_equal)
mlf_gt = _relational("gt", np.greater)
mlf_ge = _relational("ge", np.greater_equal)


def mlf_eq(a: MxArray, b: MxArray) -> MxArray:
    if a.is_string and b.is_string:
        return make_bool(a.text == b.text)
    av, bv = _binary_views(a, b, "eq")
    return _bool_box(np.equal(av, bv))


def mlf_ne(a: MxArray, b: MxArray) -> MxArray:
    if a.is_string and b.is_string:
        return make_bool(a.text != b.text)
    av, bv = _binary_views(a, b, "ne")
    return _bool_box(np.not_equal(av, bv))


# ----------------------------------------------------------------------
# Logical operators (element-wise & | ~ plus short-circuit handled by the
# engines through MxArray.bool_value()).
# ----------------------------------------------------------------------
def _logical(opname: str, fn: Callable) -> Callable:
    def op(a: MxArray, b: MxArray) -> MxArray:
        av, bv = _binary_views(a, b, opname)
        return _bool_box(fn(av != 0, bv != 0))

    op.__name__ = f"mlf_{opname}"
    return op


mlf_and = _logical("and", np.logical_and)
mlf_or = _logical("or", np.logical_or)


def mlf_not(a: MxArray) -> MxArray:
    a = _numeric(a)
    return _bool_box(a.view() == 0)


# ----------------------------------------------------------------------
# Range (colon) and concatenation
# ----------------------------------------------------------------------
def colon_operand(a: MxArray) -> float:
    """MATLAB silently uses only the real part of the first element of a
    ``:`` operand (the behaviour Section 2.5 turns into a speculation
    hint)."""
    return float(np.real(_numeric(a).view().flat[0]))


def mlf_colon(start: MxArray, step: MxArray, stop: MxArray | None = None) -> MxArray:
    """``start:stop`` or ``start:step:stop``."""
    if stop is None:
        start, stop = start, step
        step_value = 1.0
    else:
        step_value = colon_operand(step)
    lo = colon_operand(start)
    hi = colon_operand(stop)
    if step_value == 0:
        return from_ndarray(np.zeros((1, 0)))
    count = int(np.floor((hi - lo) / step_value + 1e-10)) + 1
    if count <= 0:
        return from_ndarray(np.zeros((1, 0)))
    data = lo + step_value * np.arange(count, dtype=np.float64)
    return box_result(data.reshape(1, -1))


def mlf_horzcat(parts: list[MxArray]) -> MxArray:
    """Row-building bracket operator ``[a b c]``."""
    parts = [p for p in parts if not (p.is_string is False and p.is_empty)]
    if not parts:
        return from_ndarray(np.zeros((0, 0)))
    if all(p.is_string for p in parts):
        return MxArray(IntrinsicClass.STRING, text="".join(p.text for p in parts))
    views = [_numeric(p).view() for p in parts]
    height = views[0].shape[0]
    if any(v.shape[0] != height for v in views):
        raise DimensionError("horizontal concatenation: row counts differ")
    return box_result(np.hstack(views))


def mlf_vertcat(rows: list[MxArray]) -> MxArray:
    """Column-building bracket operator ``[a; b; c]``."""
    rows = [r for r in rows if not r.is_empty or r.is_string]
    if not rows:
        return from_ndarray(np.zeros((0, 0)))
    views = [_numeric(r).view() for r in rows]
    width = views[0].shape[1]
    if any(v.shape[1] != width for v in views):
        raise DimensionError("vertical concatenation: column counts differ")
    return box_result(np.vstack(views))


# ----------------------------------------------------------------------
# Generic indexed load/store over index *arrays* (vector subscripts).
# Scalar subscripts go through MxArray.get*/set* directly.
# ----------------------------------------------------------------------
def _linear_positions(index: MxArray, limit: int, grow: bool) -> np.ndarray:
    if index.tag is IntrinsicClass.BOOL:
        positions = np.flatnonzero(index.view().T.ravel() != 0) + 1
    else:
        positions = np.real(index.view().T.ravel())
    integral = np.floor(positions)
    if positions.size and (
        np.any(integral != positions) or np.any(positions < 1)
    ):
        raise RuntimeMatlabError("subscript indices must be positive integers")
    positions = integral.astype(np.int64)
    if not grow and positions.size and positions.max() > limit:
        raise RuntimeMatlabError(
            f"index {int(positions.max())} exceeds matrix dimension ({limit})"
        )
    return positions


def mlf_index(a: MxArray, *indices: MxArray) -> MxArray:
    """Generic checked indexed load: ``A(idx)`` or ``A(idx1, idx2)``.

    Vector subscripts produce subarrays; the shape rules follow MATLAB
    (linear indexing of a matrix with a vector yields a shape matching the
    index's orientation).
    """
    if a.is_string:
        positions = _linear_positions(indices[0], a.cols, grow=False)
        return MxArray(
            IntrinsicClass.STRING,
            text="".join(a.text[p - 1] for p in positions),
        )
    view = a.view()
    if len(indices) == 1:
        idx = indices[0]
        positions = _linear_positions(idx, a.numel, grow=False)
        flat = view.T.ravel()[positions - 1]
        if idx.tag is IntrinsicClass.BOOL or a.is_vector and a.rows > 1:
            shaped = flat.reshape(-1, 1)
        elif idx.rows > 1 and not a.is_vector:
            shaped = flat.reshape(-1, 1)
        else:
            shaped = flat.reshape(1, -1)
        if idx.is_scalar:
            shaped = flat.reshape(1, 1)
        elif not a.is_vector and idx.rows > 1 and idx.cols > 1:
            shaped = flat.reshape(idx.cols, idx.rows).T
        return box_result(shaped)
    rows = _linear_positions(indices[0], a.rows, grow=False)
    cols = _linear_positions(indices[1], a.cols, grow=False)
    return box_result(view[np.ix_(rows - 1, cols - 1)])


def mlf_index_all(a: MxArray) -> MxArray:
    """``A(:)`` — column-major flattening."""
    return box_result(a.view().T.reshape(-1, 1).copy())


def mlf_store(a: MxArray, value: MxArray, *indices: MxArray) -> MxArray:
    """Generic checked indexed store, growing ``a`` as needed.

    Returns the (possibly reallocated) array; callers rebind.
    """
    if len(indices) == 1:
        positions = _linear_positions(indices[0], a.numel, grow=True)
        if positions.size == 0:
            return a
        top = int(positions.max())
        if top > a.numel:
            if a.rows > 1 and a.cols > 1:
                raise RuntimeMatlabError(
                    "in an assignment A(I) = B, a matrix A cannot be resized"
                )
            if a.rows > 1:
                a._grow(top, max(a.cols, 1))
            else:
                a._grow(max(a.rows, 1), top)
        values = _store_values(value, positions.size)
        if np.iscomplexobj(values) and a.tag is not IntrinsicClass.COMPLEX:
            a._widen_to_complex()
        rows_idx = (positions - 1) % a.rows
        cols_idx = (positions - 1) // a.rows
        a.data[rows_idx, cols_idx] = values
    else:
        rows = _linear_positions(indices[0], a.rows, grow=True)
        cols = _linear_positions(indices[1], a.cols, grow=True)
        if rows.size == 0 or cols.size == 0:
            return a
        if rows.max() > a.rows or cols.max() > a.cols:
            a._grow(max(int(rows.max()), a.rows), max(int(cols.max()), a.cols))
        values = _store_values(value, rows.size * cols.size)
        if np.iscomplexobj(values) and a.tag is not IntrinsicClass.COMPLEX:
            a._widen_to_complex()
        a.data[np.ix_(rows - 1, cols - 1)] = values.reshape(rows.size, cols.size)
    a.forget_class()
    return a


def _store_values(value: MxArray, count: int) -> np.ndarray:
    source = _numeric(value)
    flat = source.view().T.ravel()
    if flat.size == 1 and count != 1:
        return np.repeat(flat, count)
    if flat.size != count:
        raise DimensionError(
            "in an assignment A(I) = B, the number of elements in B and I "
            "must be the same"
        )
    return flat
