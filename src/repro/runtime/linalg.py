"""Dense linear-algebra kernels (the BLAS/LAPACK substrate).

The paper's code selector fuses expression trees like ``a*X + b*C*Y`` into a
single ``dgemv`` call (Section 2.6.1); this module supplies that routine and
the other precompiled library kernels the benchmarks rely on (``eig``,
``norm``, ``mldivide``).  They are deliberately implemented over numpy: the
paper's point is that *library* time is unaffected by compilation, and numpy
gives the interpreter and every compiled tier the same library speed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError, RuntimeMatlabError
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import box_result, from_ndarray


def dgemv(alpha: float, a: MxArray, x: MxArray, beta: float, y: MxArray) -> MxArray:
    """``alpha*A*x + beta*y`` as one fused kernel (BLAS dgemv)."""
    av, xv, yv = a.view(), x.view(), y.view()
    if av.shape[1] != xv.shape[0]:
        raise DimensionError("dgemv: inner dimensions must agree")
    if beta == 0.0:
        return box_result(alpha * (av @ xv))
    if (av.shape[0], xv.shape[1]) != yv.shape:
        raise DimensionError("dgemv: result and y dimensions must agree")
    return box_result(alpha * (av @ xv) + beta * yv)


def dgemm(alpha: float, a: MxArray, b: MxArray, beta: float, c: MxArray) -> MxArray:
    """``alpha*A*B + beta*C`` as one fused kernel (BLAS dgemm)."""
    av, bv = a.view(), b.view()
    if av.shape[1] != bv.shape[0]:
        raise DimensionError("dgemm: inner dimensions must agree")
    if beta == 0.0:
        return box_result(alpha * (av @ bv))
    return box_result(alpha * (av @ bv) + beta * c.view())


def eig_values(a: MxArray) -> MxArray:
    """``e = eig(A)`` — eigenvalues as a column vector.

    Symmetric/Hermitian inputs produce real ascending eigenvalues (as in
    MATLAB); general inputs may produce complex results.
    """
    av = a.view()
    if av.shape[0] != av.shape[1]:
        raise DimensionError("eig: matrix must be square")
    if np.allclose(av, np.conj(av.T)):
        values = np.linalg.eigvalsh(av)
    else:
        values = np.linalg.eigvals(av)
        if np.all(values.imag == 0):
            values = values.real
    return from_ndarray(values.reshape(-1, 1))


def eig_pair(a: MxArray) -> tuple[MxArray, MxArray]:
    """``[V, D] = eig(A)`` — eigenvectors and diagonal eigenvalue matrix."""
    av = a.view()
    if av.shape[0] != av.shape[1]:
        raise DimensionError("eig: matrix must be square")
    if np.allclose(av, np.conj(av.T)):
        values, vectors = np.linalg.eigh(av)
    else:
        values, vectors = np.linalg.eig(av)
        if np.all(values.imag == 0) and np.all(vectors.imag == 0):
            values, vectors = values.real, vectors.real
    return from_ndarray(vectors), from_ndarray(np.diag(values))


def norm(a: MxArray, kind: float | str = 2) -> float:
    """Vector/matrix norms with MATLAB's defaults and name set."""
    av = a.view()
    if a.is_vector or a.is_scalar or a.is_empty:
        flat = av.ravel()
        if kind == 2:
            return float(np.linalg.norm(flat, 2))
        if kind == 1:
            return float(np.sum(np.abs(flat)))
        if kind in ("inf", np.inf):
            return float(np.max(np.abs(flat))) if flat.size else 0.0
        if kind == "fro":
            return float(np.linalg.norm(flat, 2))
        return float(np.sum(np.abs(flat) ** kind) ** (1.0 / kind))
    if kind == 2:
        return float(np.linalg.norm(av, 2))
    if kind == 1:
        return float(np.linalg.norm(av, 1))
    if kind in ("inf", np.inf):
        return float(np.linalg.norm(av, np.inf))
    if kind == "fro":
        return float(np.linalg.norm(av, "fro"))
    raise RuntimeMatlabError(f"norm: unsupported norm kind {kind!r}")


def inv(a: MxArray) -> MxArray:
    av = a.view()
    if av.shape[0] != av.shape[1]:
        raise DimensionError("inv: matrix must be square")
    try:
        return box_result(np.linalg.inv(av))
    except np.linalg.LinAlgError as exc:
        raise RuntimeMatlabError(f"inv failed: {exc}") from exc


def det(a: MxArray) -> float | complex:
    av = a.view()
    if av.shape[0] != av.shape[1]:
        raise DimensionError("det: matrix must be square")
    value = np.linalg.det(av)
    return complex(value) if np.iscomplexobj(av) else float(value)


def chol(a: MxArray) -> MxArray:
    """Upper-triangular Cholesky factor, MATLAB's ``chol`` convention."""
    av = a.view()
    try:
        return from_ndarray(np.linalg.cholesky(av).T.conj())
    except np.linalg.LinAlgError as exc:
        raise RuntimeMatlabError(
            "chol: matrix must be positive definite"
        ) from exc


def diag(a: MxArray) -> MxArray:
    """MATLAB ``diag``: vector -> diagonal matrix, matrix -> diagonal."""
    av = a.view()
    if a.is_vector:
        return from_ndarray(np.diag(av.ravel()))
    return from_ndarray(np.diag(av).reshape(-1, 1))


def tril(a: MxArray, k: int = 0) -> MxArray:
    return from_ndarray(np.tril(a.view(), k))


def triu(a: MxArray, k: int = 0) -> MxArray:
    return from_ndarray(np.triu(a.view(), k))


def dot(a: MxArray, b: MxArray) -> float | complex:
    av, bv = a.view().ravel(), b.view().ravel()
    if av.size != bv.size:
        raise DimensionError("dot: vectors must have the same length")
    value = np.vdot(av, bv)
    return complex(value) if np.iscomplexobj(value) else float(value)
