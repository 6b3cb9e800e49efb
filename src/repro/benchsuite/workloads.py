"""Workload construction.

``workload_for`` turns a benchmark name + scale into the argument list the
benchmark function is called with (building deterministic SPD matrices for
the linear-solver benchmarks).  Results are compared by
:class:`repro.backends.Observation`, never by a digest.
"""

from __future__ import annotations

import numpy as np

from repro.benchsuite.registry import benchmark
from repro.runtime.mxarray import MxArray
from repro.runtime.values import from_python


def spd_matrix(n: int, seed: int = 7) -> np.ndarray:
    """A deterministic, well-conditioned SPD matrix (diagonally dominant)."""
    rng = np.random.default_rng(seed)
    base = rng.random((n, n))
    sym = (base + base.T) / 2.0
    return sym + n * np.eye(n)


def rhs_vector(n: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n, 1))


def correlation_matrix(n: int, alpha: float = 0.1) -> np.ndarray:
    """Symmetric correlation matrix for the mei landscape generator."""
    idx = np.arange(n, dtype=np.float64)
    d = idx[:, None] - idx[None, :]
    return np.exp(-alpha * d * d)


def poisson_matrix(n: int) -> np.ndarray:
    """1-D Poisson (tridiagonal SPD) matrix: realistic CG iteration
    counts without ill-conditioning."""
    return (
        2.0 * np.eye(n)
        - np.eye(n, k=1)
        - np.eye(n, k=-1)
    )


def workload_for(name: str, scale: tuple | None = None) -> list:
    """Host-value argument list for one benchmark run."""
    spec = benchmark(name)
    scale = tuple(scale if scale is not None else spec.default_scale)
    if name == "cgopt":
        n, tol, maxit = scale
        return [poisson_matrix(int(n)), rhs_vector(int(n)), tol, maxit]
    if name == "qmr":
        n, tol, maxit = scale
        return [poisson_matrix(int(n)), rhs_vector(int(n)), tol, maxit]
    if name == "sor":
        n, w, tol, maxit = scale
        return [poisson_matrix(int(n)), rhs_vector(int(n)), w, tol, maxit]
    if name == "icn":
        (n,) = scale
        return [spd_matrix(int(n)), n]
    if name == "mei":
        n, m = scale
        rng = np.random.default_rng(3)
        return [correlation_matrix(int(n)), rng.random((int(n), int(m)))]
    return list(scale)


def boxed_workload(name: str, scale: tuple | None = None) -> list[MxArray]:
    return [from_python(value) for value in workload_for(name, scale)]
