"""The six workloads: fixed program sets, fixed sizes, seeded values.

A workload is a set of programs, each with one argument builder.
``--seed`` changes input *values* only (matrix / right-hand-side /
vector contents, real coefficients, the ``GLOBAL_RANDOM`` seed, stream
order); sizes, iteration counts and tolerances are constants below, so
every seed and every commit does the same amount of work.

Sizes are small on purpose: one interpreted call takes 2-30 ms on the
seed commit.  This sandbox's noise is one-sided and slow (the same loop
runs 1.5x slower for seconds at a time), so a cell's time is taken as
the fastest of many short samples, and a run has to fit ~30 samples of
every cell into a few seconds.  The price is that fixed per-call costs
(dispatch, boxing) are a larger share of the compiled tiers' times than
they would be at the paper's problem sizes.

Iterative solvers get a tolerance they cannot reach within ``maxit``
iterations: the iteration count is then ``maxit`` for every seed
instead of depending on the right-hand side.

``calls`` is the number of back-to-back calls in one timed batch of a
compiled mode.  The counts are constants (never calibrated at run
time): they were sized once on the seed commit so a batch lasts about
5 ms, and both sides of any comparison run exactly these counts.  The
interpreter is always timed one program run per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.benchsuite.registry import benchmark, source_of

PROGRAMS_DIR = Path(__file__).parent / "programs"

#: Rounds of the interleaved stream of the traced run (each round calls
#: every program of the workload once, in a seeded order).
STREAM_ROUNDS = 8


@dataclass(frozen=True)
class Program:
    """One program of a workload (a *cell* is a program under a mode)."""

    name: str
    sources: tuple[str, ...]
    args: Callable[[np.random.Generator], list]
    calls: int
    #: Host-level calls that make one program run (1 except for the
    #: empty ``dispatch_host``, whose "run" is a host loop of calls).
    repeat: int = 1
    #: Draws from GLOBAL_RANDOM: reseeded before every call, not only
    #: before every batch, so each call computes the reference result.
    randomized: bool = False
    #: Running it is bound by memory traffic, not by instructions: its
    #: samples follow the memory calibration loop (``worker.Probe``).
    memory_bound: bool = False


@dataclass(frozen=True)
class Workload:
    """Why each exists is recorded once, in BENCHMARK.json and README.md."""

    name: str
    programs: tuple[Program, ...]


def _table1_sources(name: str) -> tuple[str, ...]:
    return (source_of(name),) + tuple(
        source_of(helper) for helper in benchmark(name).helpers
    )


def _local_source(name: str) -> tuple[str, ...]:
    return ((PROGRAMS_DIR / f"{name}.m").read_text(),)


def _const(*values):
    return lambda rng: list(values)


# ----------------------------------------------------------------------
# Seeded input builders (sizes fixed, values drawn from ``rng``)
# ----------------------------------------------------------------------
def _poisson(n: int) -> np.ndarray:
    """1-D Poisson matrix: SPD, and slow enough for CG/QMR/SOR that a
    tiny tolerance is never met within the fixed ``maxit``."""
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def _solver_args(n: int, *tail):
    return lambda rng: [_poisson(n), rng.random((n, 1)) + 0.5, *tail]


def _icn_args(n: int):
    def build(rng):
        base = rng.random((n, n))
        return [(base + base.T) / 2.0 + n * np.eye(n), n]
    return build


def _mei_args(n: int, m: int):
    def build(rng):
        idx = np.arange(n, dtype=np.float64)
        d = idx[:, None] - idx[None, :]
        return [np.exp(-0.1 * d * d), rng.random((n, m))]
    return build


def _wave_args(n: int, m: int):
    # finedif is stable for c*k/h <= 1; with n == m that is c <= 1.
    return lambda rng: [n, m, 0.5 + 0.5 * rng.random()]


def _heat_args(n: int, m: int):
    return lambda rng: [n, m, 0.9 + 0.2 * rng.random()]


def _orbit_args(nstep: int, tau: float):
    return lambda rng: [nstep, tau * (1.0 + 0.1 * rng.random())]


def _vec(rng, n, shift=0.5):
    return rng.random((1, n)) + shift


def _qmr_axpy_args(n: int, iters: int):
    return lambda rng: [
        _vec(rng, n), _vec(rng, n), _vec(rng, n), 0.0005, 0.0003, iters,
    ]


def _orb_step_args(n: int, steps: int):
    return lambda rng: [
        _vec(rng, n), _vec(rng, n), _vec(rng, n, -0.5), _vec(rng, n, -0.5),
        0.001, 1.0, steps,
    ]


def _crnich_step_args(n: int, steps: int):
    return lambda rng: [_vec(rng, n), _vec(rng, n), 0.01, steps]


#: Tolerance no solver reaches inside its ``maxit`` (see module docstring).
_NEVER = 1e-30

#: Per program: argument builder and compiled-mode batch size.
_PROGRAMS: dict[str, tuple[Callable, int]] = {
    # Fortran-style scalar loops
    "dirich": (_const(5, 1e-12, 1), 40),
    "finedif": (_wave_args(6, 6), 50),
    "icn": (_icn_args(4), 40),
    "mandel": (_const(4, 6), 60),
    "crnich": (_heat_args(4, 4), 30),
    "galrkn": (_const(6), 30),
    # builtin-dominated solvers
    "cgopt": (_solver_args(150, _NEVER, 16), 1),
    "qmr": (_solver_args(150, _NEVER, 6), 1),
    "sor": (_solver_args(100, 1.5, _NEVER, 20), 1),
    "mei": (_mei_args(4, 3), 15),
    # small-vector codes
    "orbec": (_orbit_args(30, 0.0005), 2),
    "orbrk": (_orbit_args(9, 0.002), 2),
    "fractal": (_const(50), 3),
    "adapt": (_const(2, 1e-7), 20),
    # recursive codes
    "fibonacci": (_const(10), 2),
    "ackermann": (_const(2, 3), 6),
    # benchmark-only programs (perfbench/programs)
    "qmr_axpy": (_qmr_axpy_args(65536, 3), 1),
    "orb_step": (_orb_step_args(65536, 2), 1),
    "crnich_step": (_crnich_step_args(65536, 6), 1),
    "dispatch_host": (_const(), 1),
}

_RANDOMIZED = {"fractal"}
_MEMORY_BOUND = {"qmr_axpy", "orb_step", "crnich_step"}

#: Host calls that make one run of the empty function (8 us a call).
_DISPATCH_REPEAT = 600


def _program(name: str) -> Program:
    args, calls = _PROGRAMS[name]
    local = (PROGRAMS_DIR / f"{name}.m").exists()
    return Program(
        name=name,
        sources=_local_source(name) if local else _table1_sources(name),
        args=args,
        calls=calls,
        repeat=_DISPATCH_REPEAT if name == "dispatch_host" else 1,
        randomized=name in _RANDOMIZED,
        memory_bound=name in _MEMORY_BOUND,
    )


#: ``cold_session`` holds half of Table 1 (the cheaper-to-compile half of
#: each group), not all 16 programs: a round over 16 programs' compiles
#: takes 2.2 s, which leaves a run six samples of each cell, too few for
#: the fastest one to be steady.  Every one of the 16 is in exactly one
#: of the four workloads above it.
COLD_PROGRAMS = (
    "dirich", "finedif", "cgopt", "sor", "orbec", "orbrk", "fibonacci",
    "ackermann",
)


def _workload(name: str, programs) -> Workload:
    return Workload(name, tuple(_program(p) for p in programs))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    _workload("scalar_loops", (
        "dirich", "finedif", "icn", "mandel", "crnich", "galrkn")),
    _workload("builtin_solvers", ("cgopt", "qmr", "sor", "mei")),
    _workload("small_vector", ("orbec", "orbrk", "fractal", "adapt")),
    _workload("large_vector", ("qmr_axpy", "orb_step", "crnich_step")),
    _workload("call_heavy", ("fibonacci", "ackermann", "dispatch_host")),
    _workload("cold_session", COLD_PROGRAMS),
)}


#: Not one of the six: a two-program miniature for test_bench_smoke.py.
WORKLOADS["smoke"] = _workload(
    "smoke", ("fibonacci", "orbec"),   # one recursive, one fusing program
)


def program_rng(seed: int, workload: str, program: str):
    """The generator a program's inputs are drawn from: a pure function
    of (seed, workload, program), independent of build order."""
    tag = [ord(c) for c in f"{workload}/{program}"]
    return np.random.default_rng([int(seed), *tag])
