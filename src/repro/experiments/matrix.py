"""The measurement matrix (Section 3.2's methodology).

* the gauge is speedup ``s = t_i / t_c`` over the interpreter;
* JIT runtimes *include* JIT compile time (fresh, empty repository per
  run); speculative runtimes assume the repository compiled ahead of time
  (compile excluded) unless the speculative code fails to match, in which
  case the JIT kicks in during the run;
* mcc and FALCON are batch compilers measured with compilation excluded;
* times are "best of N runs".

A :class:`Cell` is one configuration — ``(benchmark, engine, platform,
ablation)`` — and every cell is timed by the one :func:`best_of` loop over
a :class:`repro.backends.Handle`, which reseeds the shared random stream
before every call and returns the call's :class:`~repro.backends.
Observation`.  :func:`time_cell` *refuses* a timed call whose observation
differs from the interpreter's: a diverged run is not a measurement.  A
:class:`Matrix` holds each cell at most once; the paper's tables and
figures (:mod:`repro.experiments.figures`) are views of it, and
``experiment_results.json`` is its numbers.
"""

from __future__ import annotations

import functools
import json
import os
import platform as host
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, astuple, dataclass, field, replace

from repro import backends
from repro.backends import Observation, Program
from repro.benchsuite.registry import benchmark, source_of
from repro.benchsuite.workloads import boxed_workload
from repro.core.platformcfg import AblationFlags, SPARC, platform_by_name
from repro.core.timing import ExecutionBreakdown
from repro.experiments import annotations
from repro.experiments.responsiveness import Phase

ENGINES = ("interp", "mcc", "falcon", "jit", "spec")

#: Engine name -> :data:`repro.backends.BACKENDS` label where they differ.
#: The paper's JIT bar is the default session (fused kernels on), which
#: the table calls ``fused``; its ``jit`` row is the fusion-off variant.
_BACKEND_OF = {"interp": "interpreter", "jit": "fused"}

#: Figure 7's switches, by the label a cell carries.
ABLATIONS = {
    flags.label: flags for flags in (
        AblationFlags(), AblationFlags(no_ranges=True),
        AblationFlags(no_min_shapes=True), AblationFlags(no_regalloc=True),
    )
}


@dataclass(frozen=True)
class Cell:
    """One configuration of the matrix.  The interpreter has one cell per
    benchmark: a platform only sets its recursion headroom."""

    benchmark: str
    engine: str
    platform: str = SPARC.name
    ablation: str = "full"

    def __str__(self) -> str:
        return "/".join(astuple(self))


class DivergedRun(AssertionError):
    """The timed call did not do what the interpreter does."""


@dataclass
class RunResult:
    """One measured cell."""

    cell: Cell
    runtime_s: float
    compile_s: float = 0.0           # excluded (batch/speculative) compile
    #: Figure 6's split of ``runtime_s``; compile phases are zero where
    #: the timed call compiled nothing.
    breakdown: ExecutionBreakdown = field(default_factory=ExecutionBreakdown)
    #: Table 2: the speculated signature rejected the call and the JIT
    #: kicked in.
    spec_missed: bool = False
    #: What the best timed call was seen to do (equal to the interpreter's
    #: or :func:`time_cell` would have raised); ``None`` in a loaded file.
    observation: Observation | None = None
    #: The measured (closed) session, kept only when observability was
    #: requested so callers can export the trace/metrics of the best run.
    session: object = None


def best_of(program: Program, backend, repeats: int, fresh: bool = False,
            **overrides):
    """The one timing loop: best of ``repeats`` calls of ``program``.

    ``fresh=True`` opens a new handle per repeat, so every timed call
    starts from an empty repository (JIT: compile time included).
    Otherwise one handle serves every repeat; a batch compiler's handle is
    warmed by one untimed call first (it compiles on first execution;
    excluded).  Returns ``(seconds, observation, handle)`` of the best
    call; the handle comes back closed."""
    best = (float("inf"), None, None)
    handle = None
    try:
        for _ in range(repeats):
            if fresh or handle is None:
                if handle is not None:
                    handle.close()
                handle = backends.open(program, backend, **overrides)
                if handle.engine is not None:
                    handle.call()
            seen = handle.call()
            if handle.elapsed < best[0]:
                best = (handle.elapsed, seen, handle)
    finally:
        if handle is not None:
            handle.close()
    return best


@functools.lru_cache(maxsize=None)
def program_of(name: str, scale: tuple) -> Program:
    """A Table-1 program, or Section 5's ``finedif_hand`` (the
    hand-optimized source on finedif's own workload).  Memoized like
    ``Program.benchmark``: equal requests share one ``reference()``."""
    if name != "finedif_hand":
        return Program.benchmark(name, scale)
    return Program(
        (source_of(name),), name, lambda: boxed_workload("finedif", scale),
    )


def time_cell(cell: Cell, scale: tuple, repeats: int,
              trace: bool = False, metrics: bool = False) -> RunResult:
    """Measure one cell, best of ``repeats``; raise :class:`DivergedRun`
    when the timed call's observation is not the interpreter's.

    ``trace``/``metrics`` (session engines only) turn on the session's
    observability recorders; the best run's session rides along on
    ``RunResult.session`` and its breakdown is derived from the span tree
    instead of wall-clock subtraction."""
    program = program_of(cell.benchmark, tuple(scale))
    backend = annotations.BACKENDS.get(cell.engine) or backends.BACKENDS[
        _BACKEND_OF.get(cell.engine, cell.engine)]
    overrides = {}
    if backend.session is not None:
        overrides = {"ablation": ABLATIONS[cell.ablation],
                     "trace": trace, "metrics": metrics}
    elapsed, seen, handle = best_of(
        program, backend, repeats, fresh=(cell.engine == "jit"),
        platform=platform_by_name(cell.platform), **overrides,
    )
    diverged = backends.reference(program).diff(seen)
    if diverged:
        raise DivergedRun(
            f"{cell}: the timed call differs from the interpreter on "
            f"{diverged}; not a measurement")
    session = handle.session
    if session is not None and trace:
        # Spans carry the full phase/execution attribution.
        breakdown = ExecutionBreakdown.from_spans(session.obs.tracer.spans())
    else:
        breakdown = ExecutionBreakdown()
        if cell.engine == "jit":
            # Figure 6 without a trace: the JIT's logged phase times, the
            # rest of the call being execution.
            for _, mode, phases in session.repository.compile_log:
                if mode == "jit":
                    breakdown.add_phases(phases)
        breakdown.execution = max(elapsed - breakdown.compile, 0.0)
    compile_s = handle.prepare_s
    if handle.engine is not None:
        compile_s += handle.engine.compile_seconds
    return RunResult(
        cell=cell, runtime_s=elapsed, compile_s=compile_s, breakdown=breakdown,
        spec_missed=bool(getattr(handle.engine, "spec_misses", ())),
        observation=seen,
        session=session if (trace or metrics) else None,
    )


def run_benchmark(name: str, engine: str = "jit", platform=SPARC,
                  scale: tuple | None = None, repeats: int = 3,
                  trace: bool = False, metrics: bool = False) -> RunResult:
    """Measure one benchmark under one of :data:`ENGINES`, outside any
    matrix (the ``run`` subcommand; the engines-agree tests)."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
    if scale is None:
        scale = benchmark(name).default_scale
    return time_cell(Cell(name, engine, platform.name), scale, repeats,
                     trace=trace, metrics=metrics)


@dataclass
class Matrix:
    """Measured cells, each at most once, plus what they were measured
    at.  ``scales`` is keyed in Table 1 order and names the benchmarks."""

    repeats: int
    scales: dict[str, tuple]
    cells: dict[Cell, RunResult] = field(default_factory=dict)
    #: The responsiveness experiment's three phases, when measured.
    phases: dict[str, Phase] | None = None
    env: dict = field(default_factory=dict)

    @property
    def names(self) -> list[str]:
        return list(self.scales)

    def time(self, cell: Cell) -> RunResult:
        """Measure ``cell`` unless it already is."""
        if cell not in self.cells:
            # finedif_hand runs finedif's workload.
            scale = self.scales[cell.benchmark.removesuffix("_hand")]
            self.cells[cell] = time_cell(cell, scale, self.repeats)
        return self.cells[cell]

    def seconds(self, benchmark: str, engine: str = "interp",
                platform: str = SPARC.name, ablation: str = "full") -> float:
        return self.cells[Cell(benchmark, engine, platform, ablation)].runtime_s

    def speedup(self, benchmark: str, engine: str,
                platform: str = SPARC.name) -> float:
        """``t_i / t_c``."""
        return self.seconds(benchmark) / self.seconds(benchmark, engine, platform)

    # -- the file: numbers only ----------------------------------------
    def to_json(self) -> str:
        def numbers(result: RunResult) -> dict:
            entry = asdict(replace(result, observation=None, session=None))
            del entry["observation"], entry["session"]
            return entry

        phases = self.phases and {k: asdict(p) for k, p in self.phases.items()}
        head = {**self.env, "repeats": self.repeats, "scales": self.scales,
                "responsiveness": phases}
        # One line per key and per cell: a re-measure diffs cell by cell.
        lines = [f' "{key}": {json.dumps(value)}' for key, value in head.items()]
        cells = ",\n".join(
            "  " + json.dumps(numbers(r)) for r in self.cells.values())
        lines.append(f' "cells": [\n{cells}\n ]')
        return "{\n" + ",\n".join(lines) + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "Matrix":
        data = json.loads(text)
        phases = data.pop("responsiveness")
        results = [
            RunResult(Cell(**entry.pop("cell")),
                      breakdown=ExecutionBreakdown(**entry.pop("breakdown")),
                      **entry)
            for entry in data.pop("cells")
        ]
        return cls(
            repeats=data.pop("repeats"),
            scales={b: tuple(s) for b, s in data.pop("scales").items()},
            cells={r.cell: r for r in results},
            phases=phases and {k: Phase(**p) for k, p in phases.items()},
            env=data,
        )


def environment() -> dict:
    """Where and from what a matrix was measured.  ``src_tree`` is the git
    tree id of ``src/`` as it stands (``git rev-parse HEAD:src`` once
    committed); ``git_commit`` is the commit underneath, ``-dirty`` when
    the work tree has moved on from it."""
    def git(*args, **env):
        try:
            done = subprocess.run(["git", *args], capture_output=True,
                                  text=True, env={**os.environ, **env})
        except OSError:
            return ""
        return done.stdout.strip()

    with tempfile.TemporaryDirectory() as tmp:
        index = {"GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "-A", "src", **index)
        src_tree = git("write-tree", "--prefix=src/", **index)
    return {
        "git_commit": git("describe", "--always", "--dirty", "--abbrev=40",
                          "--exclude=*"),
        "src_tree": src_tree,
        "date": time.strftime("%Y-%m-%d"),
        "host": f"{host.node()} ({host.machine()}, {os.cpu_count()} cpus, "
                f"{host.system()} {host.release()})",
        "python": sys.version.split()[0],
    }
