"""The responsiveness experiment: hiding compile time behind think-time.

The paper's central responsiveness claim is that speculative compilation
moves compile time *off the user's critical path*: the foreground prompt
should never block on the compiler.  This experiment measures the
foreground-visible cost of preparing a whole program three ways:

* **cold (synchronous)** — a fresh session runs :meth:`speculate_all` on
  the foreground thread; the prompt blocks for the full compile time.
  This is the worst case the paper sets out to eliminate.
* **cold (background)** — the same fresh program, but speculation is
  *submitted* to the worker pool (:meth:`speculate_async`) and the
  foreground-visible cost is just the enqueue; compilation proceeds
  off-thread while the "user" thinks.
* **warm (disk cache)** — a later session over the same sources with the
  persistent repository cache populated; every compiled object loads
  from disk and the session compiles **zero** functions.

Usage::

    PYTHONPATH=src python -m repro.experiments.responsiveness
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass

from repro.benchsuite.registry import benchmark_names, sources_of
from repro.core.majic import MajicSession
from repro.experiments.report import format_table

#: A representative subset: recursive scalar code, Fortran-style loops,
#: small-vector code and an iterative solver.
DEFAULT_NAMES = ("fibonacci", "dirich", "fractal", "cgopt")


@dataclass
class Phase:
    """One way of preparing the program, and what the prompt paid for it."""

    label: str
    foreground_s: float  #: time the user's prompt was blocked
    total_s: float  #: wall clock until all compilation had finished
    compiles: int  #: functions actually compiled in this phase
    cache_hits: int  #: compiled objects served from the disk cache


def _cold(sources: list[str], cache_dir) -> Phase:
    session = MajicSession(cache_dir=cache_dir)
    for text in sources:
        session.add_source(text)
    start = time.perf_counter()
    session.speculate_all()
    elapsed = time.perf_counter() - start
    return Phase(
        "cold (synchronous)",
        foreground_s=elapsed,
        total_s=elapsed,
        compiles=session.stats.speculative_compiles,
        cache_hits=session.stats.cache_hits,
    )


def _background(sources: list[str], workers: int | None = None) -> Phase:
    with MajicSession(background=True, workers=workers) as session:
        for text in sources:
            session.add_source(text)
        start = time.perf_counter()
        session.speculate_async()
        foreground = time.perf_counter() - start  # the prompt is free again
        drained = session.drain_speculation(timeout=300)
        total = time.perf_counter() - start
        assert drained, "background speculation did not finish"
        return Phase(
            "cold (background)",
            foreground_s=foreground,
            total_s=total,
            compiles=session.stats.background_compiles,
            cache_hits=session.stats.cache_hits,
        )


def _warm(sources: list[str], cache_dir) -> Phase:
    session = MajicSession(cache_dir=cache_dir)
    for text in sources:
        session.add_source(text)
    start = time.perf_counter()
    session.speculate_all()
    elapsed = time.perf_counter() - start
    return Phase(
        "warm (disk cache)",
        foreground_s=elapsed,
        total_s=elapsed,
        compiles=session.stats.speculative_compiles,
        cache_hits=session.stats.cache_hits,
    )


def generate(
    names: tuple[str, ...] | list[str] | None = None,
    cache_dir=None,
    workers: int | None = None,
) -> dict[str, Phase]:
    """Measure all three phases over one program set.

    ``cache_dir`` holds the persistent cache shared by the cold and warm
    synchronous phases (a throwaway temp directory by default); the
    background phase runs uncached so its compiles are real.
    """
    names = tuple(names or DEFAULT_NAMES)
    unknown = set(names) - set(benchmark_names())
    if unknown:
        raise ValueError(f"unknown benchmarks: {sorted(unknown)}")
    # A helper shared by two programs is registered once.
    sources = list(dict.fromkeys(t for n in names for t in sources_of(n)))
    if cache_dir is None:
        with tempfile.TemporaryDirectory(prefix="pymajic-resp-") as tmp:
            cold = _cold(sources, tmp)
            warm = _warm(sources, tmp)
    else:
        cold = _cold(sources, cache_dir)
        warm = _warm(sources, cache_dir)
    background = _background(sources, workers=workers)
    return {"cold": cold, "background": background, "warm": warm}


def render(phases: dict[str, Phase]) -> str:
    header = (
        "Responsiveness: foreground-visible compile cost, three ways\n"
        "(background hides t_c behind think-time; the warm cache removes it)"
    )
    table = format_table(
        ["phase", "foreground (ms)", "total (ms)", "compiles", "cache hits"],
        [
            [
                phase.label,
                f"{phase.foreground_s * 1e3:.2f}",
                f"{phase.total_s * 1e3:.2f}",
                phase.compiles,
                phase.cache_hits,
            ]
            for phase in phases.values()
        ],
    )
    return header + "\n" + table


def main() -> str:  # pragma: no cover - CLI convenience
    text = render(generate())
    print(text)
    return text


if __name__ == "__main__":  # pragma: no cover
    main()
