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

It is the one experiment with a stopwatch of its own: it times an enqueue
against a drain, not a call of a program, so it is not a cell of the
matrix (:mod:`repro.experiments.matrix`) but rides in the same file.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass

from repro.benchsuite.registry import sources_of
from repro.core.majic import MajicSession


@dataclass
class Phase:
    """One way of preparing the program, and what the prompt paid for it."""

    label: str
    foreground_s: float  #: time the user's prompt was blocked
    total_s: float  #: wall clock until all compilation had finished
    compiles: int  #: functions actually compiled in this phase
    cache_hits: int  #: compiled objects served from the disk cache


def _synchronous(label: str, sources: list[str], cache_dir) -> Phase:
    session = MajicSession(cache_dir=cache_dir)
    for text in sources:
        session.add_source(text)
    start = time.perf_counter()
    session.speculate_all()
    elapsed = time.perf_counter() - start
    return Phase(
        label, foreground_s=elapsed, total_s=elapsed,
        compiles=session.stats.speculative_compiles,
        cache_hits=session.stats.cache_hits,
    )


def _background(sources: list[str]) -> Phase:
    with MajicSession(background=True) as session:
        for text in sources:
            session.add_source(text)
        start = time.perf_counter()
        session.speculate_async()
        foreground = time.perf_counter() - start  # the prompt is free again
        drained = session.drain_speculation(timeout=300)
        total = time.perf_counter() - start
        if not drained:
            raise RuntimeError("background speculation did not finish")
        return Phase(
            "cold (background)", foreground_s=foreground, total_s=total,
            compiles=session.stats.background_compiles,
            cache_hits=session.stats.cache_hits,
        )


def measure(names: list[str]) -> dict[str, Phase]:
    """All three phases over one program set.  The cold and warm
    synchronous phases share a throwaway persistent cache; the background
    phase runs uncached so its compiles are real."""
    # A helper shared by two programs is registered once.
    sources = list(dict.fromkeys(t for n in names for t in sources_of(n)))
    with tempfile.TemporaryDirectory(prefix="pymajic-resp-") as tmp:
        cold = _synchronous("cold (synchronous)", sources, tmp)
        warm = _synchronous("warm (disk cache)", sources, tmp)
    return {"cold": cold, "background": _background(sources), "warm": warm}
