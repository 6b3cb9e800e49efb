"""Execution supervision: watchdogs and self-healing.

``repro.resilience`` is the robustness tier layered over the repository:

* :mod:`~repro.resilience.watchdog` — wall-clock deadlines on compiles
  and compiled runs, cancelled by asynchronous exception injection from a
  single process-wide monitor thread;
* the speculation pool (:mod:`repro.repository.background`) adds no
  detector of its own: a hung task is cancelled by the compile watchdog,
  and a task that raises anything, a simulated crash included, is one
  failed task; cache self-healing lives in
  :mod:`repro.repository.cache` (corruption detection, IO retries,
  quarantine-and-rebuild).

A fresh compile's first run needs no tier of its own: every version the
repository serves is host bytecode, so whatever its first run raises
(``MemoryError`` included) lands in the repository's in-process deopt
net, and a run watchdog cancels a hang.  The one tier that runs foreign
machine code, a fresh native ``.so``, trials its first run in a forked
child (:func:`repro.native.engine.fork_call`).

A single frozen :class:`ResiliencePolicy` carries the deadlines and the
parallel backend's budgets, and a session passes one policy down
through the repository and the parallel driver.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.watchdog import (
    DeadlineExceeded,
    ExecutionGuard,
    KIND_COMPILE,
    KIND_RUN,
    MONITOR,
)


@dataclass(frozen=True)
class ResiliencePolicy:
    """The supervision knobs, in one immutable bundle.

    Defaults are chosen so an undisturbed session pays (nearly) nothing:
    the compile watchdog is armed but generous, the run watchdog is
    opt-in, and the parallel restart budget only matters once a rank
    actually dies.
    """

    #: Wall-clock deadline on one compile (None disables the guard).  A
    #: compile is off the hot path, so a generous armed-by-default bound
    #: costs ~2 lock acquisitions per compile.
    compile_deadline: float | None = 60.0
    #: Wall-clock deadline on one compiled-object run.  Off by default:
    #: arming it costs a registration per top-level call, and MaJIC
    #: cannot know how long a legitimate user computation should take.
    run_deadline: float | None = None
    #: How long the parallel driver waits for one worker rank's reply
    #: before declaring the message lost and falling back to serial
    #: execution (:mod:`repro.parallel`).
    parallel_recv_timeout: float = 60.0
    #: Dead parallel-worker respawns paid for before the parallel backend
    #: degrades to serial execution for the rest of the session.
    parallel_max_restarts: int = 4


#: The default policy (module-level so callers can compare identity).
DEFAULT_POLICY = ResiliencePolicy()

__all__ = [
    "DEFAULT_POLICY",
    "DeadlineExceeded",
    "ExecutionGuard",
    "KIND_COMPILE",
    "KIND_RUN",
    "MONITOR",
    "ResiliencePolicy",
]
