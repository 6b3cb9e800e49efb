"""Execution supervision: watchdogs, sandbox trials, self-healing.

``repro.resilience`` is the robustness tier layered over the repository:

* :mod:`~repro.resilience.watchdog` — wall-clock deadlines on compiles
  and compiled runs, cancelled by asynchronous exception injection from a
  single process-wide monitor thread;
* :mod:`~repro.resilience.sandbox` — a freshly compiled object's first
  run executes in a supervised fork; a crash/OOM/hang kills the sandbox,
  never the session;
* worker supervision lives in
  :mod:`repro.repository.background` (heartbeats, dead-worker restarts
  with exponential backoff, poison-task quarantine) and cache
  self-healing in :mod:`repro.repository.cache` (corruption detection,
  IO retries, quarantine-and-rebuild) — both are steered by the
  :class:`ResiliencePolicy` knobs defined here.

Everything is policy-driven: a single frozen :class:`ResiliencePolicy`
carries the deadlines, backoffs and retry budgets, and a session passes
one policy down through the repository, the speculation engine and the
disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.sandbox import (
    SandboxExecutor,
    SandboxFailure,
    SandboxVerdict,
)
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
    the compile watchdog is armed but generous, the run watchdog and the
    sandbox tier are opt-in, and the worker/cache healing parameters only
    matter once something actually dies.
    """

    #: Wall-clock deadline on one compile (None disables the guard).  A
    #: compile is off the hot path, so a generous armed-by-default bound
    #: costs ~2 lock acquisitions per compile.
    compile_deadline: float | None = 60.0
    #: Wall-clock deadline on one compiled-object run.  Off by default:
    #: arming it costs a registration per top-level call, and MaJIC
    #: cannot know how long a legitimate user computation should take.
    run_deadline: float | None = None
    #: Run every fresh compile's first invocation in a forked sandbox.
    sandbox: bool = False
    #: Hard timeout on one sandbox trial before the child is killed.
    sandbox_timeout: float = 30.0
    #: A worker whose heartbeat is older than this is presumed hung and
    #: gets a DeadlineExceeded injected.
    worker_heartbeat_timeout: float = 30.0
    #: Total dead-worker restarts the supervisor will pay for before the
    #: engine degrades to foreground-only compilation.
    worker_max_restarts: int = 8
    #: Base of the exponential restart backoff (seconds); restart *n*
    #: waits ``backoff * 2**n`` capped at 1s.
    worker_restart_backoff: float = 0.01
    #: How many times a task that killed its worker is retried before it
    #: is quarantined as poison.
    worker_max_task_retries: int = 2
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
    "SandboxExecutor",
    "SandboxFailure",
    "SandboxVerdict",
]
