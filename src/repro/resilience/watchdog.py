"""The execution watchdog: wall-clock deadlines on compiles and runs.

Compilation and compiled-object execution are the two places generated or
generator code can *hang* — a pathological inference fixpoint, a
miscompiled loop bound, an injected ``hang`` fault.  MaJIC's contract is
that neither may wedge the interactive session, so both run under an
:class:`ExecutionGuard` deadline:

* a **compile** that overruns its deadline is cancelled; the caller sees
  :class:`DeadlineExceeded`, records a compile failure and charges a
  quarantine strike (a function whose compiles keep hanging is demoted to
  interpreter-only);
* a **run** that overruns is cancelled mid-flight and falls back to the
  interpreter through the ordinary guarded-deoptimization chain — the
  half-run call's side effects (RNG draws, printed output) roll back as
  for any other deopt.

Mechanism
---------
One process-wide daemon **monitor thread** owns a registry of active
deadlines (a dict of tokens, each naming a thread id and an absolute
deadline).  Guarded code runs *in the calling thread* — registering a
deadline costs two lock acquisitions, not a thread spawn — and the
monitor cancels an overrun by injecting :class:`DeadlineExceeded` into
the offending thread with ``PyThreadState_SetAsyncExc``.  The exception
lands at the next bytecode boundary, which is why the injected ``hang``
fault busy-loops over short sleeps rather than blocking in one long
syscall.

Cancellation is cooperative-asynchronous, not preemptive: a hang inside a
single C call (one giant BLAS operation) is only cancelled when it
returns to the interpreter loop.  That is the honest best available
in-process.  Every version the repository serves is host bytecode; the
one tier that runs foreign machine code, a fresh native ``.so``, trials
its first run in a forked child under a hard timeout
(:func:`repro.native.engine.fork_call`).

Nested guards collapse onto the outermost one (per thread): a compiled
call re-entering ``execute`` for a callee does not stack a second
deadline, so hot recursive code pays the registration cost once per
top-level invocation.
"""

from __future__ import annotations

import ctypes
import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass

#: Deadline kinds (label the diagnostics and pick the policy timeout).
KIND_COMPILE = "compile"
KIND_RUN = "run"


class DeadlineExceeded(RuntimeError):
    """A guarded operation overran its wall-clock deadline.

    Deliberately a plain :class:`RuntimeError` (never a MatlabError): the
    guarded-deopt safety net treats it like any other host-level defect —
    quarantine the implicated version and re-execute through the
    interpreter.
    """


def async_raise(thread_id: int) -> bool:
    """Schedule :class:`DeadlineExceeded` to be raised in another thread.

    Returns True when exactly one thread state was modified.  CPython
    only; on failure (or a non-CPython host) returns False and the caller
    degrades to bounded-hang semantics.
    """
    try:
        res = ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_id), ctypes.py_object(DeadlineExceeded)
        )
    except Exception:  # noqa: BLE001 - non-CPython / restricted host
        return False
    if res > 1:
        # Undefined target: revoke rather than poison an arbitrary thread.
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_id), None
        )
        return False
    return res == 1


def async_raise_clear(thread_id: int) -> None:
    """Revoke a pending asynchronous exception that never materialized."""
    try:
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_id), None
        )
    except Exception:  # noqa: BLE001
        pass


@dataclass
class _Entry:
    thread_id: int
    deadline: float
    label: str
    kind: str
    on_fire: object  # callback(label, kind, overrun_seconds) or None
    fired: bool = False


class _WatchdogMonitor:
    """The process-wide deadline registry plus its single daemon thread.

    Shared by every session so a test suite creating hundreds of sessions
    spawns one thread, not hundreds.  The thread starts lazily on the
    first registration and sleeps on a condition (woken by registrations,
    timed to the earliest pending deadline) — idle sessions cost nothing.
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._entries: dict[int, _Entry] = {}
        self._tokens = itertools.count(1)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def register(self, deadline_seconds: float, label: str, kind: str,
                 on_fire=None) -> int:
        entry = _Entry(
            thread_id=threading.get_ident(),
            deadline=time.monotonic() + deadline_seconds,
            label=label,
            kind=kind,
            on_fire=on_fire,
        )
        with self._cond:
            token = next(self._tokens)
            self._entries[token] = entry
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop, name="majic-watchdog", daemon=True
                )
                self._thread.start()
            self._cond.notify_all()
        return token

    def cancel(self, token: int) -> bool:
        """Retire one deadline; returns True when it already fired."""
        with self._cond:
            entry = self._entries.pop(token, None)
            return entry.fired if entry is not None else False

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            callbacks = []
            with self._cond:
                if not self._entries:
                    # Park until the next registration; wake periodically
                    # so a long-idle process keeps exactly one thread.
                    self._cond.wait(timeout=5.0)
                    continue
                now = time.monotonic()
                soonest = None
                for entry in self._entries.values():
                    if entry.fired:
                        continue
                    if now >= entry.deadline:
                        entry.fired = True
                        overrun = now - entry.deadline
                        if async_raise(entry.thread_id):
                            callbacks.append(
                                (entry.on_fire, entry.label, entry.kind,
                                 overrun)
                            )
                    elif soonest is None or entry.deadline < soonest:
                        soonest = entry.deadline
                wait = None if soonest is None else max(
                    soonest - time.monotonic(), 0.001
                )
                if not callbacks:
                    self._cond.wait(timeout=wait if wait is not None else 1.0)
            for on_fire, label, kind, overrun in callbacks:
                if on_fire is None:
                    continue
                try:
                    on_fire(label, kind, overrun)
                except Exception:  # noqa: BLE001 - the watchdog must survive
                    pass


#: The shared monitor (one per process).
MONITOR = _WatchdogMonitor()


class _NullGuardContext:
    """Reusable no-op context for disabled deadline kinds."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullGuardContext()


class _GuardContext:
    """One armed deadline around a compile or run (context manager)."""

    __slots__ = ("_guard", "_label", "_kind", "_timeout", "_token", "_tid")

    def __init__(self, guard, label, kind, timeout):
        self._guard = guard
        self._label = label
        self._kind = kind
        self._timeout = timeout
        self._token = None
        self._tid = None

    def __enter__(self):
        state = self._guard._tls
        state.depth = getattr(state, "depth", 0) + 1
        if state.depth == 1:
            self._tid = threading.get_ident()
            self._token = MONITOR.register(
                self._timeout, self._label, self._kind, self._guard._on_fire
            )
        return self

    def __exit__(self, exc_type, exc, tb):
        state = self._guard._tls
        state.depth -= 1
        if self._token is None:
            return False
        fired = MONITOR.cancel(self._token)
        if fired and exc_type is not DeadlineExceeded:
            # The deadline fired but the guarded code finished (or raised
            # something else) before the asynchronous exception landed:
            # revoke it so it cannot detonate in unrelated later code.
            async_raise_clear(self._tid)
        return False


class ExecutionGuard:
    """Per-repository watchdog facade over the shared monitor.

    Carries the policy timeouts and the diagnostics wiring; hands
    out deadline contexts for the two guarded operation kinds.  A kind
    with no timeout yields a shared no-op context, so disabled guards add
    one attribute check to the hot path.
    """

    def __init__(
        self,
        compile_deadline: float | None = None,
        run_deadline: float | None = None,
        diagnostics=None,
    ):
        self.compile_deadline = compile_deadline
        self.run_deadline = run_deadline
        self.diagnostics = diagnostics
        self.timeouts: list[tuple[str, str, float]] = []  # (label, kind, overrun)
        self._tls = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def compile_guard(self, label: str):
        if self.compile_deadline is None:
            return _NULL_CONTEXT
        return _GuardContext(self, label, KIND_COMPILE, self.compile_deadline)

    def run_guard(self, label: str):
        if self.run_deadline is None:
            return _NULL_CONTEXT
        return _GuardContext(self, label, KIND_RUN, self.run_deadline)

    # ------------------------------------------------------------------
    def _on_fire(self, label: str, kind: str, overrun: float) -> None:
        """Monitor-thread callback: record the cancellation."""
        with self._lock:
            self.timeouts.append((label, kind, overrun))
        if self.diagnostics is not None:
            from repro.repository.diagnostics import WATCHDOG_TIMEOUT

            deadline = (
                self.compile_deadline if kind == KIND_COMPILE
                else self.run_deadline
            )
            self.diagnostics.record(
                WATCHDOG_TIMEOUT, label,
                detail=f"{kind} overran its {deadline:.4f}s deadline; "
                "cancelled by the watchdog",
            )

    @property
    def timeouts_by_kind(self) -> Counter:
        """Cancellations per operation kind (what
        ``majic_watchdog_timeouts_total`` reads)."""
        with self._lock:
            return Counter(kind for _, kind, _ in self.timeouts)
