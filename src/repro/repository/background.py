"""Background speculative compilation (the paper's hidden ``t_c``).

MaJIC's responsiveness story is that speculative compile time is *hidden*:
"the compiler runs in the background, during user think-time", so the
interactive prompt never blocks on the optimizing pipeline.  A
:class:`SpeculationEngine` reproduces that mechanism: a daemon worker
pool drains a thread-safe queue of tasks while the foreground session
keeps interpreting and JIT-compiling.  Every work item is a task — a
labelled callable; a speculation is the task whose body compiles one
function through :meth:`CodeRepository.speculate` unless its generation
went stale, and native C compiles and tier promotions ride the same
queue — so dedup, deadlines and completion callbacks exist once.

Lifecycle of one work item
--------------------------
* :meth:`submit` enqueues a function under its *current* repository
  generation; a name already queued or in flight at the same generation
  is deduplicated.  :meth:`submit_all` queues every function in name
  order and no task waits for another: compiled code calls another
  function through the repository, so no compile order decides what
  any call runs.
* A worker dequeues the task, whose body re-checks the generation (a
  redefinition while queued cancels it) and runs the repository's
  speculative pipeline.  The repository re-checks the generation once
  more before storing, so a redefinition *mid-compile* discards the
  stale object rather than letting it serve the new source's calls.
* Anything a task raises — injected faults included — is absorbed and
  recorded; the function simply stays interpreter/JIT-served.  A task
  can fail, the queue cannot deadlock.

Failures
--------
The pool has no supervisor thread: each kind of failure goes to the one
detector the rest of the session already uses for it.

* **A hung task is the watchdog's.**  Each task body runs inside the
  repository's compile guard, onto which the repository's own nested
  compile guard collapses.  An overrun gets a
  :class:`~repro.resilience.DeadlineExceeded` injected, which the worker
  absorbs as an ordinary failed compile: one ``watchdog_timeout`` event,
  one ``majic_watchdog_timeouts_total`` count.  An injection that fired
  but never landed is revoked when the guard exits.
* **A crash is a failed task.**  A task that raises anything, a
  :class:`~repro.faults.plan.SimulatedCrash` (a ``BaseException``)
  included, is one failed task: one ``compile_failure`` event, its label
  in ``failed``, and the worker takes the next task.

The foreground can :meth:`drain` (bounded wait for quiet), poll
:meth:`pending`, or simply keep calling functions: an invocation arriving
before its speculative version lands falls through to the JIT compiler or
the interpreter exactly as in a synchronous session, which is why every
interleaving converges to the same values.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.obs import DISABLED as DISABLED_OBS
from repro.repository.diagnostics import SPECULATE_ASYNC

_STOP = object()

#: Default worker-pool width when neither the session nor the platform
#: configuration names one.
DEFAULT_WORKERS = 2


class _Task:
    """One work item: a labelled callable plus its queue bookkeeping.

    ``token`` scopes deduplication — a label already queued under an
    equal token is not queued again (a speculation passes its generation,
    so a redefined function may re-queue; everything else passes
    ``None``).  ``parent`` is the submitting thread's innermost span.
    """

    __slots__ = ("label", "fn", "token", "on_done", "parent")

    def __init__(self, label, fn, token, on_done, parent):
        self.label = label
        self.fn = fn
        self.token = token
        self.on_done = on_done
        self.parent = parent

    def finish(self, success: bool) -> None:
        """Fire the completion callback exactly once (then disarm it)."""
        callback, self.on_done = self.on_done, None
        if callback is None:
            return
        try:
            callback(success)
        except Exception:  # noqa: BLE001 - callbacks must not kill workers
            pass


def run_out_of_band(submit, sync: bool, fn, label: str, on_done=None) -> None:
    """Where an out-of-band compile (native kernel, tier promotion) runs.

    ``submit`` is the session's bridge to the supervised worker pool.
    The work runs inline — at the decision point, which the
    deterministic harnesses rely on — when ``sync`` is set or there is no
    bridge, and also when the pool refuses it (shut down, duplicate
    label): a dead pool must not lose the work.
    """
    if not sync and submit is not None:
        try:
            if submit(fn, label, on_done):
                return
        except Exception:  # noqa: BLE001 - a broken bridge means inline
            pass
    fn()


class SpeculationEngine:
    """A daemon worker pool running speculative compiles off-thread."""

    def __init__(
        self,
        repository,
        workers: int = DEFAULT_WORKERS,
        fault_plan=None,
        obs=None,
    ):
        if workers < 1:
            raise ValueError("SpeculationEngine needs at least one worker")
        self.repository = repository
        self.fault_plan = fault_plan
        # Observability: default to the repository's switchboard so the
        # workers and the foreground share one tracer/registry.
        if obs is None:
            obs = getattr(repository, "obs", None) or DISABLED_OBS
        self.obs = obs
        # The queue depth is a level, so it is pushed (bound once, here).
        self._push_depth = obs.push("majic_speculation_queue_depth")
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._quiet = threading.Condition(self._lock)
        # label -> queued task (dedup of identical submissions)
        self._queued: dict[str, _Task] = {}
        self._in_flight = 0
        self._shutdown = False
        # Outcome tallies (inspected by tests and the experiment report).
        self.compiled: list[str] = []
        self.failed: list[str] = []
        self.cancelled: list[str] = []
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"majic-spec-{index}", daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, name: str) -> bool:
        """Queue one function for background speculation.

        Returns False when the submission was deduplicated (already
        queued or compiling at the same generation) or the engine is
        shut down.
        """
        repo = self.repository
        generation = repo.generation_of(name)

        def speculation():
            obj = repo.speculate(name, generation=generation)
            if obj is None:
                # Redefined while queued or mid-compile (the repository
                # checks the generation before compiling and again before
                # storing), or a compile failure it has already recorded.
                stale = repo.generation_of(name) != generation
                return self.cancelled if stale else self.failed
            with self._lock:  # workers are this counter's only writers
                repo.stats.background_compiles += 1
            repo.diagnostics.record(
                SPECULATE_ASYNC, name,
                detail="speculative version compiled in the background",
                signature=obj.signature,
            )
            return None

        return self.submit_task(speculation, name, token=generation)

    def submit_task(self, fn, label: str, on_done=None, token=None) -> bool:
        """Queue one callable on the supervised worker pool.

        Returns False when the engine is shut down, or when ``label`` is
        already queued under an equal ``token`` (callers then run the
        work inline or drop it).  ``label`` names the task in
        diagnostics and dedup.  ``fn`` may return
        the tally (``self.cancelled`` / ``self.failed``) its label belongs
        on; any other value means it completed.  ``on_done`` (if given) is
        invoked
        with ``True``/``False`` once the task finishes or is abandoned
        (failure, cancellation).
        """
        # Capture the submitting thread's innermost span (typically the
        # session's ``speculate_async`` span) so the worker's spans hang
        # off it in the trace tree despite running on another thread.
        task = _Task(label, fn, token, on_done, self.obs.tracer.current_id())
        with self._lock:
            if self._shutdown:
                return False
            queued = self._queued.get(label)
            if queued is not None and queued.token == token:
                return False
            self._queued[label] = task
        self._queue.put(task)
        if self._push_depth is not None:
            self._push_depth(self.pending())
        return True

    def submit_all(self) -> int:
        """Queue every function the repository knows; returns how many."""
        return sum(1 for name in self.repository.function_names() if self.submit(name))

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Work items not yet finished (queued + in flight)."""
        with self._lock:
            return len(self._queued) + self._in_flight

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the queue is quiet; False on timeout.

        Interactive sessions call this when they *want* the compiled code
        now (benchmark start); otherwise they just keep executing and let
        results land whenever they land.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._quiet:
            while self._queued or self._in_flight:
                if deadline is None:
                    self._quiet.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._quiet.wait(remaining)
            return True

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the workers."""
        with self._lock:
            self._shutdown = True
        for _ in self._threads:
            self._queue.put(_STOP)
        if wait:
            for thread in self._threads:
                thread.join(timeout=10)

    # ------------------------------------------------------------------
    # The worker loop
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            task = self._queue.get()
            if task is _STOP:
                return
            with self._lock:
                if self._queued.get(task.label) is task:
                    del self._queued[task.label]
                self._in_flight += 1
            try:
                self._run_one(task)
            finally:
                with self._quiet:
                    self._in_flight -= 1
                    # Gauge update inside the lock, *before* notifying:
                    # a drained foreground must observe the settled depth.
                    if self._push_depth is not None:
                        self._push_depth(len(self._queued) + self._in_flight)
                    if not self._queued and not self._in_flight:
                        self._quiet.notify_all()

    def _run_one(self, task: _Task) -> None:
        """One task body, under the submitter's span; failures are
        absorbed and recorded."""
        repo = self.repository
        tracer = self.obs.tracer
        with tracer.adopt(task.parent), tracer.span(
            task.label, "background", task=task.label
        ):
            try:
                # The watchdog owns a hung task; an injection that fired
                # but never landed is revoked here, not in queue.get().
                with repo.guard.compile_guard(task.label):
                    if self.fault_plan is not None:
                        # The dedicated worker site: a fault here models a
                        # dying or wedged worker rather than a compiler bug.
                        self.fault_plan.check("worker", task.label)
                    tally = task.fn()
            except BaseException as exc:  # noqa: BLE001 - a crash is a failed task
                tally = self.failed
                repo.compile_failed(task.label, "worker", exc)
        if tally is not self.cancelled and tally is not self.failed:
            tally = self.compiled  # whatever else an arbitrary callable returns
        tally.append(task.label)
        task.finish(tally is self.compiled)
