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
queue — so dedup, deadlines, requeue, poison quarantine and completion
callbacks exist once.

Lifecycle of one work item
--------------------------
* :meth:`submit` enqueues a function under its *current* repository
  generation; a name already queued or in flight at the same generation
  is deduplicated.
* A worker dequeues the task, whose body re-checks the generation (a
  redefinition while queued cancels it) and runs the repository's
  speculative pipeline.  The repository re-checks the generation once
  more before storing, so a redefinition *mid-compile* discards the
  stale object rather than letting it serve the new source's calls.
* Any exception inside a worker — injected faults included — is absorbed
  and recorded; the function simply stays interpreter/JIT-served.  A
  worker can fail, the queue cannot deadlock.

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
* **A crashed worker restarts in place.**  A
  :class:`~repro.faults.plan.SimulatedCrash` escaping a task is caught
  by the worker loop, which requeues the task (one that has killed
  ``policy.worker_max_task_retries + 1`` workers is quarantined as
  **poison** instead) and carries on as the restarted worker.  After
  ``policy.worker_max_restarts`` restarts the engine degrades to
  foreground-only compilation; queued tasks are cancelled as the
  workers reach them, so :meth:`drain` stays bounded.

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
from repro.repository.diagnostics import (
    POISON_TASK,
    SPECULATE_ASYNC,
    WORKER_RESTART,
)

_STOP = object()

#: Default worker-pool width when neither the session nor the platform
#: configuration names one.
DEFAULT_WORKERS = 2


class _Task:
    """One work item: a labelled callable plus its queue bookkeeping.

    ``token`` scopes deduplication — a label already queued under an
    equal token is not queued again (a speculation passes its generation,
    so a redefined function may re-queue; everything else passes
    ``None``).  ``parent`` is the submitting thread's innermost span and
    ``attempts`` how many workers the task has already killed.
    """

    __slots__ = ("label", "fn", "token", "on_done", "parent", "attempts")

    def __init__(self, label, fn, token, on_done, parent):
        self.label = label
        self.fn = fn
        self.token = token
        self.on_done = on_done
        self.parent = parent
        self.attempts = 0

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
    bridge, and also when the pool refuses it (shut down, degraded,
    duplicate label): a dead pool must not lose the work.
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
        policy=None,
    ):
        if workers < 1:
            raise ValueError("SpeculationEngine needs at least one worker")
        if policy is None:
            from repro.resilience import DEFAULT_POLICY

            policy = DEFAULT_POLICY
        self.repository = repository
        self.fault_plan = fault_plan
        self.policy = policy
        # Observability: default to the repository's switchboard so the
        # workers and the foreground share one tracer/registry.
        if obs is None:
            obs = getattr(repository, "obs", None) or DISABLED_OBS
        self.obs = obs
        # ``restarts`` below is what majic_worker_restarts_total reads;
        # the queue depth is a level, so it is pushed (bound once, here).
        obs.attach(speculation=self)
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
        self.poisoned: list[str] = []
        # In-place restarts paid so far (majic_worker_restarts_total).
        self.restarts = 0
        self.degraded = False
        self._threads = [
            threading.Thread(
                target=self._worker, args=(index,),
                name=f"majic-spec-{index}", daemon=True,
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

        Returns False when the engine is shut down or degraded, or when
        ``label`` is already queued under an equal ``token`` (callers
        then run the work inline or drop it).  ``label`` names the task
        in diagnostics, dedup and poison quarantine.  ``fn`` may return
        the tally (``self.cancelled`` / ``self.failed``) its label belongs
        on; any other value means it completed.  ``on_done`` (if given) is
        invoked
        with ``True``/``False`` once the task finishes or is abandoned
        (failure, cancellation, poison quarantine).
        """
        # Capture the submitting thread's innermost span (typically the
        # session's ``speculate_async`` span) so the worker's spans hang
        # off it in the trace tree despite running on another thread.
        task = _Task(label, fn, token, on_done, self.obs.tracer.current_id())
        with self._lock:
            if self._shutdown or self.degraded:
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
    def _worker(self, index: int) -> None:
        while True:
            task = self._queue.get()
            if task is _STOP:
                return
            with self._lock:
                if self._queued.get(task.label) is task:
                    del self._queued[task.label]
                self._in_flight += 1
            try:
                if self.degraded:
                    # The restart budget is spent: queued work is dropped
                    # as the workers reach it, so drain() stays bounded.
                    self.cancelled.append(task.label)
                    task.finish(False)
                else:
                    self._run_one(task)
            except BaseException as exc:  # noqa: BLE001 - simulated worker death
                # Only a SimulatedCrash gets past _run_one's net: this
                # worker died.  Settle its task, then carry on as the
                # restarted worker.
                self._restart(index, task, exc)
            finally:
                with self._quiet:
                    self._in_flight -= 1
                    # Gauge update inside the lock, *before* notifying:
                    # a drained foreground must observe the settled depth.
                    if self._push_depth is not None:
                        self._push_depth(len(self._queued) + self._in_flight)
                    if not self._queued and not self._in_flight:
                        self._quiet.notify_all()

    def _restart(self, index: int, task: _Task, exc) -> None:
        """A task killed worker ``index``: requeue the task (bounded) or
        poison it, then restart the worker in place — or, once
        ``worker_max_restarts`` restarts are spent, degrade the engine."""
        policy = self.policy
        if task.attempts < policy.worker_max_task_retries and not self._shutdown:
            task.attempts += 1
            with self._lock:
                self._queued[task.label] = task
            self._queue.put(task)
        else:
            self.failed.append(task.label)
            self.poisoned.append(task.label)
            self.repository.diagnostics.record(
                POISON_TASK, task.label,
                detail=f"task killed {task.attempts + 1} worker(s); "
                "quarantined as poison",
                cause=exc,
            )
            task.finish(False)
        with self._lock:
            spent = self.restarts >= policy.worker_max_restarts
            if not spent:
                self.restarts += 1
                count = self.restarts
        if spent:
            self._enter_degraded()
            return
        self.repository.diagnostics.record(
            WORKER_RESTART, f"worker-{index}",
            detail=f"dead worker restarted in place (restart {count}/"
            f"{policy.worker_max_restarts})",
        )

    def _enter_degraded(self) -> None:
        """The restart budget is spent: stop accepting work (what is still
        queued is cancelled as the workers reach it); the session
        continues with foreground JIT compilation only."""
        with self._lock:
            if self.degraded:
                return
            self.degraded = True
        self.repository.diagnostics.record(
            WORKER_RESTART, "engine",
            detail="restart budget exhausted; speculation degraded to "
            "foreground-only",
        )

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
            except Exception as exc:  # noqa: BLE001 - workers must not die loudly
                tally = self.failed
                repo.compile_failed(task.label, "worker", exc)
        if tally is not self.cancelled and tally is not self.failed:
            tally = self.compiled  # whatever else an arbitrary callable returns
        tally.append(task.label)
        task.finish(tally is self.compiled)
