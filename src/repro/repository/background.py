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
queue — so dedup, heartbeats, requeue, poison quarantine and completion
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

Supervision
-----------
Workers are *supervised* (``repro.resilience``): each dequeue stamps a
heartbeat, and a dedicated supervisor thread

* **restarts dead workers** — a :class:`~repro.faults.plan.SimulatedCrash`
  (or any ``BaseException``) kills the worker thread; the supervisor
  respawns it with exponential backoff, up to
  ``policy.worker_max_restarts`` total, then degrades the engine to
  foreground-only compilation (the queue is flushed so :meth:`drain`
  stays bounded);
* **requeues the victim's task** with an attempt counter; a task that has
  killed ``policy.worker_max_task_retries + 1`` workers is quarantined as
  **poison** rather than retried forever;
* **cancels hung workers** — a heartbeat older than
  ``policy.worker_heartbeat_timeout`` gets a
  :class:`~repro.resilience.DeadlineExceeded` injected, which the worker
  absorbs as an ordinary failed compile and lives on.

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
    WATCHDOG_TIMEOUT,
    WORKER_RESTART,
)
from repro.resilience.watchdog import DeadlineExceeded, async_raise

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
        # Supervision state: heartbeats, live work, restart bookkeeping.
        self.restarts = 0
        self.degraded = False
        self._hearts: dict[int, float] = {}
        self._idents: dict[int, int] = {}
        self._current: dict[int, _Task] = {}
        self._restart_counts: dict[int, int] = {}
        self._next_restart: dict[int, float] = {}
        self._threads: dict[int, threading.Thread] = {}
        for index in range(workers):
            self._threads[index] = self._spawn(index)
        self._stop_supervisor = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="majic-spec-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn(self, index: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._worker, args=(index,),
            name=f"majic-spec-{index}", daemon=True,
        )
        thread.start()
        return thread

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
        self._stop_supervisor.set()
        for _ in self._threads:
            self._queue.put(_STOP)
        if wait:
            for thread in self._threads.values():
                thread.join(timeout=10)
            self._supervisor.join(timeout=10)

    # ------------------------------------------------------------------
    # The worker loop
    # ------------------------------------------------------------------
    def _worker(self, index: int = 0) -> None:
        with self._lock:
            self._idents[index] = threading.get_ident()
        while True:
            task = self._queue.get()
            if task is _STOP:
                return
            with self._lock:
                if self._queued.get(task.label) is task:
                    del self._queued[task.label]
                self._in_flight += 1
                self._hearts[index] = time.monotonic()
                self._current[index] = task
            died = False
            try:
                self._run_one(task)
            except BaseException as exc:  # noqa: BLE001 - simulated worker death
                # Only a SimulatedCrash (or a stray async cancellation
                # landing between the narrower nets) reaches here: the
                # worker is considered dead.  Hand the task to the
                # supervisor's retry/poison policy, then let the thread
                # exit so the supervisor can respawn it.
                died = True
                self._note_worker_death(task, exc)
            finally:
                with self._quiet:
                    self._current.pop(index, None)
                    self._in_flight -= 1
                    # Gauge update inside the lock, *before* notifying:
                    # a drained foreground must observe the settled depth.
                    if self._push_depth is not None:
                        self._push_depth(len(self._queued) + self._in_flight)
                    if not self._queued and not self._in_flight:
                        self._quiet.notify_all()
            if died:
                return

    def _note_worker_death(self, task: _Task, exc) -> None:
        """A task killed its worker: requeue it (bounded) or poison it."""
        if task.attempts < self.policy.worker_max_task_retries and not self._shutdown:
            task.attempts += 1
            with self._lock:
                self._queued[task.label] = task
            self._queue.put(task)
            return
        self.failed.append(task.label)
        self.poisoned.append(task.label)
        self.repository.diagnostics.record(
            POISON_TASK, task.label,
            detail=f"task killed {task.attempts + 1} worker(s); "
            "quarantined as poison",
            cause=exc,
        )
        task.finish(False)

    # ------------------------------------------------------------------
    # The supervisor loop
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        """Heal the pool: restart dead workers, cancel hung ones."""
        repo = self.repository
        policy = self.policy
        interval = 0.02
        while not self._stop_supervisor.wait(interval):
            now = time.monotonic()
            with self._lock:
                stale = [
                    (index, self._current[index], self._idents.get(index))
                    for index, beat in self._hearts.items()
                    if index in self._current
                    and now - beat > policy.worker_heartbeat_timeout
                ]
                dead = [
                    index
                    for index, thread in self._threads.items()
                    if not thread.is_alive() and not self._shutdown
                ]
            for index, current, ident in stale:
                # A hung worker absorbs the injected DeadlineExceeded as
                # an ordinary failed compile and keeps its thread.
                if ident is not None and async_raise(ident, DeadlineExceeded):
                    with self._lock:
                        self._hearts[index] = now  # one injection per period
                    repo.diagnostics.record(
                        WATCHDOG_TIMEOUT, current.label,
                        detail="speculation worker heartbeat stale "
                        f"(> {policy.worker_heartbeat_timeout:.4f}s); "
                        "cancellation injected",
                    )
            for index in dead:
                if self.restarts >= policy.worker_max_restarts:
                    self._enter_degraded()
                    break
                due = self._next_restart.get(index)
                if due is None:
                    count = self._restart_counts.get(index, 0)
                    delay = min(
                        policy.worker_restart_backoff * (2 ** count), 1.0
                    )
                    self._next_restart[index] = now + delay
                    continue
                if now < due:
                    continue
                self._next_restart.pop(index, None)
                self._restart_counts[index] = (
                    self._restart_counts.get(index, 0) + 1
                )
                self.restarts += 1
                with self._lock:
                    self._threads[index] = self._spawn(index)
                repo.diagnostics.record(
                    WORKER_RESTART, f"worker-{index}",
                    detail=f"dead worker respawned (restart {self.restarts}/"
                    f"{policy.worker_max_restarts})",
                )

    def _enter_degraded(self) -> None:
        """The restart budget is spent: flush the queue and stop accepting
        work so ``drain()`` stays bounded; the session continues with
        foreground JIT compilation only."""
        first = False
        with self._lock:
            if not self.degraded:
                self.degraded = True
                first = True
        if first:
            self.repository.diagnostics.record(
                WORKER_RESTART, "engine",
                detail="restart budget exhausted; speculation degraded to "
                "foreground-only",
            )
        while True:
            try:
                task = self._queue.get_nowait()
            except queue.Empty:
                return
            if task is _STOP:
                continue
            with self._quiet:
                self._queued.pop(task.label, None)
                self.cancelled.append(task.label)
                if not self._queued and not self._in_flight:
                    self._quiet.notify_all()
            task.finish(False)

    def _run_one(self, task: _Task) -> None:
        """One task body, under the submitter's span; failures are
        absorbed and recorded."""
        repo = self.repository
        tracer = self.obs.tracer
        with tracer.adopt(task.parent), tracer.span(
            task.label, "background", task=task.label
        ):
            try:
                if self.fault_plan is not None:
                    # The dedicated worker site: a fault here models a dying
                    # worker (OOM, runaway codegen) rather than a compiler bug.
                    self.fault_plan.check("worker", task.label)
                tally = task.fn()
            except Exception as exc:  # noqa: BLE001 - workers must not die loudly
                tally = self.failed
                repo.compile_failed(task.label, "worker", exc)
        if tally is not self.cancelled and tally is not self.failed:
            tally = self.compiled  # whatever else an arbitrary callable returns
        tally.append(task.label)
        task.finish(tally is self.compiled)
