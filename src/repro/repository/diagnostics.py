"""Structured robustness diagnostics for the execution tier.

The paper's premise is that compiled code is an *optimization*, never a
semantic requirement (Section 2.2.1): the interpreter is ground truth and
every failure of the compiled tier must degrade into interpretation, not
into a user-visible crash.  That only works in production if the
degradations are *observable* — a session that silently interprets
everything is indistinguishable from a healthy one until the latency graphs
say otherwise.  :class:`DiagnosticsLog` is the flight recorder: every
deoptimization, quarantine, budget skip and compile failure lands here as a
structured event that tests and operators can assert on.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

#: Event kinds recorded by the repository.
DEOPT = "deopt"                      # compiled object raised unexpectedly
QUARANTINE = "quarantine"            # function demoted to interpreter-only
BUDGET_SKIP = "budget_skip"          # compile skipped/flagged by a budget
COMPILE_FAILURE = "compile_failure"  # a compiler raised (expected or not)
#: Responsiveness events (background speculation + persistent cache).
SPECULATE_ASYNC = "speculate_async"  # a background compile landed
CACHE_HIT = "cache_hit"              # compile served from the disk cache
CACHE_LOAD = "cache_load"            # cache entry deserialized (or refused)
CACHE_STORE = "cache_store"          # compiled object persisted to disk
CACHE_EVICT = "cache_evict"          # cached entry removed (deopt/quarantine)
#: Supervision events (repro.resilience: watchdog / sandbox / healing).
WATCHDOG_TIMEOUT = "watchdog_timeout"  # a deadline fired; operation cancelled
SANDBOX_TRIAL = "sandbox_trial"        # first run executed in a sandbox fork
SANDBOX_FAILURE = "sandbox_failure"    # the sandbox died; session survived
WORKER_RESTART = "worker_restart"      # a dead speculation worker respawned
POISON_TASK = "poison_task"            # a task quarantined after killing workers
CACHE_CORRUPT = "cache_corrupt"        # a corrupted cache entry quarantined
CACHE_RETRY = "cache_retry"            # a transient cache IO fault retried
#: Parallel-backend events (repro.parallel: MatlabMPI-style ranks).
PARALLEL_FALLBACK = "parallel_fallback"        # a sharded call ran serially
PARALLEL_RESTART = "parallel_worker_restart"   # a dead rank was respawned
PARALLEL_DEGRADED = "parallel_degraded"        # restart budget spent; serial
#: Adaptive-tiering events (repro.tiering: online promotion/demotion).
TIER_PROMOTE = "tier_promote"        # controller moved a function up a tier
TIER_DEMOTE = "tier_demote"          # controller moved a function back down


@dataclass(frozen=True)
class DiagnosticEvent:
    """One robustness event (immutable, suitable for log shipping)."""

    kind: str
    function: str
    detail: str = ""
    cause: str = ""       # repr() of the triggering exception, if any
    signature: str = ""   # signature of the implicated compiled version
    seq: int = 0          # monotonic per-session sequence number
    wall_time: float = 0.0  # time.time() at record (log shipping)
    thread: str = ""      # recording thread's name (worker attribution)
    rank: int = 0         # parallel rank that produced the event (0 = session)

    def __str__(self) -> str:
        parts = [f"[{self.seq}] {self.kind} {self.function}"]
        if self.rank:
            parts.append(f"rank={self.rank}")
        if self.signature:
            parts.append(f"sig={self.signature}")
        if self.detail:
            parts.append(self.detail)
        if self.cause:
            parts.append(f"cause={self.cause}")
        return " | ".join(parts)


@dataclass
class DiagnosticsLog:
    """Bounded in-memory ring of events (oldest dropped past capacity).

    The ring is a :class:`collections.deque`, so a chaos storm that fires
    thousands of events costs O(1) per drop rather than a list shuffle.
    The ``capacity`` is configurable per session
    (``MajicSession(diagnostics_capacity=...)``); drops are surfaced
    through the :attr:`dropped` counter — a nonzero value is itself a
    health signal worth alerting on.

    Recording is thread-safe: background speculation workers, the
    watchdog monitor and the foreground session share one log.

    :attr:`totals` is the ledger: events ever recorded, per kind.  It
    survives ring eviction and :meth:`clear`, and it is what
    ``majic_events_total`` and the robustness counts of ``session.stats``
    read (:meth:`local`), so neither is counted a second time anywhere.
    """

    capacity: int = 10_000
    _events: deque = field(default_factory=deque)
    _seq: int = 0
    _dropped: int = 0
    totals: dict = field(default_factory=dict)
    # The share of ``totals`` recorded on behalf of a worker rank.
    _from_ranks: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _listeners: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.capacity = max(1, int(self.capacity))
        # maxlen is enforced manually so evictions can be counted: a
        # deque(maxlen=n) drops silently, and the drop count *is* the S2
        # health signal.
        self._events = deque(self._events)

    def record(
        self,
        kind: str,
        function: str,
        detail: str = "",
        cause: BaseException | str | None = None,
        signature: object = "",
        rank: int = 0,
        wall_time: float | None = None,
    ) -> DiagnosticEvent:
        with self._lock:
            self._seq += 1
            self.totals[kind] = self.totals.get(kind, 0) + 1
            if rank:
                self._from_ranks[kind] = self._from_ranks.get(kind, 0) + 1
            event = DiagnosticEvent(
                kind=kind,
                function=function,
                detail=detail,
                cause=repr(cause) if isinstance(cause, BaseException) else (cause or ""),
                signature=str(signature) if signature else "",
                seq=self._seq,
                wall_time=time.time() if wall_time is None else wall_time,
                thread=threading.current_thread().name,
                rank=int(rank),
            )
            self._events.append(event)
            while len(self._events) > self.capacity:
                self._events.popleft()
                self._dropped += 1
            listeners = tuple(self._listeners)
        # Listeners (the metrics/trace bridge) run outside the lock: they
        # may take their own locks, and the flight recorder must never
        # deadlock or crash the execution path it is recording.
        for listener in listeners:
            try:
                listener(event)
            except Exception:  # noqa: BLE001 - observers cannot break execution
                pass
        return event

    def add_listener(self, listener) -> None:
        """Subscribe ``listener(event)`` to every future record."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    # ------------------------------------------------------------------
    def events(self, kind: str | None = None) -> list[DiagnosticEvent]:
        with self._lock:
            if kind is None:
                return list(self._events)
            return [e for e in self._events if e.kind == kind]

    def counts(self) -> dict[str, int]:
        with self._lock:
            tally: dict[str, int] = {}
            for event in self._events:
                tally[event.kind] = tally.get(event.kind, 0) + 1
            return tally

    def local(self, kind: str) -> int:
        """Events of ``kind`` this process recorded for itself (ever; not
        the ones surfaced from a worker rank's log)."""
        return self.totals.get(kind, 0) - self._from_ranks.get(kind, 0)

    @property
    def dropped(self) -> int:
        """Events lost to the capacity bound (health signal by itself)."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self):
        return iter(self.events())

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._events)
