"""The crash flight recorder: bounded breadcrumbs + postmortem bundles.

A chaos-sweep failure used to leave one ``parallel_fallback`` log line and
nothing else; this module turns every supervised failure into a
debuggable artifact.  The :class:`FlightRecorder` keeps an always-on
bounded ring of recent breadcrumbs (one tuple append per note — the
overhead budget is the same ≤5% hot-path bar the PR 3 null-object work
established), subscribes to the session's
:class:`~repro.repository.diagnostics.DiagnosticsLog`, and on a faulting
event — worker crash, watchdog timeout, guarded deopt, parallel fallback —
writes a **postmortem bundle** to the dump directory.

Bundle schema (``majic-postmortem/1``)
--------------------------------------
One JSON object per file::

    {
      "schema":      "majic-postmortem/1",
      "reason":      "<event kind / dump reason>",
      "fault_site":  "<function or site name>",
      "rank":        <int>,            // 0 = the session process
      "pid":         <int>,
      "trace_id":    "<distributed trace id, may be empty>",
      "wall_time":   <float>,          // time.time() at dump
      "error":       "<repr of the triggering exception, may be empty>",
      "env":         {"python": ..., "platform": ..., "cwd": ...},
      "breadcrumbs": [{"wall_time", "kind", "name", "detail"}, ...],
      "diagnostics": [{"kind", "function", "detail", "cause",
                       "signature", "seq", "wall_time", "thread",
                       "rank"}, ...],
      "spans":       [{"name", "category", "start", "duration",
                       "thread", "rank", "args"}, ...],  // last N
      "metrics":     {"<metric>": {"<label tuple>": value, ...}, ...}
    }

Dump directory layout
---------------------
``<dump_dir>/postmortem-<pid>-r<rank>-<seq>-<reason>.json`` — one file
per dump, ``seq`` monotonic per process.  The default directory is
``~/.pymajic/postmortem`` (sibling of the compile cache); sessions and
worker ranks of one run share it, so a crashed rank's bundle lands next
to the parent's view of the same fault.

Dumps are bounded per recorder (``max_dumps``) so a chaos storm cannot
fill the disk, and every write is wrapped: the flight recorder must never
crash the execution path it is recording.
"""

from __future__ import annotations

import json
import os
import platform as host_platform
import threading
import time
from collections import deque
from pathlib import Path

SCHEMA = "majic-postmortem/1"

#: Default dump directory (sibling of the ~/.pymajic/cache compile cache).
DEFAULT_DUMP_DIR = Path.home() / ".pymajic" / "postmortem"

#: Diagnostic kinds that trigger an automatic postmortem dump.  These are
#: exactly the supervised failure domains: a guarded deopt, a watchdog
#: cancellation, a sandboxed first-run death, a poisoned background task,
#: and every parallel-rank failure mode.
DUMP_KINDS = frozenset({
    "deopt",
    "watchdog_timeout",
    "sandbox_failure",
    "poison_task",
    "parallel_fallback",
    "parallel_worker_restart",
    "parallel_degraded",
})

#: How many spans of the tracer's tail a bundle carries.
SPAN_TAIL = 120


class FlightRecorder:
    """One session's (or one rank's) always-on incident recorder."""

    enabled = True

    def __init__(
        self,
        dump_dir=None,
        capacity: int = 256,
        max_dumps: int = 32,
        rank: int = 0,
    ):
        self.dump_dir = Path(dump_dir) if dump_dir else DEFAULT_DUMP_DIR
        self.rank = int(rank)
        self.max_dumps = int(max_dumps)
        self.dumps: list[str] = []
        self._seq = 0
        self._lock = threading.Lock()
        # deque(maxlen) appends are O(1) and atomic under the GIL: the
        # hot path pays one tuple build and one append, nothing else.
        self._crumbs: deque = deque(maxlen=max(8, int(capacity)))
        self._tracer = None
        self._metrics = None
        self._diagnostics = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, obs, diagnostics=None) -> None:
        """Bind the session's recorders (dump-time sources) and subscribe
        to its diagnostics log (breadcrumbs + automatic dump triggers)."""
        self._tracer = obs.tracer
        self._metrics = obs.metrics
        if diagnostics is not None and self._diagnostics is None:
            self._diagnostics = diagnostics
            diagnostics.add_listener(self._on_diagnostic)

    def _on_diagnostic(self, event) -> None:
        self.note(event.kind, event.function, event.detail)
        if event.kind in DUMP_KINDS:
            self.dump(
                reason=event.kind,
                fault_site=event.function,
                rank=getattr(event, "rank", 0) or self.rank,
                error=event.cause,
            )

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def note(self, kind: str, name: str, detail: str = "") -> None:
        """One breadcrumb: O(1), allocation-light, safe from any thread."""
        self._crumbs.append((time.time(), kind, name, detail))

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------
    def breadcrumbs(self) -> list[dict]:
        return [
            {"wall_time": wall, "kind": kind, "name": name, "detail": detail}
            for wall, kind, name, detail in list(self._crumbs)
        ]

    def _span_tail(self) -> list[dict]:
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            return []
        try:
            spans = tracer.spans()[-SPAN_TAIL:]
            return [
                {
                    "name": s.name,
                    "category": s.category,
                    "start": s.start,
                    "duration": s.duration,
                    "thread": s.thread,
                    "rank": getattr(s, "rank", 0),
                    "args": {k: repr(v) for k, v in s.args.items()},
                }
                for s in spans
            ]
        except Exception:  # noqa: BLE001 - best-effort capture
            return []

    def _diagnostics_tail(self) -> list[dict]:
        log = self._diagnostics
        if log is None:
            return []
        try:
            return [
                {
                    "kind": e.kind,
                    "function": e.function,
                    "detail": e.detail,
                    "cause": e.cause,
                    "signature": e.signature,
                    "seq": e.seq,
                    "wall_time": e.wall_time,
                    "thread": e.thread,
                    "rank": getattr(e, "rank", 0),
                }
                for e in log.events()[-SPAN_TAIL:]
            ]
        except Exception:  # noqa: BLE001
            return []

    def _metrics_snapshot(self) -> dict:
        metrics = self._metrics
        if metrics is None or not metrics.enabled:
            return {}
        try:
            return {
                name: {",".join(key): value for key, value in values.items()}
                for name, values in metrics.snapshot().items()
            }
        except Exception:  # noqa: BLE001
            return {}

    def dump(
        self,
        reason: str,
        fault_site: str = "",
        rank: int | None = None,
        error: str = "",
        extra: dict | None = None,
    ) -> str | None:
        """Write one postmortem bundle; returns its path (None when the
        dump budget is spent or the write failed — never raises)."""
        with self._lock:
            if len(self.dumps) >= self.max_dumps:
                return None
            self._seq += 1
            seq = self._seq
        try:
            tracer = self._tracer
            bundle = {
                "schema": SCHEMA,
                "reason": reason,
                "fault_site": fault_site,
                "rank": self.rank if rank is None else int(rank),
                "pid": os.getpid(),
                "trace_id": getattr(tracer, "trace_id", "") if tracer else "",
                "wall_time": time.time(),
                "error": error,
                "env": {
                    "python": host_platform.python_version(),
                    "platform": host_platform.platform(),
                    "cwd": os.getcwd(),
                },
                "breadcrumbs": self.breadcrumbs(),
                "diagnostics": self._diagnostics_tail(),
                "spans": self._span_tail(),
                "metrics": self._metrics_snapshot(),
            }
            if extra:
                bundle["extra"] = extra
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            name = (
                f"postmortem-{os.getpid()}-r{bundle['rank']}-{seq}-"
                f"{reason.replace('/', '_')}.json"
            )
            path = self.dump_dir / name
            tmp = path.with_suffix(".json.tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(bundle, handle, indent=2)
                handle.write("\n")
            os.replace(tmp, path)  # atomic: a reader never sees a torn bundle
            with self._lock:
                self.dumps.append(str(path))
            return str(path)
        except Exception:  # noqa: BLE001 - the recorder must never crash
            return None


class NullFlightRecorder:
    """Disabled recorder: every operation is a no-op (the default)."""

    enabled = False
    dump_dir = None
    rank = 0
    dumps: list = []

    def attach(self, obs, diagnostics=None) -> None:
        return None

    def note(self, kind: str, name: str, detail: str = "") -> None:
        return None

    def breadcrumbs(self) -> list:
        return []

    def dump(self, reason, fault_site="", rank=None, error="", extra=None):
        return None


NULL_FLIGHT = NullFlightRecorder()


def load_bundle(path) -> dict:
    """Read one postmortem bundle back (tests, tooling)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
