"""A MATLAB-``profile``-style profiler sourced from the span tree.

MATLAB users ask ``profile on``, run their code, then ``profile report``;
:class:`Profiler` reproduces that surface on :class:`MajicSession`
(``session.profile("on") / ("off") / ("report")``).  Per-function call
counts, cumulative time and **self** time are reported split by execution
tier — interpreter, JIT-compiled, or repository-served speculative code —
which is exactly the visibility the Section 2.2.1 degradation contract
needs: a function silently demoted to interpretation shows up in the
report under the wrong tier with the wrong self time, instead of hiding.

There is deliberately no second timing mechanism here: the profiler
consumes the same execution spans the tracer records, and the Figure 6
:class:`~repro.core.timing.ExecutionBreakdown` is derived from the same
spans (``ExecutionBreakdown.from_spans``), so the profiler's total self
time and the breakdown's execution total agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import self_times

#: Span category recorded around every function execution (compiled or
#: interpreted) by the repository.
EXECUTION = "execution"


@dataclass
class FunctionProfile:
    """One (function, tier) row of the report."""

    function: str
    tier: str
    calls: int
    total_s: float   # cumulative: sum over activations (recursion nests)
    self_s: float    # exclusive: child spans (callees, compiles) removed


class ProfileReport:
    """The ``profile report`` result: rows sorted by self time."""

    def __init__(self, entries: list[FunctionProfile], window_s: float = 0.0):
        self.entries = sorted(
            entries, key=lambda e: (-e.self_s, e.function, e.tier)
        )
        self.window_s = window_s

    @property
    def total_self_s(self) -> float:
        """Total exclusive execution time — by construction equal to the
        ``execution`` total of the span-derived :class:`ExecutionBreakdown`."""
        return sum(entry.self_s for entry in self.entries)

    @property
    def total_calls(self) -> int:
        return sum(entry.calls for entry in self.entries)

    def row(self, function: str, tier: str | None = None) -> FunctionProfile | None:
        for entry in self.entries:
            if entry.function == function and (tier is None or entry.tier == tier):
                return entry
        return None

    def render(self) -> str:
        header = (
            f"{'function':<20} {'tier':<12} {'calls':>7} "
            f"{'total (s)':>11} {'self (s)':>11}"
        )
        lines = ["Profile report (self time, descending)", header,
                 "-" * len(header)]
        for entry in self.entries:
            lines.append(
                f"{entry.function:<20} {entry.tier:<12} {entry.calls:>7} "
                f"{entry.total_s:>11.6f} {entry.self_s:>11.6f}"
            )
        lines.append(
            f"{'TOTAL':<20} {'':<12} {self.total_calls:>7} "
            f"{'':>11} {self.total_self_s:>11.6f}"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def report_from_spans(spans, window_s: float = 0.0) -> ProfileReport:
    """Aggregate execution spans into per-(function, tier) rows."""
    exclusive = self_times(spans)
    rows: dict[tuple[str, str], FunctionProfile] = {}
    for span in spans:
        if span.category != EXECUTION:
            continue
        tier = str(span.args.get("tier", "unknown"))
        key = (span.name, tier)
        entry = rows.get(key)
        if entry is None:
            entry = rows[key] = FunctionProfile(
                function=span.name, tier=tier, calls=0,
                total_s=0.0, self_s=0.0,
            )
        entry.calls += 1
        entry.total_s += span.duration
        entry.self_s += exclusive[span.span_id]
    return ProfileReport(list(rows.values()), window_s=window_s)


class Profiler:
    """``profile on/off/report/clear`` state machine over one session's
    observability object (enables tracing on demand, restoring the
    previous recorder on ``off`` when it owned the switch)."""

    def __init__(self, obs):
        self.obs = obs
        self.active = False
        self._owns_tracer = False
        self._start_index = 0
        self._stop_index: int | None = None

    def on(self) -> None:
        if self.active:
            return
        if not self.obs.tracer.enabled:
            self.obs.enable_tracing()
            self._owns_tracer = True
        self._start_index = len(self.obs.tracer.spans())
        self._stop_index = None
        self.active = True

    def off(self) -> None:
        if not self.active:
            return
        self._stop_index = len(self.obs.tracer.spans())
        self.active = False
        if self._owns_tracer:
            # Keep the recorded spans for the report; stop recording new
            # ones by detaching the recorder the profiler installed.
            self._window = self.obs.tracer.spans()[self._start_index:]
            self.obs.disable_tracing()
            self._owns_tracer = False
            self._start_index = 0
            self._stop_index = len(self._window)

    def clear(self) -> None:
        self.active = False
        self._start_index = len(self.obs.tracer.spans())
        self._stop_index = None
        self._window = ()

    _window: tuple = ()

    def _spans(self):
        if self._owns_tracer or self.obs.tracer.enabled:
            spans = self.obs.tracer.spans()
            stop = (
                len(spans) if self._stop_index is None else self._stop_index
            )
            return spans[self._start_index:stop]
        return self._window

    def report(self) -> ProfileReport:
        spans = self._spans()
        window = 0.0
        if spans:
            window = max(s.start + s.duration for s in spans) - min(
                s.start for s in spans
            )
        return report_from_spans(spans, window_s=window)

    def spans(self):
        """The profiled window's raw spans (breakdown derivation)."""
        return tuple(self._spans())
