"""Unified observability for a MaJIC session (tracing, metrics, profiling).

Three pillars share one wiring point, the :class:`Observability` facade:

* **Tracing** (:mod:`repro.obs.trace`): hierarchical spans around parse,
  disambiguation, type inference, code generation, compiled execution,
  interpreter fallback, cache traffic and background speculation, with
  cross-thread parent propagation into worker threads; exportable as
  Chrome-trace JSON (:mod:`repro.obs.export_chrome`) or a text tree.
* **Metrics** (:mod:`repro.obs.metrics`): a counters/gauges/histograms
  registry — per-phase compile latency, cache hit ratio, tiered call
  counts, speculation queue depth — with Prometheus text exposition
  (:mod:`repro.obs.export_prom`).  Its counters are declared in one
  table (:mod:`repro.obs.instruments`) as *views* over the tallies the
  components keep anyway — ``session.stats``, the
  :class:`~repro.repository.diagnostics.DiagnosticsLog`'s per-kind
  totals, the engines' own counts — so a fact is counted once, where it
  happens, and every reader sees the same number.
* **Profiling** (:mod:`repro.obs.profiler`): a MATLAB-``profile``-style
  per-function report split by execution tier, derived from the same
  spans as the Figure 6 breakdown.

Both recorders are **null objects when disabled** (the default): the
instrumented hot paths pay one attribute check and allocate nothing, a
property guarded by tests; the benchmark's ``obs.trace_metrics_ratio``
is the cost of switching them on.
Enable per session with ``MajicSession(trace=True, metrics=True)``.
"""

from __future__ import annotations

import functools

from repro.obs.export_chrome import (
    chrome_trace,
    chrome_trace_json,
    write_chrome_trace,
)
from repro.obs.export_prom import prometheus_text, write_prometheus
from repro.obs.flight import (
    DUMP_KINDS,
    FlightRecorder,
    NULL_FLIGHT,
    NullFlightRecorder,
    load_bundle,
)
from repro.obs.instruments import EVENT_DERIVED, INSTRUMENTS, PUSHED, paths
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from repro.obs.profiler import (
    FunctionProfile,
    Profiler,
    ProfileReport,
    RankAttribution,
    rank_attribution,
    report_from_spans,
)
from repro.obs.server import ObsServer
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    merge_remote_spans,
    self_times,
    serialize_spans,
)

#: Execution-tier label values used across spans, metrics and reports.
TIER_INTERPRETER = "interpreter"
TIER_JIT = "jit"
TIER_SPEC = "spec"


class Observability:
    """One session's observability switchboard.

    Holds the (real or null) tracer and metrics registry and declares the
    instrument table (:mod:`repro.obs.instruments`) on the registry: the
    counters are *views* that read the tallies of the components a
    session attached, so no call site reports a count here; only latency
    distributions and the queue-depth level are pushed.  It also
    subscribes to the :class:`DiagnosticsLog`, so robustness events reach
    the trace stream without any extra call sites.
    """

    def __init__(
        self,
        trace: bool = False,
        metrics: bool = False,
        flight=None,
        trace_id: str | None = None,
    ):
        self.tracer = Tracer(trace_id=trace_id) if trace else NULL_TRACER
        self.metrics = MetricsRegistry() if metrics else NULL_METRICS
        # The crash flight recorder (repro.obs.flight); NULL_FLIGHT keeps
        # the disabled path a no-op attribute away.
        self.flight = flight if flight is not None else NULL_FLIGHT
        # Per-rank remote->local span id maps for merged distributed
        # traces (persistent, so later batches can reference earlier
        # parents).
        self._rank_idmaps: dict[int, dict[int, int]] = {}
        # name -> component whose tallies the table's views read.
        self.sources: dict[str, object] = {}
        self._pushed = {}
        for row in INSTRUMENTS:
            if row.source == PUSHED:
                declare = getattr(self.metrics, row.kind)
                self._pushed[row.name] = declare(
                    row.name, row.help, row.labelnames
                )
            else:
                self.metrics.view(
                    row.name, row.kind, row.help, row.labelnames,
                    read=functools.partial(self._read, paths(row.source)),
                )

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    def enable_tracing(self) -> None:
        """Swap the null tracer for a live one (``profile on``)."""
        if not self.tracer.enabled:
            self.tracer = Tracer()

    def disable_tracing(self) -> None:
        if self.tracer.enabled:
            self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # Views: components attach themselves, the table says what is read
    # ------------------------------------------------------------------
    def attach(self, **components) -> None:
        """Name the components whose tallies the instrument table reads
        (held only while metrics are on: the shared disabled facade must
        not keep sessions alive)."""
        if self.metrics.enabled:
            self.sources.update(components)

    def _read(self, source_paths) -> list:
        """The tallies one view adds up (``None``: no such component)."""
        tallies = []
        for head, *rest in source_paths:
            value = self.sources.get(head)
            for attr in rest:
                if value is None:
                    break
                value = (
                    value.get(attr, 0) if isinstance(value, dict)
                    else getattr(value, attr)
                )
            tallies.append(value)
        return tallies

    # ------------------------------------------------------------------
    # Pushes: what is not a count (no-ops when metrics are disabled)
    # ------------------------------------------------------------------
    def push(self, name: str, **labelvalues):
        """``push(value)`` bound to one labelled series of a pushed
        instrument (``observe`` for a histogram, ``set`` for the gauge),
        or ``None`` with metrics off.  The series is resolved — a lock
        and a dict probe — once, on the first value, so hot paths pay for
        it once and a series nobody pushed to is never exposed."""
        if not self.metrics.enabled:
            return None
        instrument = self._pushed[name]
        method = "set" if instrument.kind == "gauge" else "observe"
        bound = None

        def push(value):
            nonlocal bound
            if bound is None:
                bound = getattr(instrument.labels(**labelvalues), method)
            bound(value)

        return push

    def record_compile(self, mode: str, phase_times) -> None:
        if not self.metrics.enabled:
            return
        observe = self._pushed["majic_compile_phase_seconds"].observe
        observe(phase_times.disambiguation, mode=mode, phase="disambiguation")
        observe(phase_times.type_inference, mode=mode, phase="type_inference")
        observe(phase_times.codegen, mode=mode, phase="codegen")

    def record_parallel_seconds(self, function: str, seconds: float) -> None:
        if not self.metrics.enabled:
            return
        self._pushed["majic_parallel_call_seconds"].observe(
            seconds, function=function
        )

    # ------------------------------------------------------------------
    # Cross-rank absorption (the distributed-tracing merge point)
    # ------------------------------------------------------------------
    def absorb_rank(self, batch: dict, diagnostics=None,
                    default_parent: int | None = None) -> None:
        """Fold one worker rank's shipped observability payload in.

        ``batch`` is the dict a rank attaches to its task reply: a span
        buffer (:func:`~repro.obs.trace.serialize_spans`), a structured
        metrics delta (:meth:`MetricsRegistry.delta`) and the rank's new
        :class:`DiagnosticEvent` records.  Spans merge into the parent
        tracer under ``default_parent`` (the parent-side span that
        dispatched the task), metric deltas fold into the parent registry
        without double counting, and diagnostics surface into the parent
        log with the originating ``rank`` attached.
        """
        if not batch:
            return
        rank = int(batch.get("rank", 0))
        if self.tracer.enabled and batch.get("spans"):
            idmap = self._rank_idmaps.setdefault(rank, {})
            merge_remote_spans(
                self.tracer, batch, idmap, default_parent=default_parent
            )
        if self.metrics.enabled and batch.get("metrics"):
            delta = batch["metrics"]
            if diagnostics is not None:
                # Surfacing the rank's diagnostics below lands them in
                # the parent's event log, which the event-derived views
                # read; merging the rank's own copy of those views too
                # would count every event twice.
                delta = {
                    name: entry for name, entry in delta.items()
                    if name not in EVENT_DERIVED
                }
            self.metrics.merge(delta)
        if diagnostics is not None:
            for event in batch.get("diagnostics", ()):
                diagnostics.record(
                    event.get("kind", "unknown"),
                    event.get("function", ""),
                    detail=event.get("detail", ""),
                    cause=event.get("cause", ""),
                    signature=event.get("signature", ""),
                    rank=rank,
                    wall_time=event.get("wall_time"),
                )

    # ------------------------------------------------------------------
    # Diagnostics bridge
    # ------------------------------------------------------------------
    def bind_diagnostics(self, log) -> None:
        """Make ``log`` the event ledger the views read, and mirror every
        :class:`DiagnosticEvent` (as an instant) into the trace stream —
        bound once, unconditionally: the listener checks the tracer live,
        so ``profile on`` needs no second binding."""
        self.attach(diagnostics=log)
        log.add_listener(self._on_diagnostic)

    def _on_diagnostic(self, event) -> None:
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(
                event.kind, "diagnostic",
                function=event.function, detail=event.detail,
            )


#: Shared always-off facade; the default for components constructed
#: without a session.  Never mutated (``enable_tracing`` is only reached
#: through a session-owned instance).
DISABLED = Observability()


__all__ = [
    "Observability",
    "DISABLED",
    "DUMP_KINDS",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "ObsServer",
    "RankAttribution",
    "load_bundle",
    "merge_remote_spans",
    "rank_attribution",
    "serialize_spans",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "self_times",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "Profiler",
    "ProfileReport",
    "FunctionProfile",
    "report_from_spans",
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus",
    "TIER_INTERPRETER",
    "TIER_JIT",
    "TIER_SPEC",
]
