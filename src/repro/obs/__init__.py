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
  (:mod:`repro.obs.export_prom`).  The repository's
  :class:`~repro.repository.diagnostics.DiagnosticsLog` feeds the
  registry through a listener, so every robustness counter (deopts,
  quarantines, budget skips, compile failures) comes for free.
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

#: Metrics the diagnostics->metrics bridge derives from events; excluded
#: from cross-rank merges because surfaced rank diagnostics re-derive them.
_LISTENER_DERIVED = frozenset({
    "majic_events_total", "majic_deopt_total", "majic_quarantine_total",
})


class Observability:
    """One session's observability switchboard.

    Holds the (real or null) tracer and metrics registry, pre-binds the
    hot-path instruments so the per-call cost is a dict-free ``inc()``,
    and subscribes to a :class:`DiagnosticsLog` so robustness events feed
    the metrics and the trace stream without any extra call sites.
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
        self._bound_logs: list = []
        # Per-rank remote->local span id maps for merged distributed
        # traces (persistent, so later batches can reference earlier
        # parents).
        self._rank_idmaps: dict[int, dict[int, int]] = {}
        self._rebuild_instruments()

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
    def _rebuild_instruments(self) -> None:
        registry = self.metrics
        self._calls = registry.counter(
            "majic_calls_total",
            "Function executions by tier (interpreter vs compiled).",
            labelnames=("tier",),
        )
        self._call_children = {
            TIER_INTERPRETER: self._calls.labels(tier=TIER_INTERPRETER),
            TIER_JIT: self._calls.labels(tier=TIER_JIT),
            TIER_SPEC: self._calls.labels(tier=TIER_SPEC),
        }
        self._compiles = registry.counter(
            "majic_compiles_total",
            "Completed compiles by pipeline mode.",
            labelnames=("mode",),
        )
        self._compile_phase_seconds = registry.histogram(
            "majic_compile_phase_seconds",
            "Compile latency split by phase (the Figure 6 categories).",
            labelnames=("mode", "phase"),
        )
        self._cache_requests = registry.counter(
            "majic_cache_requests_total",
            "Persistent-cache probes by result.",
            labelnames=("result",),
        )
        self._events = registry.counter(
            "majic_events_total",
            "Diagnostics events by kind (deopt, quarantine, ...).",
            labelnames=("kind",),
        )
        self._queue_depth = registry.gauge(
            "majic_speculation_queue_depth",
            "Background compiles queued or in flight.",
        )
        self._kernel_hits = registry.counter(
            "majic_kernel_cache_hits_total",
            "Fused elementwise kernel cache hits.",
        )
        self._kernel_misses = registry.counter(
            "majic_kernel_cache_misses_total",
            "Fused elementwise kernel cache misses (kernel compiles).",
        )
        self._kernel_run_seconds = registry.histogram(
            "majic_kernel_run_seconds",
            "Per-call latency of fused elementwise kernels.",
            labelnames=("kernel",),
        )
        self._kernel_evictions = registry.counter(
            "majic_kernel_cache_evictions_total",
            "Fused kernels dropped by the kernel cache's LRU bound.",
        )
        # Native-tier instruments (repro.native): compile outcomes,
        # per-kernel native run latency and fallback-to-Python reasons.
        self._native_compiles = registry.counter(
            "majic_native_compiles_total",
            "Native kernel compiles by result (compiled, cached, failed, "
            "ineligible).",
            labelnames=("result",),
        )
        self._native_run_seconds = registry.histogram(
            "majic_native_run_seconds",
            "Per-call latency of native (C) fused kernels.",
            labelnames=("kernel",),
        )
        self._native_fallbacks = registry.counter(
            "majic_native_fallback_total",
            "Native dispatches that fell back to the Python kernel, by "
            "reason (guard, domain, run_fault, fault).",
            labelnames=("reason",),
        )
        # Resilience counters: dedicated first-class metrics (the labelled
        # majic_events_total stream still carries every kind; these exist
        # so dashboards can alert without label arithmetic).
        self._deopts = registry.counter(
            "majic_deopt_total",
            "Guarded deoptimizations (compiled run fell back to the "
            "interpreter).",
        )
        self._quarantines = registry.counter(
            "majic_quarantine_total",
            "Functions demoted to interpreter-only after repeated strikes.",
        )
        self._worker_restarts = registry.counter(
            "majic_worker_restarts_total",
            "Dead speculation workers respawned by the supervisor.",
        )
        self._watchdog_timeouts = registry.counter(
            "majic_watchdog_timeouts_total",
            "Watchdog deadline cancellations by operation kind.",
            labelnames=("kind",),
        )
        # Parallel-backend instruments (repro.parallel): call/fallback
        # counters, message traffic and per-call latency.
        self._parallel_calls = registry.counter(
            "majic_parallel_calls_total",
            "Calls executed through the parallel backend, by plan kind.",
            labelnames=("plan",),
        )
        self._parallel_fallbacks = registry.counter(
            "majic_parallel_fallback_total",
            "Parallel calls that fell back to serial execution.",
        )
        self._parallel_messages = registry.counter(
            "majic_parallel_messages_total",
            "MPI-style messages by outcome (sent, received, dropped).",
            labelnames=("kind",),
        )
        self._parallel_bytes = registry.counter(
            "majic_parallel_bytes_total",
            "Serialized message payload bytes moved by the transport.",
            labelnames=("kind",),
        )
        self._parallel_restarts = registry.counter(
            "majic_parallel_worker_restarts_total",
            "Dead parallel worker ranks respawned by the driver.",
        )
        self._parallel_seconds = registry.histogram(
            "majic_parallel_call_seconds",
            "Wall-clock latency of scatter/compute/gather parallel calls.",
            labelnames=("function",),
        )
        # Adaptive-tiering instruments (repro.tiering): the controller's
        # promotion/demotion traffic and warm-profile restores.
        self._tier_promotions = registry.counter(
            "majic_tier_promotions_total",
            "Adaptive-tiering promotions landed, by destination tier.",
            labelnames=("tier",),
        )
        self._tier_demotions = registry.counter(
            "majic_tier_demotions_total",
            "Adaptive-tiering demotions, by reason (slower, deopt, "
            "quarantine).",
            labelnames=("reason",),
        )
        self._tier_profile_restores = registry.counter(
            "majic_tier_profile_restores_total",
            "Persisted hotness profiles restored by warm sessions.",
        )

    # ------------------------------------------------------------------
    # Hot-path helpers (no-ops when metrics are disabled)
    # ------------------------------------------------------------------
    def record_call(self, tier: str) -> None:
        if not self.metrics.enabled:
            return
        child = self._call_children.get(tier)
        if child is None:
            child = self._call_children[tier] = self._calls.labels(tier=tier)
        child.inc()

    def record_compile(self, mode: str, phase_times) -> None:
        if not self.metrics.enabled:
            return
        self._compiles.inc(mode=mode)
        observe = self._compile_phase_seconds.observe
        observe(phase_times.disambiguation, mode=mode, phase="disambiguation")
        observe(phase_times.type_inference, mode=mode, phase="type_inference")
        observe(phase_times.codegen, mode=mode, phase="codegen")

    def record_cache(self, result: str) -> None:
        if not self.metrics.enabled:
            return
        self._cache_requests.inc(result=result)

    def record_kernel_cache(self, hit: bool) -> None:
        if not self.metrics.enabled:
            return
        (self._kernel_hits if hit else self._kernel_misses).inc()

    def record_kernel_run(self, kernel: str, seconds: float) -> None:
        if not self.metrics.enabled:
            return
        self._kernel_run_seconds.observe(seconds, kernel=kernel)

    def record_kernel_cache_eviction(self, count: int = 1) -> None:
        if not self.metrics.enabled:
            return
        self._kernel_evictions.inc(count)

    def record_native_compile(self, result: str) -> None:
        if not self.metrics.enabled:
            return
        self._native_compiles.inc(result=result)

    def record_native_run(self, kernel: str, seconds: float) -> None:
        if not self.metrics.enabled:
            return
        self._native_run_seconds.observe(seconds, kernel=kernel)

    def record_native_fallback(self, reason: str) -> None:
        if not self.metrics.enabled:
            return
        self._native_fallbacks.inc(reason=reason)

    def record_promotion(self, tier: str) -> None:
        if not self.metrics.enabled:
            return
        self._tier_promotions.inc(tier=tier)

    def record_demotion(self, reason: str) -> None:
        if not self.metrics.enabled:
            return
        self._tier_demotions.inc(reason=reason)

    def record_profile_restore(self) -> None:
        if not self.metrics.enabled:
            return
        self._tier_profile_restores.inc()

    def set_queue_depth(self, depth: int) -> None:
        if not self.metrics.enabled:
            return
        self._queue_depth.labels().set(depth)

    def record_worker_restart(self) -> None:
        if not self.metrics.enabled:
            return
        self._worker_restarts.inc()

    def record_parallel_call(self, plan: str) -> None:
        if not self.metrics.enabled:
            return
        self._parallel_calls.inc(plan=plan)

    def record_parallel_fallback(self) -> None:
        if not self.metrics.enabled:
            return
        self._parallel_fallbacks.inc()

    def record_parallel_message(self, kind: str, nbytes: int = 0) -> None:
        if not self.metrics.enabled:
            return
        self._parallel_messages.inc(kind=kind)
        if nbytes:
            self._parallel_bytes.inc(nbytes, kind=kind)

    def record_parallel_restart(self) -> None:
        if not self.metrics.enabled:
            return
        self._parallel_restarts.inc()

    def record_parallel_seconds(self, function: str, seconds: float) -> None:
        if not self.metrics.enabled:
            return
        self._parallel_seconds.observe(seconds, function=function)

    def record_watchdog_timeout(self, kind: str) -> None:
        if not self.metrics.enabled:
            return
        self._watchdog_timeouts.inc(kind=kind)

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
                # Surfacing the rank's diagnostics below re-fires the
                # parent's diagnostics->metrics bridge, which already
                # counts these; merging the rank's own listener-derived
                # counters too would double-count every event.
                delta = {
                    name: entry for name, entry in delta.items()
                    if name not in _LISTENER_DERIVED
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
        """Mirror every :class:`DiagnosticEvent` into the metrics
        registry and (as an instant) into the trace stream."""
        if not self.enabled or log in self._bound_logs:
            return
        self._bound_logs.append(log)
        log.add_listener(self._on_diagnostic)

    def _on_diagnostic(self, event) -> None:
        if self.metrics.enabled:
            self._events.inc(kind=event.kind)
            if event.kind == "deopt":
                self._deopts.inc()
            elif event.kind == "quarantine":
                self._quarantines.inc()
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
