"""Metrics registry, Prometheus exposition and the diagnostics bridge.

Covers ISSUE 3's metrics pillar and its satellites: instrument semantics,
text-exposition format, the instrument table held against the public
readers of the same facts (ISSUE 22: one ledger), the ``wall_time``/
``thread`` event fields, and consistency of the counters under concurrent
background-speculation load (hypothesis).
"""

from __future__ import annotations

import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FaultPlan, MajicSession, TieringPolicy
from repro.benchsuite.registry import source_of
from repro.benchsuite.workloads import boxed_workload
from repro.faults.plan import FaultSpec
from repro.kernels import KERNEL_CACHE
from repro.native import detect_toolchain
from repro.obs import NULL_METRICS, MetricsRegistry, prometheus_text
from repro.obs.instruments import INSTRUMENTS, PUSHED, catalogue
from repro.repository import diagnostics
from repro.repository.diagnostics import DiagnosticsLog
from repro.resilience import ResiliencePolicy

POLY = """
function p = poly(x)
p = x.^5 + 3*x + 2;
"""


# ----------------------------------------------------------------------
# Instrument semantics
# ----------------------------------------------------------------------
def test_counter_only_goes_up():
    registry = MetricsRegistry()
    calls = registry.counter("calls_total", "calls", labelnames=("tier",))
    calls.inc(tier="jit")
    calls.inc(2.0, tier="jit")
    assert calls.labels(tier="jit").value == 3.0
    with pytest.raises(ValueError):
        calls.inc(-1.0, tier="jit")


def test_gauge_set_inc_dec():
    registry = MetricsRegistry()
    depth = registry.gauge("queue_depth")
    depth.labels().set(4)
    depth.labels().dec()
    assert depth.labels().value == 3.0


def test_histogram_cumulative_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.labels().observe(value)
    child = hist.labels()
    assert child.cumulative() == [(0.1, 1), (1.0, 2), (float("inf"), 3)]
    assert child.sum == pytest.approx(5.55)


def test_registry_get_or_create_and_kind_mismatch():
    registry = MetricsRegistry()
    first = registry.counter("x_total")
    assert registry.counter("x_total") is first
    with pytest.raises(ValueError):
        registry.gauge("x_total")


def test_null_metrics_absorbs_everything():
    counter = NULL_METRICS.counter("anything")
    counter.inc(tier="jit")
    assert NULL_METRICS.collect() == []
    assert NULL_METRICS.snapshot() == {}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def test_prometheus_text_format():
    registry = MetricsRegistry()
    calls = registry.counter("majic_calls_total", "Calls.", labelnames=("tier",))
    calls.inc(tier="jit")
    hist = registry.histogram("lat_seconds", "Latency.", buckets=(0.5,))
    hist.labels().observe(0.25)
    text = prometheus_text(registry)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert "# HELP majic_calls_total Calls." in lines
    assert "# TYPE majic_calls_total counter" in lines
    assert 'majic_calls_total{tier="jit"} 1' in lines
    assert "# TYPE lat_seconds histogram" in lines
    assert 'lat_seconds_bucket{le="0.5"} 1' in lines
    assert 'lat_seconds_bucket{le="+Inf"} 1' in lines
    assert "lat_seconds_sum 0.25" in lines
    assert "lat_seconds_count 1" in lines


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    counter = registry.counter("odd_total", labelnames=("detail",))
    counter.inc(detail='say "hi"\nnow')
    text = prometheus_text(registry)
    assert r'detail="say \"hi\"\nnow"' in text


# ----------------------------------------------------------------------
# One ledger: every instrument of the table against the public readers
# ----------------------------------------------------------------------
# A mixed history over five sessions (no single one can be serial, pooled,
# adaptive and parallel at once).  After it, every *view* row must equal
# what the public reader of the same fact says — they read one tally, so
# this can only fail if a second count of the fact appears — and every
# row, view or pushed, must have moved: no instrument is write-only, none
# is dead.
MSUM = "function y = msum(A)\ny = sum(A(:)) + numel(A);\n"
AXPY = "function y = axpy(a, x, b)\ny = a .* x + b .* x - x ./ 2;\n"
AXMY = "function y = axmy(a, x, b)\ny = a .* x - b .* x + x ./ 2;\n"
SPIN = "function s = spin(n)\ns = 0;\nfor k = 1:n\n  s = s + k;\nend\n"


def _serial_history(tmp_path_factory):
    """JIT + spec + interpreted calls, deopts -> quarantine, a watchdog
    timeout, fused kernels with a kernel-cache hit, miss and eviction,
    persistent-cache misses — then hits, in a warm session."""
    cache_dir = tmp_path_factory.mktemp("ledger-cache")
    x = np.arange(1.0, 13.0)  # past the unroll limit: fused kernels
    KERNEL_CACHE.clear()
    capacity, KERNEL_CACHE.capacity = KERNEL_CACHE.capacity, 1
    try:
        cold = MajicSession(
            metrics=True, cache_dir=cache_dir, run_deadline=0.2,
            fault_plan=FaultPlan([
                FaultSpec("rt.*", hits=(1, 2, 3)),
                FaultSpec("hang", hits=(1,), behavior="hang"),
            ]),
        )
        for text in (POLY, MSUM, AXPY, AXMY, SPIN):
            cold.add_source(text)
        cold.call("spin", 10.0)              # hangs -> watchdog -> deopt
        for _ in range(4):                   # 3 deopts -> quarantined
            cold.call("msum", x.reshape(3, 4))
        cold.call("axpy", 2.0, x, 3.0)       # kernel miss
        cold.call("axmy", 2.0, x, 3.0)       # miss; evicts axpy's kernel
        cold.call("axmy", 2.0, x + 1.0, 3.0)  # range-widened recompile: hit
        cold.call("poly", 2.0)
        cold.speculate_all()
        cold.call("poly", 3.0)               # served by the spec version
        cold.close()
    finally:
        KERNEL_CACHE.capacity = capacity
    warm = MajicSession(metrics=True, cache_dir=cache_dir)
    warm.add_source(POLY)
    warm.call("poly", 2.0)
    warm.close()
    return [cold, warm]


def _background_history():
    session = MajicSession(
        metrics=True, background=True, workers=2,
        fault_plan=FaultPlan([FaultSpec("worker", hits=(1,), behavior="crash")]),
    )
    session.add_source(POLY)
    session.add_source(AXPY)
    session.speculate_async()
    assert session.drain_speculation(timeout=30)
    assert len(session.engine.failed) == 1  # the crashed task
    session.close()
    return [session]


def _adaptive_history(tmp_path_factory):
    """Promotions, a measured demotion, a quarantine demotion and — in a
    second session over the same cache — a profile restore."""
    cache_dir = tmp_path_factory.mktemp("ledger-profiles")
    policy = TieringPolicy(jit_threshold=2.0, spec_threshold=4.0, min_samples=2)
    sessions = []
    for faults in (FaultPlan([FaultSpec("rt.*", hits=(1, 2, 3, 4, 5))]), None):
        session = MajicSession(
            metrics=True, adaptive=True, sync=True,
            cache_dir=cache_dir, tiering=policy, fault_plan=faults,
        )
        for text in (POLY, MSUM, SPIN):
            session.add_source(text)
        for _ in range(8):
            session.call("poly", 4.0)
        if faults is not None:
            for _ in range(8):
                session.call("msum", np.arange(8.0).reshape(2, 4))
                session.call("spin", 3.0)
            slow = session.invocation("spin", 3.0)
            for _ in range(2):
                session.tiering.observe(slow, session.tiering.tier_of("spin"), 10.0)
        session.close()
        sessions.append(session)
    return sessions


def _parallel_history():
    """Tile and replicate plans, a dropped message (serial fallback) and a
    crashed rank (respawn)."""
    session = MajicSession(
        metrics=True, parallel=2, seed=20020617,
        resilience=ResiliencePolicy(parallel_recv_timeout=1.5),
        fault_plan=FaultPlan([
            FaultSpec("parallel.send", hits=(7,)),
            FaultSpec("parallel.worker", hits=(3,), behavior="crash"),
        ]),
    )
    session.add_source(source_of("mandel"))
    session.add_source(POLY)
    for _ in range(3):
        session.call("mandel", *boxed_workload("mandel", (40, 30)))
        session.call("poly", 3.0)
    session.close()
    return [session]


def _native_history(tmp_path_factory):
    if detect_toolchain() is None:
        return []
    session = MajicSession(
        metrics=True, native=True, sync=True, native_hot_threshold=1,
        native_min_elems=16, cache_dir=tmp_path_factory.mktemp("ledger-native"),
    )
    session.add_source(AXPY)
    x = np.arange(1.0, 21.0)
    for _ in range(3):
        session.call("axpy", 2.0, x, 3.0)    # compile, then native runs
    # Below the cutoff but past the unroll limit (a kernel): fallback.
    session.call("axpy", 2.0, x[:12], 3.0)
    session.close()
    return [session]


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    return (
        _serial_history(tmp_path_factory) + _background_history()
        + _adaptive_history(tmp_path_factory) + _parallel_history()
        + _native_history(tmp_path_factory)
    )


def _labelled(tally):
    return {(str(key),): value for key, value in tally.items() if value}


def _unlabelled(value):
    return {(): value} if value else {}


def _native_stats(session):
    return {} if session.native is None else session.native.stats()


def _tiering_report(session):
    return {} if session.tiering is None else session.tiering.report()


#: metric -> what the *public* reader of the same fact says, as
#: ``session -> {label values: number}`` (``None``: nobody but the metric
#: exposes the split; only movement is checked).
PUBLIC = {
    "majic_calls_total": lambda s: {
        ("interpreter",): s.stats.calls_interpreted,
        ("jit",): s.stats.calls_jit, ("spec",): s.stats.calls_spec,
    },
    "majic_compiles_total": lambda s: _labelled({
        "jit": s.stats.jit_compiles, "spec": s.stats.speculative_compiles,
    }),
    "majic_cache_requests_total": lambda s: _labelled(s.stats.cache_requests),
    "majic_events_total": lambda s: _labelled(s.diagnostics.counts()),
    "majic_kernel_cache_hits_total": lambda s: _unlabelled(
        KERNEL_CACHE.stats()["hits"]),
    "majic_kernel_cache_misses_total": lambda s: _unlabelled(
        KERNEL_CACHE.stats()["misses"]),
    "majic_kernel_cache_evictions_total": lambda s: _unlabelled(
        KERNEL_CACHE.stats()["evictions"]),
    "majic_native_compiles_total": lambda s: _labelled({
        result: _native_stats(s).get(result, 0)
        for result in ("compiled", "cached", "failed", "ineligible")
    }),
    "majic_native_fallback_total": None,
    "majic_deopt_total": lambda s: _unlabelled(s.stats.deopts),
    "majic_quarantine_total": lambda s: _unlabelled(s.stats.quarantines),
    "majic_watchdog_timeouts_total": lambda s: _labelled(
        Counter(kind for _, kind, _ in s.repository.guard.timeouts)),
    "majic_parallel_calls_total": None,
    "majic_parallel_fallback_total": lambda s: _unlabelled(
        s.diagnostics.counts().get("parallel_fallback", 0)),
    "majic_parallel_messages_total": None,
    "majic_parallel_bytes_total": None,
    "majic_parallel_worker_restarts_total": lambda s: _unlabelled(
        s.diagnostics.counts().get("parallel_worker_restart", 0)),
    "majic_tier_promotions_total": None,
    "majic_tier_demotions_total": None,
    "majic_tier_profile_restores_total": lambda s: _unlabelled(
        _tiering_report(s).get("profile_restores", 0)),
}

#: Sums the label splits above must add up to, where a public reader
#: reports only the sum.
PUBLIC_SUMS = {
    "majic_native_fallback_total":
        lambda s: _native_stats(s).get("fallbacks", 0),
    "majic_tier_promotions_total":
        lambda s: _tiering_report(s).get("promotions", 0),
    "majic_tier_demotions_total":
        lambda s: _tiering_report(s).get("demotions", 0),
}


@pytest.mark.parametrize("row", INSTRUMENTS, ids=lambda row: row.name)
def test_every_instrument_reads_the_one_ledger(ledger, row):
    if row.name.startswith("majic_native_") and detect_toolchain() is None:
        pytest.skip("no C toolchain: the native tier never compiles")
    moved = 0
    for session in ledger:
        metric = {m.name: m for m in session.obs.metrics.collect()}[row.name]
        assert (metric.kind, metric.help, metric.labelnames) == (
            row.kind, row.help, row.labelnames)
        samples = dict(metric.samples())
        if row.source == PUSHED:
            moved += sum(
                1 for child in samples.values()
                if row.kind == "gauge" or child.count
            )
            continue
        values = {key: child.value for key, child in samples.items()}
        moved += sum(1 for value in values.values() if value)
        # The kernel cache is process-wide: its rows cannot be held
        # against a per-session public reader.
        expected = PUBLIC[row.name]
        if expected is not None and "kernel_cache" not in row.name:
            assert values == expected(session), (row.name, row.source)
        if row.name in PUBLIC_SUMS:
            assert sum(values.values()) == PUBLIC_SUMS[row.name](session)
    assert moved, f"{row.name} never moved: a dead or write-only instrument"


def test_kernel_cache_rows_are_the_process_wide_tally(ledger):
    stats = KERNEL_CACHE.stats()
    snap = ledger[-1].obs.metrics.snapshot()
    for what in ("hits", "misses", "evictions"):
        got = snap[f"majic_kernel_cache_{what}_total"].get((), 0)
        assert got == stats[what]


def test_design_catalogue_is_the_table():
    design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
    begin, end = "<!-- catalogue:begin -->\n", "\n<!-- catalogue:end -->"
    rendered = design[design.index(begin) + len(begin):design.index(end)]
    assert rendered == catalogue()


def test_design_catalogue_lists_every_diagnostic_kind():
    """Every kind constant of ``repository.diagnostics`` has a row in
    DESIGN.md's catalogue, and every row is a kind."""
    kinds = {
        value for name, value in vars(diagnostics).items()
        if name.isupper() and isinstance(value, str)
    }
    assert len(kinds) == 17
    design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
    begin, end = "<!-- diagnostics:begin -->\n", "\n<!-- diagnostics:end -->"
    rows = design[design.index(begin) + len(begin):design.index(end)]
    listed = {
        line.split("|")[1].strip().strip("`")
        for line in rows.splitlines()[2:]
    }
    assert listed == kinds


# ----------------------------------------------------------------------
# Session-level wiring
# ----------------------------------------------------------------------
def test_compile_phase_histogram_observes_all_phases():
    session = MajicSession(metrics=True)
    session.add_source(POLY)
    session.call("poly", 1.0)
    hist = session.obs.metrics.counter  # registry access below
    phases = {
        key for key, _ in
        session.obs.metrics.histogram("majic_compile_phase_seconds").samples()
    }
    assert {("jit", "disambiguation"), ("jit", "type_inference"),
            ("jit", "codegen")} <= phases
    assert callable(hist)


def test_diagnostics_feed_metrics_registry():
    session = MajicSession(metrics=True)
    session.add_source(POLY)
    session.diagnostics.record("deopt", "poly", detail="test event")
    snap = session.obs.metrics.snapshot()
    assert snap["majic_events_total"][("deopt",)] == 1.0


def test_metrics_text_on_session():
    session = MajicSession(metrics=True)
    session.add_source(POLY)
    session.call("poly", 1.0)
    text = session.metrics_text()
    assert 'majic_calls_total{tier="jit"} 1' in text


# ----------------------------------------------------------------------
# DiagnosticsLog satellites: new fields, locked reads, listeners
# ----------------------------------------------------------------------
def test_diagnostic_event_wall_time_and_thread():
    log = DiagnosticsLog()
    event = log.record("deopt", "f")
    assert event.wall_time > 0.0
    assert event.thread == threading.current_thread().name


def test_listener_exceptions_are_swallowed():
    log = DiagnosticsLog()
    seen = []

    def bad(event):
        raise RuntimeError("observer bug")

    log.add_listener(bad)
    log.add_listener(seen.append)
    event = log.record("deopt", "f")
    assert seen == [event]          # later listeners still run


def test_listener_may_reenter_log_without_deadlock():
    log = DiagnosticsLog()
    kinds = []

    def reentrant(event):
        # Listeners run outside the lock, so reading back is safe.
        kinds.append((event.kind, len(log)))

    log.add_listener(reentrant)
    log.record("deopt", "f")
    assert kinds == [("deopt", 1)]


def test_dropped_and_len_under_capacity_pressure():
    log = DiagnosticsLog(capacity=3)
    for index in range(5):
        log.record("deopt", f"f{index}")
    assert len(log) == 3
    assert log.dropped == 2
    assert bool(log)


# ----------------------------------------------------------------------
# Concurrency: counters stay consistent under background speculation
# ----------------------------------------------------------------------
ops = st.lists(
    st.one_of(
        st.tuples(st.just("call"), st.integers(-3, 7)),
        st.tuples(st.just("speculate")),
    ),
    min_size=1,
    max_size=8,
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=ops)
def test_metrics_consistent_under_concurrent_speculation(ops):
    session = MajicSession(metrics=True, seed=None)
    session.add_source(POLY)
    calls = 0
    try:
        for op in ops:
            if op[0] == "call":
                session.call("poly", float(op[1]))
                calls += 1
            else:
                session.speculate_async()
        assert session.drain_speculation(timeout=30)
        stats = session.stats
        snap = session.obs.metrics.snapshot()
        recorded = sum(snap["majic_calls_total"].values())
        assert recorded == calls
        assert recorded == (
            stats.calls_jit + stats.calls_spec + stats.calls_interpreted
        )
        compiles = snap.get("majic_compiles_total", {})
        assert sum(compiles.values()) == (
            stats.jit_compiles + stats.speculative_compiles
        )
        events = snap.get("majic_events_total", {})
        assert sum(events.values()) == len(session.diagnostics)
        depth = snap.get("majic_speculation_queue_depth", {})
        for value in depth.values():
            assert value == 0.0     # drained ⇒ gauge settled at zero
    finally:
        session.close()
