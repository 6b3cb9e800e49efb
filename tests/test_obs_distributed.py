"""Distributed tracing and the crash flight recorder.

What is exercised here:

* a ``parallel=2`` traced run exports ONE Chrome trace: every rank gets
  its own pid row, and every MPI send flow event has a matching receive
  (and vice versa) — the s/f pairs stitch the process timelines together;
* worker-rank metrics fold into the parent registry without double
  counting, and worker diagnostics surface into the parent log with a
  ``rank`` field;
* an injected ``parallel.worker`` crash produces a postmortem bundle
  matching the documented ``majic-postmortem/1`` schema, containing the
  dead rank's own last spans;
* ``profile("report")`` attributes per-rank time to the MatlabMPI
  launch/communication/computation columns;
* parallel results stay bit-identical with tracing enabled.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.majic import MajicSession
from repro.faults.plan import (
    BEHAVIOR_CRASH,
    FaultPlan,
    SITE_PARALLEL_WORKER,
)
from repro.obs import (
    DUMP_KINDS,
    FlightRecorder,
    MetricsRegistry,
    NULL_FLIGHT,
    Observability,
    Tracer,
    load_bundle,
    merge_remote_spans,
    serialize_spans,
)
from repro.obs.flight import SCHEMA
from repro.obs.profiler import RankAttribution, rank_attribution
from repro.parallel.message import TraceContext, make, pack, unpack
from repro.repository.diagnostics import DiagnosticsLog, PARALLEL_FALLBACK

SHEET = """
function A = sheet(n)
A = zeros(n, 3);
for i = 1:n,
  A(i, 1) = i;
  A(i, 2) = i * i;
  A(i, 3) = i + 0.5;
end
"""

#: Documented bundle schema (repro.obs.flight module docstring).
BUNDLE_KEYS = {
    "schema", "reason", "fault_site", "rank", "pid", "trace_id",
    "wall_time", "error", "env", "breadcrumbs", "diagnostics", "spans",
    "metrics",
}


def complete_events(doc: dict) -> list[dict]:
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


# ----------------------------------------------------------------------
# Wire format: trace context rides the envelope
# ----------------------------------------------------------------------
def test_envelope_roundtrips_trace_context():
    trace = TraceContext(trace_id="abcd" * 4, parent_span=7, msg_id="1.9")
    blob = pack(make(0, 1, 5, [1, 2, 3], trace=trace))
    envelope = unpack(blob)
    assert envelope.trace == trace


def test_envelope_without_trace_context_stays_v1_shaped():
    envelope = unpack(pack(make(0, 1, 5, "x")))
    assert envelope.trace is None


# ----------------------------------------------------------------------
# Span merging (the parent-side half of the distributed trace)
# ----------------------------------------------------------------------
def test_merge_remote_spans_remaps_ids_and_parents():
    parent = Tracer()
    with parent.span("dispatch", "parallel") as anchor:
        pass
    remote = Tracer()
    with remote.span("outer", "parallel"):
        with remote.span("inner", "execution"):
            pass
    batch = {
        "rank": 2,
        "pid": 4242,
        "wall_epoch": remote.wall_epoch,
        "spans": serialize_spans(remote.spans()),
    }
    merged = merge_remote_spans(parent, batch, {}, default_parent=anchor.span_id)
    assert merged == 2
    by_name = {s.name: s for s in parent.spans()}
    outer, inner = by_name["outer"], by_name["inner"]
    # Remote ids are remapped into the parent's id space...
    assert {outer.span_id, inner.span_id}.isdisjoint(
        {s.span_id for s in remote.spans()} - {outer.span_id, inner.span_id}
        | {anchor.span_id}
    )
    # ...the batch-internal parent link survives, the root hangs off the
    # dispatch anchor, and every span is stamped with its rank and pid.
    assert inner.parent_id == outer.span_id
    assert outer.parent_id == anchor.span_id
    assert outer.rank == 2 and outer.pid == 4242
    assert outer.thread.startswith("rank2:")


# ----------------------------------------------------------------------
# Metrics snapshot / delta / merge (no double counting)
# ----------------------------------------------------------------------
def test_metrics_delta_and_merge_fold_without_double_counting():
    worker = MetricsRegistry()
    calls = worker.counter("calls_total", "calls", labelnames=("tier",))
    lat = worker.histogram("lat_seconds", "latency")
    base = worker.snapshot(structured=True)
    calls.inc(tier="jit")
    calls.inc(tier="jit")
    lat.observe(0.25)
    first = worker.snapshot(structured=True)
    delta1 = MetricsRegistry.delta(base, first)

    parent = MetricsRegistry()
    parent.counter("calls_total", "calls", labelnames=("tier",)).inc(
        5, tier="jit"
    )
    parent.merge(delta1)
    # Second delta is rebased on the first: merging both counts each
    # increment exactly once.
    calls.inc(tier="interpreter")
    parent.merge(MetricsRegistry.delta(first, worker.snapshot(structured=True)))

    snap = parent.snapshot()
    assert snap["calls_total"][("jit",)] == 7
    assert snap["calls_total"][("interpreter",)] == 1
    # The plain snapshot maps a histogram child to its running sum: the
    # single 0.25 observation arrived exactly once.
    assert snap["lat_seconds"][()] == pytest.approx(0.25)


def test_metrics_delta_excludes_gauges():
    registry = MetricsRegistry()
    registry.gauge("depth", "queue depth").labels().set(9)
    base = {}
    delta = MetricsRegistry.delta(base, registry.snapshot(structured=True))
    assert "depth" not in delta


# ----------------------------------------------------------------------
# absorb_rank surfaces worker diagnostics with the rank attached
# ----------------------------------------------------------------------
def test_absorb_rank_surfaces_diagnostics_with_rank():
    obs = Observability(trace=True, metrics=True)
    log = DiagnosticsLog()
    obs.bind_diagnostics(log)
    obs.absorb_rank(
        {
            "rank": 3,
            "pid": 777,
            "diagnostics": [
                {"kind": "deopt", "function": "f", "detail": "boom",
                 "cause": "InjectedFault()", "wall_time": 123.0},
            ],
        },
        diagnostics=log,
    )
    events = log.events("deopt")
    assert len(events) == 1
    assert events[0].rank == 3
    assert events[0].wall_time == 123.0
    assert "rank=3" in str(events[0])


def test_absorb_rank_strips_listener_derived_metrics():
    """Surfacing a rank's diagnostics re-derives majic_events_total in
    the parent; merging the rank's own copy too would double count."""
    obs = Observability(trace=False, metrics=True)
    log = DiagnosticsLog()
    obs.bind_diagnostics(log)
    obs.absorb_rank(
        {
            "rank": 1,
            "metrics": {
                "majic_events_total": {
                    "kind": "counter", "help": "x", "labelnames": ["kind"],
                    "children": {("deopt",): 1},
                },
            },
            "diagnostics": [{"kind": "deopt", "function": "f"}],
        },
        diagnostics=log,
    )
    snap = obs.metrics.snapshot()
    assert snap.get("majic_events_total", {}).get(("deopt",)) == 1


# ----------------------------------------------------------------------
# End-to-end: one Chrome trace across ranks
# ----------------------------------------------------------------------
@pytest.fixture
def traced_parallel(fresh_session):
    session = fresh_session(parallel=2, trace=True, metrics=True, seed=0)
    session.add_source(SHEET)
    return session


def test_parallel_trace_gives_every_rank_a_pid_row(traced_parallel):
    session = traced_parallel
    session.call("sheet", 8.0)
    session.close()  # shutdown flush ships the final span batches
    doc = json.loads(session.trace_json())
    pids = {e["pid"] for e in complete_events(doc)}
    assert len(pids) == 3  # rank 0 + two workers
    rows = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    assert rows == {"rank 0", "rank 1", "rank 2"}
    # Worker spans joined the parent's trace, not three separate ones.
    assert doc["otherData"]["trace_id"] == session.obs.tracer.trace_id
    names = {e["name"] for e in complete_events(doc)}
    assert {"rank_boot", "parallel_task", "MPI_Send", "MPI_Recv"} <= names


def test_every_send_flow_has_a_matching_recv_flow(traced_parallel):
    session = traced_parallel
    session.call("sheet", 8.0)
    session.call("sheet", 8.0)
    session.close()
    doc = json.loads(session.trace_json())
    starts = [e for e in doc["traceEvents"] if e.get("ph") == "s"]
    finishes = [e for e in doc["traceEvents"] if e.get("ph") == "f"]
    assert starts and finishes
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
    # Flow endpoints sit on different processes: that is the whole point.
    by_id: dict[str, set] = {}
    for e in starts + finishes:
        by_id.setdefault(e["id"], set()).add(e["pid"])
    assert all(len(pids) == 2 for pids in by_id.values())


def test_worker_spans_merge_under_the_dispatch_span(traced_parallel):
    session = traced_parallel
    session.call("sheet", 8.0)
    session.close()
    spans = session.obs.tracer.spans()
    dispatch = [s for s in spans if s.name == "parallel_replicate"]
    assert dispatch
    tasks = [s for s in spans if s.name == "parallel_task"]
    assert {t.rank for t in tasks} == {1, 2}
    ids = {s.span_id for s in spans}
    assert all(t.parent_id in ids for t in tasks)


def test_parallel_results_bit_identical_with_tracing_enabled(fresh_session):
    plain = fresh_session(parallel=2, seed=0)
    plain.add_source(SHEET)
    expected = plain.call("sheet", 8.0)
    traced = fresh_session(parallel=2, trace=True, metrics=True, seed=0)
    traced.add_source(SHEET)
    got = traced.call("sheet", 8.0)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    assert not traced.diagnostics.events(PARALLEL_FALLBACK)


def test_rank_metrics_fold_into_parent_registry(traced_parallel):
    session = traced_parallel
    session.call("sheet", 8.0)
    session.close()
    snap = session.obs.metrics.snapshot()
    # Two worker ranks each executed the replicated call: their per-tier
    # call counters merged in on top of the parent's own execution.
    rank_calls = sum(session.obs.metrics.snapshot()["majic_calls_total"].values())
    assert rank_calls >= 3
    assert ("sent",) in snap["majic_parallel_messages_total"]


# ----------------------------------------------------------------------
# Per-rank profile attribution (MatlabMPI columns)
# ----------------------------------------------------------------------
def test_rank_attribution_buckets_by_category():
    tracer = Tracer()
    tracer.complete("rank_boot", "launch", 0.0, 2.0)
    with tracer.span("work", "parallel"):
        with tracer.span("MPI_Send", "mpi"):
            pass
    tracer.complete("idle_recv", "mpi", 5.0, 3.0)  # parentless: not comm
    rows = rank_attribution(tracer.spans())
    assert len(rows) == 1 and isinstance(rows[0], RankAttribution)
    assert rows[0].rank == 0
    assert rows[0].launch_s == pytest.approx(2.0)
    assert rows[0].comm_s > 0.0       # the parented MPI_Send counts...
    assert rows[0].comp_s == 0.0      # ...the parentless idle recv doesn't
    assert rows[0].total_s == pytest.approx(
        rows[0].launch_s + rows[0].comm_s
    )


def test_profile_report_shows_per_rank_columns(traced_parallel):
    session = traced_parallel
    session.profile("on")
    session.call("sheet", 8.0)
    session.close()
    report = session.profile("report")
    ranks = {entry.rank for entry in report.ranks}
    assert {1, 2} <= ranks
    for rank in (1, 2):
        row = report.rank_row(rank)
        assert row.launch_s > 0.0       # rank_boot
        assert row.comp_s > 0.0         # the replicated execution
    rendered = report.render()
    assert "Per-rank attribution" in rendered
    assert "launch (s)" in rendered


# ----------------------------------------------------------------------
# Flight recorder: breadcrumbs, auto-dump, bundle schema
# ----------------------------------------------------------------------
def test_flight_recorder_dumps_on_diagnostic_kinds(tmp_path):
    recorder = FlightRecorder(dump_dir=tmp_path, capacity=16)
    obs = Observability(trace=True, metrics=True, flight=recorder)
    log = DiagnosticsLog()
    recorder.attach(obs, log)
    log.record("cache_hit", "poly")          # breadcrumb only
    assert recorder.dumps == []
    log.record(PARALLEL_FALLBACK, "poly", detail="rank 1 died", rank=1)
    assert len(recorder.dumps) == 1
    bundle = load_bundle(recorder.dumps[0])
    assert set(bundle) == BUNDLE_KEYS
    assert bundle["schema"] == SCHEMA
    assert bundle["reason"] == PARALLEL_FALLBACK
    assert bundle["rank"] == 1
    kinds = [crumb["kind"] for crumb in bundle["breadcrumbs"]]
    assert kinds == ["cache_hit", PARALLEL_FALLBACK]
    assert PARALLEL_FALLBACK in DUMP_KINDS


def test_flight_recorder_bounds_dump_count(tmp_path):
    recorder = FlightRecorder(dump_dir=tmp_path, max_dumps=2)
    paths = [recorder.dump("deopt") for _ in range(5)]
    assert [p is not None for p in paths] == [True, True, False, False, False]
    assert len(list(tmp_path.glob("postmortem-*.json"))) == 2


def test_null_flight_recorder_is_inert(tmp_path):
    assert NULL_FLIGHT.dump("deopt") is None
    assert NULL_FLIGHT.breadcrumbs() == []
    assert not NULL_FLIGHT.enabled


def test_worker_crash_writes_dead_ranks_postmortem(fresh_session, tmp_path):
    plan = FaultPlan.parallel_fault(
        site=SITE_PARALLEL_WORKER, behavior=BEHAVIOR_CRASH, hit=1,
    )
    session = fresh_session(
        parallel=2, trace=True, metrics=True, flight=tmp_path,
        fault_plan=plan, seed=0,
    )
    session.add_source(SHEET)
    expected = np.asarray(session.call("sheet", 8.0))
    # The result survived the crash bit-identically (serial fallback)...
    assert expected.shape == (8, 3)
    bundles = [load_bundle(p) for p in tmp_path.glob("postmortem-*.json")]
    assert bundles
    crashes = [b for b in bundles if b["reason"] == "worker_crash"]
    # ...and the dying rank wrote its own bundle with its last spans.
    assert crashes
    for bundle in crashes:
        assert set(bundle) == BUNDLE_KEYS
        assert bundle["fault_site"] == "parallel.worker"
        assert bundle["rank"] >= 1
        assert bundle["spans"]  # the dead rank's own trace tail
        assert "SimulatedCrash" in bundle["error"]
    # The parent recorded the fallback with the failing rank attached.
    fallback = session.diagnostics.events(PARALLEL_FALLBACK)
    assert fallback and fallback[0].rank >= 1
    assert "site=" in fallback[0].detail
