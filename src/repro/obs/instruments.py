"""The one table of session instruments: what is exposed, and who counts it.

Every ``majic_*`` metric is declared here and nowhere else.  A row whose
``source`` is a path is a **view**: nothing increments it; the registry
reads the owning component's plain tally whenever somebody looks
(``collect()`` / ``snapshot()``), so a count has one writer — the line
where the fact happens — and cannot drift from ``session.stats``,
``summary()`` or a component's ``stats()`` / ``report()``.  A path is
``component.attribute[.key]`` over the components a session attached
(:meth:`repro.obs.Observability.attach`); ``a + b`` adds two owners.  A
row whose source is :data:`PUSHED` is not a count — a latency
distribution, or a level that goes down again — and stays a push
(:meth:`~repro.obs.Observability.push`).

DESIGN.md's metrics catalogue is :func:`catalogue` of this table,
verbatim (a test holds the two together).
"""

from __future__ import annotations

from typing import NamedTuple

#: ``source`` of a row that is observed or set where it happens.
PUSHED = "pushed"


class Instrument(NamedTuple):
    name: str
    kind: str
    labelnames: tuple
    source: str
    help: str


#: Exposition order is table order.
INSTRUMENTS = tuple(Instrument(*row) for row in (
    ("majic_calls_total", "counter", ("tier",),
     "repository.stats.calls_by_tier",
     "Function executions by tier (interpreter vs compiled)."),
    ("majic_compiles_total", "counter", ("mode",),
     "repository.compiles_by_mode",
     "Completed compiles by pipeline mode."),
    ("majic_compile_phase_seconds", "histogram", ("mode", "phase"), PUSHED,
     "Compile latency split by phase (the Figure 6 categories)."),
    ("majic_cache_requests_total", "counter", ("result",),
     "repository.stats.cache_requests",
     "Persistent-cache probes by result."),
    ("majic_events_total", "counter", ("kind",), "diagnostics.totals",
     "Diagnostics events by kind (deopt, quarantine, ...)."),
    ("majic_speculation_queue_depth", "gauge", (), PUSHED,
     "Background compiles queued or in flight."),
    ("majic_kernel_cache_hits_total", "counter", (), "kernels.hits",
     "Fused elementwise kernel cache hits."),
    ("majic_kernel_cache_misses_total", "counter", (), "kernels.misses",
     "Fused elementwise kernel cache misses (kernel compiles)."),
    ("majic_kernel_run_seconds", "histogram", ("kernel",), PUSHED,
     "Per-call latency of fused elementwise kernels."),
    ("majic_kernel_cache_evictions_total", "counter", (), "kernels.evictions",
     "Fused kernels dropped by the kernel cache's LRU bound."),
    ("majic_native_compiles_total", "counter", ("result",), "native.compiles",
     "Native kernel compiles by result (compiled, cached, failed, "
     "ineligible)."),
    ("majic_native_run_seconds", "histogram", ("kernel",), PUSHED,
     "Per-call latency of native (C) fused kernels."),
    ("majic_native_fallback_total", "counter", ("reason",), "native.fallbacks",
     "Native dispatches that fell back to the Python kernel, by "
     "reason (guard, domain, run_fault, fault)."),
    ("majic_deopt_total", "counter", (), "diagnostics.totals.deopt",
     "Guarded deoptimizations (compiled run fell back to the "
     "interpreter)."),
    ("majic_quarantine_total", "counter", (), "diagnostics.totals.quarantine",
     "Functions demoted to interpreter-only after repeated strikes."),
    ("majic_worker_restarts_total", "counter", (), "speculation.restarts",
     "Dead speculation workers respawned by the supervisor."),
    ("majic_watchdog_timeouts_total", "counter", ("kind",),
     "repository.guard.timeouts_by_kind + native.compile_timeouts",
     "Watchdog deadline cancellations by operation kind."),
    ("majic_parallel_calls_total", "counter", ("plan",), "parallel.calls",
     "Calls executed through the parallel backend, by plan kind."),
    ("majic_parallel_fallback_total", "counter", (),
     "diagnostics.totals.parallel_fallback",
     "Parallel calls that fell back to serial execution."),
    ("majic_parallel_messages_total", "counter", ("kind",), "comm.messages",
     "MPI-style messages by outcome (sent, received, dropped)."),
    ("majic_parallel_bytes_total", "counter", ("kind",), "comm.bytes",
     "Serialized message payload bytes moved by the transport."),
    ("majic_parallel_worker_restarts_total", "counter", (),
     "parallel.restarts",
     "Dead parallel worker ranks respawned by the driver."),
    ("majic_parallel_call_seconds", "histogram", ("function",), PUSHED,
     "Wall-clock latency of scatter/compute/gather parallel calls."),
    ("majic_tier_promotions_total", "counter", ("tier",), "tiering.promoted",
     "Adaptive-tiering promotions landed, by destination tier."),
    ("majic_tier_demotions_total", "counter", ("reason",), "tiering.demoted",
     "Adaptive-tiering demotions, by reason (slower, deopt, "
     "quarantine)."),
    ("majic_tier_profile_restores_total", "counter", (),
     "tiering.profile_restores",
     "Persisted hotness profiles restored by warm sessions."),
))


def paths(source: str) -> list[list[str]]:
    """``"a.b + c.d"`` → ``[["a", "b"], ["c", "d"]]``."""
    return [path.strip().split(".") for path in source.split("+")]


#: Views over the event log.  A rank's diagnostics are surfaced into the
#: parent's log, which these rows read — so a cross-rank fold that also
#: merged the rank's own copy of them would count every event twice.
EVENT_DERIVED = frozenset(
    row.name for row in INSTRUMENTS
    if any(path[0] == "diagnostics" for path in paths(row.source))
)


def catalogue() -> str:
    """The table as the Markdown DESIGN.md carries."""
    lines = [
        "| metric | type | labels | counted by |",
        "| --- | --- | --- | --- |",
    ]
    for row in INSTRUMENTS:
        source = (
            "pushed where it happens" if row.source == PUSHED
            else " + ".join(f"`{'.'.join(p)}`" for p in paths(row.source))
        )
        lines.append(
            f"| `{row.name}` | {row.kind} | "
            f"{', '.join(row.labelnames) or '—'} | {source} |"
        )
    return "\n".join(lines)
