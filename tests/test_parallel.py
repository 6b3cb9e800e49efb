"""Deterministic unit tests for :mod:`repro.parallel`.

Bottom-up coverage of the MatlabMPI/pMatlab stack: wire framing, the
file-spool transport's atomicity and FIFO discipline, communicator
buffering and hygiene, block maps, and the scatter/compute/gather
driver end-to-end through ``MajicSession(parallel=N)`` — including the
supervision path (hung rank -> restart budget -> degraded serial-only)
and delta source shipping to already-forked ranks.

Timing-free by construction: every assertion is on message content,
diagnostics counts or bit-identical results, never on wall-clock speed.
"""

import os
import struct

import numpy as np
import pytest

from repro.benchsuite.registry import source_of
from repro.core.majic import MajicSession
from repro.faults.plan import (
    BEHAVIOR_CRASH,
    BEHAVIOR_HANG,
    FaultPlan,
    SITE_PARALLEL_SEND,
    SITE_PARALLEL_WORKER,
)
from repro.parallel import (
    Communicator,
    FileTransport,
    Map,
    MessageError,
    RecvTimeout,
    block_ranges,
    make,
    plan_for,
    unpack,
)
from repro.parallel.plans import REPLICATE
from repro.parallel.message import WIRE_VERSION
from repro.repository.diagnostics import (
    PARALLEL_DEGRADED,
    PARALLEL_FALLBACK,
    PARALLEL_RESTART,
    DiagnosticEvent,
    DiagnosticsLog,
)
from repro.resilience import ResiliencePolicy
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import from_python

MANDEL_ARGS = [from_python(12.0), from_python(8.0)]
FRACTAL_ARGS = [from_python(40.0)]

FILL = """
function A = fill(n)
A = zeros(n, n);
for i = 1:n,
  for j = 1:n,
    A(i, j) = i * 10 + j;
  end
end
"""


def bits(value: MxArray):
    data = np.ascontiguousarray(value.view())
    return (data.shape, str(data.dtype), data.tobytes())


def serial_reference(sources, name, args, nargout=1, seed=None):
    session = MajicSession()
    try:
        for text in sources:
            session.add_source(text)
        if seed is not None:
            GLOBAL_RANDOM.seed(seed)
        outputs = session.call_boxed(name, [a.copy() for a in args],
                                     nargout=nargout)
        return [bits(o) for o in outputs], GLOBAL_RANDOM.snapshot()
    finally:
        session.close()


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def test_make_rejects_negative_tags():
    with pytest.raises(ValueError):
        make(0, 1, -1, "x")


def test_unpack_rejects_truncated_header():
    with pytest.raises(MessageError):
        unpack(b"garbage")


@pytest.mark.parametrize("frame", [
    b"MAJP2\n0 1 5\n",
    b"MAJP2\n0 1 5 abcd 7 0.1\n",
    b"MAJP3\n0 1 5 abcd 7 0.1\n",
])
def test_unpack_refuses_stale_v2_frames(frame):
    """A spool left by a v2 sender — with or without its three trace
    fields — is refused, never misread; a v3 header is ``src dst tag``."""
    assert WIRE_VERSION == 3
    with pytest.raises(MessageError):
        unpack(frame + b"payload")


# ----------------------------------------------------------------------
# File-spool transport (the authentic MatlabMPI mechanism)
# ----------------------------------------------------------------------
def test_file_transport_per_sender_fifo_and_timeout():
    transport = FileTransport()
    try:
        for k in range(5):
            transport.send(make(0, 1, 9, k))
        got = [transport.recv_any(1, timeout=1) for _ in range(5)]
        import pickle

        assert [pickle.loads(e.payload) for e in got] == list(range(5))
        assert transport.recv_any(1, timeout=0) is None
    finally:
        transport.close()


def test_file_transport_never_sees_half_written_messages():
    """A ``.tmp`` file (a send in flight) must be invisible; only the
    atomically renamed ``.msg`` is a message."""
    transport = FileTransport()
    try:
        half = os.path.join(transport.directory, "m_0000_0001_x.msg.tmp")
        with open(half, "wb") as handle:
            handle.write(b"torn")
        assert transport.recv_any(1, timeout=0) is None
        transport.send(make(0, 1, 2, "whole"))
        envelope = transport.recv_any(1, timeout=1)
        assert envelope is not None and envelope.tag == 2
    finally:
        transport.close()


def test_file_transport_close_removes_owned_spool():
    transport = FileTransport()
    directory = transport.directory
    assert os.path.isdir(directory)
    transport.close()
    assert not os.path.exists(directory)


# ----------------------------------------------------------------------
# Communicator semantics
# ----------------------------------------------------------------------
def _pair(size=2):
    transport = FileTransport()
    return [Communicator(rank, size, transport) for rank in range(size)]


def test_out_of_order_arrivals_are_buffered_not_lost():
    a, b = _pair()
    try:
        a.send(1, 100, "first-tag-100")
        a.send(1, 200, "first-tag-200")
        assert b.recv(0, 200, timeout=1) == "first-tag-200"
        assert b.recv(0, 100, timeout=1) == "first-tag-100"
    finally:
        a.transport.close()


def test_recv_timeout_raises():
    a, b = _pair()
    try:
        with pytest.raises(RecvTimeout):
            b.recv(0, 1, timeout=0.05)
    finally:
        a.transport.close()


def test_probe_and_drain_purge_stale_traffic():
    a, b = _pair()
    try:
        assert not b.probe(0, 7)
        a.send(1, 7, "stale")
        a.send(1, 7, "staler")
        a.send(1, 8, "keep")
        assert b.probe(0, 7)
        assert b.drain(0, 7) == 2
        assert not b.probe(0, 7)
        assert b.recv(0, 8, timeout=1) == "keep"
    finally:
        a.transport.close()


def test_dropped_send_fault_is_silent_on_the_sender():
    """A ``parallel.send`` fault models a lost spool file: the sender
    returns normally, the receiver never sees the message."""
    transport = FileTransport()
    try:
        plan = FaultPlan.at(SITE_PARALLEL_SEND)
        a = Communicator(0, 2, transport, fault_plan=plan)
        b = Communicator(1, 2, transport)
        a.send(1, 5, "lost")
        a.send(1, 5, "delivered")
        assert [f.site for f in plan.fired] == [SITE_PARALLEL_SEND]
        assert b.recv(0, 5, timeout=1) == "delivered"
        assert not b.probe(0, 5)
    finally:
        transport.close()


# ----------------------------------------------------------------------
# Block maps
# ----------------------------------------------------------------------
def test_block_ranges_near_equal_partition():
    assert block_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]
    assert block_ranges(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]


def test_map_owner_and_validation():
    dist_map = Map(rows=6, cols=2, size=3)
    assert [dist_map.owner(i) for i in range(6)] == [0, 0, 1, 1, 2, 2]
    with pytest.raises(IndexError):
        dist_map.owner(6)
    with pytest.raises(TypeError):
        dist_map.split(MxArray(IntrinsicClass.STRING, text="nope"))
    with pytest.raises(ValueError):
        dist_map.split(MxArray(IntrinsicClass.REAL, np.zeros((5, 2))))
    with pytest.raises(ValueError):
        dist_map.reassemble([MxArray(IntrinsicClass.REAL, np.zeros((6, 2)))])


def test_split_reassemble_preserves_nan_payload_bits():
    """Reassembly is structural (bytes side by side), so even a NaN with
    a nonstandard payload survives the round trip."""
    weird_nan = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0]
    data = np.array([[weird_nan, -0.0], [np.inf, 1.5], [-np.inf, 2.5]])
    value = MxArray(IntrinsicClass.REAL, data)
    dist_map = Map(rows=3, cols=2, size=2)
    rebuilt = dist_map.reassemble(dist_map.split(value))
    assert rebuilt.view().tobytes() == data.tobytes()


# ----------------------------------------------------------------------
# Sharding plans
# ----------------------------------------------------------------------
def test_plan_registry_routes_table1_names():
    assert plan_for("mandel").kind == "tile"
    assert plan_for("fractal").kind == "tile"
    assert plan_for("sor") is REPLICATE
    assert plan_for("no_such_function") is REPLICATE


def test_tile_plan_rejects_non_scalar_first_argument():
    plan = plan_for("mandel")
    assert plan.rows([MxArray(IntrinsicClass.REAL, np.zeros((2, 2)))]) is None
    assert plan.rows([from_python(12.0), from_python(8.0)]) == 12


# ----------------------------------------------------------------------
# End-to-end driver: MajicSession(parallel=N)
# ----------------------------------------------------------------------
def test_parallel_mandel_tiles_bit_identically():
    expected, _ = serial_reference(
        [source_of("mandel")], "mandel", MANDEL_ARGS
    )
    session = MajicSession(parallel=2)
    try:
        session.add_source(source_of("mandel"))
        outputs = session.call_boxed(
            "mandel", [a.copy() for a in MANDEL_ARGS], nargout=1
        )
        assert [bits(o) for o in outputs] == expected
        counts = session.diagnostics.counts()
        assert PARALLEL_FALLBACK not in counts
    finally:
        session.close()


def test_parallel_fractal_continues_the_rng_stream():
    """The fractal plan adopts the last rank's RNG post-state, so a
    follow-up random draw matches the serial stream exactly."""
    expected, rng_after = serial_reference(
        [source_of("fractal")], "fractal", FRACTAL_ARGS, seed=20020617
    )
    session = MajicSession(parallel=2)
    try:
        session.add_source(source_of("fractal"))
        GLOBAL_RANDOM.seed(20020617)
        outputs = session.call_boxed(
            "fractal", [a.copy() for a in FRACTAL_ARGS], nargout=1
        )
        assert [bits(o) for o in outputs] == expected
        assert GLOBAL_RANDOM.snapshot() == rng_after
    finally:
        session.close()


def test_parallel_replicate_cross_check_matches_serial():
    expected, _ = serial_reference([FILL], "fill", [from_python(6.0)])
    session = MajicSession(parallel=2)
    try:
        session.add_source(FILL)
        outputs = session.call_boxed("fill", [from_python(6.0)], nargout=1)
        assert [bits(o) for o in outputs] == expected
        counts = session.diagnostics.counts()
        assert PARALLEL_FALLBACK not in counts
    finally:
        session.close()


def test_sources_added_after_spawn_reach_the_workers():
    """Workers fork at construction; later ``add_source`` calls must be
    shipped as per-task deltas, not lost."""
    session = MajicSession(parallel=2)
    try:
        session.add_source(FILL)  # after the ranks forked
        expected, _ = serial_reference([FILL], "fill", [from_python(5.0)])
        outputs = session.call_boxed("fill", [from_python(5.0)], nargout=1)
        assert [bits(o) for o in outputs] == expected
        assert PARALLEL_FALLBACK not in session.diagnostics.counts()
    finally:
        session.close()


def test_hung_worker_degrades_to_serial_and_stays_correct():
    """With a zero restart budget a hung rank spends the budget at once:
    the call falls back serially (bit-identical), the executor records
    PARALLEL_DEGRADED and every later call runs serial-only."""
    expected, _ = serial_reference(
        [source_of("mandel")], "mandel", MANDEL_ARGS
    )
    session = MajicSession(
        parallel=2,
        fault_plan=FaultPlan.at(SITE_PARALLEL_WORKER, behavior=BEHAVIOR_HANG),
        resilience=ResiliencePolicy(
            parallel_recv_timeout=1.0, parallel_max_restarts=0,
        ),
    )
    try:
        session.add_source(source_of("mandel"))
        first = session.call_boxed(
            "mandel", [a.copy() for a in MANDEL_ARGS], nargout=1
        )
        assert [bits(o) for o in first] == expected
        counts = session.diagnostics.counts()
        assert counts.get(PARALLEL_FALLBACK) == 1
        assert counts.get(PARALLEL_DEGRADED) == 1
        assert PARALLEL_RESTART not in counts
        assert not session.parallel.enabled
        second = session.call_boxed(
            "mandel", [a.copy() for a in MANDEL_ARGS], nargout=1
        )
        assert [bits(o) for o in second] == expected
    finally:
        session.close()


def test_parallel_results_bit_identical_with_tracing_enabled(fresh_session):
    """The parent traces its own dispatch; the ranks record nothing, and
    the result is what an untraced parallel session computes."""
    plain = fresh_session(parallel=2, seed=0)
    plain.add_source(FILL)
    expected = plain.call_boxed("fill", [from_python(8.0)], nargout=1)
    traced = fresh_session(parallel=2, trace=True, metrics=True, seed=0)
    traced.add_source(FILL)
    got = traced.call_boxed("fill", [from_python(8.0)], nargout=1)
    assert [bits(o) for o in got] == [bits(o) for o in expected]
    assert not traced.diagnostics.events(PARALLEL_FALLBACK)
    names = {span.name for span in traced.obs.tracer.spans()}
    assert "parallel_replicate" in names


def test_crashed_rank_falls_back_serially_and_names_the_rank(fresh_session):
    expected, _ = serial_reference([FILL], "fill", [from_python(8.0)])
    session = fresh_session(
        parallel=2, trace=True, metrics=True, seed=0,
        fault_plan=FaultPlan.at(SITE_PARALLEL_WORKER, behavior=BEHAVIOR_CRASH),
    )
    session.add_source(FILL)
    outputs = session.call_boxed("fill", [from_python(8.0)], nargout=1)
    assert [bits(o) for o in outputs] == expected
    fallback = session.diagnostics.events(PARALLEL_FALLBACK)
    assert len(fallback) == 1
    assert fallback[0].rank >= 1
    assert f"rank {fallback[0].rank}" in fallback[0].detail
    assert "site=parallel.worker" in fallback[0].detail


def test_rank_diagnostics_surface_with_rank():
    """What a rank logged for a task lands in the parent's log with the
    rank attached; the parent's own counts exclude it."""
    log = DiagnosticsLog()
    seen = []
    log.add_listener(seen.append)
    log.surface(
        [DiagnosticEvent(kind="deopt", function="f", detail="boom",
                         cause="InjectedFault()", seq=4, wall_time=123.0)],
        rank=3,
    )
    (event,) = log.events("deopt")
    assert (event.rank, event.wall_time, event.seq) == (3, 123.0, 1)
    assert "rank=3" in str(event)
    assert seen == [event]
    assert log.totals == {"deopt": 1} and log.local("deopt") == 0


def test_parallel_metrics_are_exported():
    session = MajicSession(parallel=2, metrics=True)
    try:
        session.add_source(source_of("mandel"))
        session.call_boxed("mandel", [a.copy() for a in MANDEL_ARGS],
                           nargout=1)
        text = session.metrics_text()
        assert 'majic_parallel_calls_total{plan="tile"}' in text
        assert "majic_parallel_messages_total" in text
        assert "majic_parallel_bytes_total" in text
    finally:
        session.close()


def test_close_shuts_the_ranks_down():
    session = MajicSession(parallel=2)
    executor = session.parallel
    procs = list(executor.procs.values())
    assert all(p.is_alive() for p in procs)
    session.close()
    assert not executor.procs
    assert not executor.enabled
    assert all(not p.is_alive() for p in procs)


def test_chaos_harness_covers_the_parallel_sites():
    from repro.backends import BACKENDS
    from repro.faults.harness import parallel_scenarios

    scenarios = parallel_scenarios()
    sites = [spec.site for s in scenarios for spec in s.plan().specs]
    assert SITE_PARALLEL_SEND in sites
    assert sites.count(SITE_PARALLEL_WORKER) == 3
    for scenario in scenarios:
        assert BACKENDS[scenario.backend].session["parallel"] == 2
