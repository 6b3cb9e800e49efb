"""The background speculation engine: queueing, draining, invalidation,
fault absorption and foreground fall-through."""

from __future__ import annotations

import threading
import time

import pytest

from repro import FaultPlan, MajicSession
from repro.repository.background import SpeculationEngine
from repro.repository.diagnostics import COMPILE_FAILURE, SPECULATE_ASYNC
from repro.repository.repo import CodeRepository

INC = "function y = inc(x)\ny = x + 1;\n"
DOUBLE = "function y = dbl(x)\ny = 2 * x;\n"
TRIPLE = "function y = tri(x)\ny = 3 * x;\n"


def test_background_pass_compiles_everything():
    with MajicSession(background=True) as session:
        session.add_source(INC)
        session.add_source(DOUBLE)
        queued = session.speculate_async()
        assert queued == 2
        assert session.drain_speculation(timeout=30)
        assert session.pending_speculation() == 0
        assert session.stats.background_compiles == 2
        assert {e.function for e in session.diagnostics.events(SPECULATE_ASYNC)} == {
            "inc", "dbl"
        }
        # Calls are served by the speculative versions, no JIT needed.
        assert session.call("inc", 4) == 5.0
        assert session.stats.jit_compiles == 0


def test_submit_deduplicates_identical_generation():
    repo = CodeRepository()
    release = threading.Event()
    original_prepared = repo._prepared

    def stalled_prepared(name):
        release.wait(timeout=30)
        return original_prepared(name)

    repo.add_source(INC)
    repo.add_source(DOUBLE)
    repo._prepared = stalled_prepared
    engine = SpeculationEngine(repo, workers=1)
    try:
        # The single worker stalls on 'dbl'; 'inc' then waits in the queue
        # and an identical re-submission is deduplicated.
        assert engine.submit("dbl") is True
        assert engine.submit("inc") is True
        assert engine.submit("inc") is False
        assert engine.pending() == 2
        release.set()
        assert engine.drain(timeout=30)
        assert sorted(engine.compiled) == ["dbl", "inc"]
    finally:
        release.set()
        engine.shutdown()


def test_redefinition_cancels_in_flight_work():
    repo = CodeRepository()
    started = threading.Event()
    release = threading.Event()

    original_prepared = repo._prepared

    def stalled_prepared(name):
        started.set()
        release.wait(timeout=30)
        return original_prepared(name)

    repo.add_source(INC)
    repo._prepared = stalled_prepared
    engine = SpeculationEngine(repo, workers=1)
    try:
        engine.submit("inc")
        assert started.wait(timeout=30)
        # Redefine while the worker sits inside the compile.
        repo._prepared = original_prepared
        repo.add_source("function y = inc(x)\ny = x + 10;\n")
        release.set()
        assert engine.drain(timeout=30)
        # The stale object must not serve the new source.
        assert engine.compiled == [] or repo.versions_of("inc") == []
        from repro.interp.frontend import Invocation
        from repro.runtime.values import from_python, to_python

        out = repo.execute(
            Invocation(name="inc", args=[from_python(5)], nargout=1)
        )
        assert to_python(out[0]) == 15.0
    finally:
        release.set()
        engine.shutdown()


def test_redefinition_during_jit_compile_drops_the_stale_version(monkeypatch):
    """A JIT compile in flight when its function is redefined (what every
    adaptive session's promotion worker can meet) must not land after the
    purge: the object describes the dead source."""
    from repro.codegen.jitgen import JitCompiler
    from repro.interp.frontend import Invocation
    from repro.runtime.values import from_python, to_python
    from repro.typesys.signature import signature_of_values

    started = threading.Event()
    release = threading.Event()
    original_compile = JitCompiler.compile

    def stalled_compile(self, fn, signature, **kwargs):
        obj = original_compile(self, fn, signature, **kwargs)
        started.set()
        release.wait(timeout=30)
        return obj

    monkeypatch.setattr(JitCompiler, "compile", stalled_compile)
    repo = CodeRepository()
    repo.add_source("function y = f(x)\ny = x + 1;\n")
    args = [from_python(2.0)]
    results = []
    worker = threading.Thread(
        target=lambda: results.append(
            repo.jit_compile("f", signature_of_values(args))
        )
    )
    worker.start()
    try:
        assert started.wait(timeout=30)
        repo.add_source("function y = f(x)\ny = x + 100;\n")
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    monkeypatch.undo()
    assert repo.versions_of("f") == []
    out = repo.execute(Invocation(name="f", args=args, nargout=1))
    assert to_python(out[0]) == 102.0
    assert results == [None], "a dropped compile returns None"
    assert repo.stats.deopts == 0 and repo.stats.compile_failures == 0


def test_stale_queue_entry_is_cancelled_before_compiling():
    repo = CodeRepository()
    release = threading.Event()
    original_prepared = repo._prepared
    prepared_calls = []

    def stalled_prepared(name):
        prepared_calls.append(name)
        release.wait(timeout=30)
        return original_prepared(name)

    repo.add_source(INC)
    repo.add_source(DOUBLE)
    repo._prepared = stalled_prepared
    engine = SpeculationEngine(repo, workers=1)
    try:
        # The single worker stalls on 'dbl' while 'inc' waits in the queue;
        # redefining 'inc' makes its queued entry stale.
        assert engine.submit("dbl") is True
        assert engine.submit("inc") is True
        repo.add_source("function y = inc(x)\ny = x + 100;\n")
        release.set()
        assert engine.drain(timeout=30)
        assert engine.cancelled == ["inc"]
        assert prepared_calls == ["dbl"], "stale entry must not compile"
    finally:
        release.set()
        engine.shutdown()


def test_worker_fault_is_absorbed_and_recorded():
    plan = FaultPlan.worker_fault(hit=1)
    with MajicSession(background=True, workers=1, fault_plan=plan) as session:
        session.add_source(INC)
        session.add_source(DOUBLE)
        session.speculate_async()
        assert session.drain_speculation(timeout=30), "fault deadlocked the queue"
        # One task died, the other compiled; the session still answers.
        assert len(plan.fired) == 1
        failures = session.diagnostics.events(COMPILE_FAILURE)
        assert any("worker" in e.detail for e in failures)
        assert session.call("inc", 1) == 2.0
        assert session.call("dbl", 3) == 6.0


def test_foreground_calls_fall_through_while_compiling():
    repo = CodeRepository()
    release = threading.Event()
    original_prepared = repo._prepared

    def stalled_prepared(name):
        release.wait(timeout=30)
        return original_prepared(name)

    repo.add_source(INC)
    repo._prepared = stalled_prepared
    engine = SpeculationEngine(repo, workers=1)
    try:
        engine.submit("inc")
        # The interpreter path stays available while the compile stalls.
        fn = repo.lookup_function("inc")
        from repro.runtime.values import from_python, to_python

        out = repo._interpreter.call_function(fn, [from_python(7)], 1)
        assert to_python(out[0]) == 8.0
        assert engine.pending() == 1
    finally:
        repo._prepared = original_prepared
        release.set()
        engine.drain(timeout=30)
        engine.shutdown()


def test_drain_timeout_returns_false():
    repo = CodeRepository()
    release = threading.Event()
    original_prepared = repo._prepared

    def stalled_prepared(name):
        release.wait(timeout=30)
        return original_prepared(name)

    repo.add_source(INC)
    repo._prepared = stalled_prepared
    engine = SpeculationEngine(repo, workers=1)
    try:
        engine.submit("inc")
        start = time.monotonic()
        assert engine.drain(timeout=0.05) is False
        assert time.monotonic() - start < 5
    finally:
        release.set()
        engine.shutdown()


def test_engine_shutdown_is_idempotent_and_rejects_new_work():
    repo = CodeRepository()
    repo.add_source(INC)
    engine = SpeculationEngine(repo, workers=2)
    engine.shutdown()
    engine.shutdown()
    assert engine.submit("inc") is False


def test_workers_parameter_validation():
    with pytest.raises(ValueError):
        SpeculationEngine(CodeRepository(), workers=0)


def test_background_matches_synchronous_results():
    """The convergence property on a real multi-function program."""
    sources = [INC, DOUBLE, TRIPLE]
    sync = MajicSession()
    for text in sources:
        sync.add_source(text)
    sync.speculate_all()
    expected = [sync.call("inc", 3), sync.call("dbl", 3), sync.call("tri", 3)]

    with MajicSession(background=True, workers=3) as session:
        for text in sources:
            session.add_source(text)
        session.speculate_async()
        assert session.drain_speculation(timeout=30)
        actual = [
            session.call("inc", 3),
            session.call("dbl", 3),
            session.call("tri", 3),
        ]
    assert actual == expected
