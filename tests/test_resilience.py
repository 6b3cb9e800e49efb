"""The execution-supervision tier: watchdog, deopt net, worker self-healing.

Every test drives a real fault through the public session API and asserts
two things at once: the mechanism fired (diagnostics/counters) and the
answer stayed bit-identical to the interpreter (the recovery worked).
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

import pytest

from repro import FaultPlan, MajicSession
from repro.errors import MatlabError
from repro.faults.plan import (
    BEHAVIOR_CRASH,
    BEHAVIOR_HANG,
    BEHAVIOR_OOM,
    FaultSpec,
    SITE_HANG,
    SITE_JIT,
    SITE_OOM,
    SITE_WORKER,
)
from repro.repository import repo
from repro.repository.diagnostics import COMPILE_FAILURE, WATCHDOG_TIMEOUT
from repro.resilience import (
    DEFAULT_POLICY,
    DeadlineExceeded,
    ExecutionGuard,
    ResiliencePolicy,
)

POLY = "function p = poly5(x)\np = x.^5 + 3*x + 2;\n"
INC = "function y = inc(x)\ny = x + 1;\n"


# ----------------------------------------------------------------------
# Watchdog deadlines
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_hung_run_is_cancelled_and_reexecuted(self):
        plan = FaultPlan.at(SITE_HANG)
        session = MajicSession(fault_plan=plan, run_deadline=0.2)
        session.add_source(POLY)
        start = time.perf_counter()
        assert session.call("poly5", 3.0) == 254.0  # interpreter's answer
        assert time.perf_counter() - start < 5.0
        assert session.stats.deopts == 1
        assert len(session.diagnostics.events(WATCHDOG_TIMEOUT)) == 1
        # Recovery is durable: the next call runs interpreted, correctly.
        assert session.call("poly5", 4.0) == 1038.0

    def test_hung_compile_is_cancelled(self):
        plan = FaultPlan([FaultSpec(site=SITE_JIT, hits=(1,),
                                    behavior=BEHAVIOR_HANG)])
        session = MajicSession(
            fault_plan=plan, resilience=ResiliencePolicy(compile_deadline=0.2)
        )
        session.add_source(POLY)
        assert session.call("poly5", 3.0) == 254.0
        assert session.stats.compile_failures == 1
        assert len(session.diagnostics.events(WATCHDOG_TIMEOUT)) == 1
        # The hang charged a strike, not a permanent demotion: a later
        # call may recompile and succeed.
        assert session.call("poly5", 4.0) == 1038.0

    def test_guard_without_deadline_is_inert(self):
        guard = ExecutionGuard(compile_deadline=None, run_deadline=None)
        with guard.run_guard("f"):
            time.sleep(0.01)
        assert guard.timeouts == []

    def test_guard_cancels_pure_python_loop(self):
        guard = ExecutionGuard(run_deadline=0.05)
        with pytest.raises(DeadlineExceeded):
            with guard.run_guard("spin"):
                deadline = time.time() + 10
                while time.time() < deadline:
                    pass
        assert [kind for _, kind, _ in guard.timeouts] == ["run"]

    def test_nested_guards_collapse_to_outermost(self):
        guard = ExecutionGuard(run_deadline=0.05)
        with pytest.raises(DeadlineExceeded):
            with guard.run_guard("outer"):
                with guard.run_guard("inner"):
                    deadline = time.time() + 10
                    while time.time() < deadline:
                        pass
        assert len(guard.timeouts) == 1

    def test_fast_run_is_untouched(self):
        guard = ExecutionGuard(run_deadline=5.0)
        with guard.run_guard("quick"):
            value = sum(range(100))
        assert value == 4950 and guard.timeouts == []


# ----------------------------------------------------------------------
# A fresh version's first run, in process
# ----------------------------------------------------------------------
class TestFirstRun:
    @pytest.mark.parametrize("site,behavior,run_deadline", [
        (SITE_OOM, BEHAVIOR_OOM, None),
        (SITE_HANG, BEHAVIOR_HANG, 0.25),
    ])
    def test_failing_first_run_deopts_once_and_session_serves(
        self, site, behavior, run_deadline
    ):
        """An injected ``MemoryError`` lands in the deopt net; a hang is
        cancelled by the run watchdog.  Either way: one deopt, the
        interpreter's answer, and the session keeps serving."""
        plan = FaultPlan([FaultSpec(site=site, hits=(1,), behavior=behavior)])
        session = MajicSession(fault_plan=plan, run_deadline=run_deadline)
        session.add_source(POLY)
        assert session.call("poly5", 3.0) == 254.0
        assert session.stats.deopts == 1
        assert len(plan.fired) == 1
        assert session.call("poly5", 4.0) == 1038.0
        assert session.stats.deopts == 1

    def test_matlab_error_in_first_run_is_the_programs_own(self):
        source = "function y = boom(x)\nerror('bad thing');\ny = x;\n"
        session = MajicSession()
        session.add_source(source)
        with pytest.raises(MatlabError, match="bad thing"):
            session.call("boom", 1.0)
        assert session.stats.deopts == 0


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
class TestWorkerSupervision:
    def test_a_crashing_task_is_one_failed_task(self):
        """A task that crashes its worker is one failed task: one
        ``compile_failure`` event, its label in ``failed``, and the same
        worker takes the next task.  The function still answers."""
        # Tasks run in name order, and a site's hits count every task.
        plan = FaultPlan([FaultSpec(site=SITE_WORKER, hits=(1, 2),
                                    behavior=BEHAVIOR_CRASH,
                                    function="poly5")])
        session = MajicSession(fault_plan=plan, background=True, workers=1)
        session.add_source(POLY)
        session.add_source(INC)
        try:
            session.speculate_async()
            assert session.drain_speculation(timeout=30)
            engine = session.engine
            assert engine.failed == ["poly5"]
            assert engine.compiled == ["inc"], "other tasks must still land"
            (event,) = session.diagnostics.events(COMPILE_FAILURE)
            assert event.function == "poly5"
            assert "SimulatedCrash" in event.cause
            assert session.call("poly5", 3.0) == 254.0
            assert session.stats.deopts == 0
        finally:
            session.close()

    def test_hung_worker_is_cancelled_by_the_watchdog(self):
        """A wedged worker task is the compile watchdog's: one
        cancellation, counted once on the event log and once on the
        metric, and the function still answers."""
        plan = FaultPlan([FaultSpec(site=SITE_WORKER, hits=(1,),
                                    behavior=BEHAVIOR_HANG)])
        session = MajicSession(
            fault_plan=plan, background=True, workers=1, metrics=True,
            resilience=ResiliencePolicy(compile_deadline=0.2),
        )
        session.add_source(POLY)
        try:
            session.speculate_async()
            assert session.drain_speculation(timeout=30)
            text = session.metrics_text()
            assert 'majic_watchdog_timeouts_total{kind="compile"} 1' in text
            metric = session.obs.metrics.snapshot()[
                "majic_watchdog_timeouts_total"
            ]
            events = session.diagnostics.events(WATCHDOG_TIMEOUT)
            assert len(events) == sum(metric.values())
            assert session.call("poly5", 3.0) == 254.0
        finally:
            session.close()

    def test_a_pool_is_its_workers_before_and_after_a_crash(self):
        """A background session adds exactly ``workers`` threads, none of
        them a supervisor, and a crashed task fails on its worker: the
        same threads are alive afterwards."""
        # The crashed task's compile guard would start the process-wide
        # watchdog monitor mid-census; start it first.
        with ExecutionGuard(compile_deadline=60.0).compile_guard("census"):
            pass
        before = set(threading.enumerate())
        plan = FaultPlan([FaultSpec(site=SITE_WORKER, hits=(1,),
                                    behavior=BEHAVIOR_CRASH)])
        session = MajicSession(fault_plan=plan, background=True, workers=2)
        session.add_source(POLY)
        try:
            added = set(threading.enumerate()) - before
            assert len(added) == 2
            assert not [t.name for t in added if "supervisor" in t.name]
            session.speculate_async()
            assert session.drain_speculation(timeout=30)
            assert session.engine.failed == ["poly5"]
            assert set(threading.enumerate()) - before == added
        finally:
            session.close()

    def test_concurrent_crashes_count_every_failed_task(self):
        """More workers than cores, crashing under a short switch
        interval: every crash is one failed task and one event (no lost
        update), and every other task still lands."""
        crashes = 6
        plan = FaultPlan([FaultSpec(site=SITE_WORKER,
                                    hits=tuple(range(1, crashes + 1)),
                                    behavior=BEHAVIOR_CRASH)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        session = MajicSession(fault_plan=plan, background=True, workers=4)
        try:
            names = [f"f{i}" for i in range(crashes + 2)]
            for i, name in enumerate(names):
                session.add_source(f"function y = {name}(x)\ny = x + {i};\n")
            session.speculate_async()
            assert session.drain_speculation(timeout=30)
            engine = session.engine
            assert len(engine.failed) == crashes
            assert len(session.diagnostics.events(COMPILE_FAILURE)) == crashes
            assert sorted(engine.failed + engine.compiled) == names
        finally:
            sys.setswitchinterval(interval)
            session.close()


# ----------------------------------------------------------------------
# Policy plumbing and session teardown
# ----------------------------------------------------------------------
class TestPolicyAndTeardown:
    def test_default_policy_values(self):
        assert DEFAULT_POLICY.compile_deadline == 60.0
        assert DEFAULT_POLICY.run_deadline is None

    def test_replace_returns_new_policy(self):
        tweaked = replace(DEFAULT_POLICY, run_deadline=1.5)
        assert tweaked.run_deadline == 1.5
        assert DEFAULT_POLICY.run_deadline is None
        assert tweaked.compile_deadline == DEFAULT_POLICY.compile_deadline

    def test_session_kwargs_build_the_policy(self):
        session = MajicSession(
            resilience=ResiliencePolicy(
                compile_deadline=7.0, parallel_max_restarts=2,
            ),
            run_deadline=2.0,
        )
        policy = session.resilience
        assert policy.run_deadline == 2.0
        assert policy.compile_deadline == 7.0
        assert policy.parallel_max_restarts == 2
        guard = session.repository.guard
        assert guard.run_deadline == 2.0 and guard.compile_deadline == 7.0

    def test_explicit_none_disarms_compile_deadline(self):
        session = MajicSession(
            resilience=ResiliencePolicy(compile_deadline=None)
        )
        assert session.resilience.compile_deadline is None
        assert session.repository.guard.compile_deadline is None

    def test_close_is_idempotent_and_tears_down(self):
        session = MajicSession(
            background=True, workers=1,
            resilience=ResiliencePolicy(run_deadline=5.0),
        )
        session.add_source(INC)
        session.speculate_async()
        session.drain_speculation(timeout=30)
        session.close()
        assert session.closed
        assert session.engine is None
        assert session.repository.guard.run_deadline is None
        assert session.repository.guard.compile_deadline is None
        session.close()  # second close is a no-op, not an error
        assert session.closed

    def test_context_manager_closes(self):
        with MajicSession(background=True, workers=1) as session:
            session.add_source(INC)
        assert session.closed


# ----------------------------------------------------------------------
# Resilience metrics (majic_deopt_total & co.)
# ----------------------------------------------------------------------
class TestResilienceMetrics:
    def test_deopt_and_quarantine_counters(self, monkeypatch):
        # USEVEC's compiled form always calls a runtime helper, so the
        # injected helper fault is guaranteed to fire a deopt.
        monkeypatch.setattr(repo, "MAX_STRIKES", 1)
        usevec = "function y = usevec(x)\nv = [x, 2*x];\ny = sum(v);\n"
        plan = FaultPlan.at("rt.*")
        session = MajicSession(fault_plan=plan, metrics=True)
        session.add_source(usevec)
        assert session.call("usevec", 3.0) == 9.0
        assert session.stats.deopts == 1
        text = session.metrics_text()
        assert "majic_deopt_total 1" in text
        assert "majic_quarantine_total 1" in text

    def test_watchdog_timeout_counter_has_kind_label(self):
        plan = FaultPlan.at(SITE_HANG)
        session = MajicSession(
            fault_plan=plan, metrics=True, run_deadline=0.2
        )
        session.add_source(POLY)
        assert session.call("poly5", 3.0) == 254.0
        text = session.metrics_text()
        assert 'majic_watchdog_timeouts_total{kind="run"} 1' in text


# ----------------------------------------------------------------------
# Bit-identity sweep entry point (a cheap slice of the CI chaos job)
# ----------------------------------------------------------------------
def test_chaos_scenarios_cover_every_new_fault_site():
    from repro.faults.harness import chaos_scenarios

    sites = set()
    for scenario in chaos_scenarios():
        for spec in scenario.specs:
            sites.add(spec.site)
    assert {"hang", "oom", "jit", "cache.corrupt",
            "cache.partial_write"} <= sites


def test_chaos_single_benchmark_bit_identical():
    from repro.faults.harness import run_chaos

    outcomes = run_chaos(names=["fibonacci"])
    assert outcomes and all(o.matches for o in outcomes)
    fired = sum(o.faults_fired for o in outcomes)
    assert fired >= len(outcomes), "every scenario must actually fault"
