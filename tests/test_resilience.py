"""The execution-supervision tier: watchdog, sandbox, worker self-healing.

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
    SITE_CRASH,
    SITE_HANG,
    SITE_JIT,
    SITE_OOM,
    SITE_WORKER,
)
from repro.repository.diagnostics import (
    POISON_TASK,
    SANDBOX_FAILURE,
    SANDBOX_TRIAL,
    WATCHDOG_TIMEOUT,
    WORKER_RESTART,
)
from repro.resilience import (
    DEFAULT_POLICY,
    DeadlineExceeded,
    ExecutionGuard,
    ResiliencePolicy,
)

POLY = "function p = poly5(x)\np = x.^5 + 3*x + 2;\n"
INC = "function y = inc(x)\ny = x + 1;\n"
SANDBOXED = ResiliencePolicy(sandbox=True)


# ----------------------------------------------------------------------
# Watchdog deadlines
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_hung_run_is_cancelled_and_reexecuted(self):
        plan = FaultPlan.chaos_fault(SITE_HANG)
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
# Sandbox trial tier
# ----------------------------------------------------------------------
class TestSandbox:
    def test_clean_first_run_promotes(self):
        session = MajicSession(resilience=SANDBOXED)
        session.add_source(POLY)
        assert session.call("poly5", 3.0) == 254.0
        sandbox = session.repository.sandbox
        if not sandbox.available:  # pragma: no cover - fork-less platform
            pytest.skip("no fork start method")
        assert sandbox.trials >= 1 and sandbox.failures == 0
        assert session.diagnostics.events(SANDBOX_TRIAL)
        (obj,) = session.repository.versions_of("poly5")
        assert obj.sandbox_promoted
        trials = sandbox.trials
        # Promoted objects run in-process: no second trial.
        assert session.call("poly5", 3.0) == 254.0
        assert sandbox.trials == trials

    @pytest.mark.parametrize("site,behavior", [
        (SITE_CRASH, BEHAVIOR_CRASH),
        (SITE_OOM, BEHAVIOR_OOM),
        (SITE_HANG, BEHAVIOR_HANG),
    ])
    def test_dying_trial_deopts_and_session_survives(self, site, behavior):
        plan = FaultPlan([FaultSpec(site=site, hits=(1,), behavior=behavior)])
        session = MajicSession(
            fault_plan=plan,
            resilience=ResiliencePolicy(sandbox=True, sandbox_timeout=2.0),
        )
        session.add_source(POLY)
        if not session.repository.sandbox.available:  # pragma: no cover
            pytest.skip("no fork start method")
        assert session.call("poly5", 3.0) == 254.0
        assert session.stats.deopts == 1
        assert session.diagnostics.events(SANDBOX_FAILURE)
        assert session.repository.sandbox.failures == 1
        # The session keeps serving calls after the child died.
        assert session.call("poly5", 4.0) == 1038.0

    def test_matlab_error_in_trial_is_the_programs_own(self):
        source = "function y = boom(x)\nerror('bad thing');\ny = x;\n"
        session = MajicSession(resilience=SANDBOXED)
        session.add_source(source)
        if not session.repository.sandbox.available:  # pragma: no cover
            pytest.skip("no fork start method")
        with pytest.raises(MatlabError, match="bad thing"):
            session.call("boom", 1.0)
        # A MATLAB error is correct behaviour, not a sandbox failure.
        assert session.repository.sandbox.failures == 0
        assert session.stats.deopts == 0


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
class TestWorkerSupervision:
    def test_crashed_worker_is_restarted_and_task_retried(self):
        plan = FaultPlan([FaultSpec(site=SITE_WORKER, hits=(1,),
                                    behavior=BEHAVIOR_CRASH)])
        session = MajicSession(fault_plan=plan, background=True, workers=1)
        session.add_source(POLY)
        try:
            session.speculate_async()
            assert session.drain_speculation(timeout=30)
            engine = session.engine
            assert engine.restarts >= 1
            assert "poly5" in engine.compiled
            assert engine.poisoned == []
            assert session.diagnostics.events(WORKER_RESTART)
            assert session.call("poly5", 3.0) == 254.0
        finally:
            session.close()

    def test_always_crashing_task_is_poisoned(self):
        plan = FaultPlan([FaultSpec(site=SITE_WORKER, hits=(1, 2, 3, 4, 5),
                                    behavior=BEHAVIOR_CRASH,
                                    function="poly5")])
        session = MajicSession(
            fault_plan=plan, background=True, workers=1,
            resilience=ResiliencePolicy(worker_max_task_retries=2),
        )
        session.add_source(POLY)
        session.add_source(INC)
        try:
            session.speculate_async()
            assert session.drain_speculation(timeout=30)
            engine = session.engine
            assert "poly5" in engine.poisoned
            assert "inc" in engine.compiled, "other tasks must still land"
            assert session.diagnostics.events(POISON_TASK)
            # The poisoned function still executes through the JIT/interp.
            assert session.call("poly5", 3.0) == 254.0
        finally:
            session.close()

    def test_restart_budget_exhaustion_enters_degraded_mode(self):
        hits = tuple(range(1, 40))
        plan = FaultPlan([FaultSpec(site=SITE_WORKER, hits=hits,
                                    behavior=BEHAVIOR_CRASH)])
        session = MajicSession(
            fault_plan=plan, background=True, workers=1,
            resilience=ResiliencePolicy(
                worker_max_restarts=2, worker_max_task_retries=50,
            ),
        )
        session.add_source(POLY)
        try:
            session.speculate_async()
            start = time.perf_counter()
            assert session.drain_speculation(timeout=30), (
                "degraded mode must keep drain bounded"
            )
            assert time.perf_counter() - start < 20
            engine = session.engine
            assert engine.degraded
            assert engine.submit("poly5") is False, (
                "a degraded engine must reject new work"
            )
            # The session itself is still healthy.
            assert session.call("poly5", 3.0) == 254.0
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
        them a supervisor, and a crashed worker restarts in place: the
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
            assert session.engine.restarts == 1
            assert set(threading.enumerate()) - before == added
        finally:
            session.close()

    def test_concurrent_crashes_count_every_restart(self):
        """More workers than cores, crashing under a short switch
        interval: every crash is one restart and one event (no lost
        update), and every task still lands."""
        crashes = 6
        plan = FaultPlan([FaultSpec(site=SITE_WORKER,
                                    hits=tuple(range(1, crashes + 1)),
                                    behavior=BEHAVIOR_CRASH)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        session = MajicSession(
            fault_plan=plan, background=True, workers=4,
            resilience=ResiliencePolicy(
                worker_max_restarts=crashes, worker_max_task_retries=crashes,
            ),
        )
        try:
            names = [f"f{i}" for i in range(4)]
            for i, name in enumerate(names):
                session.add_source(f"function y = {name}(x)\ny = x + {i};\n")
            session.speculate_async()
            assert session.drain_speculation(timeout=30)
            engine = session.engine
            assert engine.restarts == crashes
            assert len(session.diagnostics.events(WORKER_RESTART)) == crashes
            assert not engine.degraded
            assert sorted(engine.compiled) == names
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
        assert not DEFAULT_POLICY.sandbox

    def test_replace_returns_new_policy(self):
        tweaked = replace(DEFAULT_POLICY, run_deadline=1.5)
        assert tweaked.run_deadline == 1.5
        assert DEFAULT_POLICY.run_deadline is None
        assert tweaked.compile_deadline == DEFAULT_POLICY.compile_deadline

    def test_session_kwargs_build_the_policy(self):
        session = MajicSession(
            resilience=ResiliencePolicy(
                compile_deadline=7.0, sandbox=True, sandbox_timeout=3.0,
            ),
            run_deadline=2.0,
        )
        policy = session.resilience
        assert policy.run_deadline == 2.0
        assert policy.compile_deadline == 7.0
        assert policy.sandbox and policy.sandbox_timeout == 3.0
        guard = session.repository.guard
        assert guard.run_deadline == 2.0 and guard.compile_deadline == 7.0
        assert session.repository.sandbox is not None

    def test_explicit_none_disarms_compile_deadline(self):
        session = MajicSession(
            resilience=ResiliencePolicy(compile_deadline=None)
        )
        assert session.resilience.compile_deadline is None
        assert session.repository.guard.compile_deadline is None

    def test_close_is_idempotent_and_tears_down(self):
        session = MajicSession(
            background=True, workers=1,
            resilience=ResiliencePolicy(sandbox=True, run_deadline=5.0),
        )
        session.add_source(INC)
        session.speculate_async()
        session.drain_speculation(timeout=30)
        session.close()
        assert session.closed
        assert session.engine is None
        assert session.repository.sandbox is None
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
    def test_deopt_and_quarantine_counters(self):
        # USEVEC's compiled form always calls a runtime helper, so the
        # injected helper fault is guaranteed to fire a deopt.
        usevec = "function y = usevec(x)\nv = [x, 2*x];\ny = sum(v);\n"
        plan = FaultPlan.runtime_fault()
        session = MajicSession(fault_plan=plan, metrics=True, max_strikes=1)
        session.add_source(usevec)
        assert session.call("usevec", 3.0) == 9.0
        assert session.stats.deopts == 1
        text = session.metrics_text()
        assert "majic_deopt_total 1" in text
        assert "majic_quarantine_total 1" in text

    def test_worker_restart_counter(self):
        plan = FaultPlan([FaultSpec(site=SITE_WORKER, hits=(1,),
                                    behavior=BEHAVIOR_CRASH)])
        session = MajicSession(
            fault_plan=plan, background=True, workers=1, metrics=True,
        )
        session.add_source(POLY)
        try:
            session.speculate_async()
            assert session.drain_speculation(timeout=30)
            assert "majic_worker_restarts_total 1" in session.metrics_text()
        finally:
            session.close()

    def test_watchdog_timeout_counter_has_kind_label(self):
        plan = FaultPlan.chaos_fault(SITE_HANG)
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
    assert {"hang", "crash", "oom", "cache.corrupt",
            "cache.partial_write", "jit_compile"} <= sites | {"jit_compile"}
    assert {"hang", "crash", "oom", "cache.corrupt",
            "cache.partial_write"} <= sites


def test_chaos_single_benchmark_bit_identical():
    from repro.faults.harness import run_chaos

    outcomes = run_chaos(names=["fibonacci"])
    assert outcomes and all(o.matches for o in outcomes)
    fired = sum(o.faults_fired for o in outcomes)
    assert fired >= len(outcomes), "every scenario must actually fault"
