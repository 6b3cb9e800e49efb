"""Tiered-execution robustness: guarded deoptimization, quarantines,
compile budgets, fault injection and the interpreter fallback paths.

The invariant under test is the paper's safety property made executable:
compiled code is an optimization, never a semantic requirement, so no
failure of the compiled tier — a crash inside a compiled object, a
compiler exception, a blown compile budget — may change a program's
result or escape to the user as a host-level error.
"""

import dataclasses
import sys

import pytest

from repro import CompileBudget, FaultPlan, InjectedFault, MajicSession, SPARC
from repro.errors import CodegenError, MatlabError, SubscriptError
from repro.faults.harness import run_differential
from repro.faults.plan import FaultSpec
from repro.repository.diagnostics import (
    BUDGET_SKIP,
    COMPILE_FAILURE,
    DEOPT,
    QUARANTINE,
)

POLY = "function p = poly(x)\np = x.^5 + 3*x + 2;\n"
#: Compiles with a pre-allocated site buffer, so every compiled invocation
#: is guaranteed to hit at least one runtime helper (``rt.alloc``).
USEVEC = "function y = usevec(x)\nv = [x, 2*x];\ny = sum(v);\n"


def _sabotage(obj, exc_type=TypeError):
    """Make one compiled object raise a host-level error when invoked."""

    def boom(args, nargout, rt):
        raise exc_type("miscompiled")

    obj.invoke = boom


class TestGuardedDeoptimization:
    def test_unexpected_exception_falls_back_to_interpreter(self, session):
        """Acceptance: an unexpected exception thrown from a compiled
        object no longer escapes MajicSession.call."""
        session.add_source(POLY)
        assert session.call("poly", 4) == 1038.0
        for obj in session.repository.versions_of("poly"):
            _sabotage(obj)
        assert session.call("poly", 4) == 1038.0
        assert session.stats.deopts == 1
        assert session.stats.fallback_interpreted == 1
        [event] = session.diagnostics.events(DEOPT)
        assert event.function == "poly"
        assert "TypeError" in event.cause

    def test_deopt_quarantines_the_failing_version(self, session):
        session.add_source(POLY)
        session.call("poly", 4)
        bad = session.repository.versions_of("poly")[0]
        _sabotage(bad)
        session.call("poly", 4)
        # The sabotaged version is gone; the next call recompiles fresh.
        assert bad not in session.repository.versions_of("poly")
        assert session.repository._fast_cache.get("poly") is not bad
        jit_before = session.stats.jit_compiles
        assert session.call("poly", 4) == 1038.0
        assert session.stats.jit_compiles == jit_before + 1
        assert session.stats.deopts == 1

    def test_matlab_errors_still_propagate(self, session):
        """A MATLAB-level error is the program's own behaviour, not a
        compiled-tier defect: no deopt, no swallowing."""
        session.add_source("function y = pick(x)\ny = x(5);\n")
        with pytest.raises(MatlabError):
            session.call("pick", 3.0)
        assert session.stats.deopts == 0

    def test_strike_counter_demotes_to_uncompilable(self):
        plan = FaultPlan([FaultSpec(site="rt.*", hits=(1, 2, 3))])
        session = MajicSession(fault_plan=plan, max_strikes=3)
        session.add_source(USEVEC)
        for _ in range(3):
            assert session.call("usevec", 2.0) == 6.0
        assert session.stats.deopts == 3
        assert session.stats.quarantines == 1
        assert session.repository.compile_verdict("usevec") == "uncompilable"
        assert session.diagnostics.events(QUARANTINE)
        # Quarantined: later calls interpret without recompiling.
        jit_before = session.stats.jit_compiles
        assert session.call("usevec", 2.0) == 6.0
        assert session.stats.jit_compiles == jit_before

    def test_deopt_rolls_back_random_stream(self):
        """A half-run compiled call that consumed random numbers must not
        skew the interpreter re-run (bit-identity under deopt)."""
        noisy = (
            "function y = noisy(x)\n"
            "a = rand(1, 3);\n"
            "y = sum(sum(a)) + x;\n"
        )
        clean = MajicSession(seed=0)
        clean.add_source(noisy)
        expected = clean.call("noisy", 1.0)
        # Fault the second builtin dispatch: rand() has already drawn.
        plan = FaultPlan.runtime_fault(helper="builtin1", hit=2)
        faulted = MajicSession(seed=0, fault_plan=plan)
        faulted.add_source(noisy)
        assert faulted.call("noisy", 1.0) == expected
        assert faulted.stats.deopts == 1
        assert plan.fired


class TestCompileBudgets:
    FIVE = "".join(
        f"function y = fn{i}(x)\ny = x + {i};\n" for i in range(5)
    )

    def test_zero_pass_budget_skips_everything(self, session):
        session.add_source(self.FIVE)
        report = session.speculate_all(budget=0.0)
        assert list(report) == []
        assert len(report.skipped) == 5
        assert all(reason == "pass-budget" for _, reason in report.skipped)
        assert session.stats.budget_skips == 5
        assert len(session.diagnostics.events(BUDGET_SKIP)) == 5

    def test_roomy_budget_compiles_everything(self, session):
        """Acceptance: speculate_all with a budget completes within the
        budget (± one function) and reports instead of raising."""
        session.add_source(self.FIVE)
        report = session.speculate_all(budget=60.0)
        assert len(report) == 5
        assert report.skipped == []
        assert report.elapsed < 60.0

    def test_per_function_budget_discards_and_flags(self, session):
        session.add_source(self.FIVE)
        report = session.speculate_all(
            budget=CompileBudget(per_function=0.0)
        )
        assert list(report) == []
        assert {reason for _, reason in report.skipped} == {"function-budget"}
        assert session.repository.versions_of("fn0") == []
        # The flag is sticky: the next pass skips up front.
        again = session.speculate_all()
        assert list(again) == []
        assert len(again.skipped) == 5

    def test_budget_skips_still_execute_correctly(self, session):
        session.add_source(self.FIVE)
        session.speculate_all(budget=0.0)
        assert session.call("fn3", 1.0) == 4.0

    def test_session_wide_budget_default(self):
        session = MajicSession(compile_budget=CompileBudget(per_pass=0.0))
        session.add_source(POLY)
        report = session.speculate_all()
        assert report.skipped and not list(report)

    def test_speculation_report_is_a_list(self, session):
        """Backward compatibility: callers that treat the result as the
        plain list of compiled names keep working."""
        session.add_source(POLY)
        assert session.speculate_all() == ["poly"]


class TestFaultInjection:
    def test_jit_compile_fault_interprets_then_recovers(self):
        plan = FaultPlan.compile_fault(site="jit", hit=1)
        session = MajicSession(fault_plan=plan)
        session.add_source(POLY)
        # Acceptance: the call succeeds via interpreter fallback and
        # stats.fallback_interpreted increments.
        assert session.call("poly", 4) == 1038.0
        assert session.stats.fallback_interpreted == 1
        assert session.stats.compile_failures == 1
        assert session.diagnostics.events(COMPILE_FAILURE)
        # The fault was transient: the next call compiles fine.
        assert session.call("poly", 4) == 1038.0
        assert session.stats.jit_compiles == 1

    def test_spec_compile_fault_leaves_jit_eligible(self):
        plan = FaultPlan.compile_fault(site="spec", hit=1)
        session = MajicSession(fault_plan=plan)
        session.add_source(POLY)
        report = session.speculate_all()
        assert report.failed == ["poly"]
        assert session.repository.compile_verdict("poly") is None
        assert session.call("poly", 4) == 1038.0
        assert session.stats.jit_compiles == 1

    def test_function_addressable_compile_fault(self):
        plan = FaultPlan([FaultSpec(site="jit", hits=(1,), function="fnA")])
        session = MajicSession(fault_plan=plan)
        session.add_source("function y = fnA(x)\ny = x + 1;\n")
        session.add_source("function y = fnB(x)\ny = x + 2;\n")
        assert session.call("fnB", 1.0) == 3.0   # jit hit 1, wrong function
        assert session.call("fnA", 1.0) == 2.0   # jit hit 2: fault filtered
        assert session.stats.compile_failures == 0

    def test_seeded_probability_plans_are_deterministic(self):
        def fire_pattern(seed):
            plan = FaultPlan(
                [FaultSpec(site="rt.*", probability=0.3)], seed=seed
            )
            pattern = []
            for _ in range(64):
                try:
                    plan.check("rt.*")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert fire_pattern(7) == fire_pattern(7)
        assert fire_pattern(7) != fire_pattern(8)

    def test_plan_reset_replays_identically(self):
        plan = FaultPlan.runtime_fault(helper="*", hit=3)
        session = MajicSession(fault_plan=plan)
        session.add_source(USEVEC)
        session.call("usevec", 2.0)
        first = list(plan.fired)
        plan.reset()
        assert plan.fired == []
        assert plan.hit_count("rt.*") == 0
        assert first  # the original run did fire


class TestDifferentialHarness:
    def test_benchmarks_bit_identical_under_faults(self):
        """Acceptance: benchsuite programs under injected compile- and
        run-time faults match the pure interpreter exactly, and the
        session records the corresponding events."""
        outcomes = run_differential(names=["fibonacci", "dirich", "sor"])
        assert outcomes and all(o.matches for o in outcomes)
        kernel_fired = 0
        for outcome in outcomes:
            if outcome.plan.startswith("kernel"):
                # Kernel sites exist only where the matcher fuses a tree
                # (sor does; fibonacci/dirich have no elementwise chains).
                kernel_fired += outcome.faults_fired
                if outcome.faults_fired:
                    key = (COMPILE_FAILURE if outcome.plan == "kernel-compile"
                           else DEOPT)
                    assert outcome.events.get(key, 0) >= 1
                continue
            assert outcome.faults_fired >= 1
            if outcome.plan.startswith("runtime"):
                assert outcome.events.get(DEOPT, 0) >= 1
            elif outcome.plan.startswith("tier"):
                # An aborted adaptive promotion is recorded as its own
                # diagnostic; the function simply stays on its tier.
                assert outcome.events.get("tier_promote", 0) >= 1
            else:
                assert outcome.events.get(COMPILE_FAILURE, 0) >= 1
        assert kernel_fired >= 1


class TestInterpreterFallbackPaths:
    def test_uncompilable_caller_routes_callee_through_compiled_code(self):
        session = MajicSession(inline_enabled=False)
        session.add_source("function y = callee(x)\ny = x * 2;\n")
        session.add_source("function y = caller(x)\ny = callee(x) + 1;\n")
        session.repository.compile_failed(
            "caller", "jit", CodegenError("scripted rejection")
        )
        assert session.call("caller", 3.0) == 7.0
        assert session.stats.fallback_interpreted >= 1
        # The callee was still served by compiled code via _interp_dispatch.
        assert session.repository.versions_of("callee")

    def test_uncompilable_construct_falls_back(self, session):
        session.add_source(
            "function y = withglob(x)\nglobal g\ng = x;\ny = x + 1;\n"
        )
        assert session.call("withglob", 2.0) == 3.0
        assert session.repository.compile_verdict("withglob") == "uncompilable"
        assert session.stats.fallback_interpreted == 1
        # The rejection is observable.
        assert session.diagnostics.events(COMPILE_FAILURE)


class TestRepositoryHygiene:
    def test_unregister_purges_blacklist_and_fast_cache(self, tmp_path):
        (tmp_path / "temp.m").write_text("function y = temp(x)\ny = x;\n")
        session = MajicSession()
        session.add_path(tmp_path)
        assert session.call("temp", 5.0) == 5.0
        repo = session.repository
        signature = repo.versions_of("temp")[0].signature
        repo.jit_compile("temp", signature, budget=0.0)  # flags over-budget
        assert repo.compile_verdict("temp") == "over-budget"
        for _ in range(2):  # two strikes: one short of max_strikes
            repo.compile_failed("temp", "jit", RuntimeError("scripted crash"))
        repo.compile_failed("temp", "jit", CodegenError("scripted rejection"))
        assert repo.compile_verdict("temp") == "uncompilable"
        assert "temp" in repo._fast_cache
        (tmp_path / "temp.m").unlink()
        session.rescan()
        assert not repo.knows("temp")
        assert repo.compile_verdict("temp") is None  # neither blacklist
        assert "temp" not in repo._fast_cache
        assert repo.versions_of("temp") == []
        # The strikes went too: a same-named newcomer survives a crash
        # that would have been the old function's third strike.
        (tmp_path / "temp.m").write_text("function y = temp(x)\ny = x;\n")
        session.rescan()
        repo.compile_failed("temp", "jit", RuntimeError("scripted crash"))
        assert repo.compile_verdict("temp") is None

    def test_store_replacement_updates_fast_cache(self, session):
        session.add_source(POLY)
        session.call("poly", 4)
        repo = session.repository
        old = repo._fast_cache["poly"]
        replacement = repo.jit_compile("poly", old.signature)
        assert repo._fast_cache["poly"] is replacement
        assert repo._fast_cache["poly"] is not old
        # Reads through the hot path use the recompiled object.
        assert session.call("poly", 4) == 1038.0


class TestRecursionLimitSetting:
    def test_default_session_raises_limit(self):
        MajicSession()
        assert sys.getrecursionlimit() >= 100_000

    def test_opt_out_leaves_limit_alone(self):
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(5_000)
            MajicSession(recursion_limit=0)
            assert sys.getrecursionlimit() == 5_000
        finally:
            sys.setrecursionlimit(saved)

    def test_platform_setting_is_honoured(self):
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(5_000)
            platform = dataclasses.replace(SPARC, host_recursion_limit=7_777)
            MajicSession(platform=platform)
            assert sys.getrecursionlimit() == 7_777
        finally:
            sys.setrecursionlimit(saved)

    def test_never_lowers_an_already_high_limit(self):
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(200_000)
            MajicSession()
            assert sys.getrecursionlimit() == 200_000
        finally:
            sys.setrecursionlimit(saved)
