"""Tiered-execution robustness: guarded deoptimization, quarantines,
fault injection and the interpreter fallback paths.

The invariant under test is the paper's safety property made executable:
compiled code is an optimization, never a semantic requirement, so no
failure of the compiled tier — a crash inside a compiled object or a
compiler exception — may change a program's result or escape to the user
as a host-level error.
"""

import dataclasses
import sys

import numpy as np
import pytest

from repro import FaultPlan, InjectedFault, MajicSession, SPARC
from repro.backends import Program
from repro.backends import open as open_backend
from repro.errors import CodegenError, MatlabError, SubscriptError
from repro.faults import plan as faults_plan
from repro.faults.harness import (
    SWEEPS,
    default_lanes,
    run_differential,
    run_lanes,
)
from repro.faults.plan import FaultSpec
from repro.repository.diagnostics import (
    COMPILE_FAILURE,
    DEOPT,
    QUARANTINE,
)

POLY = "function p = poly(x)\np = x.^5 + 3*x + 2;\n"
#: Compiles to a scalar-replaced ``v`` boxed for ``sum``, so every compiled
#: invocation is guaranteed to hit at least one runtime helper
#: (``rt.pack``).
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
        assert session.stats.calls_interpreted == 1
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
        session = MajicSession(fault_plan=plan)
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
        plan = FaultPlan.at("rt.builtin1", hit=2)
        faulted = MajicSession(seed=0, fault_plan=plan)
        faulted.add_source(noisy)
        assert faulted.call("noisy", 1.0) == expected
        assert faulted.stats.deopts == 1
        assert plan.fired


class TestFaultInjection:
    def test_jit_compile_fault_interprets_then_recovers(self):
        plan = FaultPlan.at("jit")
        session = MajicSession(fault_plan=plan)
        session.add_source(POLY)
        # Acceptance: the call succeeds via interpreter fallback and
        # stats.calls_interpreted increments.
        assert session.call("poly", 4) == 1038.0
        assert session.stats.calls_interpreted == 1
        assert session.stats.compile_failures == 1
        assert session.diagnostics.events(COMPILE_FAILURE)
        # The fault was transient: the next call compiles fine.
        assert session.call("poly", 4) == 1038.0
        assert session.stats.jit_compiles == 1

    def test_spec_compile_fault_leaves_jit_eligible(self):
        plan = FaultPlan.at("spec")
        session = MajicSession(fault_plan=plan)
        session.add_source(POLY)
        assert session.speculate_all() == []
        [event] = session.diagnostics.events(COMPILE_FAILURE)
        assert event.function == "poly"
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
        plan = FaultPlan.at("rt.*", hit=3)
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
        session records the corresponding events.  A ``runtime-hit<n>``
        lane fires on a run whose compiled code makes ``n`` helper calls:
        ``fibonacci``'s makes none (it calls only itself) and ``dirich``'s
        one (``rt.zeros_of``), so those lanes stay silent there; they
        fire, and deopt, everywhere else."""
        helper_calls = {"fibonacci": 0, "dirich": 1}
        outcomes = run_differential(
            names=["fibonacci", "dirich", "sor", "relay"]
        )
        assert outcomes and all(o.matches for o in outcomes)
        kernel_fired = 0
        for outcome in outcomes:
            if "kernel" in outcome.plan:
                # Kernel sites exist only where the matcher fuses a tree
                # (sor's JIT code does; fibonacci/dirich have no
                # elementwise chains, sor's speculated ⊤ matrix none).
                kernel_fired += outcome.faults_fired
                if outcome.faults_fired:
                    key = (COMPILE_FAILURE
                           if outcome.plan.endswith("kernel-compile")
                           else DEOPT)
                    assert outcome.events.get(key, 0) >= 1
                continue
            if outcome.plan.startswith("runtime"):
                hit = int(outcome.plan.rpartition("hit")[2])
                if helper_calls.get(outcome.benchmark, hit) < hit:
                    assert outcome.faults_fired == 0, outcome
                    assert outcome.events == {}, outcome
                    continue
                assert outcome.faults_fired >= 1, outcome
                assert outcome.events.get(DEOPT, 0) >= 1
                continue
            assert outcome.faults_fired >= 1
            if outcome.plan.startswith("tier"):
                # An aborted adaptive promotion is recorded as its own
                # diagnostic; the function simply stays on its tier.
                assert outcome.events.get("tier_promote", 0) >= 1
            else:
                assert outcome.events.get(COMPILE_FAILURE, 0) >= 1
        assert kernel_fired >= 1
        program = Program.benchmark("fibonacci")
        for backend in ("jit", "spec"):
            with open_backend(program, backend) as handle:
                handle.call()
                versions = handle.session.repository.versions_of("fibonacci")
            assert versions
            assert not [v for v in versions if "rt." in v.source]

    @pytest.mark.parametrize("helper", [
        "checked_load1", "checked_load2", "checked_store1", "checked_store2",
    ])
    def test_runtime_lane_wraps_checked_accesses(self, helper):
        """A checked access is MxArray's own method under its ``rt``
        name, and a fault at that name fires and deopts like any
        helper's."""
        source = (  # inference cannot bound ``k``: every access checked
            "function r = acc(A, n)\nk = 1;\nwhile k < n, k = k + 1; end\n"
            "A(k) = A(k) + 1;\nA(k, 1) = A(k, 1) * 2;\nr = A(k) + A(k + 1);\n"
        )
        args = (np.array([[1.0, 2.0, 3.0]]).T, 2.0)
        plain = MajicSession()
        plain.add_source(source)
        plan = FaultPlan([FaultSpec(f"rt.{helper}")])
        faulty = MajicSession(fault_plan=plan)
        faulty.add_source(source)
        assert faulty.call("acc", *args) == plain.call("acc", *args) == 9.0
        assert [record.site for record in plan.fired] == [f"rt.{helper}"]
        assert faulty.stats.deopts == 1

    def test_every_declared_fault_site_is_in_a_sweep_lane(self):
        """No fault site that no sweep fires: every ``SITE_*`` that
        :mod:`repro.faults.plan` declares is the site of some lane of
        :data:`repro.faults.harness.SWEEPS`, so the harness's dead-lane
        check covers it."""
        declared = {
            value for name, value in vars(faults_plan).items()
            if name.startswith("SITE_")
        }
        laned = {
            spec.site for lanes in SWEEPS.values() for lane in lanes()
            for spec in lane.specs
        }
        assert declared - laned == set()

    def test_speculative_kernels_are_fault_sites(self):
        """Speculative code fuses like JIT code, so both kernel sites fire
        under ``speculate_all()``: a failed kernel compile fails the whole
        spec compile (the JIT then serves), a failed kernel run deopts."""
        lanes = [lane for lane in default_lanes()
                 if lane.label.startswith("spec-kernel")]
        outcomes = run_lanes(lanes, names=["orbit12"])
        assert [o.plan for o in outcomes] == [
            "spec-kernel-compile", "spec-kernel-run",
        ]
        for outcome, key in zip(outcomes, (COMPILE_FAILURE, DEOPT)):
            assert outcome.matches and outcome.faults_fired == 1, outcome
            assert outcome.events.get(key) == 1, outcome


class TestInterpreterFallbackPaths:
    def test_uncompilable_caller_routes_callee_through_compiled_code(self):
        session = MajicSession(inline_enabled=False)
        session.add_source("function y = callee(x)\ny = x * 2;\n")
        session.add_source("function y = caller(x)\ny = callee(x) + 1;\n")
        session.repository.compile_failed(
            "caller", "jit", CodegenError("scripted rejection")
        )
        assert session.call("caller", 3.0) == 7.0
        assert session.stats.calls_interpreted >= 1
        # The callee was still served by compiled code, through the
        # repository's dispatch hook.
        assert session.repository.versions_of("callee")

    def test_uncompilable_construct_falls_back(self, session):
        session.add_source(
            "function y = withglob(x)\nglobal g\ng = x;\ny = x + 1;\n"
        )
        assert session.call("withglob", 2.0) == 3.0
        assert session.repository.compile_verdict("withglob") == "uncompilable"
        assert session.stats.calls_interpreted == 1
        # The rejection is observable.
        assert session.diagnostics.events(COMPILE_FAILURE)


class TestRepositoryHygiene:
    def test_unregister_purges_blacklist_and_fast_cache(self, tmp_path):
        (tmp_path / "temp.m").write_text("function y = temp(x)\ny = x;\n")
        session = MajicSession()
        session.add_path(tmp_path)
        assert session.call("temp", 5.0) == 5.0
        repo = session.repository
        for _ in range(2):  # two strikes: one short of MAX_STRIKES
            repo.compile_failed("temp", "jit", RuntimeError("scripted crash"))
        repo.compile_failed("temp", "jit", CodegenError("scripted rejection"))
        assert repo.compile_verdict("temp") == "uncompilable"
        assert "temp" in repo._fast_cache
        (tmp_path / "temp.m").unlink()
        session.rescan()
        assert not repo.knows("temp")
        assert repo.compile_verdict("temp") is None  # blacklist purged
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
            MajicSession(
                platform=dataclasses.replace(SPARC, host_recursion_limit=0)
            )
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
