"""Adaptive tiering: the hotness substrate, the online controller, the
persisted-profile warm path and the bit-identity property under arbitrary
promotion/demotion interleavings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultPlan, MajicSession, TieringPolicy
from repro.faults.plan import FaultSpec
from repro.frontend.parser import parse
from repro.interp.interpreter import Interpreter
from repro.obs import TIER_INTERPRETER, TIER_JIT, TIER_SPEC
from repro.repository.cache import RepositoryCache
from repro.repository.diagnostics import (
    QUARANTINE,
    TIER_DEMOTE,
    TIER_PROMOTE,
    DiagnosticsLog,
)
from repro.runtime.display import OutputSink
from repro.tiering import HotnessCounter, TierController
from repro.tiering.controller import _FunctionState

FIB = """
function r = fib(n)
if n < 2
  r = n;
else
  r = fib(n-1) + fib(n-2);
end
"""

POLY = """
function p = poly(x)
p = x.^3 - 2*x + 1;
"""

STEPF = """
function r = stepf(n)
r = 0;
for i = 1:n
  r = r + i*i;
end
"""

SOURCES = (FIB, POLY, STEPF)

#: Hair-trigger thresholds: every function promotes after one observation.
AGGRESSIVE = TieringPolicy(jit_threshold=1.0, spec_threshold=2.0)


# ----------------------------------------------------------------------
# HotnessCounter
# ----------------------------------------------------------------------
class TestHotnessCounter:
    def test_record_accumulates(self):
        counter = HotnessCounter()
        assert counter.record("f") == 1.0
        assert counter.record("f") == 2.0
        assert counter.score("f") == 2.0
        assert counter.score("unseen") == 0.0

    def test_decay_halves_scores_on_schedule(self):
        counter = HotnessCounter(decay_interval=4, decay_factor=0.5)
        for _ in range(3):
            counter.record("f")
        # The 4th observation triggers the sweep first (3 * 0.5), then
        # adds its own weight.
        assert counter.record("f") == pytest.approx(2.5)

    def test_decay_drops_cold_keys(self):
        counter = HotnessCounter(decay_interval=2, decay_factor=0.0)
        counter.record("f")
        counter.record("g")  # sweep clears everything, then adds g
        assert counter.score("f") == 0.0
        assert counter.score("g") == 1.0

    def test_seed_keeps_maximum(self):
        counter = HotnessCounter()
        counter.seed("f", 5.0)
        counter.seed("f", 2.0)
        assert counter.score("f") == 5.0

    def test_snapshot_restore_roundtrip(self):
        counter = HotnessCounter()
        counter.record("a")
        counter.record("b")
        other = HotnessCounter()
        other.restore(counter.snapshot())
        assert other.score("a") == 1.0 and other.score("b") == 1.0

    def test_forget_and_reset(self):
        counter = HotnessCounter()
        counter.record("a")
        counter.forget("a")
        assert counter.score("a") == 0.0
        counter.record("b")
        counter.reset()
        assert len(counter) == 0 and counter.observations == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            HotnessCounter(decay_interval=0)
        with pytest.raises(ValueError):
            HotnessCounter(decay_factor=1.5)


# ----------------------------------------------------------------------
# Controller decisions against a scripted repository
# ----------------------------------------------------------------------
class FakeRepo:
    """The slice of CodeRepository the controller asks, scripted: the
    public book (``held_mode``, ``compile_verdict``, ``generation_of``)
    and the two compile spellings, which answer ``None`` for "not now"."""

    def __init__(self, jit_ok=True, spec_ok=True):
        self.diagnostics = DiagnosticsLog()
        self.cache = None
        self.held = {}            # name -> set of modes
        self.uncompilable = set()
        self.unbound = []
        self.jit_calls = []
        self.spec_calls = []
        self.jit_ok = jit_ok
        self.spec_ok = spec_ok
        self.tiering = None

    def attach(self, controller):
        self.tiering = controller

    def generation_of(self, name):
        return 0

    def held_mode(self, name):
        modes = self.held.get(name, ())
        if TIER_SPEC in modes:
            return TIER_SPEC
        return TIER_JIT if modes else TIER_INTERPRETER

    def compile_verdict(self, name):
        return "uncompilable" if name in self.uncompilable else None

    def _compile(self, name, mode, ok):
        if not ok:
            # A rejection: the repository's own verdict, not the caller's.
            self.uncompilable.add(name)
            return None
        self.held.setdefault(name, set()).add(mode)
        return object()

    def jit_compile(self, name, signature, budget=None):
        self.jit_calls.append((name, signature))
        return self._compile(name, TIER_JIT, self.jit_ok)

    def speculate(self, name, generation=None):
        self.spec_calls.append(name)
        return self._compile(name, TIER_SPEC, self.spec_ok)

    def quarantine(self, name):
        """What CodeRepository._note_strike does at ``max_strikes``."""
        self.uncompilable.add(name)
        self.held.pop(name, None)
        self.diagnostics.record(QUARANTINE, name, detail="strike chain")

    def unbind(self, name):
        self.unbound.append(name)

    def profile_key(self, name, tag):
        return None  # no profile store in these tests


class FakeInvocation:
    def __init__(self, name, signature="sig"):
        self.name = name
        self.signature = signature


def make_controller(policy=None, repo=None, **kwargs):
    controller = TierController(policy=policy or AGGRESSIVE, sync=True, **kwargs)
    repo = repo if repo is not None else FakeRepo()
    controller.bind(repo)
    return controller, repo


class TestControllerThresholds:
    def test_promotes_at_jit_then_spec_threshold(self):
        policy = TieringPolicy(jit_threshold=3.0, spec_threshold=5.0)
        controller, repo = make_controller(policy)
        inv = FakeInvocation("f")
        for _ in range(2):
            controller.observe(inv, TIER_INTERPRETER, 0.001)
        assert not repo.jit_calls, "below threshold: no compile"
        controller.observe(inv, TIER_INTERPRETER, 0.001)
        assert repo.jit_calls == [("f", "sig")]
        assert controller.tier_of("f") == TIER_JIT
        controller.observe(inv, TIER_JIT, 0.0005)
        assert not repo.spec_calls
        controller.observe(inv, TIER_JIT, 0.0005)
        assert repo.spec_calls == ["f"]
        assert controller.tier_of("f") == TIER_SPEC
        assert controller.promotions == 2
        kinds = [e.kind for e in controller.repo.diagnostics.events()]
        assert kinds.count(TIER_PROMOTE) == 2

    def test_uncompilable_functions_never_promote(self):
        controller, repo = make_controller()
        repo.uncompilable.add("f")
        inv = FakeInvocation("f")
        for _ in range(5):
            controller.observe(inv, TIER_INTERPRETER, 0.001)
        assert not repo.jit_calls

    def test_failed_promotion_not_retried(self):
        controller, repo = make_controller(repo=FakeRepo(jit_ok=False))
        inv = FakeInvocation("f")
        for _ in range(5):
            controller.observe(inv, TIER_INTERPRETER, 0.001)
        assert len(repo.jit_calls) == 1, "one attempt, then marked failed"
        assert controller.tier_of("f") == TIER_INTERPRETER

    def test_rejected_speculation_counts_as_failure(self):
        controller, repo = make_controller(repo=FakeRepo(spec_ok=False))
        inv = FakeInvocation("f")
        controller.observe(inv, TIER_INTERPRETER, 0.001)  # -> jit
        for _ in range(4):
            controller.observe(inv, TIER_JIT, 0.0005)
        assert repo.spec_calls == ["f"], "spec rejection is terminal"
        assert controller.tier_of("f") == TIER_JIT


class TestControllerDemotion:
    def _heat_to_jit(self, controller, inv, samples=4):
        for _ in range(samples):
            controller.observe(inv, TIER_INTERPRETER, 0.001)

    def test_slow_compiled_tier_demotes(self):
        policy = TieringPolicy(
            jit_threshold=1.0, spec_threshold=100.0, min_samples=2,
            demote_margin=1.5,
        )
        controller, repo = make_controller(policy)
        inv = FakeInvocation("f")
        self._heat_to_jit(controller, inv, samples=2)
        assert controller.tier_of("f") == TIER_JIT
        controller.observe(inv, TIER_JIT, 0.1)
        assert not controller.suppressed("f"), "one slow sample is noise"
        controller.observe(inv, TIER_JIT, 0.1)
        assert controller.suppressed("f")
        assert controller.tier_of("f") == TIER_INTERPRETER
        assert controller.demotions == 1
        kinds = [e.kind for e in repo.diagnostics.events()]
        assert TIER_DEMOTE in kinds

    def test_demoted_function_can_earn_its_way_back(self):
        policy = TieringPolicy(
            jit_threshold=2.0, spec_threshold=100.0, min_samples=2,
            demote_margin=1.5, redemote_backoff=2.0,
        )
        controller, repo = make_controller(policy)
        inv = FakeInvocation("f")
        self._heat_to_jit(controller, inv, samples=2)
        controller.observe(inv, TIER_JIT, 0.1)
        controller.observe(inv, TIER_JIT, 0.1)
        assert controller.suppressed("f")
        # Hotness was reset at demotion; the bar is now doubled (2 * 2).
        for _ in range(3):
            controller.observe(inv, TIER_INTERPRETER, 0.001)
            assert controller.suppressed("f")
        controller.observe(inv, TIER_INTERPRETER, 0.001)
        assert not controller.suppressed("f")

    def test_pins_after_max_demotions(self):
        policy = TieringPolicy(
            jit_threshold=1.0, spec_threshold=100.0, min_samples=1,
            demote_margin=1.5, redemote_backoff=1.0, max_demotions=1,
        )
        controller, repo = make_controller(policy)
        inv = FakeInvocation("f")
        controller.observe(inv, TIER_INTERPRETER, 0.001)
        controller.observe(inv, TIER_JIT, 0.1)          # demotion 1
        assert controller.suppressed("f")
        controller.observe(inv, TIER_INTERPRETER, 0.001)  # earns back
        assert not controller.suppressed("f")
        controller.observe(inv, TIER_INTERPRETER, 0.001)
        controller.observe(inv, TIER_JIT, 0.1)          # demotion 2: pinned
        assert controller.suppressed("f")
        state = controller._states["f"]
        assert state.demotions > policy.max_demotions  # pinned
        for _ in range(10):
            controller.observe(inv, TIER_INTERPRETER, 0.001)
        assert controller.suppressed("f"), "pinned functions stay down"

    def test_quarantine_event_pins_function(self):
        controller, repo = make_controller()
        inv = FakeInvocation("f")
        controller.observe(inv, TIER_INTERPRETER, 0.001)
        assert controller.tier_of("f") == TIER_JIT
        repo.quarantine("f")
        assert controller.tier_of("f") == TIER_INTERPRETER
        assert controller.demotions == 1
        for _ in range(10):
            controller.observe(inv, TIER_INTERPRETER, 0.001)
        assert len(repo.jit_calls) == 1, "quarantined functions stay down"
        assert controller.tier_of("f") == TIER_INTERPRETER

    def test_report_shape(self):
        controller, repo = make_controller()
        controller.observe(FakeInvocation("f"), TIER_INTERPRETER, 0.001)
        report = controller.report()
        assert report["functions"] == {"f": TIER_JIT}
        assert report["counts"] == {TIER_JIT: 1}
        assert report["promotions"] == 1
        assert report["demotions"] == 0


class TestFunctionStateDefaults:
    def test_fresh_state(self):
        state = _FunctionState()
        assert not state.suppressed and state.demotions == 0
        assert not state.asked
        # Which versions a function holds and whether it may be compiled
        # are the repository's facts: the controller keeps no copy.
        assert not {"tier", "failed", "pinned"} & set(_FunctionState.__slots__)


# ----------------------------------------------------------------------
# Adaptive sessions end to end
# ----------------------------------------------------------------------
def interpreter_result(source, name, *args):
    table = {}
    for fn in parse(source).functions:
        table[fn.name] = fn
    interp = Interpreter(function_lookup=table.get, sink=OutputSink())
    from repro.runtime.values import from_python, to_python

    outputs = interp.call_function(table[name], [from_python(a) for a in args], 1)
    return to_python(outputs[0])


class TestAdaptiveSession:
    def test_promotes_without_manual_tuning(self, fresh_session):
        session = fresh_session(
            adaptive=True, adaptive_sync=True, tiering=AGGRESSIVE
        )
        session.add_source(FIB)
        expected = interpreter_result(FIB, "fib", 10.0)
        for _ in range(4):
            assert session.call("fib", 10.0) == expected
        report = session.tiering.report()
        assert report["functions"]["fib"] == TIER_SPEC
        assert session.stats.calls_jit > 0, "compiled tier actually served"
        assert "tiering          adaptive:" in session.summary()

    def test_async_promotion_through_worker_pool(self, fresh_session):
        session = fresh_session(adaptive=True, tiering=AGGRESSIVE)
        session.add_source(FIB)
        expected = interpreter_result(FIB, "fib", 10.0)
        for _ in range(6):
            assert session.call("fib", 10.0) == expected
        assert session.drain_speculation(timeout=30)
        assert session.call("fib", 10.0) == expected
        report = session.tiering.report()
        assert report["functions"]["fib"] in (TIER_JIT, TIER_SPEC)
        assert report["promotions"] >= 1

    def test_redefinition_during_async_promotion_is_not_landed(
        self, fresh_session, monkeypatch
    ):
        """Redefine between promotion launch and drain: the worker's JIT
        compile of the old body must be dropped, not stored after the
        purge (it would answer 3 where the new source says 102)."""
        import threading

        from repro.codegen.jitgen import JitCompiler

        started, release = threading.Event(), threading.Event()
        original_compile = JitCompiler.compile

        def stalled_compile(self, fn, signature, **kwargs):
            obj = original_compile(self, fn, signature, **kwargs)
            started.set()
            release.wait(timeout=30)
            return obj

        monkeypatch.setattr(JitCompiler, "compile", stalled_compile)
        session = fresh_session(adaptive=True, tiering=AGGRESSIVE)
        session.add_source("function y = f(x)\ny = x + 1;\n")
        try:
            assert session.call("f", 2.0) == 3.0  # interpreted; launches jit
            assert started.wait(timeout=30)
            session.add_source("function y = f(x)\ny = x + 100;\n")
        finally:
            release.set()
        assert session.drain_speculation(timeout=30)
        assert session.tiering.report()["promotions"] == 0, "dropped: not landed"
        assert session.call("f", 2.0) == 102.0
        assert session.stats.deopts == 0

    def test_non_adaptive_session_unchanged(self, fresh_session):
        session = fresh_session()
        assert session.tiering is None
        assert session.repository.tiering is None
        assert "tiering" not in session.summary()

    def test_unknown_function_still_raises(self, fresh_session):
        from repro.errors import RepositoryError

        session = fresh_session(
            adaptive=True, adaptive_sync=True, tiering=AGGRESSIVE
        )
        with pytest.raises(RepositoryError):
            session.call_boxed("nonesuch", [])

    def test_kernel_hotness_is_shared_with_native_engine(self, fresh_session):
        session = fresh_session(adaptive=True, adaptive_sync=True)
        if session.native is not None and session.native.enabled:
            assert session.native.hotness is session.tiering.kernel_hotness
        else:
            assert (
                session.repository._interpreter.kernel_hotness
                is session.tiering.kernel_hotness
            )

    def test_interpreter_feeds_kernel_counter_without_toolchain(
        self, fresh_session, monkeypatch
    ):
        monkeypatch.setenv("MAJIC_NATIVE_DISABLE", "1")
        session = fresh_session(
            adaptive=True, adaptive_sync=True, tiering=AGGRESSIVE
        )
        session.add_source(POLY)
        import numpy as np

        x = np.arange(1.0, 200.0)
        session.call("poly", x)
        assert (
            session.repository._interpreter.kernel_hotness
            is session.tiering.kernel_hotness
        )

    def test_interpreter_feeds_kernel_counter_past_a_disabled_native_engine(
        self, fresh_session, monkeypatch
    ):
        """``native=True`` without a toolchain leaves an engine that
        declines every dispatch: the interpreter's fused fast path must
        count the kernels it then runs itself."""
        monkeypatch.setenv("MAJIC_NATIVE_DISABLE", "1")
        session = fresh_session(adaptive=True, adaptive_sync=True, native=True)
        assert session.native is not None and not session.native.enabled
        session.add_source(POLY)
        import numpy as np

        session.call("poly", np.arange(1.0, 200.0))
        assert session.stats.calls_interpreted == 1
        assert session.tiering.report()["kernels_tracked"] == 1

    def test_promotion_fault_leaves_results_bit_identical(self, fresh_session):
        plan = FaultPlan.tiering_fault(hit=1)
        session = fresh_session(
            adaptive=True, adaptive_sync=True, tiering=AGGRESSIVE,
            fault_plan=plan,
        )
        session.add_source(FIB)
        expected = interpreter_result(FIB, "fib", 10.0)
        for _ in range(4):
            assert session.call("fib", 10.0) == expected
        assert len(plan.fired) == 1, "the promotion fault fired"
        report = session.tiering.report()
        assert report["functions"]["fib"] == TIER_INTERPRETER
        kinds = [e.kind for e in session.diagnostics.events()]
        assert TIER_PROMOTE in kinds  # the abort is recorded


# ----------------------------------------------------------------------
# Histories: the controller keeps no copy of the repository's book
# ----------------------------------------------------------------------
class TestOneBook:
    """Each sequence drifted at ef98943: the controller's shadow copy of
    "which versions does f hold / may f be compiled" outlived the facts.
    After *every* call the value must be the interpreter's and
    ``tier_of`` must read the repository."""

    POLICY = TieringPolicy()  # the defaults: jit at 3, spec at 12

    def _session(self, fresh_session, **kwargs):
        return fresh_session(adaptive=True, adaptive_sync=True, **kwargs)

    def _call(self, session, source, name, arg):
        """One checked call; returns the letter of the tier that served
        it (D: a compiled version deoptimized mid-call)."""
        stats = session.stats
        before = (stats.deopts, stats.calls_jit, stats.calls_spec)
        assert session.call(name, arg) == interpreter_result(source, name, arg)
        modes = {v.mode for v in session.repository.versions_of(name)}
        expected = (
            TIER_INTERPRETER if session.tiering.suppressed(name)
            else TIER_SPEC if TIER_SPEC in modes
            else TIER_JIT if modes else TIER_INTERPRETER
        )
        assert session.tiering.tier_of(name) == expected
        assert session.tiering.report()["functions"][name] == expected
        after = (stats.deopts, stats.calls_jit, stats.calls_spec)
        served = [now - then for now, then in zip(after, before)]
        return "D" if served[0] else "J" if served[1] else "S" if served[2] else "I"

    def _promotions(self, session):
        return [
            event.detail.split()[2] for event in session.diagnostics.events(TIER_PROMOTE)
            if event.detail.startswith("promoted to")
        ]

    def test_redefined_function_is_offered_the_jit_rung_again(self, fresh_session):
        first = "function y = f(x)\ny = x + 1;\n"
        second = "function y = f(x)\ny = x * 100;\n"
        session = self._session(fresh_session)
        session.add_source(first)
        served = "".join(self._call(session, first, "f", 2.0) for _ in range(8))
        assert served == "IIIJJJJJ"
        session.add_source(second)
        assert session.tiering.tier_of("f") == TIER_INTERPRETER
        threshold = int(self.POLICY.jit_threshold)
        served = "".join(
            self._call(session, second, "f", 2.0) for _ in range(threshold + 1)
        )
        assert served.endswith("J"), served
        assert self._promotions(session)[:2] == [TIER_JIT, TIER_JIT]

    def test_redefined_uncompilable_function_compiles_again(self, fresh_session):
        rejected = "function y = g(x)\nglobal G\ny = x + 1;\n"
        compilable = "function y = g(x)\ny = x + 100;\n"
        session = self._session(fresh_session)
        session.add_source(rejected)
        served = "".join(self._call(session, rejected, "g", 2.0) for _ in range(6))
        assert served == "IIIIII"
        assert session.stats.compile_failures == 1, "rejected once, not re-asked"
        session.add_source(compilable)
        for _ in range(int(self.POLICY.jit_threshold) + 1):
            self._call(session, compilable, "g", 2.0)
        assert session.repository.versions_of("g"), "never compiled again"

    def test_transient_deopt_is_followed_by_a_jit_repromotion(self, fresh_session):
        source = "function y = h(x)\nv = [x, 2*x];\ny = sum(v);\n"
        plan = FaultPlan([FaultSpec(site="rt.*", hits=(3,))])
        session = self._session(fresh_session, fault_plan=plan)
        session.add_source(source)
        served = "".join(self._call(session, source, "h", 2.0) for _ in range(10))
        assert plan.fired and session.stats.deopts == 1
        assert "DJ" in served, f"{served}: interpreted after one transient deopt"
        assert self._promotions(session)[:2] == [TIER_JIT, TIER_JIT]


# ----------------------------------------------------------------------
# Persistent profiles (warm sessions skip the warmup ramp)
# ----------------------------------------------------------------------
class TestProfilePersistence:
    def test_warm_session_zero_promotion_recompiles(self, fresh_session, tmp_path):
        policy = TieringPolicy(jit_threshold=2.0, spec_threshold=4.0)
        cold = fresh_session(
            adaptive=True, adaptive_sync=True, cache_dir=tmp_path,
            tiering=policy,
        )
        cold.add_source(FIB)
        for _ in range(5):
            cold.call("fib", 10.0)
        assert cold.tiering.report()["functions"]["fib"] == TIER_SPEC
        assert cold.stats.jit_compiles >= 1
        cold.close()
        assert cold.tiering.profiles_saved == 1

        warm = fresh_session(
            adaptive=True, adaptive_sync=True, cache_dir=tmp_path,
            tiering=policy,
        )
        warm.add_source(FIB)
        expected = interpreter_result(FIB, "fib", 10.0)
        assert warm.call("fib", 10.0) == expected
        report = warm.tiering.report()
        assert report["profile_restores"] == 1
        assert report["functions"]["fib"] == TIER_SPEC
        # The whole point: the winning tier came back from the disk cache,
        # not from recompilation.
        assert warm.stats.jit_compiles == 0
        assert warm.stats.speculative_compiles == 0
        assert warm.stats.cache_hits >= 1
        # And the very next call is served compiled.
        warm.call("fib", 10.0)
        assert warm.stats.calls_jit + warm.stats.calls_spec > 0

    def test_sessions_without_cache_skip_persistence(self, fresh_session):
        session = fresh_session(
            adaptive=True, adaptive_sync=True, tiering=AGGRESSIVE
        )
        session.add_source(FIB)
        session.call("fib", 8.0)
        assert session.tiering.save() == 0

    def test_clear_removes_blobs(self, tmp_path):
        cache = RepositoryCache(tmp_path)
        cache.put_blob("k" * 64, 1)
        assert cache.clear() == 1
        assert cache.get_blob("k" * 64) is None


# ----------------------------------------------------------------------
# Worker-pool completion callbacks (on_done plumbing)
# ----------------------------------------------------------------------
class TestSubmitTaskCallbacks:
    def test_on_done_success_and_failure(self, fresh_session):
        session = fresh_session(background=True)
        session.add_source(POLY)
        results = []
        ok = session.engine.submit_task(
            lambda: "a return value is not an outcome", "task-ok",
            on_done=results.append,
        )
        assert ok
        assert session.engine.drain(10)

        def boom():
            raise RuntimeError("scripted failure")

        session.engine.submit_task(boom, "task-boom", on_done=results.append)
        assert session.engine.drain(10)
        assert results == [True, False]
        assert session.engine.compiled == ["task-ok"]
        assert session.engine.restarts == 0 and session.engine.poisoned == []


# ----------------------------------------------------------------------
# Property: arbitrary call interleavings stay bit-identical while the
# controller promotes, demotes and suppresses mid-stream.
# ----------------------------------------------------------------------
STREAM = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=8)),
    min_size=1, max_size=24,
)

#: A churn policy: everything promotes instantly and any compiled tier is
#: judged "too slow" almost immediately (a tiny demote margin), so the
#: stream sees promote -> demote -> re-promote cycles.
CHURN = TieringPolicy(
    jit_threshold=1.0, spec_threshold=2.0, min_samples=2,
    demote_margin=1e-9, redemote_backoff=1.0, max_demotions=2,
)

FUNC_NAMES = ("fib", "poly", "stepf")


def _expected_table():
    table = {}
    for source in SOURCES:
        for fn in parse(source).functions:
            table[fn.name] = fn
    return table


@pytest.mark.parametrize("policy", [AGGRESSIVE, CHURN], ids=["promote", "churn"])
@settings(max_examples=20, deadline=None)
@given(stream=STREAM)
def test_interleaved_tier_switches_bit_identical(policy, stream):
    from repro.runtime.values import from_python, to_python

    table = _expected_table()
    interp = Interpreter(function_lookup=table.get, sink=OutputSink())
    session = MajicSession(
        seed=None, adaptive=True, adaptive_sync=True, tiering=policy
    )
    try:
        for source in SOURCES:
            session.add_source(source)
        for func_idx, arg in stream:
            name = FUNC_NAMES[func_idx]
            value = float(arg)
            expected = to_python(
                interp.call_function(table[name], [from_python(value)], 1)[0]
            )
            actual = session.call(name, value)
            assert actual == expected, (
                f"{name}({value}) diverged under adaptive tiering "
                f"({actual!r} != {expected!r})"
            )
    finally:
        session.close()
