"""The steady serve path (DESIGN.md, *What one steady call does*).

A steady call is a hot-call cache hit: one exact acceptance test on the
values, a count, an O(1) rollback capture, a transcript mark, the emitted
code.  JIT versions — compiled for the *observed* value ranges — live in
that cache, so what keeps it right is tested here as sequences:

* the version served is the one ``locate`` would choose, after every call
  of a history (widening, speculation in between, array actuals whose
  values leave the compiled range);
* nothing outlives what it described: redefinition, deopt, quarantine,
  adaptive demotion, a same-signature replacement, a cleared disk cache,
  too many actuals after a hit — each compared with the interpreter
  after every step;
* the rollback capture equals a fresh read of the generator whatever the
  interleaving, and a faulted call leaves stream and transcript exactly
  where the interpreter does;
* the work of one steady call, as counts that repeat exactly.
"""

from __future__ import annotations

import builtins
import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultPlan, MajicSession, TieringPolicy
from repro import backends
from repro.backends import Program, canon_value
from repro.benchsuite.registry import benchmark_names
from repro.errors import MatlabError
from repro.faults.plan import FaultSpec
from repro.frontend.parser import parse
from repro.interp.interpreter import Interpreter
from repro.obs import TIER_INTERPRETER
from repro.runtime.builtins import GLOBAL_RANDOM, MatlabRandom
from repro.runtime.display import OutputSink
from repro.runtime.values import from_python

#: Range-specialised on purpose: compiled for ``x = 5`` the JIT folds the
#: answer to a constant, so a version served to a value outside its
#: compiled range answers *wrong*, not just slowly.  The early ``return``
#: keeps it a real call when another function calls it (no inlining).
SPECIAL = "function y = sp(x)\nif x == -1, y = x; return; end\ny = x .* 2 + 1;\n"


def _stream_state():
    return GLOBAL_RANDOM._seed, GLOBAL_RANDOM._rng.bit_generator.state


class Twin:
    """A session and a bare interpreter over the same sources; every call
    runs on both from the same seed and must agree on the values (or the
    MATLAB error text), the transcript so far and the stream's end state."""

    def __init__(self, session):
        self.session = session
        self.table = {}
        self.sink = OutputSink()
        self.interp = Interpreter(function_lookup=self.table.get, sink=self.sink)

    def add_source(self, text):
        self.session.add_source(text)
        for fn in parse(text).functions:
            self.table[fn.name] = fn

    @staticmethod
    def _run(call):
        GLOBAL_RANDOM.seed(7)
        try:
            seen = [canon_value(v) for v in call()]
        except MatlabError as exc:
            seen = str(exc)
        return seen, _stream_state()

    def call(self, name, *args):
        want = self._run(lambda: self.interp.call_function(
            self.table[name], [from_python(a) for a in args], 1))
        got = self._run(lambda: self.session.call_boxed(
            name, [from_python(a) for a in args], nargout=1))
        assert got == want, f"{name}{args}"
        assert self.session.output() == self.sink.getvalue(), f"{name}{args}"
        return got[0]


@pytest.fixture
def twin(fresh_session):
    return lambda **kwargs: Twin(fresh_session(seed=None, **kwargs))


def served_by(repo):
    """Record ``(invocation, version)`` for everything ``_serve`` runs."""
    served, original = [], repo._serve

    def _serve(invocation, version, spanned=False):
        served.append((invocation, version))
        return original(invocation, version, spanned)

    repo._serve = _serve
    return served


# ----------------------------------------------------------------------
# The version served is the one locate() would choose
# ----------------------------------------------------------------------
POOL = [
    5.0, 6.0, 7.5, True, 1 + 2j, "a", float("nan"),
    np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 2.0, 9.0]]),
    np.array([[1.5, 2.0, 3.0]]), np.zeros((0, 0)),
]
STEPS = st.lists(
    st.one_of(st.integers(min_value=0, max_value=len(POOL) - 1),
              st.just("speculate")),
    min_size=1, max_size=14,
)


def _check_history(session, steps):
    duo = Twin(session)
    duo.add_source(SPECIAL)
    repo = duo.session.repository
    served = served_by(repo)
    for step in steps:
        if step == "speculate":
            duo.session.speculate_all()
            continue
        del served[:]
        duo.call("sp", POOL[step])
        [(invocation, version)] = served
        assert version.mode != TIER_INTERPRETER
        assert version is repo.locate(invocation), (steps, step)
    assert duo.session.stats.deopts == 0


class TestServedIsLocated:
    def test_widening_history(self, twin):
        """f(5), f(6) widens the ranges (``_range_only_miss``); f(5) again
        must come back to the constant version, at distance 0."""
        duo = twin()
        duo.add_source(SPECIAL)
        repo, stats = duo.session.repository, duo.session.stats
        served = served_by(repo)
        duo.call("sp", 5.0)
        constant = served[-1][1]
        duo.call("sp", 6.0)
        widened = served[-1][1]
        assert widened is not constant and len(repo.versions_of("sp")) == 2
        assert all(t.range.is_top for t in widened.signature)
        duo.call("sp", 5.0)
        assert served[-1][1] is constant
        # ... and stays a table hit while the same call repeats, with two
        # versions held, because the cached one is provably the closest.
        before = stats.lookups
        duo.call("sp", 5.0)
        assert served[-1][1] is constant and stats.lookups == before
        # The widened version accepts 5 too; cached, it must not keep it.
        duo.call("sp", 7.0)
        assert served[-1][1] is widened
        duo.call("sp", 5.0)
        assert served[-1][1] is constant

    def test_array_values_leaving_the_compiled_range(self, twin):
        duo = twin()
        duo.add_source(SPECIAL)
        served = served_by(duo.session.repository)
        duo.call("sp", np.array([[1.0, 2.0, 3.0]]))
        first = served[-1][1]
        assert not first.signature[0].range.is_top
        duo.call("sp", np.array([[3.0, 1.0, 2.0]]))      # same range: a hit
        assert served[-1][1] is first
        duo.call("sp", np.array([[1.0, 2.0, 9.0]]))      # max leaves it
        assert served[-1][1] is not first
        duo.call("sp", np.array([[1.0, np.nan, 3.0]]))   # NaN: range is ⊤
        assert served[-1][1] is not first

    def test_bool_after_int_constant(self, twin):
        """``true`` fits INT<1,1> but its own BOOL<1,1> version is closer:
        accepting is not enough for the cache to keep a version."""
        duo = twin()
        duo.add_source(SPECIAL)
        repo = duo.session.repository
        served = served_by(repo)
        duo.call("sp", True)
        as_bool = served[-1][1]
        duo.call("sp", 1.0)
        as_int = served[-1][1]
        assert as_int is not as_bool and as_int.accepts([from_python(True)])
        duo.call("sp", True)
        assert served[-1][1] is as_bool

    @settings(max_examples=40, deadline=None)
    @given(steps=STEPS)
    def test_any_history(self, steps):
        with MajicSession(seed=None) as session:
            _check_history(session, steps)


# ----------------------------------------------------------------------
# Nothing in the hot-call cache outlives what it described
# ----------------------------------------------------------------------
CALLER = "function r = caller(x)\nr = sp(x) + sp(x) + 1;\n"
USEVEC = "function y = usevec(x)\nv = [x, 2*x];\ny = sum(v);\n"


class TestHotCacheStaleness:
    def test_redefinition_mid_session(self, twin):
        duo = twin()
        duo.add_source(SPECIAL)
        duo.add_source(CALLER)
        for _ in range(3):
            duo.call("sp", 5.0)
            duo.call("caller", 5.0)
        duo.add_source(SPECIAL.replace("x .* 2 + 1", "x .* 100"))
        assert "sp" not in duo.session.repository._fast_cache
        assert duo.call("sp", 5.0) == [canon_value(from_python(500.0))]
        duo.call("caller", 5.0)       # held sp's old answer via its own call
        duo.call("sp", 5.0)

    def test_deopt_then_quarantine(self, twin):
        plan = FaultPlan([FaultSpec(site="rt.*", hits=(10, 25, 45))])
        duo = twin(fault_plan=plan, max_strikes=3)
        duo.add_source(USEVEC)
        repo, stats = duo.session.repository, duo.session.stats
        deopts = []
        for _ in range(20):
            duo.call("usevec", 2.0)
            deopts.append(stats.deopts)
            cached = repo._fast_cache.get("usevec")
            assert cached is None or cached in repo.versions_of("usevec")
        # hits on the cached version between the deopts, then quarantine
        assert deopts[:2] == [0, 0] and sorted(set(deopts)) == [0, 1, 2, 3]
        assert all(deopts.count(n) >= 2 for n in (1, 2))
        assert repo.compile_verdict("usevec") == "uncompilable"
        assert "usevec" not in repo._fast_cache

    def test_adaptive_demote_repromote_unbind(self, twin):
        churn = TieringPolicy(
            jit_threshold=3.0, spec_threshold=6.0, min_samples=2,
            demote_margin=1e-9, redemote_backoff=1.0, max_demotions=2,
        )
        duo = twin(adaptive=True, adaptive_sync=True, tiering=churn)
        duo.add_source(SPECIAL)
        session = duo.session
        for round_ in range(12):
            for value in (5.0, 5.0, 6.0, 5.0):
                duo.call("sp", value)
                if session.tiering.suppressed("sp"):
                    assert "sp" not in session.repository._fast_cache
            if round_ % 4 == 3:
                session.repository.unbind("sp")
        report = session.tiering.report()
        assert report["demotions"] >= 1 and report["promotions"] >= 2

    def test_same_signature_replacement_is_served(self, twin):
        duo = twin()
        duo.add_source(SPECIAL)
        repo = duo.session.repository
        served = served_by(repo)
        duo.call("sp", 5.0)
        duo.call("sp", 5.0)
        old = served[-1][1]
        replacement = dataclasses.replace(old, mode="spec")
        repo.store(replacement)
        duo.call("sp", 5.0)
        assert served[-1][1] is replacement
        assert old not in repo.versions_of("sp")

    def test_cleared_disk_cache(self, twin, tmp_path):
        duo = twin(cache_dir=tmp_path)
        duo.add_source(SPECIAL)
        duo.call("sp", 5.0)
        assert duo.session.repository.cache.clear() >= 1
        duo.call("sp", 5.0)
        duo.call("sp", 6.0)
        assert duo.session.stats.deopts == 0

    def test_too_many_actuals_after_a_hit(self, twin):
        duo = twin()
        duo.add_source(SPECIAL)
        duo.call("sp", 5.0)
        duo.call("sp", 5.0)
        assert "too many input arguments" in duo.call("sp", 5.0, 2.0, 3.0)
        duo.call("sp", 5.0)
        assert duo.session.stats.deopts == 0


# ----------------------------------------------------------------------
# Rollback under the cached capture
# ----------------------------------------------------------------------
class _PlainRandom(MatlabRandom):
    """The capture re-read on every snapshot: the reference."""

    def snapshot(self):
        self._captured = None
        return super().snapshot()


RNG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("seed"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.sampled_from(["uniform", "normal"]),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("snapshot"), st.just(0)),
        st.tuples(st.just("restore"), st.integers(min_value=0, max_value=9)),
    ),
    max_size=30,
)


class TestRollbackCapture:
    @settings(max_examples=200, deadline=None)
    @given(ops=RNG_OPS)
    def test_capture_is_a_fresh_read_whatever_the_interleaving(self, ops):
        cached, plain = MatlabRandom(), _PlainRandom()
        taken = []
        for op, operand in ops:
            if op == "seed":
                cached.seed(operand), plain.seed(operand)
            elif op in ("uniform", "normal"):
                drawn = getattr(cached, op)(operand, 2)
                assert drawn.tobytes() == getattr(plain, op)(operand, 2).tobytes()
            elif op == "snapshot":
                taken.append(cached.snapshot())
                assert taken[-1] == plain.snapshot()
            elif taken:
                state = taken[operand % len(taken)]
                cached.restore(state), plain.restore(state)
            held = cached._captured
            assert held is None or held == (
                cached._seed, cached._rng.bit_generator.state
            )
        # restore(snapshot()) is the identity on the stream.
        cached.restore(cached.snapshot())
        assert cached.snapshot() == plain.snapshot()
        assert cached.uniform(1, 3).tobytes() == plain.uniform(1, 3).tobytes()

    NESTED = (
        "function y = outer(x)\ndisp(x);\na = drawing(x);\nv = [a, 2*a];\n"
        "y = sum(v) + rand(1, 1);\ndisp(y);\n"
        "function r = drawing(x)\nif x < 0, r = 0; return; end\n"
        "disp(7);\nr = rand(1, 1) + x;\n"
    )

    def test_fault_after_a_nested_draw_rolls_back_stream_and_transcript(self):
        """Compiled ``outer`` calls compiled ``drawing``, which draws and
        prints; every helper call after that is faulted in turn.  The
        deopt re-runs ``outer`` in the interpreter from the rolled-back
        stream and transcript: observation equal to a clean run."""
        program = Program((self.NESTED,), "outer", lambda: [from_python(2.0)])
        want = backends.reference(program)
        fired = deopts_after_draw = 0
        for hit in range(1, 12):
            plan = FaultPlan([FaultSpec(site="rt.*", hits=(hit,))])
            with backends.open(program, "fused", fault_plan=plan) as handle:
                assert not want.diff(handle.call()), hit
                stats = handle.session.stats
                fired += bool(plan.fired)
                # outer deoptimized after drawing's compiled call returned
                deopts_after_draw += bool(stats.deopts and stats.calls_jit >= 2)
                assert not want.diff(handle.call()), hit    # and once more
        assert fired >= 4 and deopts_after_draw >= 2

    def test_sandbox_verdict_applies_the_childs_stream(self):
        program = Program((self.NESTED,), "outer", lambda: [from_python(2.0)])
        want = backends.reference(program)
        with backends.open(program, "fused", sandbox=True) as handle:
            for _ in range(3):      # the trial, then two in-process hits
                assert not want.diff(handle.call())
            assert handle.session.stats.deopts == 0


# ----------------------------------------------------------------------
# Pin the work, not the time
# ----------------------------------------------------------------------
@contextlib.contextmanager
def counted_state_reads():
    """Every ``bit_generator.state`` read behind ``GLOBAL_RANDOM`` (until
    a ``seed`` / ``restore`` inside the block rebuilds the generator)."""
    reads, rng = [], GLOBAL_RANDOM._rng

    class CountedBitGenerator:
        @property
        def state(self):
            reads.append(1)
            return rng.bit_generator.state

    class Shell:
        random, standard_normal = rng.random, rng.standard_normal
        bit_generator = CountedBitGenerator()

    GLOBAL_RANDOM._rng = Shell()
    try:
        yield reads
    finally:
        GLOBAL_RANDOM._rng = rng


@contextlib.contextmanager
def counted_imports():
    calls, original = [], builtins.__import__

    def counting(name, *args, **kwargs):
        calls.append(name)
        return original(name, *args, **kwargs)

    builtins.__import__ = counting
    try:
        yield calls
    finally:
        builtins.__import__ = original


#: Programs whose steady call draws from the shared stream.
DRAWING = {"fractal"}
DISPATCH_HOST = Program(
    ("function dispatch_host()\n",), "dispatch_host", lambda: []
)


def _steady_programs():
    yield from ((name, Program.benchmark(name)) for name in benchmark_names())
    yield "dispatch_host", DISPATCH_HOST


@pytest.mark.parametrize(
    ("name", "program"), list(_steady_programs()),
    ids=[name for name, _ in _steady_programs()],
)
def test_steady_call_is_a_table_hit(name, program):
    """One steady call, all 16 Table-1 programs and the empty function:
    the locator does not run (at the parent it ran once per call on 14 of
    the 16), no ``import`` statement executes (2+ per compiled call at the
    parent) and the generator's state is read at most once per compiled
    call of a program that draws (``fractal``), never for one that does
    not (once per compiled call at the parent).  Counts, so they repeat
    exactly."""
    with backends.open(program, "fused") as handle:
        handle.call()
        handle.call()
        stats = handle.session.stats
        GLOBAL_RANDOM.seed(backends.RNG_SEED)
        args = program.make_args()
        GLOBAL_RANDOM.snapshot()                # the capture seeding dropped
        with counted_state_reads() as reads, counted_imports() as imports:
            before = stats.lookups, stats.calls_jit
            handle.invoke(args)
        assert stats.calls_jit > before[1], "not served compiled"
        assert stats.lookups == before[0]
        assert imports == []
        # A capture per served compiled call at most, and only where the
        # stream moved since the last one.
        served = stats.calls_jit - before[1]
        assert len(reads) <= (served if name in DRAWING else 0)
        assert stats.deopts == 0
