"""One way to run a program on a backend, and one way to compare runs.

The interpreter is ground truth (the paper's Section 2.2.1 contract:
compiled code may be served only when it is indistinguishable from
interpretation).  Everything that checks or times that contract — the
fuzzer, the fault sweeps, the experiment harness, the test matrix — goes
through this module and nothing else:

* a :class:`Program` is what to run: sources, entry point, an argument
  factory (called *after* the random stream is seeded, so building a
  workload can never shift the stream the program reads) and ``nargout``;
* :data:`BACKENDS` is the one label -> :class:`Backend` table.  A row is
  session kwargs plus a prepare step, or a baseline-engine factory.
  ``platform=``, ``fault_plan=`` and extra session kwargs are per-run
  overrides of a row — which is all a fault lane or a MIPS run is.
  Adding a backend is adding one row;
* :func:`open` loads a program on a backend and returns a
  :class:`Handle`; ``handle.call()`` seeds, builds the arguments, runs,
  and returns an :class:`Observation`;
* an :class:`Observation` is everything a call can be seen to do: every
  output as ``(storage dtype, shape, raw bytes)`` — byte equality is
  NaN-payload- and signed-zero-exact; the intrinsic-class tag stays out,
  tiers may tag an all-integral result INT or REAL — the display
  transcript, the MATLAB error text and where the call left the shared
  random stream.  A backend matches iff all four are equal; no digest,
  no tolerance;
* :func:`check` holds one fault-free call against the interpreter and
  also asks what an observation cannot show — whether a compiled tier
  silently stopped *serving* (a deopt or a failed compile is rescued by
  the interpreter, so the answer is still right).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from repro.baselines.falcon import FalconCompilerEngine
from repro.baselines.mcc import MccCompilerEngine
from repro.benchsuite.registry import benchmark, sources_of
from repro.benchsuite.workloads import boxed_workload
from repro.core.majic import MajicSession, ensure_recursion_limit
from repro.core.platformcfg import SPARC, PlatformConfig
from repro.errors import MatlabError
from repro.frontend.parser import parse
from repro.interp.interpreter import Interpreter
from repro.repository.diagnostics import COMPILE_FAILURE, DEOPT
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.display import OutputSink
from repro.runtime.mxarray import MxArray
from repro.runtime.values import from_python
from repro.tiering import TieringPolicy

#: RNG seed applied before every call on every backend (programs using
#: ``rand`` must read the same stream everywhere).
RNG_SEED = 20020617  # PLDI 2002

#: Seconds a ``background`` backend may take to drain its speculation
#: queue; exceeding it is a deadlock, not a slow machine.
DRAIN_TIMEOUT = 120

#: Hair-trigger thresholds for the adaptive backend: callees promote after
#: a single observation, so programs with loops or recursion exercise
#: interpreter->jit->spec switches mid-run.
AGGRESSIVE_TIERING = TieringPolicy(jit_threshold=1.0, spec_threshold=2.0)


@dataclass(frozen=True)
class Program:
    """What to run: the same on every backend."""

    sources: tuple[str, ...]
    entry: str
    #: Builds fresh boxed arguments; called after seeding, once per call.
    make_args: Callable[[], list]
    nargout: int = 1

    @classmethod
    @functools.lru_cache(maxsize=None)
    def benchmark(cls, name: str, scale: tuple | None = None) -> "Program":
        """A Table-1 program; ``scale=None`` is its ``smoke_scale``.
        Memoized so equal requests share one :func:`reference` entry."""
        scale = tuple(scale if scale is not None else benchmark(name).smoke_scale)
        return cls(sources_of(name), name, lambda: boxed_workload(name, scale))

    @classmethod
    def generated(cls, program) -> "Program":
        """A :class:`repro.fuzz.GeneratedProgram` (two outputs)."""
        return cls(
            (program.source,), program.name,
            lambda: [from_python(a) for a in program.args], nargout=2,
        )


def canon_value(value) -> tuple:
    """One output value as storage dtype, shape and raw bytes."""
    if isinstance(value, MxArray):
        if value.is_string:
            return ("char", value.text)
        data = np.ascontiguousarray(value.view())
        return ("mat", data.shape, str(data.dtype), data.tobytes())
    return ("host", repr(value))


@dataclass(frozen=True)
class Observation:
    """Canonicalized observable behaviour of one call."""

    outputs: tuple
    display: str
    error: str | None
    rng: tuple

    def diff(self, other: "Observation") -> tuple[str, ...]:
        """Names of the fields on which ``other`` diverges (empty: equal)."""
        return tuple(
            f.name for f in fields(self)
            if getattr(self, f.name) != getattr(other, f.name)
        )


def observation(outputs, display: str, error=None) -> Observation:
    """The observation of a call that just returned ``outputs`` (or raised
    ``error``); reads the random stream's current state as the post-state."""
    seed, state = GLOBAL_RANDOM.snapshot()
    return Observation(
        outputs=tuple(canon_value(v) for v in (outputs or ())),
        display=display,
        error=str(error) if error is not None else None,
        rng=(seed, json.dumps(state, sort_keys=True)),
    )


@dataclass(frozen=True)
class Backend:
    """One row of the table: what executes the program."""

    #: :class:`MajicSession` kwargs (``None``: not a session).
    session: dict | None = None
    #: Compile ahead of the first call: ``"speculate"`` on the calling
    #: thread, ``"background"`` through the worker pool.
    prepare: str | None = None
    #: ``(platform, sink) -> BaselineEngine`` for the batch compilers.
    engine: Callable | None = None


#: The backend matrix.  ``interpreter`` is the ground truth every other
#: row is compared against.
BACKENDS: dict[str, Backend] = {
    "interpreter": Backend(),
    "jit": Backend(session={"fusion": False}),
    "fused": Backend(session={}),
    "spec": Backend(session={}, prepare="speculate"),
    "background": Backend(session={"background": True}, prepare="background"),
    "falcon": Backend(engine=lambda platform, sink: FalconCompilerEngine(
        native_opt_level=platform.native_opt_level, sink=sink)),
    "mcc": Backend(engine=lambda platform, sink: MccCompilerEngine(sink=sink)),
    "parallel": Backend(session={"parallel": 2}),
    # Sync mode keeps runs deterministic: the continuous bit-identity
    # check for the online controller.
    "adaptive": Backend(session={
        "adaptive": True, "adaptive_sync": True, "tiering": AGGRESSIVE_TIERING,
    }),
}


@dataclass
class Handle:
    """One program loaded on one backend.  ``session`` / ``engine`` expose
    what is underneath (``None`` when the backend has no such thing)."""

    program: Program
    invoke: Callable[[list], list]
    sink: OutputSink
    session: MajicSession | None = None
    engine: object = None
    #: Wall time of the prepare step (the speculative compile).
    prepare_s: float = 0.0
    #: Wall time of the last call's invocation alone.
    elapsed: float = 0.0

    def call(self) -> Observation:
        """Seed, build the arguments, run; a MATLAB error is part of the
        observation, anything else propagates."""
        GLOBAL_RANDOM.seed(RNG_SEED)
        args = self.program.make_args()
        shown = len(self.sink.getvalue())
        outputs = error = None
        start = time.perf_counter()
        try:
            outputs = self.invoke(args)
        except MatlabError as exc:
            error = exc
        self.elapsed = time.perf_counter() - start
        return observation(outputs, self.sink.getvalue()[shown:], error)

    def fallbacks(self) -> tuple[str, ...]:
        """Every deopt and failed compile the session recorded, cause
        included.  The interpreter rescues both, so the observation stays
        right while a tier is lost; a fault-free run must leave none."""
        if self.session is None:
            return ()
        return tuple(
            str(event) for event in self.session.diagnostics.events()
            if event.kind in (DEOPT, COMPILE_FAILURE)
        )

    def close(self) -> None:
        if self.session is not None:
            self.session.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def open(
    program: Program,
    backend: str | Backend = "fused",
    platform: PlatformConfig = SPARC,
    fault_plan=None,
    **session_kwargs,
) -> Handle:
    """Load ``program`` on ``backend`` (a :data:`BACKENDS` label, or a row
    of one's own) and run its prepare step."""
    row = BACKENDS[backend] if isinstance(backend, str) else backend
    entry, nargout = program.entry, program.nargout
    if row.session is None:
        if fault_plan is not None or session_kwargs:
            raise TypeError(f"backend {backend!r} is not a session: it takes "
                            "neither a fault plan nor session kwargs")
        # No MajicSession to request the recursion headroom (ackermann).
        ensure_recursion_limit(platform.host_recursion_limit)
        sink = OutputSink()
        if row.engine is not None:
            engine = row.engine(platform, sink)
            for text in program.sources:
                engine.add_source(text)
            return Handle(program, lambda args: engine.execute(entry, args, nargout),
                          sink, engine=engine)
        table = {
            fn.name: fn
            for text in program.sources for fn in parse(text).functions
        }
        interp = Interpreter(function_lookup=table.get, sink=sink)
        return Handle(
            program,
            lambda args: interp.call_function(table[entry], args, nargout),
            sink,
        )
    session = MajicSession(
        platform=platform, seed=None, fault_plan=fault_plan,
        **{**row.session, **session_kwargs},
    )
    try:
        for text in program.sources:
            session.add_source(text)
        start = time.perf_counter()
        if row.prepare == "background":
            session.speculate_async()
            if not session.drain_speculation(timeout=DRAIN_TIMEOUT):
                raise RuntimeError(
                    f"background speculation deadlocked on '{entry}'")
        elif row.prepare == "speculate":
            session.speculate_all()
        prepare_s = time.perf_counter() - start if row.prepare else 0.0
    except BaseException:
        session.close()
        raise
    return Handle(
        program,
        lambda args: session.call_boxed(entry, args, nargout=nargout),
        session.sink, session=session, prepare_s=prepare_s,
    )


def observe(program: Program, backend: str | Backend = "fused",
            **overrides) -> Observation:
    """One call of ``program`` on a fresh ``backend``."""
    with open(program, backend, **overrides) as handle:
        return handle.call()


@functools.lru_cache(maxsize=256)
def reference(program: Program) -> Observation:
    """The interpreter's observation of ``program`` — what every backend
    must reproduce."""
    return observe(program, "interpreter")


def check(program: Program, backend: str | Backend = "fused",
          expected: Observation | None = None,
          **overrides) -> list[tuple[str, object, object]]:
    """One fault-free call of ``program`` on a fresh ``backend``, held
    against ``expected`` (default: the interpreter's :func:`reference`):
    ``(field, expected, actual)`` for every field that diverged, plus a
    ``"fallbacks"`` entry when a compiled tier silently gave up."""
    if expected is None:
        expected = reference(program)
    with open(program, backend, **overrides) as handle:
        actual = handle.call()
        fallbacks = handle.fallbacks()
    found = [
        (name, getattr(expected, name), getattr(actual, name))
        for name in expected.diff(actual)
    ]
    if fallbacks:
        found.append(("fallbacks", (), fallbacks))
    return found
