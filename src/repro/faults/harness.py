"""Differential fault-injection harness.

Runs benchsuite programs under injected compile-time and runtime faults
and asserts each run's whole :class:`~repro.backends.Observation` —
output bytes, display transcript, error text, random-stream post-state —
stays **identical** to the pure interpreter's.  A sweep is a list of
:class:`Lane` rows, each a fault schedule laid over one row of
:data:`repro.backends.BACKENDS`.  This is the executable statement of the
paper's safety property: compilation is an optimization, so no injected
failure of the compiled tier may change a program's result — the guarded
repository must absorb it (quarantine + interpreter re-execution) and
record what happened in ``session.diagnostics``.

The same sweep also runs with the **background speculation engine**
enabled (``--background``): faults injected inside worker threads — a
dying worker, a compiler crash off-thread, a poisoned cache store — must
neither change results nor deadlock the work queue (every drain is
bounded and asserted).

The **chaos sweep** (``--chaos``) exercises the supervision tier
(:mod:`repro.resilience`): injected hangs cancelled by the watchdog, an
injected ``MemoryError`` absorbed by the in-process deopt net, corrupted
and torn cache entries healed by quarantine-and-rebuild.  Same contract
— every run must stay bit-identical to the interpreter, because every
recovery path ends in interpreter re-execution.

Usage::

    PYTHONPATH=src python -m repro.faults.harness               # full sweep
    PYTHONPATH=src python -m repro.faults.harness --smoke       # CI subset
    PYTHONPATH=src python -m repro.faults.harness --background  # worker sweep
    PYTHONPATH=src python -m repro.faults.harness --chaos       # chaos sweep
    PYTHONPATH=src python -m repro.faults.harness --native      # native sweep
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from unittest import mock

from repro import backends
from repro.backends import Program, reference
from repro.benchsuite.registry import benchmark_names
from repro.faults.plan import (
    BEHAVIOR_CRASH,
    BEHAVIOR_HANG,
    BEHAVIOR_IO,
    BEHAVIOR_OOM,
    RT_ANY,
    FaultPlan,
    FaultSpec,
    SITE_CACHE_CORRUPT,
    SITE_CACHE_LOAD,
    SITE_CACHE_PARTIAL,
    SITE_CACHE_STORE,
    SITE_HANG,
    SITE_JIT,
    SITE_KERNEL_COMPILE,
    SITE_KERNEL_RUN,
    SITE_NATIVE_COMPILE,
    SITE_NATIVE_LOAD,
    SITE_NATIVE_RUN,
    SITE_OOM,
    SITE_PARALLEL_RECV,
    SITE_PARALLEL_SEND,
    SITE_PARALLEL_WORKER,
    SITE_SPEC,
    SITE_TIERING_PROMOTE,
    SITE_WORKER,
)
from repro.kernels import KERNEL_CACHE
from repro.obs import write_chrome_trace, write_prometheus
from repro.repository.diagnostics import PARALLEL_RESTART
from repro.resilience import ResiliencePolicy
from repro.runtime.values import from_python

#: The sweep's one program outside Table 1: ``orbec``'s update over
#: twelve coordinates.  Table 1's small vectors are scalar-replaced and
#: its solvers are speculated with ⊤ matrix formals, so no Table-1
#: program has a speculative version that fuses; 1x12 vectors are past
#: the unroll limit, and this program fuses on both tiers, so every
#: kernel lane has a program to fire on.
WIDE_ORBIT = Program(
    (
        "function R = orbit12(nstep, tau)\n"
        "r = 1:12;\nv = zeros(1, 12);\nR = zeros(nstep, 12);\n"
        "for istep = 1:nstep\n"
        "  a = -r ./ (r .* r + 1);\n  v = v + tau * a;\n"
        "  r = r + tau * v;\n  R(istep, :) = r;\nend\n",
    ),
    "orbit12",
    lambda: [from_python(30.0), from_python(0.001)],
)

#: The sweep's one program whose compiled code calls another compiled
#: function: each callee returns early, so the inliner embeds neither,
#: and every call of ``leg`` and ``hop`` re-enters the repository through
#: ``rt.call_user`` — under every lane, that path is faulted too.  (A
#: function's calls of itself are plain host calls instead.)
RELAY = Program(
    (
        "function r = relay(n)\nr = hop(n) + hop(n + 1);\n"
        "for k = 1:3\n  r = r + leg(n);\nend\n"
        "function y = leg(x)\nif x < 0, y = 0; return; end\n"
        "y = hop(x) + 1;\n"
        "function y = hop(x)\nif x < 0, y = -x; return; end\n"
        "y = 2 * x;\n",
    ),
    "relay",
    lambda: [from_python(2.0)],
)

#: The sweep's programs outside Table 1, by entry name.
EXTRA_PROGRAMS = {program.entry: program for program in (WIDE_ORBIT, RELAY)}

#: The ``--smoke`` subset: recursion, scalar loops, a builtin solver, the
#: one ``rand`` user, ``orbrk`` — two functions, so a second worker task
#: exists — ``orbit12``, whose fused kernels (JIT and speculative) reach
#: the native tier, so that every lane of every sweep has a program it
#: can fire on — and ``relay``, whose compiled calls of other compiled
#: functions go through ``rt.call_user``.
SMOKE_NAMES = (
    "fibonacci", "dirich", "cgopt", "fractal", "orbrk", "orbit12", "relay",
)


def _program(name: str) -> Program:
    return EXTRA_PROGRAMS.get(name) or Program.benchmark(name)


@dataclass
class DifferentialOutcome:
    """One benchmark × fault-plan comparison against the interpreter."""

    benchmark: str
    plan: str
    #: The :class:`~repro.backends.Observation` fields on which the
    #: faulted run differs from the interpreter's.
    diverged: tuple[str, ...]
    faults_fired: int
    events: dict[str, int] = field(default_factory=dict)

    @property
    def matches(self) -> bool:
        return not self.diverged

    @property
    def exercised(self) -> bool:
        """Was a fault actually injected?  A rank that crashes or hangs
        cannot report its own fired record, so its restart counts."""
        return bool(self.faults_fired or self.events.get(PARALLEL_RESTART))

    def __str__(self) -> str:
        status = "OK " if self.matches else "FAIL"
        where = "" if self.matches else f" diverged={','.join(self.diverged)}"
        return (
            f"{status} {self.benchmark:<10} plan={self.plan:<19} "
            f"fired={self.faults_fired} events={self.events}{where}"
        )


@dataclass(frozen=True)
class Lane:
    """One row of a sweep: a fault schedule plus the session knobs and
    the preparation that arm the matching recovery mechanism."""

    label: str
    specs: tuple[FaultSpec, ...] = ()
    session_kwargs: dict = field(default_factory=dict)
    #: The :data:`repro.backends.BACKENDS` row the lane overrides: ``spec``
    #: runs the speculative pass first (so spec-tier sites fire),
    #: ``background`` runs it in the worker pool (faults fire inside
    #: worker threads; the bounded drain is the no-deadlock assertion).
    backend: str = "fused"
    #: Pre-populate a disk cache with a clean pass so the faulted session
    #: has entries to corrupt.
    warm_cache: bool = False
    #: Environment overrides held for the duration of the run.
    env: dict = field(default_factory=dict)

    def plan(self) -> FaultPlan | None:
        return FaultPlan(list(self.specs)) if self.specs else None


def default_lanes() -> list[Lane]:
    """The standard sweep: one compile-time and one runtime fault each,
    against both tiers of the compiled path, plus faults in the fused
    elementwise kernel compiler and the kernels it emits — for JIT code
    and, since both code generators fuse, for speculative code."""
    return [
        Lane("jit-compile", (FaultSpec(SITE_JIT),)),
        Lane("spec-compile", (FaultSpec(SITE_SPEC),), backend="spec"),
        Lane("runtime-hit1", (FaultSpec(RT_ANY),)),
        Lane("runtime-hit7", (FaultSpec(RT_ANY, hits=(7,)),)),
    ] + [
        Lane(f"{prefix}kernel-{what}", (FaultSpec(site),), backend=backend)
        for prefix, backend in (("", "fused"), ("spec-", "spec"))
        for what, site in (
            ("compile", SITE_KERNEL_COMPILE), ("run", SITE_KERNEL_RUN),
        )
    ] + [
        # Adaptive-tiering lane: the first promotion compile dies; the
        # function must keep serving from its current tier.  The site only
        # exists under the adaptive controller; the ``adaptive`` row's
        # hair-trigger thresholds + sync mode make the injected fault fire
        # deterministically on the first promotion attempt.
        Lane("tier-promote", (FaultSpec(SITE_TIERING_PROMOTE),),
             backend="adaptive"),
    ]


def background_lanes() -> list[Lane]:
    """The worker-thread sweep: faults firing inside (or around) the
    background speculation pool.  ``worker-crash`` crashes the first task
    (a failed task: one ``compile_failure`` event, and the worker takes
    the next one); ``worker-hang`` wedges it until the compile watchdog
    cancels it."""
    hang_deadline = {"resilience": ResiliencePolicy(compile_deadline=0.25)}
    return [
        Lane(label, (spec,), kwargs, backend="background")
        for label, spec, kwargs in (
            ("worker-hit1", FaultSpec(SITE_WORKER), {}),
            ("worker-hit2", FaultSpec(SITE_WORKER, hits=(2,)), {}),
            ("spec-in-worker", FaultSpec(SITE_SPEC), {}),
            ("runtime-hit1", FaultSpec(RT_ANY), {}),
            ("worker-crash",
             FaultSpec(SITE_WORKER, behavior=BEHAVIOR_CRASH), {}),
            ("worker-hang",
             FaultSpec(SITE_WORKER, behavior=BEHAVIOR_HANG), hang_deadline),
        )
    ]


def native_lanes() -> list[Lane]:
    """The native-tier sweep: faults against the C compile, the ``.so``
    load and the first native run — every one must deoptimize back onto
    the Python fused kernels without changing a single bit — plus one
    fault-free lane with the toolchain disabled entirely.  Sessions run
    with ``sync`` so the compile happens on the hot path and the
    injected fault is guaranteed to fire before the call is observed."""
    kwargs = {
        "native": True, "sync": True, "native_hot_threshold": 1,
        # The sweep's small scales would mostly duck under the size
        # cutoff; forcing it to 1 keeps real native runs in the loop.
        "native_min_elems": 1,
    }
    return [
        Lane(f"native-{what}", (FaultSpec(site),), session_kwargs=kwargs)
        for what, site in (
            ("compile", SITE_NATIVE_COMPILE),
            ("load", SITE_NATIVE_LOAD),
            ("run", SITE_NATIVE_RUN),
        )
    ] + [
        # The probe must come back empty and the session must serve every
        # call from the Python kernels.
        Lane("no-toolchain", session_kwargs=kwargs,
             env={"MAJIC_NATIVE_DISABLE": "1"}),
    ]


def chaos_scenarios() -> list[Lane]:
    """The chaos sweep: hang/oom/corruption against every recovery tier,
    and a transient IO fault on each side of the persistent cache (a
    retried read; a retried store).
    Deadlines are short so the sweep stays CI-sized."""
    return [
        Lane(
            label="hang-run",
            specs=(FaultSpec(site=SITE_HANG, hits=(1,), behavior=BEHAVIOR_HANG),),
            session_kwargs={"resilience": ResiliencePolicy(run_deadline=0.25)},
        ),
        Lane(
            label="hang-compile",
            specs=(FaultSpec(site=SITE_JIT, hits=(1,), behavior=BEHAVIOR_HANG),),
            session_kwargs={
                "resilience": ResiliencePolicy(compile_deadline=0.25)},
        ),
        Lane(
            label="oom-run",
            specs=(FaultSpec(site=SITE_OOM, hits=(1,), behavior=BEHAVIOR_OOM),),
        ),
        Lane(
            label="cache-corrupt",
            specs=(
                FaultSpec(site=SITE_CACHE_CORRUPT, hits=(1,)),
                FaultSpec(site=SITE_CACHE_PARTIAL, hits=(1,)),
            ),
            backend="spec",
            warm_cache=True,
        ),
        Lane(
            label="cache-load-io",
            specs=(FaultSpec(site=SITE_CACHE_LOAD, behavior=BEHAVIOR_IO),),
            backend="spec",
            warm_cache=True,
        ),
        # The warm pass stored spec versions: the JIT compiles miss and
        # store.
        Lane(
            label="cache-store-io",
            specs=(FaultSpec(site=SITE_CACHE_STORE, behavior=BEHAVIOR_IO),),
            warm_cache=True,
        ),
    ]


def parallel_scenarios() -> list[Lane]:
    """The parallel sweep: MatlabMPI-backend faults against every
    benchmark with two worker ranks.  Dropped messages surface as recv
    timeouts, a failed receive on the driver side is a lost reply, hung
    ranks are killed and respawned, crashed ranks die for real
    (``os._exit``) and OOM kills are absorbed as error replies — all five
    must degrade into the serial fallback bit-identically."""
    policy = ResiliencePolicy(parallel_recv_timeout=1.5)
    return [
        Lane(label, (spec,), {"resilience": policy}, backend="parallel")
        for label, spec in (
            ("msg-dropped", FaultSpec(site=SITE_PARALLEL_SEND, hits=(1,))),
            ("recv-failed", FaultSpec(site=SITE_PARALLEL_RECV, hits=(1,))),
            ("worker-hang", FaultSpec(site=SITE_PARALLEL_WORKER, hits=(1,),
                                      behavior=BEHAVIOR_HANG)),
            ("worker-crash", FaultSpec(site=SITE_PARALLEL_WORKER, hits=(1,),
                                       behavior=BEHAVIOR_CRASH)),
            ("worker-oom", FaultSpec(site=SITE_PARALLEL_WORKER, hits=(1,),
                                     behavior=BEHAVIOR_OOM)),
        )
    ]


#: Sweep name -> its lanes (the CLI flag of the same name selects it).
SWEEPS = {
    "default": default_lanes,
    "background": background_lanes,
    "chaos": chaos_scenarios,
    "parallel": parallel_scenarios,
    "native": native_lanes,
}


def run_lanes(
    lanes: list[Lane],
    names: list[str] | None = None,
    trace: bool = False,
) -> list[DifferentialOutcome]:
    """Every benchmark × every lane, each compared — as a whole
    :class:`~repro.backends.Observation` — with the pure interpreter's.

    ``trace=True`` runs the faulted sessions with tracing and metrics on
    — results must stay bit-identical with spans being recorded, or
    observability is changing behaviour."""
    outcomes: list[DifferentialOutcome] = []
    for name in names or benchmark_names() + list(EXTRA_PROGRAMS):
        program = _program(name)
        expected = reference(program)
        for lane in lanes:
            plan = lane.plan()
            kwargs = dict(lane.session_kwargs)
            if trace:
                kwargs.update(trace=True, metrics=True)
            with ExitStack() as cleanup:
                if lane.warm_cache:
                    tmpdir = tempfile.mkdtemp(prefix="majic-chaos-")
                    cleanup.callback(shutil.rmtree, tmpdir, ignore_errors=True)
                    backends.observe(program, "spec", cache_dir=tmpdir)
                    kwargs["cache_dir"] = tmpdir
                cleanup.enter_context(mock.patch.dict(os.environ, lane.env))
                # Every lane starts from a cold process-wide kernel cache:
                # the kernel-compile site only exists while a kernel is
                # being compiled, and the reference run and earlier lanes
                # would otherwise have compiled them all.
                KERNEL_CACHE.clear()
                with backends.open(
                    program, lane.backend, fault_plan=plan, **kwargs
                ) as handle:
                    diverged = expected.diff(handle.call())
            outcomes.append(
                DifferentialOutcome(
                    benchmark=name,
                    plan=lane.label,
                    diverged=diverged,
                    faults_fired=len(plan.fired) if plan is not None else 0,
                    events=handle.session.diagnostics.counts(),
                )
            )
    return outcomes


def run_differential(
    names: list[str] | None = None, background: bool = False
) -> list[DifferentialOutcome]:
    """The default (or worker-thread) sweep."""
    lanes = background_lanes() if background else default_lanes()
    return run_lanes(lanes, names)


def run_chaos(
    names: list[str] | None = None, trace: bool = False
) -> list[DifferentialOutcome]:
    """The supervision chaos sweep."""
    return run_lanes(chaos_scenarios(), names, trace)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run a small CI subset instead of the full suite",
    )
    parser.add_argument(
        "--background", action="store_true",
        help="route speculation through the worker pool and inject "
             "faults inside worker threads",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="run the supervision chaos sweep (hang/oom/cache "
             "corruption against the watchdog, the deopt net and the "
             "self-healing cache)",
    )
    parser.add_argument(
        "--parallel", action="store_true",
        help="run the parallel chaos sweep (dropped messages, hung/"
             "crashed/OOM-killed worker ranks with parallel=2)",
    )
    parser.add_argument(
        "--native", action="store_true",
        help="run the native-tier sweep (faults against the C compile, "
             ".so load and native run, plus a no-toolchain lane)",
    )
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the sweep outcomes as JSON (CI artifact)",
    )
    parser.add_argument("--benchmarks", nargs="*", default=None)
    parser.add_argument(
        "--trace", action="store_true",
        help="run a final observed (fault-free) pass with span tracing on "
             "and print the session summary; with --chaos/--parallel the "
             "sweep's faulted sessions also run traced (bit-identity must "
             "hold with the session's tracer on)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="run a final observed pass with the metrics registry on",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the observed pass's Chrome-trace JSON here",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the observed pass's Prometheus text exposition here",
    )
    options = parser.parse_args(argv)
    names = options.benchmarks
    if names is None and options.smoke:
        names = list(SMOKE_NAMES)
    sweep = next(
        (flag for flag in ("native", "parallel", "chaos", "background")
         if getattr(options, flag)),
        "default",
    )
    lanes = SWEEPS[sweep]()
    outcomes = run_lanes(
        lanes, names=names,
        trace=options.trace and sweep in ("chaos", "parallel"),
    )
    failures = 0
    for outcome in outcomes:
        print(outcome)
        failures += 0 if outcome.matches else 1
    print(
        f"{len(outcomes) - failures}/{len(outcomes)} differential runs "
        f"bit-identical to the interpreter"
    )
    # A lane whose faults never fire proves nothing about recovery: every
    # lane that carries fault specs must inject on some program of the run.
    exercised = {o.plan for o in outcomes if o.exercised}
    dead = [
        lane.label for lane in lanes
        if lane.specs and lane.label not in exercised
    ]
    if dead:
        print(f"lanes that injected no fault on any program: {dead}")
    if options.json_out:
        import json

        payload = {
            "sweep": sweep,
            "bit_identical": len(outcomes) - failures,
            "total": len(outcomes),
            "outcomes": [
                {
                    "benchmark": o.benchmark,
                    "plan": o.plan,
                    "matches": o.matches,
                    "faults_fired": o.faults_fired,
                    "events": o.events,
                }
                for o in outcomes
            ],
        }
        with open(options.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"outcomes written to {options.json_out}")
    trace = options.trace or options.trace_out is not None
    metrics = options.metrics or options.metrics_out is not None
    if trace or metrics:
        # One fault-free observed pass (background so worker spans show),
        # then the one-screen health report and the requested exports.
        observed = (names or benchmark_names())[0]
        program = _program(observed)
        with backends.open(
            program, "background",
            trace=trace, metrics=metrics,
        ) as handle:
            handle.call()
        session = handle.session
        print()
        print(f"observed pass: {observed}")
        print(session.summary())
        if options.trace_out:
            write_chrome_trace(session.obs.tracer, options.trace_out)
            print(f"trace written to {options.trace_out}")
        if options.metrics_out:
            write_prometheus(session.obs.metrics, options.metrics_out)
            print(f"metrics written to {options.metrics_out}")
    return 1 if failures or dead else 0


if __name__ == "__main__":
    raise SystemExit(main())
