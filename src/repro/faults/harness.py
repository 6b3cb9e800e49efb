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
(:mod:`repro.resilience`): injected hangs cancelled by the watchdog,
crashes and OOM kills absorbed by the sandbox trial, corrupted and torn
cache entries healed by quarantine-and-rebuild.  Same contract — every
run must stay bit-identical to the interpreter, because every recovery
path ends in interpreter re-execution.

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
    BEHAVIOR_OOM,
    FaultPlan,
    FaultSpec,
    SITE_CACHE_CORRUPT,
    SITE_CACHE_PARTIAL,
    SITE_CRASH,
    SITE_HANG,
    SITE_JIT,
    SITE_NATIVE_COMPILE,
    SITE_NATIVE_LOAD,
    SITE_NATIVE_RUN,
    SITE_OOM,
    SITE_PARALLEL_SEND,
    SITE_PARALLEL_WORKER,
)
from repro.kernels import KERNEL_CACHE
from repro.obs import write_chrome_trace, write_prometheus
from repro.repository.diagnostics import PARALLEL_RESTART

#: The ``--smoke`` subset: recursion, scalar loops, a builtin solver, the
#: one ``rand`` user, and ``orbrk`` — two functions (so a second worker
#: task exists), fused kernels that reach the native tier — so that every
#: lane of every sweep has a program it can fire on.
SMOKE_NAMES = ("fibonacci", "dirich", "cgopt", "fractal", "orbrk")


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
            f"{status} {self.benchmark:<10} plan={self.plan:<14} "
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


def _one(plan: FaultPlan) -> tuple[FaultSpec, ...]:
    return tuple(plan.specs)


def default_lanes() -> list[Lane]:
    """The standard sweep: one compile-time and one runtime fault each,
    against both tiers of the compiled path, plus faults in the fused
    elementwise kernel compiler and the kernels it emits."""
    from repro.faults.plan import SITE_KERNEL_COMPILE, SITE_KERNEL_RUN

    return [
        Lane("jit-compile", _one(FaultPlan.compile_fault(site="jit", hit=1))),
        Lane("spec-compile", _one(FaultPlan.compile_fault(site="spec", hit=1)),
             backend="spec"),
        Lane("runtime-hit1", _one(FaultPlan.runtime_fault(helper="*", hit=1))),
        Lane("runtime-hit7", _one(FaultPlan.runtime_fault(helper="*", hit=7))),
        Lane("kernel-compile",
             _one(FaultPlan.kernel_fault(site=SITE_KERNEL_COMPILE, hit=1))),
        Lane("kernel-run",
             _one(FaultPlan.kernel_fault(site=SITE_KERNEL_RUN, hit=1))),
        # Adaptive-tiering lane: the first promotion compile dies; the
        # function must keep serving from its current tier.  The site only
        # exists under the adaptive controller; the ``adaptive`` row's
        # hair-trigger thresholds + sync mode make the injected fault fire
        # deterministically on the first promotion attempt.
        Lane("tier-promote", _one(FaultPlan.tiering_fault(hit=1)),
             backend="adaptive"),
    ]


def background_lanes() -> list[Lane]:
    """The worker-thread sweep: faults firing inside (or around) the
    background speculation pool."""
    return [
        Lane(label, _one(plan), backend="background")
        for label, plan in (
            ("worker-hit1", FaultPlan.worker_fault(hit=1)),
            ("worker-hit2", FaultPlan.worker_fault(hit=2)),
            ("spec-in-worker", FaultPlan.compile_fault(site="spec", hit=1)),
            ("runtime-hit1", FaultPlan.runtime_fault(helper="*", hit=1)),
        )
    ]


def native_lanes() -> list[Lane]:
    """The native-tier sweep: faults against the C compile, the ``.so``
    load and the first native run — every one must deoptimize back onto
    the Python fused kernels without changing a single bit — plus one
    fault-free lane with the toolchain disabled entirely.  Sessions run
    with ``native_sync`` so the compile happens on the hot path and the
    injected fault is guaranteed to fire before the call is observed."""
    kwargs = {
        "native": True, "native_sync": True, "native_hot_threshold": 1,
        # The sweep's small scales would mostly duck under the size
        # cutoff; forcing it to 1 keeps real native runs in the loop.
        "native_min_elems": 1,
    }
    return [
        Lane(f"native-{what}", _one(FaultPlan.native_fault(site=site, hit=1)),
             session_kwargs=kwargs)
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
    """The chaos sweep: hang/crash/oom/corruption against every recovery
    tier.  Deadlines are short so the 64-run sweep stays CI-sized."""
    return [
        Lane(
            label="hang-run",
            specs=(FaultSpec(site=SITE_HANG, hits=(1,), behavior=BEHAVIOR_HANG),),
            session_kwargs={"run_deadline": 0.25},
        ),
        Lane(
            label="hang-compile",
            specs=(FaultSpec(site=SITE_JIT, hits=(1,), behavior=BEHAVIOR_HANG),),
            session_kwargs={"compile_deadline": 0.25},
        ),
        Lane(
            label="sandbox-crash-oom",
            specs=(
                FaultSpec(site=SITE_CRASH, hits=(1,), behavior=BEHAVIOR_CRASH),
                FaultSpec(site=SITE_OOM, hits=(2,), behavior=BEHAVIOR_OOM),
            ),
            session_kwargs={"sandbox": True, "sandbox_timeout": 15.0},
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
    ]


def parallel_scenarios() -> list[Lane]:
    """The parallel sweep: MatlabMPI-backend faults against every
    benchmark with two worker ranks.  Dropped messages surface as recv
    timeouts, hung ranks are killed and respawned, crashed ranks die for
    real (``os._exit``) and OOM kills are absorbed as error replies —
    all four must degrade into the serial fallback bit-identically."""
    from repro.resilience import ResiliencePolicy

    policy = ResiliencePolicy(parallel_recv_timeout=1.5)
    return [
        Lane(label, (spec,), {"resilience": policy}, backend="parallel")
        for label, spec in (
            ("msg-dropped", FaultSpec(site=SITE_PARALLEL_SEND, hits=(1,))),
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

    ``trace=True`` runs the faulted sessions with (distributed) tracing
    and metrics on — results must stay bit-identical with spans being
    recorded and shipped, or observability is changing behaviour."""
    outcomes: list[DifferentialOutcome] = []
    for name in names or benchmark_names():
        program = Program.benchmark(name)
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
        help="run the supervision chaos sweep (hang/crash/oom/cache "
             "corruption against the watchdog, sandbox and self-healing "
             "cache)",
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
             "hold with distributed tracing enabled)",
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
        with backends.open(
            Program.benchmark(observed), "background",
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
