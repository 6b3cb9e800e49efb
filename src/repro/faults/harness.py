"""Differential fault-injection harness.

Runs benchsuite programs under injected compile-time and runtime faults
and asserts the outputs stay **bit-identical** to the pure interpreter
baseline.  This is the executable statement of the paper's safety
property: compilation is an optimization, so no injected failure of the
compiled tier may change a program's result — the guarded repository must
absorb it (quarantine + interpreter re-execution) and record what
happened in ``session.diagnostics``.

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

from repro.benchsuite.registry import benchmark, benchmark_names, source_of
from repro.benchsuite.workloads import boxed_workload, checksum
from repro.core.majic import MajicSession, ensure_recursion_limit
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
from repro.frontend.parser import parse
from repro.interp.interpreter import Interpreter
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.display import OutputSink

_SEED = 12345

#: Benchmark scales small enough for a harness sweep to finish in seconds
#: (mirrors tests/conftest.py's TINY_SCALES without importing test code).
SMALL_SCALES = {
    "adapt": (8, 1e-4),
    "cgopt": (40, 1e-8, 60),
    "crnich": (15, 15, 1.0),
    "dirich": (10, 0.5, 4),
    "finedif": (16, 16, 1.0),
    "galrkn": (60,),
    "icn": (14,),
    "mei": (12, 6),
    "orbec": (150, 0.0005),
    "orbrk": (60, 0.002),
    "qmr": (40, 1e-8, 60),
    "sor": (30, 1.5, 1e-6, 80),
    "ackermann": (2, 2),
    "fractal": (200,),
    "mandel": (10, 12),
    "fibonacci": (10,),
}


@dataclass
class DifferentialOutcome:
    """One benchmark × fault-plan comparison against the interpreter."""

    benchmark: str
    plan: str
    matches: bool
    baseline: float
    faulted: float
    faults_fired: int
    events: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "OK " if self.matches else "FAIL"
        return (
            f"{status} {self.benchmark:<10} plan={self.plan:<14} "
            f"fired={self.faults_fired} events={self.events}"
        )


def _sources(name: str) -> list[str]:
    spec = benchmark(name)
    return [source_of(name)] + [source_of(h) for h in spec.helpers]


def interpreter_baseline(name: str, scale: tuple | None = None) -> float:
    """Checksum of one benchmark under the pure interpreter (ground truth)."""
    table = {}
    for text in _sources(name):
        for fn in parse(text).functions:
            table[fn.name] = fn
    interp = Interpreter(function_lookup=table.get, sink=OutputSink())
    ensure_recursion_limit(100_000)
    GLOBAL_RANDOM.seed(_SEED)
    args = boxed_workload(name, scale or SMALL_SCALES.get(name))
    outputs = interp.call_function(table[name], args, 1)
    return checksum(outputs[0]) if outputs else 0.0


def run_with_faults(
    name: str,
    plan: FaultPlan | None,
    scale: tuple | None = None,
    speculate: bool = False,
    background: bool = False,
    trace: bool = False,
    metrics: bool = False,
    **session_kwargs,
) -> tuple[float, MajicSession]:
    """Checksum of one benchmark under a (possibly faulted) session.

    ``background=True`` routes the speculative pass through the worker
    pool: faults then fire *inside worker threads*, and the bounded drain
    doubles as the no-deadlock assertion.  ``trace``/``metrics`` switch
    the session's observability recorders on (exported by ``main``).
    Extra keyword arguments pass through to :class:`MajicSession` — the
    chaos sweep uses this for ``sandbox``, ``run_deadline``,
    ``compile_deadline`` and ``cache_dir``.
    """
    session = MajicSession(
        seed=None,
        fault_plan=plan,
        background=background,
        trace=trace,
        metrics=metrics,
        **session_kwargs,
    )
    for text in _sources(name):
        session.add_source(text)
    if background:
        session.speculate_async()
        drained = session.drain_speculation(timeout=120)
        assert drained, f"background speculation deadlocked on '{name}'"
    elif speculate:
        session.speculate_all()
    GLOBAL_RANDOM.seed(_SEED)
    args = boxed_workload(name, scale or SMALL_SCALES.get(name))
    outputs = session.call_boxed(name, args, nargout=1)
    digest = checksum(outputs[0]) if outputs else 0.0
    session.close()
    return digest, session


@dataclass(frozen=True)
class Lane:
    """One row of a sweep: a fault schedule plus the session knobs and
    the preparation that arm the matching recovery mechanism."""

    label: str
    specs: tuple[FaultSpec, ...] = ()
    session_kwargs: dict = field(default_factory=dict)
    #: Run the speculative pass before the call (so spec-tier sites fire).
    speculate: bool = False
    #: ... through the worker pool: faults fire inside worker threads.
    background: bool = False
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
    from repro.tiering import TieringPolicy

    return [
        Lane("jit-compile", _one(FaultPlan.compile_fault(site="jit", hit=1))),
        Lane("spec-compile", _one(FaultPlan.compile_fault(site="spec", hit=1)),
             speculate=True),
        Lane("runtime-hit1", _one(FaultPlan.runtime_fault(helper="*", hit=1))),
        Lane("runtime-hit7", _one(FaultPlan.runtime_fault(helper="*", hit=7))),
        Lane("kernel-compile",
             _one(FaultPlan.kernel_fault(site=SITE_KERNEL_COMPILE, hit=1))),
        Lane("kernel-run",
             _one(FaultPlan.kernel_fault(site=SITE_KERNEL_RUN, hit=1))),
        # Adaptive-tiering lane: the first promotion compile dies; the
        # function must keep serving from its current tier.  The site only
        # exists under the adaptive controller; hair-trigger thresholds +
        # sync mode make the injected fault fire deterministically on the
        # first promotion attempt.
        Lane("tier-promote", _one(FaultPlan.tiering_fault(hit=1)),
             session_kwargs={
                 "adaptive": True,
                 "adaptive_sync": True,
                 "tiering": TieringPolicy(jit_threshold=1.0, spec_threshold=2.0),
             }),
    ]


def background_lanes() -> list[Lane]:
    """The worker-thread sweep: faults firing inside (or around) the
    background speculation pool."""
    return [
        Lane(label, _one(plan), background=True)
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
    injected fault is guaranteed to fire before the checksum is taken."""
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
            speculate=True,
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
        Lane(label, (spec,), session_kwargs={"parallel": 2, "resilience": policy})
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
    scales: dict[str, tuple] | None = None,
    trace: bool = False,
) -> list[DifferentialOutcome]:
    """Every benchmark × every lane, each compared with the pure
    interpreter's checksum.

    ``trace=True`` runs the faulted sessions with (distributed) tracing
    and metrics on — results must stay bit-identical with spans being
    recorded and shipped, or observability is changing behaviour."""
    names = names or benchmark_names()
    scales = scales or SMALL_SCALES
    outcomes: list[DifferentialOutcome] = []
    for name in names:
        scale = scales.get(name)
        baseline = interpreter_baseline(name, scale)
        for lane in lanes:
            plan = lane.plan()
            kwargs = dict(lane.session_kwargs)
            if trace:
                kwargs.update(trace=True, metrics=True)
            with ExitStack() as cleanup:
                if lane.warm_cache:
                    tmpdir = tempfile.mkdtemp(prefix="majic-chaos-")
                    cleanup.callback(shutil.rmtree, tmpdir, ignore_errors=True)
                    run_with_faults(
                        name, None, scale, speculate=True, cache_dir=tmpdir
                    )
                    kwargs["cache_dir"] = tmpdir
                cleanup.enter_context(mock.patch.dict(os.environ, lane.env))
                faulted, session = run_with_faults(
                    name, plan, scale, speculate=lane.speculate,
                    background=lane.background, **kwargs,
                )
            outcomes.append(
                DifferentialOutcome(
                    benchmark=name,
                    plan=lane.label,
                    matches=(faulted == baseline),
                    baseline=baseline,
                    faulted=faulted,
                    faults_fired=len(plan.fired) if plan is not None else 0,
                    events=session.diagnostics.counts(),
                )
            )
    return outcomes


def run_differential(
    names: list[str] | None = None,
    scales: dict[str, tuple] | None = None,
    background: bool = False,
) -> list[DifferentialOutcome]:
    """The default (or worker-thread) sweep."""
    lanes = background_lanes() if background else default_lanes()
    return run_lanes(lanes, names, scales)


def run_chaos(
    names: list[str] | None = None,
    scales: dict[str, tuple] | None = None,
    trace: bool = False,
) -> list[DifferentialOutcome]:
    """The supervision chaos sweep."""
    return run_lanes(chaos_scenarios(), names, scales, trace)


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
        # The native smoke list leads with benchmarks whose fused kernels
        # actually reach the native tier, so the injected faults fire.
        if options.native:
            names = ["orbec", "sor", "fibonacci", "fractal"]
        else:
            names = ["fibonacci", "dirich", "cgopt", "fractal"]
    sweep = next(
        (flag for flag in ("native", "parallel", "chaos", "background")
         if getattr(options, flag)),
        "default",
    )
    outcomes = run_lanes(
        SWEEPS[sweep](), names=names,
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
        digest, session = run_with_faults(
            observed, plan=None, background=True, trace=trace, metrics=metrics
        )
        print()
        print(f"observed pass: {observed} (checksum {digest})")
        print(session.summary())
        if options.trace_out:
            with open(options.trace_out, "w", encoding="utf-8") as handle:
                handle.write(session.trace_json())
            print(f"trace written to {options.trace_out}")
        if options.metrics_out:
            with open(options.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(session.metrics_text())
            print(f"metrics written to {options.metrics_out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
