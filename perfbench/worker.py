"""One measuring process of a benchmark run.

``bench.py`` starts several of these per untraced run, one after the
other, each under a different (fixed) ``PYTHONHASHSEED``: a process
start is what ``setup_s`` measures, and pooling samples over processes
keeps one process's memory layout or hash order from deciding a result.

The worker sets up (imports, seeded inputs, sources, a cache directory
holding every program's JIT object, a warmed native session per
program), then samples *cells* -- a program under a mode -- round-robin
until its time budget is spent, checking every timed call against the
interpreter's observation.  It prints one JSON object as its last line
of standard output.  With ``--trace 1`` it runs the layer probes of
``layers.py`` instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def monotonic() -> float:
    """The system-wide monotonic clock: comparable across processes,
    which ``setup_s`` (parent's spawn time to first sample) relies on."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def pin_to_one_core() -> set[int]:
    """Pin to the highest allowed CPU; returns the CPUs that were
    allowed before (empty where the platform cannot pin)."""
    if not hasattr(os, "sched_setaffinity"):
        return set()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def quiesce_gc() -> None:
    """Before a timed region: collect the young generations (a full
    collection per batch would cost more than the batch once sessions
    pile up; ``run_untraced`` does one per round) and switch the
    collector off so it cannot pause the batch."""
    gc.collect(1)
    gc.disable()


class Probe:
    """Calibration loops that tell how fast the machine is right now.

    This sandbox's speed is not constant: for seconds or minutes at a
    time the same code runs 1.4-1.7x slower (a neighbour's load), so
    neither the median nor the fastest of a run's samples repeats from
    run to run.  Two fixed loops, none of them code of the system under
    test, are timed right before and after every sample:

    * ``cpu``: attribute and dict access, small allocations, a 1x3 array
      add -- the instruction mix of the compilers, the interpreter and
      code they emit;
    * ``memory``: fused arithmetic over 65536-element arrays, which the
      same neighbour slows by about half as much.

    A sample is scaled by reference / reading of the loop that matches
    what bounds it (``scale``): a time is reported as it would be with
    the machine at reference speed.  On the CPU-bound workloads this
    takes the run-to-run spread from 3-8 % (fastest sample) and 10-30 %
    (median) down to 1-3 %.
    """

    #: The loops' usual readings on the sandbox the baseline was taken
    #: on, in its fast state.  On another machine every metric is scaled
    #: by that machine's own readings, the same way for both sides of
    #: any comparison.
    REFERENCE_S = {"cpu": 140e-6, "memory": 220e-6}

    #: Share of a sample that runs the program (the rest compiles it);
    #: only this share of a memory-bound program follows ``memory``.
    RUN_SHARE = {
        "interp": 1.0, "jit_steady": 1.0, "spec_steady": 1.0,
        "native_steady": 1.0, "jit_first_call": 0.5, "warm_first_call": 0.5,
        "spec_compile": 0.0,
    }

    class _Box:
        __slots__ = ("a", "b")

        def __init__(self, a, b):
            self.a, self.b = a, b

    def __init__(self):
        import numpy

        self._small = numpy.ones((1, 3))
        rng = numpy.random.default_rng(0)
        self._large = [rng.random((1, 65536)) for _ in range(3)]

    def _cpu(self) -> float:
        box, small = self._Box, self._small
        table, acc = {}, 0.0
        start = time.perf_counter()
        for i in range(150):
            item = box(float(i), small)
            table[i & 15] = item
            acc += item.a * 0.5
            total = item.b + small
            acc += len([i, acc, total]) + total[0, 0]
        return time.perf_counter() - start

    def _memory(self) -> float:
        a, b, c = self._large
        start = time.perf_counter()
        x = a + 0.5 * b - 0.25 * c
        x - 0.5 * c + 0.25 * a
        return time.perf_counter() - start

    def read(self, memory: bool = False) -> tuple[float, float]:
        """``(cpu, memory)`` readings, each the fastest of three loops
        (the first runs on whatever the sample left of the caches); the
        memory loop only runs on request."""
        loop = self._cpu
        cpu = min(loop(), loop(), loop())
        if not memory:
            return cpu, 0.0
        loop = self._memory
        return cpu, min(loop(), loop(), loop())

    def scale(self, before, after, memory_share: float = 0.0) -> float:
        """Factor that takes what ran between two readings to reference
        speed; ``memory_share`` of it follows the memory loop."""
        reference = self.REFERENCE_S
        factor = 2 * reference["cpu"] / (before[0] + after[0])
        if memory_share:
            memory = 2 * reference["memory"] / (before[1] + after[1])
            factor = factor ** (1 - memory_share) * memory ** memory_share
        return factor


#: Modes sampled per program, in round-robin order.
MODES = (
    "interp", "jit_first_call", "jit_steady", "spec_compile", "spec_steady",
    "native_steady", "warm_first_call",
)


class Cell:
    """One program of the workload with everything sampling it needs."""

    def __init__(self, program, args, functions):
        self.program = program
        self.name = program.name
        self.args = args
        self.functions = functions       # name -> FunctionDef (interpreter)
        self.reference = None            # the interpreter's observation
        self.sessions = {}               # steady mode -> resident session


class Bench:
    """Set-up plus the per-cell sample functions of one worker."""

    def __init__(self, workload, seed: int, workdir: Path,
                 allowed_cpus=frozenset(), expected_path=None):
        from repro.core.majic import ensure_recursion_limit
        from repro.frontend.parser import parse
        from repro.runtime.values import from_python
        from workloads import program_rng

        ensure_recursion_limit(100_000)
        self.workload = workload
        self.seed = int(seed)
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.expected_path = expected_path   # None: the committed file
        self.expected_checked = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cells: list[Cell] = []
        for program in workload.programs:
            functions = {
                fn.name: fn
                for text in program.sources for fn in parse(text).functions
            }
            rng = program_rng(seed, workload.name, program.name)
            args = [from_python(value) for value in program.args(rng)]
            self.cells.append(Cell(program, args, functions))
        self.allowed_cpus = set(allowed_cpus)
        self.nproc = os.cpu_count() or 1
        self.workers = max(1, self.nproc - 1)

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def session(self, cells, **kwargs):
        """A fresh untraced session holding the sources of ``cells``."""
        from repro.core.majic import MajicSession

        kwargs.setdefault("trace", False)
        kwargs.setdefault("metrics", False)
        session = MajicSession(seed=None, **kwargs)
        for cell in cells:
            for text in cell.program.sources:
                session.add_source(text)
        return session

    def reseed(self) -> None:
        from repro.runtime.builtins import GLOBAL_RANDOM

        GLOBAL_RANDOM.seed(self.seed)

    def fail(self, where: str, why: str, count: int = 1) -> None:
        """Count ``count`` failed operations and name the cell once."""
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(f"{where}: {why}")

    def check(self, where, outputs_list, transcript, reference) -> None:
        """Compare every call of a batch with the interpreter's
        observation: value bytes per call, transcript and random-stream
        post-state once for the batch."""
        from oracle import rng_state, value_bytes

        want_values, want_text, want_rng = reference
        self.attempted += len(outputs_list)
        bad = sum(
            tuple(value_bytes(v) for v in outputs) != want_values
            for outputs in outputs_list
        )
        if bad:
            self.fail(where, f"{bad} of {len(outputs_list)} results differ", bad)
        elif transcript != want_text * len(outputs_list):
            self.fail(where, "display transcript differs")
        elif rng_state() != want_rng:
            self.fail(where, "random-stream post-state differs")

    def call_batch(self, session, cell: Cell, calls: int, where: str,
                   region=nullcontext):
        """``calls`` timed back-to-back calls on a resident session, all
        checked; returns the elapsed seconds.  ``region`` wraps exactly
        the timed part (the traced run opens a flow there)."""
        name, args = cell.name, cell.args
        call = session.call_boxed
        session.sink.clear()
        outputs_list = []
        keep = outputs_list.append
        self.reseed()
        quiesce_gc()
        try:
            if cell.program.randomized:
                from repro.runtime.builtins import GLOBAL_RANDOM

                seed, reseed = self.seed, GLOBAL_RANDOM.seed
                with region():
                    start = time.perf_counter()
                    for _ in range(calls):
                        reseed(seed)
                        keep(call(name, args, nargout=1))
                    elapsed = time.perf_counter() - start
            else:
                with region():
                    start = time.perf_counter()
                    for _ in range(calls):
                        keep(call(name, args, nargout=1))
                    elapsed = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a raise is a failed op
            elapsed = time.perf_counter() - start
            self.attempted += calls - len(outputs_list)
            self.fail(where, f"raised {exc!r}", calls - len(outputs_list))
        finally:
            gc.enable()
        self.check(where, outputs_list, session.output(), cell.reference)
        return elapsed

    def first_call(self, cell: Cell, where: str, region=nullcontext,
                   **kwargs):
        """Fresh session: construction + add_source + first call, timed
        together; returns ``(seconds, session or None)``."""
        from repro.kernels import KERNEL_CACHE

        KERNEL_CACHE.clear()   # a fresh process has compiled no kernel
        self.reseed()
        quiesce_gc()
        session = None
        outputs_list = []
        try:
            with region():
                start = time.perf_counter()
                session = self.session([cell], **kwargs)
                outputs_list.append(
                    session.call_boxed(cell.name, cell.args, nargout=1))
                elapsed = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001
            elapsed = time.perf_counter() - start
            self.attempted += 1
            self.fail(where, f"raised {exc!r}")
        finally:
            gc.enable()
        if session is not None:
            self.check(where, outputs_list, session.output(), cell.reference)
        return elapsed, session

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def interpret(self, cell: Cell, fusion: bool = True):
        """One interpreted program run; returns (seconds, observation)."""
        from oracle import observe
        from repro.interp.interpreter import Interpreter
        from repro.runtime.display import OutputSink

        repeat = cell.program.repeat
        sink = OutputSink()
        interp = Interpreter(
            function_lookup=cell.functions.get, sink=sink, fusion=fusion)
        fn, args = cell.functions[cell.name], cell.args
        self.reseed()
        quiesce_gc()
        try:
            start = time.perf_counter()
            for _ in range(repeat):
                outputs = interp.call_function(fn, args, 1)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        # Calls of a run are identical, so one call printed 1/repeat of it.
        text = sink.getvalue()
        return elapsed, observe(outputs, text[: len(text) // repeat])

    def prepare(self) -> None:
        """Untimed set-up: the interpreter's reference observation of
        every program, and per program a warmed ``native=True`` session
        whose cache directory ends up holding every JIT object."""
        self.take_references()
        self.prepare_native()

    def prepare_native(self) -> None:
        for cell in self.cells:
            cell.sessions["native_steady"] = self.native_session(cell)

    def native_session(self, cell: Cell):
        """A ``native=True`` session over the shared cache directory,
        called until its hot kernels are served from C."""
        session = self.session(
            [cell], native=True, cache_dir=str(self.cache_dir),
            workers=self.workers,
        )
        # Two dispatches heat a kernel past native_hot_threshold, the
        # drain lets its background C compile (or load) land, the third
        # call binds the loaded kernel.
        for _ in range(3):
            self.reseed()
            session.call_boxed(cell.name, cell.args, nargout=1)
            session.drain_speculation(timeout=120)
        return session

    def take_references(self) -> None:
        """Interpret every program once for its reference, and hold it
        against the committed digest where ``expected.json`` has this
        seed."""
        from oracle import EXPECTED_PATH, digest, expected_for, load_expected

        expected = expected_for(
            load_expected(self.expected_path or EXPECTED_PATH),
            self.seed, self.workload.name)
        for cell in self.cells:
            _, cell.reference = self.interpret(cell)
            self.attempted += 1
            want = expected.get(cell.name)
            if want is None:
                continue
            self.expected_checked += 1
            if digest(cell.reference) != want:
                self.fail(f"{cell.name}/interp", "differs from expected.json")

    # ------------------------------------------------------------------
    # Timed samples: each returns seconds per program run (or per
    # operation) and checks what it ran.
    # ------------------------------------------------------------------
    def sample_interp(self, cell: Cell) -> float:
        elapsed, observation = self.interpret(cell)
        self.attempted += cell.program.repeat
        if observation != cell.reference:
            self.fail(f"{cell.name}/interp", "interpreter is not repeatable")
        return elapsed

    def sample_jit_first_call(self, cell: Cell) -> float:
        elapsed, session = self.first_call(cell, f"{cell.name}/jit_first_call")
        if session is not None:
            if "jit_steady" in cell.sessions:
                session.close()
            else:
                cell.sessions["jit_steady"] = session
        return elapsed

    def sample_warm_first_call(self, cell: Cell) -> float:
        where = f"{cell.name}/warm_first_call"
        elapsed, session = self.first_call(
            cell, where, cache_dir=str(self.cache_dir))
        if session is not None:
            stats = session.stats
            if stats.jit_compiles or not stats.cache_hits:
                self.fail(where, "served by a compile, not by the disk cache")
            session.close()
        return elapsed

    def sample_spec_compile(self, cell: Cell) -> float:
        from repro.kernels import KERNEL_CACHE

        where = f"{cell.name}/spec_compile"
        KERNEL_CACHE.clear()
        session = self.session([cell])
        self.attempted += 1
        quiesce_gc()
        try:
            start = time.perf_counter()
            session.speculate_all()
            elapsed = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001
            elapsed = time.perf_counter() - start
            self.fail(where, f"raised {exc!r}")
        finally:
            gc.enable()
        if "spec_steady" in cell.sessions:
            session.close()
        else:
            # Untimed first call: binds the kernels before the next
            # KERNEL_CACHE.clear() and fills the hot-call cache.
            self.reseed()
            session.call_boxed(cell.name, cell.args, nargout=1)
            cell.sessions["spec_steady"] = session
        return elapsed

    def sample_steady(self, cell: Cell, mode: str) -> float:
        program = cell.program
        elapsed = self.call_batch(
            cell.sessions[mode], cell, program.calls * program.repeat,
            f"{cell.name}/{mode}")
        return elapsed / program.calls

    def close(self) -> None:
        for cell in self.cells:
            for session in cell.sessions.values():
                session.close()
            cell.sessions.clear()


# ----------------------------------------------------------------------
# The untraced run
# ----------------------------------------------------------------------
def run_untraced(bench: Bench, probe: Probe, deadline: float) -> dict:
    """Sample every cell round-robin until ``deadline`` (monotonic).

    Every sample is stored as ``[seconds, scaled seconds]``, scaled by
    the probe readings right before and after it (see ``Probe``).  The
    first round is always completed (it creates the resident sessions
    the steady modes run on); after it, sampling stops at the first cell
    that would start past the deadline.
    """
    samples = {
        mode: {cell.name: [] for cell in bench.cells} for mode in MODES
    }
    samplers = {
        "interp": bench.sample_interp,
        "jit_first_call": bench.sample_jit_first_call,
        "spec_compile": bench.sample_spec_compile,
        "warm_first_call": bench.sample_warm_first_call,
    }
    rounds = 0
    while True:
        for mode in MODES:
            sampler = samplers.get(mode)
            for cell in bench.cells:
                if rounds and monotonic() >= deadline:
                    return {"samples": samples, "rounds": rounds}
                memory = cell.program.memory_bound
                before = probe.read(memory)
                seconds = (sampler(cell) if sampler
                           else bench.sample_steady(cell, mode))
                factor = probe.scale(
                    before, probe.read(memory),
                    Probe.RUN_SHARE[mode] if memory else 0.0)
                samples[mode][cell.name].append([seconds, seconds * factor])
        gc.collect()
        if not rounds:
            gc.freeze()   # the resident sessions exist now
        rounds += 1


def environment(bench: Bench) -> dict:
    import platform

    import numpy

    from repro.native import detect_toolchain

    toolchain = detect_toolchain()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": bench.nproc,
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else [],
        "workers": bench.workers,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "toolchain": toolchain.ident if toolchain else "none",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of sampling for this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC when the parent spawned us")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    options = parser.parse_args(argv)

    allowed = pin_to_one_core()
    probe = Probe()
    first_reading = probe.read()
    from workloads import WORKLOADS

    workdir = Path(options.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(WORKLOADS[options.workload], options.seed, workdir, allowed)
    try:
        if options.trace:
            from layers import run_traced

            setup = None
            body = run_traced(bench, options.trace_out)
        else:
            bench.prepare()
            gc.collect()
            gc.freeze()   # set-up objects stay out of later collections
            # Like any sample, scaled to reference speed: by the probe
            # read as the process started and as set-up ended.
            seconds = monotonic() - options.t0
            setup = [seconds,
                     seconds * probe.scale(first_reading, probe.read())]
            body = run_untraced(bench, probe, monotonic() + options.budget)
    finally:
        bench.close()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "setup": setup,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "expected_checked": bench.expected_checked,
        "call_counts": {
            cell.name: {"calls": cell.program.calls,
                        "repeat": cell.program.repeat}
            for cell in bench.cells
        },
        "env": environment(bench),
        **body,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
