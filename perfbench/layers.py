"""The traced run: per-layer metrics, measured from outside.

Two kinds of measurement, both through public functions only:

* *probes* call a layer's public API directly -- on the workload's own
  programs where the layer sees them (front end, analysis, inference,
  code generators, repository cache, tiering), on a fixed micro-input
  where the metric is a property of the layer alone (``runtime.*``,
  ``repository.dispatch_us``, ``parallel.*``, the kernel and native
  compilers, which always include the three kernels of ``qmr_axpy`` so
  that they never time an empty set);
* *spans* come from ``spans.install``: the ``jit_first_call`` and
  ``jit_steady`` flows of every program are run once plainly and once
  under the recorder, which gives each layer's share of the flow
  (Figure 6 of the paper, for every workload) and the tracing overhead.

Every probe runs before the wrappers are installed.  Numbers here have
no regression bound; they explain the end-to-end ones.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from spans import END, FLOW, LAYERS, NAME, START, Recorder, install
from worker import Bench, Cell, quiesce_gc
from workloads import PROGRAMS_DIR, STREAM_ROUNDS, program_rng

REPEATS = 3


def best_of(fn, repeats: int = REPEATS, before=None) -> float:
    """Fastest of ``repeats`` timings of ``fn()`` (``before`` runs
    untimed ahead of each)."""
    best = float("inf")
    for _ in range(repeats):
        if before is not None:
            before()
        quiesce_gc()
        try:
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


class Layers:
    def __init__(self, bench: Bench):
        self.bench = bench
        self.cells = bench.cells
        self.metrics: dict[str, dict] = {}
        self.nulls: dict[str, str] = {}

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def null(self, names, units, reason: str) -> None:
        """A metric whose prerequisite is missing: ``null`` with the
        reason in the result file, 0 on the driver's line (which carries
        numbers only)."""
        for name, unit in zip(names, units):
            self.put(name, 0.0, unit)
            self.nulls[name] = reason

    # ------------------------------------------------------------------
    # Sources and fresh ASTs
    # ------------------------------------------------------------------
    def texts(self) -> list[str]:
        seen, out = set(), []
        for cell in self.cells:
            for text in cell.program.sources:
                if text not in seen:
                    seen.add(text)
                    out.append(text)
        return out

    def fresh_functions(self) -> dict:
        """Newly parsed FunctionDefs (disambiguation annotates in place)."""
        from repro.frontend.parser import parse

        return {
            fn.name: fn
            for text in self.texts() for fn in parse(text).functions
        }

    # ------------------------------------------------------------------
    # Compile-side probes
    # ------------------------------------------------------------------
    def frontend(self) -> None:
        from repro.frontend import ast_nodes as ast
        from repro.frontend.lexer import tokenize
        from repro.frontend.parser import parse

        texts = self.texts()
        self.put("frontend.tokenize_s",
                 best_of(lambda: [tokenize(t) for t in texts]), "s")
        self.put("frontend.parse_s",
                 best_of(lambda: [parse(t) for t in texts]), "s")
        nodes = 0
        for fn in self.fresh_functions().values():
            for stmt in ast.walk_stmts(fn.body):
                nodes += 1
                for expr in ast.stmt_exprs(stmt):
                    nodes += sum(1 for _ in ast.walk_expr(expr))
        self.put("frontend.ast_nodes", nodes, "count")

    def analysis_and_inference(self) -> None:
        from repro.analysis.disambiguate import disambiguate_function
        from repro.inference.engine import infer_function
        from repro.inference.speculation import speculate_signature
        from repro.typesys.signature import signature_of_values

        state = {}

        def reparse():
            state["functions"] = self.fresh_functions()
            state["known"] = state["functions"].__contains__

        def disambiguate():
            state["results"] = {
                name: disambiguate_function(fn, state["known"])
                for name, fn in state["functions"].items()
            }

        self.put("analysis.disambiguate_s",
                 best_of(disambiguate, before=reparse), "s")
        self.put("analysis.ambiguous_fns", sum(
            result.has_ambiguous for result in state["results"].values()
        ), "count")

        def infer():
            state["annotations"] = [
                infer_function(
                    state["functions"][cell.name],
                    signature_of_values(cell.args),
                    disambiguation=state["results"][cell.name],
                )
                for cell in self.cells
            ]

        def reanalyse():
            reparse()
            disambiguate()

        self.put("inference.infer_s", best_of(infer, before=reanalyse), "s")
        loads = checked = 0
        for annotations in state["annotations"]:
            stats = annotations.stats()
            loads += stats["safe_loads"] + stats["checked_loads"]
            checked += stats["checked_loads"]
        self.put("inference.checked_load_frac",
                 checked / loads if loads else 0.0, "ratio")
        self.put("inference.speculate_s", best_of(
            lambda: [speculate_signature(fn)
                     for fn in state["functions"].values()],
            before=reparse), "s")

    def codegen(self, jit_sessions) -> list:
        """Compile cost and code size of both code generators, read off
        sessions that compiled the workload; returns the JIT objects."""
        bench = self.bench
        phases = {"disambiguation": 0.0, "type_inference": 0.0, "codegen": 0.0}
        jit_seconds = 0.0
        objects = []
        for session in jit_sessions:
            repo = session.repository
            jit_seconds += session.stats.jit_compile_seconds
            for _, mode, times in repo.compile_log:
                if mode == "jit":
                    for phase in phases:
                        phases[phase] += getattr(times, phase)
            for name in repo.function_names():
                objects += [v for v in repo.versions_of(name)
                            if v.mode == "jit"]
        self.put("codegen.jit_compile_s", jit_seconds, "s")
        self.put("codegen.jit.disamb_s", phases["disambiguation"], "s")
        self.put("codegen.jit.infer_s", phases["type_inference"], "s")
        self.put("codegen.jit.codegen_s", phases["codegen"], "s")
        self.put("codegen.jit_source_bytes",
                 sum(len(o.source) for o in objects), "count")
        self.put("codegen.fused_kernels",
                 sum(len(o.kernel_sources) for o in objects), "count")
        self.put("vcode.icode_instrs",
                 sum(o.emitted.instruction_count for o in objects), "count")
        self.put("vcode.spilled_vregs",
                 sum(o.emitted.spill_count for o in objects), "count")

        src_seconds, src_bytes, spec_compiles, failures = 0.0, 0, 0, 0
        for cell in self.cells:
            session = bench.session([cell])
            session.speculate_all()
            stats = session.stats
            src_seconds += stats.speculative_compile_seconds
            spec_compiles += stats.speculative_compiles
            failures += stats.compile_failures
            repo = session.repository
            for name in repo.function_names():
                src_bytes += sum(len(v.source) for v in repo.versions_of(name))
            session.close()
        self.put("codegen.src_compile_s", src_seconds, "s")
        self.put("codegen.src_source_bytes", src_bytes, "count")
        self.put("repository.spec_compiles", spec_compiles, "count")
        self.spec_failures = failures
        return objects

    def unfused(self) -> None:
        total = 0.0
        for cell in self.cells:
            session = self.bench.session([cell], fusion=False)
            self.bench.reseed()
            session.call_boxed(cell.name, cell.args, nargout=1)
            calls = cell.program.calls * cell.program.repeat
            total += min(
                self.bench.call_batch(
                    session, cell, calls, f"{cell.name}/unfused")
                for _ in range(REPEATS)
            ) / cell.program.calls
            session.close()
        self.put("codegen.unfused_steady_s", total, "s")

    # ------------------------------------------------------------------
    # Kernels and the native tier
    # ------------------------------------------------------------------
    def probe_kernel_keys(self) -> dict:
        """Kernel keys of ``qmr_axpy`` (three AXPY chains and a sum)."""
        from repro.runtime.values import from_python

        text = (PROGRAMS_DIR / "qmr_axpy.m").read_text()
        rng = program_rng(0, "probe", "qmr_axpy")
        args = [from_python(v) for v in (
            rng.random((1, 64)), rng.random((1, 64)), rng.random((1, 64)),
            0.0005, 0.0003, 2)]
        from repro.core.majic import MajicSession

        session = MajicSession(seed=None)
        session.add_source(text)
        session.call_boxed("qmr_axpy", args, nargout=1)
        keys = {}
        for version in session.repository.versions_of("qmr_axpy"):
            keys.update(version.kernel_keys)
        session.close()
        return keys

    def kernels(self, objects) -> None:
        from repro.kernels import KERNEL_CACHE
        from repro.kernels.fusion import decode

        own = {}
        for obj in objects:
            own.update(obj.kernel_keys)
        probe = self.probe_kernel_keys()
        trees = [decode(key) for key in {**probe, **own}.values()]
        self.put("kernels.compile_s", best_of(
            lambda: [KERNEL_CACHE.get_or_compile(root, descs)
                     for root, descs in trees],
            before=KERNEL_CACHE.clear), "s")
        self.put("kernels.count", len(own), "count")
        # A second session per program over the now-warm cache.
        before = KERNEL_CACHE.stats()
        for cell in self.cells:
            session = self.bench.session([cell])
            self.bench.reseed()
            session.call_boxed(cell.name, cell.args, nargout=1)
            session.close()
        after = KERNEL_CACHE.stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        self.put("kernels.cache_hit_frac",
                 hits / (hits + misses) if hits + misses else 1.0, "ratio")
        self.put("kernels.evictions", after["evictions"], "count")
        self.probe_keys = probe

    def native(self) -> None:
        from repro.native import (
            NativeArtifactStore, NativeEngine, detect_toolchain,
        )

        bench = self.bench
        names = ("native.compile_s", "native.runs", "native.fallbacks",
                 "native.cached_loads", "native.served_frac")
        units = ("s", "count", "count", "count", "ratio")
        if detect_toolchain() is None:
            self.null(names, units, "no C toolchain (detect_toolchain)")
            return
        store_dir = tempfile.mkdtemp(prefix="native-probe-", dir=bench.workdir)
        engine = NativeEngine(store=NativeArtifactStore(store_dir), sync=True)
        start = time.perf_counter()
        for name, key in self.probe_keys.items():
            engine.compile_now(name, key)
        self.put("native.compile_s", time.perf_counter() - start, "s")
        shutil.rmtree(store_dir, ignore_errors=True)

        # The workload's own native sessions: bench.prepare() compiled
        # into the artifact store; a second session per program loads.
        runs = fallbacks = cached = 0
        for cell in self.cells:
            session = bench.native_session(cell)
            bench.call_batch(
                session, cell, cell.program.calls * cell.program.repeat,
                f"{cell.name}/native")
            stats = session.native.stats()
            runs += stats["runs"]
            fallbacks += stats["fallbacks"]
            cached += stats["cached"]
            session.close()
        self.put("native.runs", runs, "count")
        self.put("native.fallbacks", fallbacks, "count")
        self.put("native.cached_loads", cached, "count")
        self.put("native.served_frac",
                 runs / (runs + fallbacks) if runs else 0.0, "ratio")

    # ------------------------------------------------------------------
    # Repository
    # ------------------------------------------------------------------
    def host_session(self, **kwargs):
        """A session holding only the empty ``dispatch_host``."""
        from repro.core.majic import MajicSession

        kwargs.setdefault("seed", None)
        session = MajicSession(**kwargs)
        session.add_source((PROGRAMS_DIR / "dispatch_host.m").read_text())
        session.call_boxed("dispatch_host", [], nargout=1)
        return session

    @staticmethod
    def per_call_us(session, calls: int = 1000) -> float:
        call = session.call_boxed

        def batch():
            for _ in range(calls):
                call("dispatch_host", [], nargout=1)

        return best_of(batch, repeats=5) / calls * 1e6

    def dispatch(self, jit_session, cell: Cell) -> None:
        from repro.interp.frontend import Invocation

        plain = self.host_session()
        self.plain_us = self.per_call_us(plain)
        plain.close()
        self.put("repository.dispatch_us", self.plain_us, "us")
        locate = jit_session.repository.locate
        invocation = Invocation(name=cell.name, args=cell.args, nargout=1)

        def batch():
            for _ in range(1000):
                locate(invocation)

        self.put("repository.locate_us", best_of(batch) / 1000 * 1e6, "us")

    def cache(self, objects) -> None:
        from repro.repository.cache import RepositoryCache, cache_key

        directory = tempfile.mkdtemp(prefix="cache-probe-",
                                     dir=self.bench.workdir)
        store = RepositoryCache(directory)
        keyed = [(cache_key(obj.source, obj.signature, "probe"), obj)
                 for obj in objects]
        self.put("repository.cache_put_s", best_of(
            lambda: [store.put(key, obj) for key, obj in keyed],
            before=store.clear), "s")
        self.put("repository.cache_bytes", sum(
            path.stat().st_size for path in Path(directory).glob("*.pkl")
        ), "count")
        self.put("repository.cache_get_s", best_of(
            lambda: [store.get(key) for key, _ in keyed]), "s")
        shutil.rmtree(directory, ignore_errors=True)

    def background(self) -> None:
        session = self.bench.session(self.cells, workers=self.bench.workers)
        start = time.perf_counter()
        session.speculate_async()
        blocked = time.perf_counter()
        session.drain_speculation(timeout=120)
        drained = time.perf_counter()
        session.close()
        self.put("repository.background_block_s", blocked - start, "s")
        self.put("repository.background_drain_s", drained - blocked, "s")

    # ------------------------------------------------------------------
    # Runtime library micro-inputs
    # ------------------------------------------------------------------
    def runtime(self) -> None:
        import numpy as np

        from repro.runtime import elementwise as ew
        from repro.runtime.builtins import call_builtin
        from repro.runtime.values import from_python

        rng = np.random.default_rng(0)

        def loop(fn, *args, calls):
            def batch():
                for _ in range(calls):
                    fn(*args)
            return best_of(batch) / calls

        small = from_python(rng.random((1, 3)))
        large = from_python(rng.random((1, 65536)))
        self.put("runtime.elementwise_small_us",
                 loop(ew.mlf_plus, small, small, calls=2000) * 1e6, "us")
        self.put("runtime.elementwise_large_ms",
                 loop(ew.mlf_plus, large, large, calls=20) * 1e3, "ms")
        scalar = from_python(2.25)
        self.put("runtime.builtin_call_us",
                 loop(call_builtin, "sqrt", [scalar], 1, calls=2000) * 1e6,
                 "us")
        n = 150
        matrix = from_python(rng.random((n, n)) + n * np.eye(n))
        vector = from_python(rng.random((n, 1)))

        def linalg():
            ew.mlf_mtimes(matrix, vector)
            ew.mlf_mldivide(matrix, vector)

        self.put("runtime.linalg_s", loop(linalg, calls=5), "s")

    # ------------------------------------------------------------------
    # Streams and tiering
    # ------------------------------------------------------------------
    def serve_stream(self, session, order, marks=None) -> float:
        """Serve the interleaved stream; every result is checked."""
        from oracle import value_bytes
        from repro.runtime.builtins import GLOBAL_RANDOM

        bench, cells = self.bench, self.cells
        results = []
        names = [cell.name for cell in cells]
        quiesce_gc()
        try:
            start = time.perf_counter()
            for index in order:
                cell = cells[index]
                GLOBAL_RANDOM.seed(bench.seed)
                results.append((cell, session.call_boxed(
                    cell.name, cell.args, nargout=1)))
                if marks is not None:
                    marks.append((
                        time.perf_counter() - start,
                        tuple(session.tiering.tier_of(n) for n in names)))
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        bench.attempted += len(results)
        for cell, outputs in results:
            if tuple(value_bytes(v) for v in outputs) != cell.reference[0]:
                bench.fail(f"{cell.name}/stream", "result differs")
        return elapsed

    def streams(self) -> None:
        from repro.kernels import KERNEL_CACHE

        bench = self.bench
        rng = program_rng(bench.seed, bench.workload.name, "stream-order")
        order = [int(i) for _ in range(STREAM_ROUNDS)
                 for i in rng.permutation(len(self.cells))]

        KERNEL_CACHE.clear()
        session = bench.session(self.cells)
        self.put("repository.jit_stream_s",
                 self.serve_stream(session, order), "s")
        session.close()

        # Cold profile, cold cache: a directory of its own.
        scratch = tempfile.mkdtemp(prefix="adaptive-", dir=bench.workdir)
        KERNEL_CACHE.clear()
        cold = bench.session(self.cells, adaptive=True, cache_dir=scratch,
                             workers=bench.workers)
        marks: list = []
        self.put("tiering.adaptive_stream_s",
                 self.serve_stream(cold, order, marks), "s")
        cold.drain_speculation(timeout=120)
        report = cold.tiering.report()
        peak = marks[-1][1]
        self.put("tiering.time_to_peak_s",
                 next(t for t, tiers in marks if tiers == peak), "s")
        self.put("tiering.promotions", report["promotions"], "count")
        self.put("tiering.demotions", report["demotions"], "count")
        cold.close()   # persists the learned profile

        warm = bench.session(self.cells, adaptive=True, cache_dir=scratch,
                             workers=bench.workers)
        self.put("tiering.warm_stream_s", self.serve_stream(warm, order), "s")
        self.put("tiering.profile_restores",
                 warm.tiering.report()["profile_restores"], "count")
        warm.close()
        shutil.rmtree(scratch, ignore_errors=True)

    def per_call_overheads(self) -> None:
        """What the always-optional per-call hooks cost on the empty
        function, against ``repository.dispatch_us``."""
        bench = self.bench
        scratch = tempfile.mkdtemp(prefix="observe-", dir=bench.workdir)
        adaptive = self.host_session(
            adaptive=True, cache_dir=scratch, workers=bench.workers)
        for _ in range(50):
            adaptive.call_boxed("dispatch_host", [], nargout=1)
        adaptive.drain_speculation(timeout=60)
        self.put("tiering.observe_us",
                 self.per_call_us(adaptive) - self.plain_us, "us")
        adaptive.close()
        shutil.rmtree(scratch, ignore_errors=True)

        guarded = self.host_session(run_deadline=30.0)
        self.put("resilience.run_watchdog_ratio",
                 self.per_call_us(guarded) / self.plain_us, "ratio")
        guarded.close()

        observed = self.host_session(trace=True, metrics=True)
        spans_before = len(observed.obs.tracer.spans())
        calls = 1000
        self.put("obs.trace_metrics_ratio",
                 self.per_call_us(observed, calls) / self.plain_us, "ratio")
        spans = len(observed.obs.tracer.spans()) - spans_before
        self.put("obs.spans_per_call", spans / (5 * calls), "count")
        observed.close()

    def parallel(self) -> None:
        """MatlabMPI's launch / call columns on a mandel tile call; needs
        ``fork`` and two usable cores (the pin is lifted for it)."""
        from repro.benchsuite.registry import source_of
        from repro.core.majic import MajicSession
        from repro.runtime.values import from_python

        names = ("parallel.launch_s", "parallel.call_s", "parallel.serial_s")
        units = ("s", "s", "s")
        pinned = os.sched_getaffinity(0) if hasattr(
            os, "sched_getaffinity") else None
        usable = self.bench.allowed_cpus
        if not hasattr(os, "fork") or pinned is None or len(usable) < 2:
            self.null(names, units, "needs fork and at least 2 cores")
            return
        args = [from_python(v) for v in (48, 24)]
        source = source_of("mandel")

        def timed_calls(session):
            self.bench.reseed()
            session.call_boxed("mandel", args, nargout=1)
            return best_of(
                lambda: session.call_boxed("mandel", args, nargout=1))

        os.sched_setaffinity(0, usable)
        try:
            start = time.perf_counter()
            session = MajicSession(seed=None, parallel=2)
            session.add_source(source)
            self.put("parallel.launch_s", time.perf_counter() - start, "s")
            self.put("parallel.call_s", timed_calls(session), "s")
            session.close()
        finally:
            os.sched_setaffinity(0, pinned)
        serial = MajicSession(seed=None)
        serial.add_source(source)
        self.put("parallel.serial_s", timed_calls(serial), "s")
        serial.close()

    # ------------------------------------------------------------------
    # Flows: plain, then under the recorder
    # ------------------------------------------------------------------
    def run_flows(self, recorder=None, tag=""):
        """Run every program's first-call and steady flow; returns
        ``(first_call seconds, steady seconds, sessions)`` summed over
        programs.  Under a recorder the timed part of each is a flow."""
        bench = self.bench

        def region(kind, cell):
            if recorder is None:
                return nullcontext
            return lambda: recorder.flow(f"{kind}/{cell.name}{tag}")

        first_total = steady_total = 0.0
        sessions = []
        for cell in self.cells:
            elapsed, session = bench.first_call(
                cell, f"{cell.name}/first_call_flow",
                region=region("first_call", cell))
            first_total += elapsed
            steady_total += bench.call_batch(
                session, cell, cell.program.calls * cell.program.repeat,
                f"{cell.name}/steady_flow", region=region("steady", cell))
            sessions.append(session)
        return first_total, steady_total, sessions

    def flows(self, trace_out) -> dict:
        plain = [self.run_flows() for _ in range(2)]
        for _, _, sessions in plain:
            for session in sessions:
                session.close()
        plain_first = min(p[0] for p in plain)
        plain_steady = min(p[1] for p in plain)

        recorder = Recorder()
        install(recorder)
        traced = []
        for repetition in range(2):
            first, steady, sessions = self.run_flows(
                recorder, tag=f"#{repetition}")
            traced.append((first, steady))
            for session in sessions:
                session.close()
        best = min(range(2), key=lambda r: traced[r][0] + traced[r][1])
        suffix = f"#{best}"

        self_times = recorder.self_times()
        flow_times = recorder.flow_times()
        layers = {}
        for kind in ("first_call", "steady"):
            per_layer = dict.fromkeys(LAYERS, 0.0)
            total = 0.0
            for flow, by_layer in self_times.items():
                if flow.startswith(kind + "/") and flow.endswith(suffix):
                    total += flow_times[flow]
                    for layer, seconds in by_layer.items():
                        per_layer[layer] += seconds
            layers[kind] = {"flow_s": total, "self_s": per_layer}
            self.put(f"bench.{kind}_flow_s", total, "s")
            for layer in LAYERS:
                self.put(f"{layer}.{kind}_self_frac",
                         per_layer[layer] / total, "ratio")
        self.put("bench.trace_overhead_ratio",
                 (traced[best][0] + traced[best][1])
                 / (plain_first + plain_steady), "ratio")
        for metric, span_name in (
            ("vcode.regalloc_s", "LinearScanAllocator.allocate"),
            ("vcode.emit_s", "vcode.emit_python"),
        ):
            self.put(metric, sum(
                span[END] - span[START] for span in recorder.spans
                if span[NAME] == span_name and span[FLOW].endswith(suffix)
            ), "s")
        if trace_out:
            recorder.write_chrome_trace(trace_out)
        layers["spans"] = len(recorder.spans)
        return layers


def run_traced(bench: Bench, trace_out) -> dict:
    """All probes, then the traced flows: a fixed amount of work."""
    layers = Layers(bench)
    bench.take_references()
    # First, while the process has no thread yet: the probe that forks.
    layers.parallel()
    bench.prepare_native()
    layers.frontend()
    layers.analysis_and_inference()
    _, _, jit_sessions = layers.run_flows()
    objects = layers.codegen(jit_sessions)
    stats = [session.stats for session in jit_sessions]
    calls = sum(s.calls_jit + s.calls_spec + s.calls_interpreted
                for s in stats)
    layers.put("repository.jit_compiles",
               sum(s.jit_compiles for s in stats), "count")
    layers.put("repository.cache_hits",
               sum(s.cache_hits for s in stats), "count")
    layers.put("repository.deopts", sum(s.deopts for s in stats), "count")
    layers.put("repository.compile_failures",
               sum(s.compile_failures for s in stats) + layers.spec_failures,
               "count")
    layers.put("repository.interpreted_call_frac",
               sum(s.calls_interpreted for s in stats) / calls, "ratio")
    layers.dispatch(jit_sessions[0], bench.cells[0])
    layers.cache(objects)
    for session in jit_sessions:
        session.close()
    layers.unfused()
    layers.kernels(objects)
    layers.native()
    layers.background()
    layers.runtime()
    layers.streams()
    layers.per_call_overheads()
    flow_layers = layers.flows(trace_out)
    return {
        "metrics": layers.metrics,
        "nulls": layers.nulls,
        "layers": flow_layers,
    }
