"""The public MaJIC session API.

A :class:`MajicSession` bundles the interactive front end, the code
repository and a platform configuration::

    from repro import MajicSession

    s = MajicSession(platform="sparc")
    s.add_source('''
    function p = poly(x)
    p = x.^5 + 3*x + 2;
    ''')
    s.eval("y = 2 + 2;")
    print(s.call("poly", 4))        # -> 1038.0 (JIT compiled on demand)
    s.speculate_all()               # ahead-of-time pass
    print(s.call("poly", 5.0))      # served by speculative code
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.core.platformcfg import AblationFlags, PlatformConfig, platform_by_name
from repro.interp.frontend import Invocation, MajicFrontEnd
from repro.obs import (
    Observability,
    Profiler,
    chrome_trace_json,
    prometheus_text,
)
from repro.repository.background import SpeculationEngine
from repro.repository.cache import DEFAULT_CACHE_DIR, RepositoryCache
from repro.repository.repo import CodeRepository, CompileBudget
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.display import OutputSink
from repro.resilience import DEFAULT_POLICY, ResiliencePolicy
from repro.runtime.values import from_python, to_python


def ensure_recursion_limit(limit: int) -> None:
    """Raise (never lower) the host recursion limit.

    Recursive MATLAB benchmarks (ackermann) interpret/execute through deep
    host recursion.  Sessions call this with their platform's
    ``host_recursion_limit``; a platform with ``host_recursion_limit=0``
    opts out of the process-wide mutation.
    """
    if limit and sys.getrecursionlimit() < limit:
        sys.setrecursionlimit(limit)


class MajicSession:
    """The user-facing MaJIC system (front end + repository).

    Each setting has one spelling (DESIGN.md, *Session knobs*): the
    platform carries the JIT's tuning and the recursion headroom, a
    :class:`ResiliencePolicy` the supervision deadlines and the sandbox,
    ``speculate_all(budget=)`` the compile budget.
    """

    def __init__(
        self,
        platform: str | PlatformConfig = "sparc",
        ablation: AblationFlags | None = None,
        inline_enabled: bool = True,
        seed: int | None = 0,
        max_strikes: int = 3,
        fault_plan=None,
        cache_dir=None,
        background: bool = False,
        workers: int | None = None,
        trace: bool = False,
        metrics: bool = False,
        fusion: bool = True,
        native: bool = False,
        sync: bool = False,
        native_hot_threshold: int = 2,
        native_min_elems: int | None = None,
        adaptive: bool = False,
        tiering=None,
        resilience: ResiliencePolicy | None = None,
        run_deadline: float | None = None,
        parallel: int | None = None,
    ):
        if isinstance(platform, str):
            platform = platform_by_name(platform)
        self.platform = platform
        self.ablation = ablation or AblationFlags()
        ensure_recursion_limit(platform.host_recursion_limit)
        self.sink = OutputSink()
        # Supervision policy (repro.resilience).  ``run_deadline`` is the
        # one field still lifted to a kwarg, because the benchmark passes
        # it; it goes when the benchmark moves onto the policy (ROADMAP
        # item 8(i)).
        policy = resilience if resilience is not None else DEFAULT_POLICY
        if run_deadline is not None:
            policy = replace(policy, run_deadline=run_deadline)
        self.resilience: ResiliencePolicy = policy
        # Observability: a per-session switchboard (null recorders unless
        # trace/metrics asked for them), shared by the repository, the
        # compilers it constructs and the background workers.
        self.obs = Observability(trace=trace, metrics=metrics)
        self._profiler = Profiler(self.obs)
        # Disk persistence: cache_dir=True selects ~/.pymajic/cache; a
        # path (str/Path) selects that directory; None disables it.
        cache = None
        self.cache_dir = None
        if cache_dir:
            if cache_dir is True:
                cache_dir = DEFAULT_CACHE_DIR
            self.cache_dir = cache_dir
            cache = RepositoryCache(cache_dir, fault_plan=fault_plan)
        # fusion=False is the escape hatch disabling fused elementwise
        # kernels in every consumer (both code generators and the
        # interpreter's fast path).
        jit_options = platform.jit_options(self.ablation)
        if not fusion:
            jit_options = replace(jit_options, fusion=False)
        # Profile-guided adaptive tiering: adaptive=True builds the online
        # tier controller (repro.tiering) that watches every served call
        # and promotes hot functions interpreter -> jit -> spec in the
        # background (sync=True compiles at the decision point —
        # deterministic tests, fuzzing and the faults harness).  ``tiering``
        # accepts a TieringPolicy overriding the thresholds.  The native
        # kernel tier rides the same controller: adaptive implies native
        # (harmlessly disabled when no C toolchain exists).
        self.tiering = None
        if adaptive:
            from repro.tiering import TierController, TieringPolicy

            policy_t = tiering if tiering is not None else TieringPolicy()
            self.tiering = TierController(
                policy=policy_t,
                obs=self.obs,
                fault_plan=fault_plan,
                sync=sync,
                submit=self._submit_background_task,
            )
            native = True
        # The native (C) tier: native=True probes for a toolchain and, if
        # one exists, compiles hot fused kernels to ``-O3`` ``.so``s
        # out-of-band (sync=True compiles inline — deterministic
        # tests and the faults harness).  Artifacts live next to the
        # repository cache when one is configured, else under
        # ~/.pymajic/native, so warm sessions recompile nothing.  With no
        # toolchain the engine constructs disabled and every dispatch
        # stays on the Python kernels.
        self.native = None
        if native and fusion:
            from repro.native import NativeArtifactStore, NativeEngine
            from repro.native.artifacts import DEFAULT_NATIVE_DIR

            if cache is not None:
                native_dir = cache.directory / "native"
            else:
                native_dir = DEFAULT_NATIVE_DIR
            self.native = NativeEngine(
                store=NativeArtifactStore(native_dir),
                fault_plan=fault_plan,
                obs=self.obs,
                policy=policy,
                submit=self._submit_background_task,
                sync=sync,
                hot_threshold=native_hot_threshold,
                min_elems=native_min_elems,
                hotness=(
                    self.tiering.kernel_hotness
                    if self.tiering is not None else None
                ),
            )
        self.repository = CodeRepository(
            jit_options=jit_options,
            src_options=platform.src_options(ablation=self.ablation),
            sink=self.sink,
            inline_enabled=inline_enabled,
            max_strikes=max_strikes,
            fault_plan=fault_plan,
            cache=cache,
            obs=self.obs,
            resilience=policy,
            native=self.native,
        )
        if self.tiering is not None:
            self.tiering.bind(self.repository)
        self.frontend = MajicFrontEnd(self.repository, sink=self.sink)
        # Background speculation: a daemon worker pool (lazily started by
        # speculate_async when background=False was given here).
        self._workers = workers or platform.speculation_workers
        self._fault_plan = fault_plan
        self.engine: SpeculationEngine | None = None
        self._closed = False
        # Source bookkeeping for the parallel backend: worker ranks are
        # separate processes and must re-register every function the
        # parent knows (the repository keeps parsed programs, not text).
        self._source_texts: list[str] = []
        self._source_paths: list[str] = []
        # MatlabMPI/pMatlab-style parallel execution: parallel=N forks N
        # worker ranks behind a scatter/compute/gather driver.  Built
        # before the first call so children fork while the session is
        # still single-threaded (no background workers running).
        self.parallel: "ParallelExecutor | None" = None
        if parallel:
            from repro.parallel.driver import ParallelExecutor

            self.parallel = ParallelExecutor(
                self,
                workers=int(parallel),
                fault_plan=fault_plan,
                obs=self.obs,
            )
        if background:
            self._pool()
        if seed is not None:
            GLOBAL_RANDOM.seed(seed)

    # ------------------------------------------------------------------
    # Source management
    # ------------------------------------------------------------------
    def add_source(self, text: str) -> list[str]:
        """Register one or more function definitions from source text."""
        names = self.repository.add_source(text)
        if isinstance(text, str):
            self._source_texts.append(text)
        return names

    def add_path(self, directory) -> list[str]:
        """Put a directory of ``.m`` files on the snooped path."""
        names = self.repository.add_path(directory)
        self._source_paths.append(str(directory))
        return names

    def shipped_sources(self) -> list[str]:
        """Source texts registered so far (parallel ranks replay these)."""
        return self._source_texts

    def shipped_paths(self) -> list[str]:
        """Snooped directories registered so far."""
        return self._source_paths

    def rescan(self) -> list[str]:
        """Re-snoop the path, picking up changed files."""
        return self.repository.rescan()

    def speculate_all(self, budget: float | CompileBudget | None = None):
        """Run the speculative ahead-of-time compiler over everything.

        ``budget`` (seconds, or a
        :class:`~repro.repository.repo.CompileBudget`) bounds the pass:
        functions that don't fit are skipped and reported, never raised.
        Returns the list of compiled names (a
        :class:`~repro.repository.repo.SpeculationReport` carrying
        ``skipped`` / ``failed`` / ``elapsed`` as well).
        """
        return self.repository.speculate_all(budget=budget)

    # ------------------------------------------------------------------
    # Background speculation (the hidden-compile-time machinery)
    # ------------------------------------------------------------------
    def speculate_async(self) -> int:
        """Queue every known function for *background* speculation.

        Returns immediately (this is the point: compile time hides behind
        user think-time) with the number of functions queued.  Starts the
        worker pool on first use when the session was not constructed
        with ``background=True``.
        """
        engine = self._pool()
        with self.obs.tracer.span("speculate_async", "speculation"):
            return engine.submit_all()

    def _pool(self) -> SpeculationEngine:
        """The supervised worker pool, started on first use."""
        if self.engine is None:
            self.engine = SpeculationEngine(
                self.repository,
                workers=self._workers,
                fault_plan=self._fault_plan,
                obs=self.obs,
                policy=self.resilience,
            )
        return self.engine

    def _submit_background_task(self, fn, label: str, on_done=None) -> bool:
        """Queue one out-of-band task (native compile, tier promotion) on
        the supervised worker pool, so the foreground never blocks on it."""
        if self._closed:
            return False
        return self._pool().submit_task(fn, label, on_done=on_done)

    def pending_speculation(self) -> int:
        """Background compiles still queued or in flight."""
        return 0 if self.engine is None else self.engine.pending()

    def drain_speculation(self, timeout: float | None = None) -> bool:
        """Wait for the background queue to go quiet; False on timeout."""
        return True if self.engine is None else self.engine.drain(timeout)

    def close(self) -> None:
        """Tear the session down; idempotent.

        Stops the background workers, disarms the
        repository's watchdog deadlines (no registrations leak into the
        process-wide monitor after close) and disables the sandbox tier.
        A closed session can still evaluate code — it simply runs without
        supervision or background compilation.
        """
        if self._closed:
            return
        self._closed = True
        if self.parallel is not None:
            self.parallel.shutdown()
            self.parallel = None
        if self.engine is not None:
            self.engine.shutdown()
            self.engine = None
        if self.tiering is not None:
            # Persist learned hotness + winning-tier verdicts after the
            # worker pool has drained, so in-flight promotions count.
            self.tiering.save()
        if self.native is not None:
            # No threads of its own to stop; disabling the engine routes
            # every later dispatch back to the Python kernels (a closed
            # session runs unsupervised, so no native code either).
            self.native.enabled = False
        self.repository.disarm()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def eval(self, text: str) -> None:
        """Interpret top-level code in the session workspace."""
        self.frontend.eval(text)

    def call(self, name: str, *args, nargout: int = 1):
        """Call a user function; returns unboxed host value(s).

        With ``nargout == 1`` the single result is returned bare; larger
        ``nargout`` returns a tuple.
        """
        boxed = [from_python(a) for a in args]
        outputs = self.call_boxed(name, boxed, nargout=nargout)
        unboxed = tuple(to_python(v) for v in outputs)
        if nargout <= 1:
            return unboxed[0] if unboxed else None
        return unboxed

    def call_boxed(self, name: str, args, nargout: int = 1):
        """Call with/returning boxed MxArray values (harness use).

        With ``parallel=N`` the call routes through the scatter/compute/
        gather driver, which falls back to serial execution on any
        worker fault (results stay bit-identical either way).
        """
        if self.parallel is not None and self.parallel.enabled:
            return self.parallel.call(name, list(args), nargout=nargout)
        return self.frontend.call(name, args, nargout)

    def get(self, name: str):
        """Read a workspace variable as a host value."""
        value = self.frontend.workspace.get(name)
        return None if value is None else to_python(value)

    def output(self) -> str:
        """Everything the session printed so far."""
        return self.sink.getvalue()

    def reseed(self, seed: int) -> None:
        """Reset the shared random stream (deterministic comparisons)."""
        GLOBAL_RANDOM.seed(seed)

    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self.repository.stats

    @property
    def diagnostics(self):
        """The robustness event log (deopts, quarantines, budget skips,
        compile failures) — see :mod:`repro.repository.diagnostics`."""
        return self.repository.diagnostics

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------
    def profile(self, action: str = "report"):
        """MATLAB-style profiler control: ``profile("on"|"off"|"report"|
        "clear")``.

        ``on`` enables span recording (even on a session constructed
        without ``trace=True``); ``off`` stops it, keeping the recorded
        window; ``report`` returns a
        :class:`~repro.obs.profiler.ProfileReport` of per-function
        self/cumulative time and call counts split by tier.
        """
        action = action.lower()
        if action == "on":
            self._profiler.on()
            return None
        if action == "off":
            self._profiler.off()
            return None
        if action == "clear":
            self._profiler.clear()
            return None
        if action == "report":
            return self._profiler.report()
        raise ValueError(
            f"profile() expects 'on', 'off', 'report' or 'clear'; got {action!r}"
        )

    def profile_spans(self):
        """Raw spans of the current profiled window (Figure 6 input)."""
        return self._profiler.spans()

    def trace_json(self) -> str:
        """The recorded spans as Chrome-trace/Perfetto JSON."""
        return chrome_trace_json(self.obs.tracer)

    def trace_tree(self) -> str:
        """The recorded spans as an indented text tree."""
        return self.obs.tracer.render_tree()

    def metrics_text(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        return prometheus_text(self.obs.metrics)

    def summary(self) -> str:
        """One-screen session health report (tiers, cache, degradations)."""
        stats = self.stats
        calls = stats.calls_jit + stats.calls_spec + stats.calls_interpreted
        compiled_calls = stats.calls_jit + stats.calls_spec
        compiled_pct = 100.0 * compiled_calls / calls if calls else 0.0
        cache_probes = stats.cache_hits + stats.jit_compiles + stats.speculative_compiles
        counts = self.diagnostics.counts()
        lines = [
            "MaJIC session summary",
            "---------------------",
            f"calls            {calls} total: {stats.calls_jit} jit, "
            f"{stats.calls_spec} spec, {stats.calls_interpreted} interpreted "
            f"({compiled_pct:.1f}% compiled)",
            f"dispatch         {stats.lookups} locates in {calls} calls "
            "(the rest: hot-call cache hits, or the bottom version unasked)",
            f"compiles         {stats.jit_compiles} jit, "
            f"{stats.speculative_compiles} speculative "
            f"({stats.background_compiles} in background), "
            f"{stats.compile_failures} failed",
            f"compile time     {stats.jit_compile_seconds:.4f}s jit, "
            f"{stats.speculative_compile_seconds:.4f}s speculative",
            f"cache            {stats.cache_hits} hits, "
            f"{stats.cache_stores} stores"
            + (
                f" ({100.0 * stats.cache_hits / cache_probes:.1f}% hit ratio)"
                if cache_probes
                else ""
            ),
            f"degradations     {stats.deopts} deopts, "
            f"{stats.quarantines} quarantines, "
            f"{stats.budget_skips} budget skips",
            f"diagnostics      {len(self.diagnostics)} events recorded, "
            f"{self.diagnostics.dropped} dropped"
            + (f" ({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})"
               if counts else ""),
            f"speculation      {self.pending_speculation()} pending in background",
        ]
        if self.tiering is not None:
            report = self.tiering.report()
            counts_t = report["counts"]
            per_tier = ", ".join(
                f"{count} {tier}"
                for tier, count in sorted(
                    counts_t.items(), key=lambda item: item[0]
                )
            ) or "no functions observed"
            lines.append(
                f"tiering          adaptive: {per_tier}; "
                f"{report['promotions']} promotions "
                f"({report['profile_restores']} profiles restored), "
                f"{report['demotions']} demotions, "
                f"{report['kernels_tracked']} kernels tracked"
            )
        lines += [
            f"observability    trace={'on' if self.obs.tracer.enabled else 'off'}, "
            f"metrics={'on' if self.obs.metrics.enabled else 'off'}"
            + (f", {len(self.obs.tracer.spans())} spans recorded"
               if self.obs.tracer.enabled else ""),
        ]
        return "\n".join(lines)

    def invocation(self, name: str, *args, nargout: int = 1) -> Invocation:
        return Invocation(
            name=name,
            args=[from_python(a) for a in args],
            nargout=nargout,
        )
