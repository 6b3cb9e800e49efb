"""The code repository proper (Sections 2 and 2.2.1).

Responsibilities:

* hold the table of known user functions (from snooped directories and
  directly added sources);
* hold, per function, the list of compiled versions differing only in
  their type-signature assumptions (paper Figure 3);
* the **function locator**: given an invocation, find a compiled version
  that is *safe* (``Qi ⊑ Ti`` for every parameter) and best by the
  Manhattan-like distance; a miss triggers JIT compilation ("since this
  typically happens during program execution, where time is at a premium,
  the JIT compiler is used in this situation");
* speculative ahead-of-time compilation of everything it knows about
  (:meth:`CodeRepository.speculate_all`), whose compile time is *hidden*
  (performed before the user needs the code);
* recompilation triggers when snooped sources change.

One book (tiered execution)
---------------------------
Compiled code is an optimization, never a semantic requirement, and the
repository is the one place that knows what a function holds (DESIGN.md,
*Robustness layer*, is the full account): every function has a **bottom
version** it cannot lose — its source, run by the interpreter — so
:meth:`_resolve` always finds something to serve and :meth:`_serve` is
the one path every version runs through, its deopt net armed for compiled
modes only; :meth:`jit_compile` and :meth:`speculate` are two spellings of
one entry that never raises, because :meth:`compile_failed` is the one
verdict on a failed compile; budgets skip-and-record; and every
degradation lands in :attr:`diagnostics` as a structured event.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import CodegenError, MatlabError, RepositoryError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.codegen.inline import Inliner
from repro.codegen.jitgen import CompiledObject, JitCompiler, JitOptions
from repro.codegen.runtime_support import RuntimeSupport
from repro.codegen.srcgen import SourceCompiler, SrcOptions
from repro.interp.frontend import Invocation
from repro.interp.interpreter import Interpreter
from repro.kernels.cache import KERNEL_CACHE
from repro.faults.plan import SITE_HANG, SITE_OOM
from repro.obs import DISABLED as DISABLED_OBS
from repro.obs import TIER_INTERPRETER, TIER_JIT, TIER_SPEC
from repro.resilience import (
    DEFAULT_POLICY,
    ExecutionGuard,
    ResiliencePolicy,
    SandboxExecutor,
    SandboxFailure,
)
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.display import OutputSink
from repro.runtime.mxarray import MxArray
from repro.repository.depgraph import DependencyGraph
from repro.repository.cache import cache_key, function_source_text, options_fingerprint
from repro.repository.diagnostics import (
    BUDGET_SKIP,
    CACHE_EVICT,
    CACHE_HIT,
    CACHE_LOAD,
    CACHE_STORE,
    COMPILE_FAILURE,
    DEOPT,
    QUARANTINE,
    SANDBOX_FAILURE,
    SANDBOX_TRIAL,
    DiagnosticsLog,
)
from repro.repository.snoop import DirectorySnoop
from repro.typesys.mtype import MType
from repro.typesys.signature import Signature


@dataclass
class RepositoryStats:
    # Runs of the function locator; a steady call is a hot-call cache hit
    # and moves it by 0 (tests/test_serve_path.py pins that).
    lookups: int = 0
    jit_compiles: int = 0
    speculative_compiles: int = 0
    jit_compile_seconds: float = 0.0
    speculative_compile_seconds: float = 0.0
    # Responsiveness counters (background speculation + persistent cache).
    background_compiles: int = 0
    cache_hits: int = 0
    cache_stores: int = 0
    # Persistent-cache probes by result ("hit" / "miss"), first seen first.
    cache_requests: Counter = field(default_factory=Counter)
    # Observability: executions by tier (summary()/profiler cross-checks).
    calls_jit: int = 0
    calls_spec: int = 0
    calls_interpreted: int = 0
    # The session's event log.  The robustness counts are its per-kind
    # totals — each is one ``diagnostics.record`` and nothing else.
    events: DiagnosticsLog = field(default_factory=DiagnosticsLog, repr=False)

    deopts = property(lambda self: self.events.local(DEOPT))
    quarantines = property(lambda self: self.events.local(QUARANTINE))
    budget_skips = property(lambda self: self.events.local(BUDGET_SKIP))
    compile_failures = property(lambda self: self.events.local(COMPILE_FAILURE))

    @property
    def fallback_interpreted(self) -> int:
        """Calls the bottom version served (one count, two names)."""
        return self.calls_interpreted

    @property
    def calls_by_tier(self) -> dict[str, int]:
        return {
            TIER_INTERPRETER: self.calls_interpreted,
            TIER_JIT: self.calls_jit,
            TIER_SPEC: self.calls_spec,
        }


@dataclass(frozen=True)
class CompileBudget:
    """Wall-clock compile budgets (seconds; ``None`` = unlimited).

    ``per_pass`` bounds a whole :meth:`CodeRepository.speculate_all` sweep;
    ``per_function`` bounds one compile.  Compilation cannot be preempted
    mid-function, so both are enforced *between* compiles: a pass stops
    before the first function that would start past its budget (± one
    function), and a function whose compile overruns ``per_function`` is
    flagged so future speculative passes skip it up front.
    """

    per_pass: float | None = None
    per_function: float | None = None


def _as_budget(budget) -> CompileBudget:
    if isinstance(budget, CompileBudget):
        return budget
    return CompileBudget(per_pass=float(budget))


class SpeculationReport(list):
    """Names compiled by a speculative pass (list subclass for backward
    compatibility) plus what the pass *didn't* do and why."""

    def __init__(self):
        super().__init__()
        self.skipped: list[tuple[str, str]] = []  # (function, reason)
        self.failed: list[str] = []
        self.elapsed: float = 0.0


#: Compile mode -> the error class that is an *expected* rejection there
#: ("cannot compile this construct") rather than a compiler crash.
_REJECTIONS = {"jit": MatlabError, "spec": CodegenError}


@dataclass(frozen=True)
class _Interpreted:
    """The bottom version of a function: its source, run by the
    interpreter.  It answers ``invoke`` like a compiled version but is
    never among :meth:`CodeRepository.versions_of` (nor located, nor in
    the hot-call cache)."""

    fn: ast.FunctionDef
    interpreter: Interpreter
    mode = TIER_INTERPRETER

    def invoke(self, arg_values, nargout: int, rt):
        return self.interpreter.call_function(self.fn, arg_values, nargout)


class CodeRepository:
    """Database of compiled code plus the machinery around it."""

    def __init__(
        self,
        jit_options: JitOptions | None = None,
        src_options: SrcOptions | None = None,
        sink: OutputSink | None = None,
        inline_enabled: bool = True,
        compile_budget: CompileBudget | None = None,
        max_strikes: int = 3,
        fault_plan=None,
        cache=None,
        obs=None,
        resilience: ResiliencePolicy | None = None,
        diagnostics_capacity: int | None = None,
        native=None,
    ):
        self.jit_options = jit_options or JitOptions()
        self.src_options = src_options or SrcOptions()
        self.sink = sink if sink is not None else OutputSink()
        self.inline_enabled = inline_enabled
        self.compile_budget = compile_budget or CompileBudget()
        self.max_strikes = max_strikes
        self.fault_plan = fault_plan
        # Observability switchboard (tracing + metrics; a shared null
        # facade when the session didn't ask for either).
        self.obs = obs if obs is not None else DISABLED_OBS
        # Optional disk persistence (a RepositoryCache); compiled objects
        # found there skip compilation entirely in warm sessions.
        self.cache = cache
        self.snoop = DirectorySnoop()
        self.depgraph = DependencyGraph()
        self.diagnostics = DiagnosticsLog(
            capacity=diagnostics_capacity
            if diagnostics_capacity is not None else 10_000
        )
        self.stats = RepositoryStats(events=self.diagnostics)
        # The metrics registry reads these tallies (repro.obs.instruments)
        # and robustness events reach the trace stream for free.
        self.obs.attach(repository=self, kernels=KERNEL_CACHE)
        self.obs.bind_diagnostics(self.diagnostics)
        # Supervision tier (repro.resilience): watchdog deadlines around
        # compiles/runs, and optionally a sandbox for first runs.
        self.resilience = resilience if resilience is not None else DEFAULT_POLICY
        self.guard = ExecutionGuard(
            compile_deadline=self.resilience.compile_deadline,
            run_deadline=self.resilience.run_deadline,
            diagnostics=self.diagnostics,
        )
        self.sandbox = (
            SandboxExecutor(
                timeout=self.resilience.sandbox_timeout,
                fault_plan=fault_plan,
                diagnostics=self.diagnostics,
            )
            if self.resilience.sandbox else None
        )
        # In-process chaos probes (hang/oom on the guarded run path); when
        # the sandbox tier is on, first runs check these sites in the
        # child instead, so the in-process probe stays off.
        self._chaos_run_checks = (
            fault_plan is not None
            and self.sandbox is None
            and any(
                spec.site in (SITE_HANG, SITE_OOM) for spec in fault_plan.specs
            )
        )
        # Precomputed hot-path switch: the common no-supervision call
        # pays one attribute check for the watchdog, nothing more.
        self._watched = (
            self.resilience.run_deadline is not None or self._chaos_run_checks
        )
        # The cache heals itself; give it the session's flight recorder.
        if cache is not None and getattr(cache, "diagnostics", None) is None:
            cache.diagnostics = self.diagnostics
        # name -> FunctionDef (raw, as parsed)
        self._functions: dict[str, ast.FunctionDef] = {}
        # name -> the bottom version (the interpreter over that FunctionDef)
        self._bottom: dict[str, _Interpreted] = {}
        # name -> inlined FunctionDef cache
        self._inlined: dict[str, ast.FunctionDef] = {}
        # name -> list of compiled versions
        self._objects: dict[str, list[CompiledObject]] = {}
        # functions that failed to compile (fall back to interpretation)
        self._uncompilable: set[str] = set()
        # (function, mode, PhaseTimes) for every compile this repository ran
        self.compile_log: list[tuple[str, str, object]] = []
        # Hot-call cache: last object that served each function name.
        self._fast_cache: dict[str, CompiledObject] = {}
        # Adaptive-tiering controller (repro.tiering); see attach().  When
        # set, it supplies _resolve()'s miss policy (interpret now, promote
        # out-of-band) and execute()'s post-call hook.
        self.tiering = None
        # Deopt strike counts per function (quarantine at max_strikes).
        self._strikes: dict[str, int] = {}
        # Functions whose compile overran the per-function budget.
        self._budget_flagged: set[str] = set()
        # Thread safety: background speculation workers mutate the same
        # tables the foreground session reads.  ``_lock`` (reentrant)
        # guards every shared dict/set; compilation itself runs outside it
        # under a per-function lock (prepared ASTs are per-name clones, so
        # distinct names can compile in parallel, but two compiles of one
        # name share AST nodes the disambiguator annotates in place).
        self._lock = threading.RLock()
        self._compile_locks: dict[str, threading.Lock] = {}
        # Monotonic per-name redefinition counters: an in-flight background
        # compile captures the generation at enqueue time and its result is
        # dropped if the function was redefined (or removed) meanwhile.
        self._generations: dict[str, int] = {}
        # The native tier (repro.native): shared by both consumers so a
        # kernel promoted on the interpreter path serves JIT code too.
        self.native = native
        self._interpreter = Interpreter(
            function_lookup=self.lookup_function,
            sink=self.sink,
            call_dispatcher=self._interp_dispatch,
            fusion=self.jit_options.fusion,
            native=native,
        )
        self._rt = RuntimeSupport(
            call_user=self._call_user, sink=self.sink, fault_plan=fault_plan,
            obs=self.obs, native=native,
        )

    # ------------------------------------------------------------------
    # Source management
    # ------------------------------------------------------------------
    def add_source(self, source: str | ast.Program) -> list[str]:
        """Register function definitions from source text or a parsed
        program; returns the names registered."""
        if isinstance(source, str):
            with self.obs.tracer.span("parse", "parse"):
                program = parse(source)
        else:
            program = source
        if program.is_script:
            raise RepositoryError("scripts cannot be added to the repository")
        names = []
        for fn in program.functions:
            self._register(fn)
            names.append(fn.name)
        return names

    def add_path(self, directory) -> list[str]:
        """Snoop a directory of .m files; returns newly seen functions."""
        self.snoop.add_path(directory)
        return self.rescan()

    def rescan(self) -> list[str]:
        """Re-scan snooped directories, invalidating changed functions."""
        report = self.snoop.scan()
        table = self.snoop.functions()
        touched: list[str] = []
        for name in report.added + report.changed:
            fn = table.get(name)
            if fn is not None:
                self._register(fn)
                touched.append(name)
        for name in report.removed:
            if name not in table:
                self._unregister(name)
        return touched

    def _register(self, fn: ast.FunctionDef) -> None:
        with self._lock:
            self._functions[fn.name] = fn
            self._bottom[fn.name] = _Interpreted(fn, self._interpreter)
            # Invalidate the function itself and everything that inlined
            # it; each gets a new generation so in-flight background
            # compiles of the old source are dropped at store time.
            for stale in self.depgraph.dependents_of(fn.name):
                self._purge_compiled_state(stale)

    def _unregister(self, name: str) -> None:
        with self._lock:
            self._functions.pop(name, None)
            self._bottom.pop(name, None)
            # Same purge as _register: a removed function must not keep
            # serving a stale cached object, stay wrongly blacklisted, or
            # carry strike and budget state over to an unrelated future
            # function of the same name — and neither may anything that
            # inlined it.
            for stale in self.depgraph.dependents_of(name):
                self._purge_compiled_state(stale)
            self.depgraph.drop(name)

    def _purge_compiled_state(self, name: str) -> None:
        """Forget every compilation artifact and verdict about ``name``
        (its source changed or vanished; old conclusions no longer hold)."""
        with self._lock:
            self._objects.pop(name, None)
            self._inlined.pop(name, None)
            self._uncompilable.discard(name)
            self._fast_cache.pop(name, None)
            self._strikes.pop(name, None)
            self._budget_flagged.discard(name)
            self._generations[name] = self._generations.get(name, 0) + 1

    def generation_of(self, name: str) -> int:
        """Redefinition counter for ``name``: what was learned about it
        (an in-flight compile, the tier controller's measurements) holds
        while this stands.  An atomic dict read; no lock."""
        return self._generations.get(name, 0)

    # ------------------------------------------------------------------
    # The book, as the tier controller, worker pool and session read it
    # ------------------------------------------------------------------
    def held_mode(self, name: str) -> str:
        """The best mode among the versions ``name`` holds now (spec over
        jit), else ``"interpreter"`` — the bottom version."""
        best = TIER_INTERPRETER
        for version in self._objects.get(name, ()):
            if version.mode == TIER_SPEC:
                return TIER_SPEC
            best = TIER_JIT
        return best

    def compile_verdict(self, name: str) -> str | None:
        """Why ``name`` should not be compiled now, or ``None`` (ask):
        ``"uncompilable"`` (a compiler rejected it or its versions struck
        out; final until redefined) or ``"over-budget"`` (speculative
        passes and foreground misses skip it)."""
        if name in self._uncompilable:
            return "uncompilable"
        return "over-budget" if name in self._budget_flagged else None

    def compile_failed(self, name: str, mode: str, exc, signature="") -> None:
        """The one verdict on a failed compile: always recorded; an
        expected rejection (:data:`_REJECTIONS`) makes the function
        uncompilable; a JIT crash counts a strike (a deterministic crasher
        ends quarantined, a transient one is retried on a later call);
        anything else — a speculative crash, a dead worker task — leaves
        it eligible: the concrete call-site types may well compile."""
        self.diagnostics.record(
            COMPILE_FAILURE, name,
            detail=f"{mode} compile failed",
            cause=exc,
            signature=signature,
        )
        if isinstance(exc, _REJECTIONS.get(mode, ())):
            with self._lock:
                self._uncompilable.add(name)
        elif mode == "jit":
            self._note_strike(name)

    def unbind(self, name: str) -> None:
        """Send the next call of ``name`` through :meth:`_resolve` (the
        controller's suppression is consulted only there)."""
        self._fast_cache.pop(name, None)

    def profile_key(self, name: str, tag: str) -> str | None:
        """Content address for a blob *about* ``name`` (a compile's key
        under the caller's ``tag``); ``None`` without a cache."""
        try:
            return self._cache_key(self._prepared(name), tag)
        except Exception:  # noqa: BLE001 - unparseable/unknown: no profile
            return None

    def attach(self, controller) -> None:
        """Install the adaptive-tiering controller.  With no native
        engine counting fused-kernel dispatches, the interpreter feeds
        the controller's kernel counter instead."""
        self.tiering = controller
        if self.native is None or not self.native.enabled:
            self._interpreter.kernel_hotness = controller.kernel_hotness

    def disarm(self) -> None:
        """Session close: later calls run unsupervised — no watchdog
        registration leaks into the process-wide monitor, no child forks."""
        self.guard.compile_deadline = None
        self.guard.run_deadline = None
        self._watched = self._chaos_run_checks
        self.sandbox = None

    def knows(self, name: str) -> bool:
        return name in self._functions

    def function_names(self) -> list[str]:
        with self._lock:
            return sorted(self._functions)

    def lookup_function(self, name: str) -> ast.FunctionDef | None:
        return self._functions.get(name)

    # ------------------------------------------------------------------
    # Inlining pass (Figure 1, pass 2)
    # ------------------------------------------------------------------
    def _prepared(self, name: str) -> ast.FunctionDef:
        with self._lock:
            fn = self._functions.get(name)
            if fn is None:
                raise RepositoryError(f"unknown function '{name}'")
            if not self.inline_enabled:
                return fn
            cached = self._inlined.get(name)
            if cached is not None:
                return cached
        # Inlining (a deep copy + transform) runs outside the state lock;
        # a concurrent redefinition simply wins the re-check below.
        inliner = Inliner(self.lookup_function)
        prepared = inliner.run(fn)
        with self._lock:
            if self._functions.get(name) is not fn:
                # Redefined mid-prepare: recurse onto the fresh source.
                return self._prepared(name)
            self._inlined[name] = prepared
            used = (
                inliner.inlined_names
                | (ast.called_names(prepared) & set(self._functions))
            )
            self.depgraph.set_dependencies(name, used - {name})
        return prepared

    def _compile_lock(self, name: str) -> threading.Lock:
        """Per-name compile lock: one compile of a given function at a
        time (its prepared AST is annotated in place by disambiguation),
        while distinct functions compile in parallel."""
        with self._lock:
            return self._compile_locks.setdefault(name, threading.Lock())

    # ------------------------------------------------------------------
    # The function locator (Section 2.2.1)
    # ------------------------------------------------------------------
    def locate(self, invocation) -> CompiledObject | None:
        """Find the best safe compiled version for an invocation: safety
        is :meth:`CompiledObject.accepts` on the values; the invocation's
        signature is derived only to rank two or more safe versions."""
        self.stats.lookups += 1
        with self._lock:
            versions = tuple(self._objects.get(invocation.name, ()))
        safe = [v for v in versions if v.accepts(invocation.args)]
        if len(safe) < 2:
            return safe[0] if safe else None
        signature = invocation.signature
        return min(safe, key=lambda version: version.signature.distance(
            self._pad_signature(signature, len(version.signature))
        ))

    @staticmethod
    def _pad_signature(signature: Signature, arity: int) -> Signature:
        if len(signature) == arity:
            return signature
        return Signature.of(
            list(signature.types)
            + [MType.bottom() for _ in range(arity - len(signature))]
        )

    def store(self, obj: CompiledObject) -> None:
        """Add (or replace) a compiled version in the database.

        A new object replaces an existing one with the identical signature
        ("the generated code can later be recompiled and replaced in the
        repository using a better compiler").
        """
        with self._lock:
            versions = self._objects.setdefault(obj.name, [])
            for index, existing in enumerate(versions):
                if existing.signature == obj.signature:
                    versions[index] = obj
                    # The hot-call cache must not keep serving the replaced
                    # object; swap it for the better recompile.
                    if self._fast_cache.get(obj.name) is existing:
                        self._fast_cache[obj.name] = obj
                    return
            versions.append(obj)

    def versions_of(self, name: str) -> list[CompiledObject]:
        with self._lock:
            return list(self._objects.get(name, ()))

    @property
    def compiles_by_mode(self) -> Counter:
        """Completed compiles per mode, first seen first (one
        :attr:`compile_log` entry each)."""
        return Counter(mode for _, mode, _ in list(self.compile_log))

    # ------------------------------------------------------------------
    # Persistent cache plumbing
    # ------------------------------------------------------------------
    @functools.cached_property
    def _options_fingerprint(self) -> str:
        return options_fingerprint(self.jit_options, self.src_options)

    def _cache_key(self, fn: ast.FunctionDef, signature_tag) -> str | None:
        """Content address of one compile (None without a cache).

        ``signature_tag`` disambiguates versions of one source: the
        invocation signature for JIT compiles, the mode tag for
        speculative ones (whose signature is derived by the speculator).
        """
        if self.cache is None:
            return None
        return cache_key(
            function_source_text(fn), signature_tag, self._options_fingerprint
        )

    def _cache_probe(self, name: str, key: str | None) -> CompiledObject | None:
        """Look one compile up in the disk cache; validate before trusting."""
        if key is None:
            return None
        with self.obs.tracer.span("cache.load", "cache", function=name):
            obj = self.cache.get(key)
        with self._lock:
            hit = obj is not None and obj.name == name
            self.stats.cache_requests["hit" if hit else "miss"] += 1
        if obj is None:
            return None
        if not hit:
            # Hash collision or tampering: refuse the entry.
            self.cache.evict(key)
            self.diagnostics.record(
                CACHE_LOAD, name,
                detail=f"rejected cache entry {key[:12]} naming '{obj.name}'",
            )
            return None
        self.diagnostics.record(
            CACHE_LOAD, name,
            detail=f"loaded {obj.mode} version from cache entry {key[:12]}",
            signature=obj.signature,
        )
        return obj

    def _cache_store(self, key: str | None, obj: CompiledObject) -> None:
        if key is None:
            return
        with self.obs.tracer.span("cache.store", "cache", function=obj.name):
            stored = self.cache.put(key, obj)
        if stored:
            with self._lock:
                self.stats.cache_stores += 1
            self.diagnostics.record(
                CACHE_STORE, obj.name,
                detail=f"persisted {obj.mode} version as cache entry {key[:12]}",
                signature=obj.signature,
            )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def jit_compile(
        self,
        name: str,
        signature: Signature,
        budget: float | None = None,
    ) -> CompiledObject | None:
        """Compile one function for one signature with the JIT pipeline.

        Returns ``None`` when there is no version to serve from this
        compile: the function was redefined while it compiled (the result
        describes dead source and is dropped), or the compile failed
        (:meth:`compile_failed` has recorded the verdict).

        ``budget`` (default: the repository-wide per-function budget) is a
        wall-clock target, not a hard deadline: the compile it bounds has
        already run by the time it can be measured, so an overrun stores
        and returns the object (this call needs it) but records the event
        and flags the function so speculative passes skip it up front.
        """
        return self._compile(name, "jit", signature, budget=budget)

    def speculate(
        self, name: str, generation: int | None = None
    ) -> CompiledObject | None:
        """Speculatively compile one function ahead of time.

        ``generation`` is the invalidation token background workers pass
        (captured when the task was queued; default: now): when it no
        longer matches the function's current generation — the source was
        redefined or removed mid-flight — the result is discarded instead
        of stored.  Failures are recorded, never raised: the "hidden"
        ahead-of-time pass must survive any one function.
        """
        return self._compile(name, "spec", generation=generation)

    def _compile(
        self, name, mode, signature=None, generation=None, budget=None
    ) -> CompiledObject | None:
        """The one compile entry (foreground miss, speculative pass,
        background worker, tier promotion).  ``None`` means "not now" —
        stale generation, dropped, or failed with the verdict recorded —
        so no caller needs a handler of its own."""
        if generation is None:
            generation = self.generation_of(name)
        elif self.generation_of(name) != generation:
            return None
        span = "jit_compile" if mode == "jit" else "speculate"
        with self.obs.tracer.span(span, "compile", function=name):
            fn = self._prepared(name)
            try:
                with self._compile_lock(name):
                    if mode == "jit" and (
                        self._has_dynamic_calls(fn)
                        or self._range_only_miss(name, signature)
                    ):
                        # Two situations call for range widening (paper
                        # Figure 3: poly1_sig1 with limits(x) = top exists
                        # alongside the constant-specialized sig0):
                        #  * remaining dynamic calls (recursion past the
                        #    inlining depth) would recompile for every
                        #    distinct constant;
                        #  * a repository miss whose only difference from an
                        #    existing version is the value ranges — the same
                        #    call site is being fed varying values, so stop
                        #    specializing on them.
                        signature = Signature.of(t.widen_range() for t in signature)
                        existing = self._find_version(name, signature)
                        if existing is not None:
                            return existing
                    if mode == "jit":
                        compiler, tag = JitCompiler(
                            self.jit_options, fault_plan=self.fault_plan,
                            tracer=self.obs.tracer,
                        ), signature
                    else:
                        # The speculator derives a spec version's signature,
                        # so its cache entry is addressed by the mode tag.
                        compiler, tag = SourceCompiler(
                            self.src_options, fault_plan=self.fault_plan,
                            tracer=self.obs.tracer,
                        ), mode
                    obj, duration = self._compile_and_store(
                        name, mode, self._cache_key(fn, tag), generation,
                        lambda: compiler.compile(
                            fn, signature, mode=mode,
                            is_user_function=self.knows,
                        ),
                    )
            except Exception as exc:  # noqa: BLE001 - rejection or compiler crash
                self.compile_failed(name, mode, exc, signature)
                return None
            if budget is None and mode == "jit":
                budget = self.compile_budget.per_function
            # duration is None when no compile ran (cache hit, or dropped).
            if budget is not None and duration is not None and duration > budget:
                self._budget_skip(
                    name,
                    f"jit compile took {duration:.4f}s (budget {budget:.4f}s); "
                    "flagged for speculative skips",
                    signature, flag=True,
                )
            return obj

    def _budget_skip(self, name, detail, signature="", flag=False) -> None:
        """Record one budget skip; ``flag`` also marks ``name`` as over the
        per-function budget, to be skipped up front from now on."""
        if flag:
            with self._lock:
                self._budget_flagged.add(name)
        self.diagnostics.record(BUDGET_SKIP, name, detail=detail, signature=signature)

    def _compile_and_store(
        self, name: str, mode: str, key: str | None, generation: int, build
    ) -> tuple[CompiledObject | None, float | None]:
        """The one tail behind :meth:`jit_compile` and :meth:`speculate`:
        probe the persistent cache, else ``build()`` under the compile
        deadline; account, store, persist.  Returns the object and the
        seconds its compile took (``None``: served from the cache).

        ``generation`` is the function's redefinition counter from before
        its source was read: if it moved, the object describes dead source
        and is dropped — ``(None, None)`` — instead of stored (the new
        source gets its own compile).
        """
        obj = self._cache_probe(name, key)
        seconds = None
        if obj is None:
            start = time.perf_counter()
            # One deadline covers the whole pipeline: the analysis phases
            # (disambiguation, inference) can hang just as hard as codegen.
            with self.guard.compile_guard(name):
                obj = build()
            seconds = time.perf_counter() - start
        with self._lock:
            if self._generations.get(name, 0) != generation:
                return None, None
            if seconds is None:
                self.stats.cache_hits += 1
            else:
                if mode == "jit":
                    self.stats.jit_compiles += 1
                    self.stats.jit_compile_seconds += seconds
                else:
                    # The speculative figure is the code generator alone,
                    # as it always was: its analysis is the speculator's
                    # (phase_times.type_inference has it).
                    self.stats.speculative_compiles += 1
                    self.stats.speculative_compile_seconds += (
                        obj.phase_times.codegen
                    )
                self.compile_log.append((name, mode, obj.phase_times))
            self.store(obj)
        if seconds is None:
            self.diagnostics.record(
                CACHE_HIT, name,
                detail=f"{'speculative' if mode == 'spec' else mode} compile "
                "served from the persistent cache",
                signature=obj.signature,
            )
        else:
            self.obs.record_compile(mode, obj.phase_times)
            self._cache_store(key, obj)
        return obj, seconds

    def speculate_all(
        self, budget: float | CompileBudget | None = None
    ) -> SpeculationReport:
        """Ahead-of-time pass over every known function.

        ``budget`` (seconds, or a :class:`CompileBudget`) keeps the pass
        "hidden": once the per-pass budget is spent the remaining
        functions are skipped and recorded, never raised; a per-function
        budget discards (and flags) any single compile that overran it.
        Returns a list of the compiled names; the
        :class:`SpeculationReport` subclass also carries ``skipped``,
        ``failed`` and ``elapsed``.
        """
        budget = _as_budget(budget) if budget is not None else self.compile_budget
        report = SpeculationReport()
        names = self.function_names()
        start = time.perf_counter()
        with self.obs.tracer.span("speculate_all", "speculation"):
            for position, name in enumerate(names):
                elapsed = time.perf_counter() - start
                if budget.per_pass is not None and elapsed >= budget.per_pass:
                    for skipped in names[position:]:
                        report.skipped.append((skipped, "pass-budget"))
                        self._budget_skip(
                            skipped,
                            f"speculative pass budget ({budget.per_pass:.4f}s) "
                            f"exhausted after {elapsed:.4f}s",
                        )
                    break
                if name in self._budget_flagged:
                    report.skipped.append((name, "function-budget"))
                    self._budget_skip(
                        name,
                        "previously flagged as over the per-function compile "
                        "budget",
                    )
                    continue
                fn_start = time.perf_counter()
                obj = self.speculate(name)
                fn_elapsed = time.perf_counter() - fn_start
                if obj is None:
                    report.failed.append(name)
                    continue
                if (
                    budget.per_function is not None
                    and fn_elapsed > budget.per_function
                ):
                    # The compile finished but proved pathological: drop the
                    # object (a persisted copy may stay, it is cheap to reload)
                    # and flag the function so the pass stays cheap.
                    self._remove_version(name, obj, evict=False)
                    report.skipped.append((name, "function-budget"))
                    self._budget_skip(
                        name,
                        f"speculative compile took {fn_elapsed:.4f}s "
                        f"(budget {budget.per_function:.4f}s); discarded",
                        obj.signature, flag=True,
                    )
                    continue
                report.append(name)
        report.elapsed = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, invocation) -> list[MxArray]:
        """Serve one invocation: the hot-call cache or :meth:`_resolve`
        picks a version, :meth:`_serve` runs it.  An adaptive controller
        also observes every served call — the mode that answered plus
        wall time — which is its entire input signal."""
        name, args = invocation.name, invocation.args
        version = self._fast_cache.get(name)
        if (
            version is None
            or not version.accepts(args)
            # The version served is the one locate() would choose: that is
            # the cached one when it is the only one held, or at distance 0.
            or (
                len(self._objects.get(name, ())) > 1
                and not version.exact_for(args)
            )
        ):
            version = self._resolve(invocation)
        controller = self.tiering
        if controller is None:
            return self._serve(invocation, version)
        totals = self.diagnostics.totals
        deopts_before = totals.get(DEOPT)
        start = time.perf_counter()
        results = self._serve(invocation, version)
        seconds = time.perf_counter() - start
        # A deopt mid-call means the bottom version produced the answer;
        # attribute the observation to the mode that served it.
        served = totals.get(DEOPT) == deopts_before
        controller.observe(
            invocation, version.mode if served else TIER_INTERPRETER, seconds
        )
        return results

    def _resolve(self, invocation):
        """The hot-call cache missed: choose the version to serve — there
        always is one, the bottom version.

        The miss policy is the one place static and adaptive sessions
        differ: without a controller a repository miss JIT-compiles *now*
        (the paper's locate-else-compile); with one the call is
        interpreted now (responsiveness) and the controller promotes the
        function out-of-band once it proves hot.
        """
        name = invocation.name
        bottom = self._bottom.get(name)
        if bottom is None:
            raise RepositoryError(f"unknown function '{name}'")
        controller = self.tiering
        if controller is not None:
            # First dispatch restores any persisted profile inline, so a
            # warm session's first call already runs at its learned tier
            # (the restore compiles are disk-cache hits).
            controller.prepare(name)
            if controller.suppressed(name):
                return bottom
        if name in self._uncompilable or len(invocation.args) > len(bottom.fn.params):
            # More actuals than formals is the interpreter's to refuse,
            # with its error text (locate() would pad, not reject).
            return bottom
        version = self.locate(invocation)
        if version is None:
            if controller is not None:
                return bottom
            if name in self._budget_flagged:
                # Over-budget function with no usable version: stay in the
                # interpreter rather than stall this call on a compile
                # known to be pathological.
                self._budget_skip(name, "jit skipped: function over compile budget")
                return bottom
            version = self.jit_compile(name, invocation.signature)
            if version is None:
                return bottom  # not now; a later call asks again if it may
        self._fast_cache[name] = version
        return version

    # ------------------------------------------------------------------
    # The one serve path, and guarded deoptimization
    # ------------------------------------------------------------------
    def _serve(self, invocation, version, spanned=False) -> list[MxArray]:
        """Run one version — the only function that invokes one.

        Every *compiled* execution is guarded: an unexpected (non-MATLAB)
        exception deoptimizes.  MATLAB-level errors (``error(...)``,
        subscript violations) are the program's own behaviour and
        propagate unchanged; so does anything the bottom version raises:
        there is nothing below the interpreter.
        """
        mode = version.mode
        tracer = self.obs.tracer
        supervised = tracer.enabled or self._watched or self.sandbox is not None
        if supervised and not spanned and tracer.enabled:
            with tracer.span(invocation.name, "execution", tier=mode):
                return self._serve(invocation, version, spanned=True)
        if mode == TIER_INTERPRETER:
            self.stats.calls_interpreted += 1
            return version.invoke(invocation.args, invocation.nargout, self._rt)
        if mode == TIER_SPEC:
            self.stats.calls_spec += 1
        else:
            self.stats.calls_jit += 1
        rng_state = GLOBAL_RANDOM.snapshot()
        sink_mark = self.sink.mark()
        try:
            if supervised:
                if self.sandbox is not None and not getattr(
                    version, "sandbox_promoted", False
                ):
                    outputs = self._sandbox_trial(invocation, version, rng_state)
                    if outputs is not None:
                        return outputs
                if self._watched:
                    # The chaos probes live *inside* the guard: an injected
                    # hang must be cancelled by the watchdog exactly like a
                    # miscompiled infinite loop.  A fired DeadlineExceeded
                    # lands in the net below and deoptimizes.
                    with self.guard.run_guard(invocation.name):
                        if self._chaos_run_checks:
                            self.fault_plan.check(SITE_HANG, invocation.name)
                            self.fault_plan.check(SITE_OOM, invocation.name)
                        return version.invoke(
                            invocation.args, invocation.nargout, self._rt
                        )
            return version.invoke(invocation.args, invocation.nargout, self._rt)
        except MatlabError:
            raise
        except Exception as exc:  # noqa: BLE001 - this is the safety net
            return self._deoptimize(invocation, version, exc, rng_state, sink_mark)

    def _sandbox_trial(self, invocation, obj: CompiledObject, rng_state):
        """First run of a fresh compile, supervised in a forked child.

        Success applies the child's side effects (transcript, RNG
        advance) and promotes the object in-process; a sandbox death
        raises into :meth:`_serve`'s net — the session never sees the
        crash.  ``None``: no fork here, promoted untried, caller runs it.
        """
        name = invocation.name
        with self._lock:
            functions = dict(self._functions)
        with self.obs.tracer.span("sandbox_trial", "execution", function=name):
            verdict = self.sandbox.trial(
                obj, functions, invocation.args, invocation.nargout, rng_state
            )
        if not verdict.ok:
            self.diagnostics.record(
                SANDBOX_FAILURE, name,
                detail=verdict.reason,
                signature=obj.signature,
            )
            raise SandboxFailure(verdict.reason)
        obj.sandbox_promoted = True
        self.diagnostics.record(
            SANDBOX_TRIAL, name,
            detail=verdict.reason
            or "first run succeeded in the sandbox; promoted in-process",
            signature=obj.signature,
        )
        if not verdict.executed:
            return None
        if verdict.rng_state is not None:
            GLOBAL_RANDOM.restore(verdict.rng_state)
        if verdict.sink_text:
            self.sink.write(verdict.sink_text)
        if verdict.matlab_error is not None:
            # The program's own error, replayed with its transcript.
            raise verdict.matlab_error
        return verdict.outputs

    def _deoptimize(
        self, invocation, obj: CompiledObject, exc, rng_state, sink_mark
    ) -> list[MxArray]:
        """Quarantine a failing compiled version (memory *and* disk: a
        cached crasher must not resurrect in a later session), roll back
        the half-run call's side effects, then serve the bottom version."""
        name = invocation.name
        self._remove_version(name, obj, evict=True)
        self.diagnostics.record(
            DEOPT, name,
            detail=f"quarantined {obj.mode} version; re-executing "
            "through the interpreter",
            cause=exc,
            signature=obj.signature,
        )
        self._note_strike(name)
        GLOBAL_RANDOM.restore(rng_state)
        self.sink.truncate(sink_mark)
        return self._serve(invocation, self._bottom[name])

    def _note_strike(self, name: str) -> None:
        with self._lock:
            strikes = self._strikes[name] = self._strikes.get(name, 0) + 1
            quarantine = (
                strikes >= self.max_strikes and name not in self._uncompilable
            )
            if quarantine:
                self._uncompilable.add(name)
        if quarantine:
            for version in self.versions_of(name):
                self._remove_version(name, version, evict=True)
            self.diagnostics.record(
                QUARANTINE, name,
                detail=f"demoted to interpreter-only after {strikes} "
                "failed compiled executions",
            )

    def _remove_version(self, name: str, obj: CompiledObject, evict: bool) -> None:
        """The one way a version leaves: out of the function's list and
        the hot-call cache and — ``evict`` — the persistent cache."""
        with self._lock:
            remaining = [v for v in self._objects.get(name, ()) if v is not obj]
            if remaining:
                self._objects[name] = remaining
            else:
                self._objects.pop(name, None)
            if self._fast_cache.get(name) is obj:
                del self._fast_cache[name]
        key = getattr(obj, "cache_key", None)
        if evict and self.cache is not None and key is not None:
            if self.cache.evict(key):
                self.diagnostics.record(
                    CACHE_EVICT, name,
                    detail=f"removed cache entry {key[:12]} "
                    "(version quarantined)",
                    signature=obj.signature,
                )

    def _range_only_miss(self, name: str, signature: Signature) -> bool:
        """True when an existing version matches this signature in every
        component except the value ranges."""
        for version in self.versions_of(name):
            if len(version.signature) != len(signature):
                continue
            if version.signature == signature:
                continue  # identical: the recompile replaces it instead
            if all(
                a.intrinsic is b.intrinsic
                and a.minshape == b.minshape
                and a.maxshape == b.maxshape
                for a, b in zip(signature.types, version.signature.types)
            ):
                return True
        return False

    def _has_dynamic_calls(self, fn: ast.FunctionDef) -> bool:
        with self._lock:
            known = set(self._functions)
        return bool(ast.called_names(fn) & known)

    def _find_version(self, name: str, signature: Signature):
        for version in self.versions_of(name):
            if version.signature == signature:
                return version
        return None

    def _call_user(self, name: str, args: list[MxArray], nargout: int):
        """Re-entry point for compiled code calling user functions."""
        return self.execute(Invocation(name, args, nargout))

    def _interp_dispatch(self, name, args, nargout):
        """The fallback interpreter also routes calls through us, so a
        single uncompilable function doesn't drag its callees down."""
        if not self.knows(name):
            return None
        return self.execute(Invocation(name, args, nargout))
