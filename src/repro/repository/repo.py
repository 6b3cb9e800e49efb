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
:meth:`_resolve` always finds something to serve and :meth:`execute` is
the one function that runs a version, its deopt net armed for compiled
modes only; :meth:`jit_compile` and :meth:`speculate` are two spellings of
one entry that never raises, because :meth:`compile_failed` is the one
verdict on a failed compile; and every degradation lands in
:attr:`diagnostics` as a structured event.
"""

from __future__ import annotations

import functools
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import (
    CodegenError,
    MatlabError,
    RecursionLimitError,
    RepositoryError,
)
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.frontend.pretty import pretty_function
from repro.codegen import inline
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
)
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.display import OutputSink
from repro.runtime.mxarray import MxArray
from repro.repository.depgraph import DependencyGraph
from repro.repository.cache import cache_key, options_fingerprint, source_digest
from repro.repository.diagnostics import (
    CACHE_EVICT,
    CACHE_HIT,
    CACHE_LOAD,
    CACHE_STORE,
    CACHE_STORE_FAILURE,
    COMPILE_FAILURE,
    DEOPT,
    QUARANTINE,
    DiagnosticsLog,
)
from repro.repository.snoop import DirectorySnoop
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
    # Observability: executions by tier (summary()/profiler cross-checks)
    # — the calls the repository serves; a version's direct call of
    # itself is part of its caller's execution and counts nowhere.
    calls_jit: int = 0
    calls_spec: int = 0
    calls_interpreted: int = 0
    # The session's event log.  The robustness counts are its per-kind
    # totals — each is one ``diagnostics.record`` and nothing else.
    events: DiagnosticsLog = field(default_factory=DiagnosticsLog, repr=False)

    deopts = property(lambda self: self.events.local(DEOPT))
    quarantines = property(lambda self: self.events.local(QUARANTINE))
    compile_failures = property(lambda self: self.events.local(COMPILE_FAILURE))

    @property
    def calls_by_tier(self) -> dict[str, int]:
        return {
            TIER_INTERPRETER: self.calls_interpreted,
            TIER_JIT: self.calls_jit,
            TIER_SPEC: self.calls_spec,
        }


def _widened(signature: Signature) -> Signature:
    """The signature with every value range widened to ⊤."""
    return Signature.of(t.widen_range() for t in signature)


#: Deopt strikes (crashed compiled runs or JIT compiles) after which a
#: function is quarantined to its bottom version.
MAX_STRIKES = 3

#: How deep the repository inlines a function into itself: once, as the
#: compiled function, so never into a copy of itself (the paper inlines
#: recursion three levels deep, ``inline.MAX_RECURSION_DEPTH``, which
#: the batch baselines keep).  A function's own calls stay calls, which
#: compiled code makes as plain host calls (``select.Walk.call_own``),
#: and mutual recursion stops where it re-enters.
_INLINE_DEPTH = 1

#: Compile mode -> the error class that is an *expected* rejection there
#: ("cannot compile this construct") rather than a compiler crash.
_REJECTIONS = {"jit": MatlabError, "spec": CodegenError}


#: What the source-identity scan counts as a possible reference to a
#: function: every MATLAB identifier in the text, comments included.
_IDENTIFIER = re.compile(r"[A-Za-z]\w*")


class _SourceUnit:
    """One registered source: the text of one ``add_source`` call (or,
    for a program registered as an AST, its functions) and what is known
    of it without parsing — the parse record, ``(name, formals,
    outputs)`` per function in source order.

    ``functions`` is ``None`` until :meth:`CodeRepository._parsed` parses
    the text, which happens on first touch when the unit registered from
    a stored parse record."""

    def __init__(self, text, record, functions=None, digest=None):
        self.text = text
        self.record = record
        self.formals = {name: formals for name, formals, _ in record}
        self.functions = functions
        self.lock = threading.Lock()
        self._digest = digest

    @classmethod
    def of(cls, functions, text=None, digest=None) -> "_SourceUnit":
        record = tuple(
            (fn.name, len(fn.params), len(fn.outputs)) for fn in functions
        )
        return cls(text, record, {fn.name: fn for fn in functions}, digest)

    @functools.cached_property
    def source(self) -> str:
        """The text the keys hash: as given, else the pretty-printed AST."""
        if self.text is not None:
            return self.text
        return "\n".join(map(pretty_function, self.functions.values()))

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = source_digest(self.source)
        return self._digest

    @functools.cached_property
    def identifiers(self) -> frozenset[str]:
        return frozenset(_IDENTIFIER.findall(self.source))


@dataclass(frozen=True)
class _Interpreted:
    """The bottom version of a function: its source, run by the
    interpreter.  It answers ``invoke`` like a compiled version but is
    never among :meth:`CodeRepository.versions_of` (nor located, nor in
    the hot-call cache).  Its definition is the one ``unit`` holds under
    ``name``, parsed on first run if the unit has not been."""

    name: str
    unit: _SourceUnit
    repository: "CodeRepository"
    mode = TIER_INTERPRETER

    @property
    def formals(self) -> int:
        return self.unit.formals[self.name]

    def invoke(self, arg_values, nargout: int, rt):
        repository = self.repository
        fn = repository._parsed(self.unit)[self.name]
        return repository._interpreter.call_function(fn, arg_values, nargout)


class CodeRepository:
    """Database of compiled code plus the machinery around it."""

    def __init__(
        self,
        jit_options: JitOptions | None = None,
        src_options: SrcOptions | None = None,
        sink: OutputSink | None = None,
        inline_enabled: bool = True,
        fault_plan=None,
        cache=None,
        obs=None,
        resilience: ResiliencePolicy | None = None,
        native=None,
    ):
        self.jit_options = jit_options or JitOptions()
        self.src_options = src_options or SrcOptions()
        self.sink = sink if sink is not None else OutputSink()
        self.inline_enabled = inline_enabled
        self.fault_plan = fault_plan
        # Observability switchboard (tracing + metrics; a shared null
        # facade when the session didn't ask for either).
        self.obs = obs if obs is not None else DISABLED_OBS
        # Optional disk persistence (a RepositoryCache); compiled objects
        # found there skip compilation entirely in warm sessions.
        self.cache = cache
        self.snoop = DirectorySnoop()
        self.depgraph = DependencyGraph()
        self.diagnostics = DiagnosticsLog()
        self.stats = RepositoryStats(events=self.diagnostics)
        # The metrics registry reads these tallies (repro.obs.instruments)
        # and robustness events reach the trace stream for free.
        self.obs.attach(repository=self, kernels=KERNEL_CACHE)
        self.obs.bind_diagnostics(self.diagnostics)
        # Supervision tier (repro.resilience): watchdog deadlines around
        # compiles and runs.
        self.resilience = resilience if resilience is not None else DEFAULT_POLICY
        self.guard = ExecutionGuard(
            compile_deadline=self.resilience.compile_deadline,
            run_deadline=self.resilience.run_deadline,
            diagnostics=self.diagnostics,
        )
        # In-process chaos probes (hang/oom on the guarded run path).
        self._chaos_run_checks = (
            fault_plan is not None
            and any(
                spec.site in (SITE_HANG, SITE_OOM) for spec in fault_plan.specs
            )
        )
        # Whether served calls run under the watchdog (or the in-process
        # chaos probes).
        self._watched = (
            self.resilience.run_deadline is not None or self._chaos_run_checks
        )
        # The cache heals itself; give it the session's event log.
        if cache is not None and getattr(cache, "diagnostics", None) is None:
            cache.diagnostics = self.diagnostics
        # name -> the source unit defining it now (its FunctionDef is
        # parsed from there, on first touch for a unit read from a record)
        self._units: dict[str, _SourceUnit] = {}
        # name -> the bottom version (the interpreter over that definition)
        self._bottom: dict[str, _Interpreted] = {}
        # name -> (prepared FunctionDef, every name it still applies)
        self._inlined: dict[str, tuple[ast.FunctionDef, set[str]]] = {}
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
        # out-of-band) and _supervise()'s post-call hook.
        self.tiering = None
        # Deopt strike counts per function (quarantine at MAX_STRIKES).
        self._strikes: dict[str, int] = {}
        # Functions whose deoptimized call the interpreter is re-running.
        self._rerunning: set[str] = set()
        # Thread safety: background speculation workers mutate the same
        # tables the foreground session reads.  ``_lock`` (reentrant)
        # guards every shared dict/set; compilation itself runs outside it
        # under a per-function lock (distinct names compile in parallel;
        # two compiles of one name take turns, so each one's widening
        # check and cache probe see what the other stored).
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
            call_dispatcher=self.dispatch,
            fusion=self.jit_options.fusion,
            native=native,
        )
        self._rt = RuntimeSupport(
            call_user=self.execute, sink=self.sink, fault_plan=fault_plan,
            obs=self.obs, native=native, knows=self.knows,
        )
        self._relink()

    # ------------------------------------------------------------------
    # Source management
    # ------------------------------------------------------------------
    def add_source(self, source: str | ast.Program) -> list[str]:
        """Register function definitions from source text or a parsed
        program; returns the names registered.

        With a persistent cache, a text whose parse record is stored
        registers from the record and is parsed only when something
        needs its definitions — which a cache hit never does."""
        if isinstance(source, str):
            unit = self._unit_of(source)
        elif source.is_script:
            raise RepositoryError("scripts cannot be added to the repository")
        else:
            unit = _SourceUnit.of(source.functions)
        self._register(unit)
        return [name for name, _, _ in unit.record]

    def _unit_of(self, text: str) -> _SourceUnit:
        """The unit of one source text: from its parse record when the
        cache holds one, else parsed now (so a syntax error or a script
        raises here) and recorded."""
        digest = None
        if self.cache is not None:
            digest = source_digest(text)
            record = self.cache.get_unit(digest)
            if record is not None:
                return _SourceUnit(text, record, digest=digest)
        with self.obs.tracer.span("parse", "parse"):
            program = parse(text)
        if program.is_script:
            raise RepositoryError("scripts cannot be added to the repository")
        unit = _SourceUnit.of(program.functions, text, digest)
        if digest is not None:
            self.cache.put_unit(digest, unit.record)
        return unit

    def _parsed(self, unit: _SourceUnit) -> dict[str, ast.FunctionDef]:
        """The unit's definitions, parsing its text on first touch — once,
        under the unit's own lock, never the state lock."""
        functions = unit.functions
        if functions is None:
            with unit.lock:
                if unit.functions is None:
                    with self.obs.tracer.span("parse", "parse"):
                        program = parse(unit.text)
                    unit.functions = {fn.name: fn for fn in program.functions}
                functions = unit.functions
        return functions

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
                self._register(_SourceUnit.of([fn]))
                touched.append(name)
        for name in report.removed:
            if name not in table:
                self._unregister(name)
        return touched

    def _register(self, unit: _SourceUnit) -> None:
        with self._lock:
            for name in unit.formals:
                self._units[name] = unit
                self._bottom[name] = _Interpreted(name, unit, self)
                # Invalidate the function itself and everything that
                # inlined (or may call) it; each gets a new generation so
                # in-flight background compiles of the old source are
                # dropped at store time.
                for stale in self.depgraph.dependents_of(name):
                    self._purge_compiled_state(stale)

    def _unregister(self, name: str) -> None:
        with self._lock:
            self._units.pop(name, None)
            self._bottom.pop(name, None)
            # Same purge as _register: a removed function must not keep
            # serving a stale cached object, stay wrongly blacklisted, or
            # carry strike state over to an unrelated future
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
        ``"uncompilable"`` — a compiler rejected it or its versions struck
        out; final until redefined."""
        return "uncompilable" if name in self._uncompilable else None

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
        under the caller's ``tag``); ``None`` without a cache or for an
        unknown function."""
        try:
            return self._cache_key(name, tag)
        except RepositoryError:
            return None

    def attach(self, controller) -> None:
        """Install the adaptive-tiering controller."""
        self.tiering = controller
        self._relink()

    def disarm(self) -> None:
        """Session close: later calls run unsupervised — no watchdog
        registration leaks into the process-wide monitor."""
        self.guard.compile_deadline = None
        self.guard.run_deadline = None
        self._watched = self._chaos_run_checks
        self._relink()

    def knows(self, name: str) -> bool:
        return name in self._units

    def function_names(self) -> list[str]:
        with self._lock:
            return sorted(self._units)

    def formal_count(self, name: str) -> int | None:
        """How many formals ``name`` declares (``None``: unknown), read
        from its parse record — no parse."""
        unit = self._units.get(name)
        return None if unit is None else unit.formals[name]

    def lookup_function(self, name: str) -> ast.FunctionDef | None:
        unit = self._units.get(name)
        return None if unit is None else self._parsed(unit).get(name)

    # ------------------------------------------------------------------
    # Inlining pass (Figure 1, pass 2)
    # ------------------------------------------------------------------
    def _prepared(self, name: str) -> tuple[ast.FunctionDef, set[str]]:
        """The function as compiled (inlined, unless inlining is off) and
        every name it still applies — a call or an index; intersect with
        the known functions to get the calls left dynamic.

        Its dependencies are what it embeds plus every name it applies,
        known or not: a function defined later under one of those names
        would be inlined (or called) there, so it purges this one."""
        with self._lock:
            unit = self._units.get(name)
            if unit is None:
                raise RepositoryError(f"unknown function '{name}'")
            cached = self._inlined.get(name)
            if cached is not None:
                return cached
        # Parsing and inlining (a transform of a copy, if anything is
        # inlined) run outside the state lock; a concurrent redefinition
        # wins the re-check below.
        fn = self._parsed(unit)[name]
        if self.inline_enabled:
            inliner = Inliner(
                self.lookup_function, inline.MAX_INLINE_LINES, _INLINE_DEPTH
            )
            prepared, embedded = inliner.run(fn), inliner.inlined_names
        else:
            prepared, embedded = fn, set()
        applied = ast.called_names(prepared)
        with self._lock:
            if self._units.get(name) is not unit:
                # Redefined mid-prepare: recurse onto the fresh source.
                return self._prepared(name)
            self._inlined[name] = prepared, applied
            self.depgraph.set_dependencies(name, (embedded | applied) - {name})
        return prepared, applied

    def _compile_lock(self, name: str) -> threading.Lock:
        """Per-name compile lock: one compile of a given function at a
        time (its range-widening check and cache probe read the versions
        and entries an earlier compile of it stored), while distinct
        functions compile in parallel."""
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
        return min(safe, key=lambda version: version.signature.distance(signature))

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

    def _cache_key(self, name: str, signature_tag) -> str | None:
        """Content address of one compile of ``name`` (None without a
        cache).

        ``signature_tag`` disambiguates versions of one source: the
        invocation signature for JIT compiles, the mode tag for
        speculative ones (whose signature is derived by the speculator).
        """
        if self.cache is None:
            return None
        identity, _ = self._source_identity(name)
        return cache_key(identity, signature_tag, self._options_fingerprint)

    def _source_identity(self, name: str) -> tuple[str, set[str]]:
        """What a compile of ``name`` reads, as raw text — no parse: its
        unit's digest, the ``(name, unit digest)`` of every known function
        reachable through identifiers in those texts, and the inliner's
        switch and limits.  Also returns every identifier scanned, which a
        cache hit records as the function's dependencies."""
        with self._lock:
            units = dict(self._units)
        unit = units.get(name)
        if unit is None:
            raise RepositoryError(f"unknown function '{name}'")
        identifiers: set[str] = set()
        scanned, frontier = {unit}, [unit]
        while frontier:
            for ident in frontier.pop().identifiers - identifiers:
                identifiers.add(ident)
                found = units.get(ident)
                if found is not None and found not in scanned:
                    scanned.add(found)
                    frontier.append(found)
        identity = "\n".join([
            name, unit.digest,
            *(f"{callee} {units[callee].digest}"
              for callee in sorted(identifiers & units.keys())),
            f"inline={self.inline_enabled} lines={inline.MAX_INLINE_LINES} "
            f"depth={_INLINE_DEPTH}",
        ])
        return identity, identifiers - {name}

    def _cache_probe(self, name: str, tags) -> tuple[CompiledObject, set[str]] | None:
        """Look one compile of ``name`` up in the disk cache under the key
        of each of ``tags`` in turn — one request however many it tries —
        and validate before trusting.  A hit comes with the identifiers
        its key scanned."""
        if self.cache is None:
            return None
        identity, identifiers = self._source_identity(name)
        obj = None
        with self.obs.tracer.span("cache.load", "cache", function=name):
            for key in dict.fromkeys(
                cache_key(identity, tag, self._options_fingerprint)
                for tag in tags
            ):
                obj = self.cache.get(key)
                if obj is not None:
                    break
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
        return obj, identifiers

    def _cache_store(self, key: str | None, obj: CompiledObject) -> None:
        if key is None:
            return
        with self.obs.tracer.span("cache.store", "cache", function=obj.name):
            stored = self.cache.put(key, obj)
        if stored:
            with self._lock:
                self.stats.cache_stores += 1
            kind, verb = CACHE_STORE, "persisted"
        else:
            kind, verb = CACHE_STORE_FAILURE, "could not persist"
        self.diagnostics.record(
            kind, obj.name,
            detail=f"{verb} {obj.mode} version as cache entry {key[:12]}",
            signature=obj.signature,
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def jit_compile(
        self, name: str, signature: Signature
    ) -> CompiledObject | None:
        """Compile one function for one signature with the JIT pipeline.

        Returns ``None`` when there is no version to serve from this
        compile: the function was redefined while it compiled (the result
        describes dead source and is dropped), or the compile failed
        (:meth:`compile_failed` has recorded the verdict).
        """
        return self._compile(name, "jit", signature)

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
        self, name, mode, signature=None, generation=None
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
            formals = self.formal_count(name)
            if formals is None:
                raise RepositoryError(f"unknown function '{name}'")
            if signature is not None and len(signature) != formals:
                # Only a call that supplies every formal is compiled for
                # (see _resolve); an adaptive promotion may still ask.
                return None
            try:
                with self._compile_lock(name):
                    # Two situations call for range widening (paper Figure
                    # 3: poly1_sig1 with limits(x) = top exists alongside
                    # the constant-specialized sig0):
                    #  * a repository miss whose only difference from an
                    #    existing version is the value ranges — the same
                    #    call site is being fed varying values, so stop
                    #    specializing on them;
                    #  * remaining dynamic calls (recursion past the
                    #    inlining depth) would recompile for every distinct
                    #    constant.  Only the prepared function shows them,
                    #    so the disk cache is probed first under both keys.
                    if mode == "jit" and self._range_only_miss(name, signature):
                        signature = _widened(signature)
                        existing = self._find_version(name, signature)
                        if existing is not None:
                            return existing
                    hit = self._cache_probe(name, (
                        (signature, _widened(signature)) if mode == "jit"
                        else (mode,)
                    ))
                    if hit is not None:
                        return self._admit_cached(name, mode, generation, *hit)
                    fn, applied = self._prepared(name)
                    if mode == "jit" and self._has_dynamic_calls(applied):
                        signature = _widened(signature)
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
                            fusion=self.jit_options.fusion,
                        ), mode
                    return self._compile_and_store(
                        name, mode, self._cache_key(name, tag), generation,
                        lambda: compiler.compile(
                            fn, signature, mode=mode,
                            is_user_function=self.knows, bind_own=True,
                        ),
                    )
            except Exception as exc:  # noqa: BLE001 - rejection or compiler crash
                self.compile_failed(name, mode, exc, signature)
                return None

    def _admit_cached(
        self, name: str, mode: str, generation: int, obj: CompiledObject,
        identifiers: set[str],
    ) -> CompiledObject | None:
        """Serve a compile from a disk-cache hit: store the version and
        record every identifier its key scanned as a dependency, so a
        later (re)definition of any of them purges it.  ``None``: the
        function was redefined meanwhile and the hit is dropped."""
        with self._lock:
            if self._generations.get(name, 0) != generation:
                return None
            self.stats.cache_hits += 1
            self.store(obj)
            self.depgraph.set_dependencies(name, identifiers)
        self.diagnostics.record(
            CACHE_HIT, name,
            detail=f"{'speculative' if mode == 'spec' else mode} compile "
            "served from the persistent cache",
            signature=obj.signature,
        )
        return obj

    def _compile_and_store(
        self, name: str, mode: str, key: str | None, generation: int, build
    ) -> CompiledObject | None:
        """The one tail behind :meth:`jit_compile` and :meth:`speculate`
        once the persistent cache missed: ``build()`` under the compile
        deadline; account, store, persist.

        ``generation`` is the function's redefinition counter from before
        its source was read: if it moved, the object describes dead source
        and is dropped — ``None`` — instead of stored (the new source gets
        its own compile).
        """
        start = time.perf_counter()
        # One deadline covers the whole pipeline: the analysis phases
        # (disambiguation, inference) can hang just as hard as codegen.
        with self.guard.compile_guard(name):
            obj = build()
        seconds = time.perf_counter() - start
        with self._lock:
            if self._generations.get(name, 0) != generation:
                return None
            if mode == "jit":
                self.stats.jit_compiles += 1
                self.stats.jit_compile_seconds += seconds
            else:
                # The speculative figure is the code generator alone, as it
                # always was: its analysis is the speculator's
                # (phase_times.type_inference has it).
                self.stats.speculative_compiles += 1
                self.stats.speculative_compile_seconds += obj.phase_times.codegen
            self.compile_log.append((name, mode, obj.phase_times))
            self.store(obj)
        self.obs.record_compile(mode, obj.phase_times)
        self._cache_store(key, obj)
        return obj

    def speculate_all(self) -> list[str]:
        """Ahead-of-time pass over every known function; returns the
        names compiled.  A failure is a ``compile_failure``
        event, never raised: the "hidden" pass survives any one
        function."""
        compiled = []
        with self.obs.tracer.span("speculate_all", "speculation"):
            for name in self.function_names():
                if self.speculate(name) is not None:
                    compiled.append(name)
        return compiled

    # ------------------------------------------------------------------
    # Execution: the one entry, and guarded deoptimization
    # ------------------------------------------------------------------
    def execute(self, name: str, args, nargout: int = 1, version=None):
        """Serve one call of ``name`` — the paper's invocation, passed as
        its three parts — and the only function that invokes a version.

        The hot-call cache or :meth:`_resolve` picks the version.  In an
        unsupervised session the call is served right here: a count, the
        rollback capture, a transcript mark, ``invoke``.  Every *compiled*
        execution is guarded: an unexpected (non-MATLAB) exception
        deoptimizes.  MATLAB-level errors (``error(...)``, subscript
        violations) are the program's own behaviour and propagate
        unchanged; so does anything the bottom version raises: there is
        nothing below the interpreter.

        A watched, traced or adaptive session hands the chosen
        version to :meth:`_supervise`, which re-enters here with it as
        ``version`` (that entry is :meth:`_serve`); the run then goes
        through :meth:`_guarded_invoke`.  An :class:`Invocation` is built
        only on those paths, on a miss and on a deopt.
        """
        guarded = version is not None
        if not guarded:
            version = self._fast_cache.get(name)
            invocation = None
            if (
                version is None
                or not version.accepts(args)
                # The version served is the one locate() would choose: the
                # cached one when it is the only one held, or at distance 0.
                or (
                    len(self._objects.get(name, ())) > 1
                    and not version.exact_for(args)
                )
            ):
                invocation = Invocation(name, args, nargout)
                version = self._resolve(invocation)
            if self._supervised or self.obs.tracer.enabled:
                return self._supervise(
                    invocation or Invocation(name, args, nargout), version
                )
        mode = version.mode
        if mode == TIER_INTERPRETER:
            self.stats.calls_interpreted += 1
            return version.invoke(args, nargout, self._rt)
        if mode == TIER_SPEC:
            self.stats.calls_spec += 1
        else:
            self.stats.calls_jit += 1
        rng_state = GLOBAL_RANDOM.snapshot()
        sink_mark = self.sink.mark()
        try:
            if guarded:
                return self._guarded_invoke(name, args, nargout, version)
            return version.invoke(args, nargout, self._rt)
        except MatlabError:
            raise
        except RecursionError:
            # The program's own depth, not a fault of this version.
            raise RecursionLimitError() from None
        except Exception as exc:  # noqa: BLE001 - this is the safety net
            return self._deoptimize(
                Invocation(name, args, nargout), version, exc, rng_state,
                sink_mark,
            )

    #: :meth:`execute` entered with the version already chosen (by the
    #: supervised serve, or a deopt's bottom version): the same function,
    #: so a wrapper of ``execute`` sees one entry per call.
    _serve = execute

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
        if (
            name in self._uncompilable or name in self._rerunning
            or len(invocation.args) != bottom.formals
        ):
            # More actuals than formals is the interpreter's to refuse, with
            # its error text; fewer is the interpreter's to run (emitted
            # code takes every formal), neither is compiled for.
            return bottom
        version = self.locate(invocation)
        if version is None:
            if controller is not None:
                return bottom
            version = self.jit_compile(name, invocation.signature)
            if version is None:
                return bottom  # not now; a later call asks again if it may
        self._fast_cache[name] = version
        return version

    def _supervise(self, invocation, version) -> list[MxArray]:
        """Serve the chosen version in a supervised session, inside its
        execution span.  An adaptive controller also observes the call —
        the mode that answered plus wall time, its entire input signal."""
        controller = self.tiering
        if controller is None:
            return self._spanned(invocation, version)
        totals = self.diagnostics.totals
        deopts_before = totals.get(DEOPT)
        start = time.perf_counter()
        results = self._spanned(invocation, version)
        seconds = time.perf_counter() - start
        # A deopt mid-call means the bottom version produced the answer;
        # attribute the observation to the mode that served it.
        served = totals.get(DEOPT) == deopts_before
        controller.observe(
            invocation, version.mode if served else TIER_INTERPRETER, seconds
        )
        return results

    def _spanned(self, invocation, version) -> list[MxArray]:
        """:meth:`_serve` one version, in an ``execution`` span when the
        session traces."""
        name, args = invocation.name, invocation.args
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._serve(name, args, invocation.nargout, version)
        with tracer.span(name, "execution", tier=version.mode):
            return self._serve(name, args, invocation.nargout, version)

    def _guarded_invoke(self, name, args, nargout, version):
        """The run step of a supervised call, inside :meth:`execute`'s
        net: the version under the run watchdog."""
        if not self._watched:
            return version.invoke(args, nargout, self._rt)
        # The chaos probes live *inside* the guard: an injected hang must
        # be cancelled by the watchdog exactly like a miscompiled infinite
        # loop.  A fired DeadlineExceeded lands in the net and deoptimizes.
        with self.guard.run_guard(name):
            if self._chaos_run_checks:
                self.fault_plan.check(SITE_HANG, name)
                self.fault_plan.check(SITE_OOM, name)
            return version.invoke(args, nargout, self._rt)

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
        # The interpreter re-runs all of the call: the calls of ``name``
        # it makes meanwhile are its own too, not a fresh compile each.
        outermost = name not in self._rerunning
        self._rerunning.add(name)
        try:
            return self._spanned(invocation, self._bottom[name])
        finally:
            if outermost:
                self._rerunning.discard(name)

    def _note_strike(self, name: str) -> None:
        with self._lock:
            strikes = self._strikes[name] = self._strikes.get(name, 0) + 1
            quarantine = (
                strikes >= MAX_STRIKES and name not in self._uncompilable
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

    def _has_dynamic_calls(self, applied: set[str]) -> bool:
        with self._lock:
            return not self._units.keys().isdisjoint(applied)

    def _find_version(self, name: str, signature: Signature):
        for version in self.versions_of(name):
            if version.signature == signature:
                return version
        return None

    def _relink(self) -> None:
        """The supervision changed (construction, ``attach``, ``disarm``):
        set the hot-path switch — does every served call go through
        :meth:`_supervise`?  Yes when runs are watched (a run deadline,
        or the in-process chaos probes) or an adaptive controller is
        attached.  (A live tracer is tested per call instead, since
        ``profile("on")`` swaps one in.)"""
        self._supervised = self._watched or self.tiering is not None

    def dispatch(self, name, args, nargout):
        """The interpreters' call hook (``Interpreter(call_dispatcher=)``,
        the front end's and the bottom version's): a user function's call
        is served by :meth:`execute`, so an interpreted caller still runs
        compiled callees; ``None`` for any other name."""
        if name not in self._units:
            return None
        return self.execute(name, args, nargout)
