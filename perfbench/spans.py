"""Spans recorded from outside: wrap the layers' public entry points.

Nothing under ``src/`` is edited.  ``install`` replaces public methods
(at class-attribute level) and the module-level names the JIT imports
with wrappers that, while the recorder is enabled, append one span per
call: name, layer, flow, parent, start, end.  Spans stay in memory; the
traced run writes them as one Chrome-trace file when it ends.

A layer's *self time* in a flow is the sum, over its spans, of the
span's duration minus the part its child spans cover.  Every flow runs
under one root span in the layer ``other`` (session construction and
front-end glue that no wrapped entry point covers), so the layers' self
times partition the flow time exactly.

Only the thread that enabled the recorder is recorded: background
workers would interleave with the parent/child stack.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter

#: Layers are ``src/repro`` packages; ``other`` is the residue.
LAYERS = (
    "frontend", "analysis", "inference", "codegen", "vcode", "kernels",
    "native", "repository", "interp", "runtime", "tiering", "resilience",
    "other",
)

# Span record fields.
NAME, LAYER, FLOW, PARENT, START, END = range(6)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._flow = None
        self._thread = None

    @contextmanager
    def flow(self, flow_id: str):
        """Record everything the calling thread does as one flow, under
        a root span in layer ``other``."""
        self._flow, self._thread = flow_id, threading.get_ident()
        self.enabled = True
        try:
            with self.span(flow_id, "other"):
                yield
        finally:
            self.enabled = False
            self._flow = None

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled or threading.get_ident() != self._thread:
            yield
            return
        stack = self._stack
        record = [name, layer, self._flow, stack[-1] if stack else -1,
                  perf_counter(), 0.0]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[END] = perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, layer: str):
        """``fn`` with a span around every call (cheap when disabled)."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            record = [name, layer, self._flow, stack[-1] if stack else -1,
                      perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, dict[str, float]]:
        """``{flow: {layer: self seconds}}`` over everything recorded."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(spans):
            layers = out.setdefault(span[FLOW], {})
            own = span[END] - span[START] - covered[index]
            layers[span[LAYER]] = layers.get(span[LAYER], 0.0) + own
        return out

    def flow_times(self) -> dict[str, float]:
        """Duration of each flow's root span."""
        return {
            span[FLOW]: span[END] - span[START]
            for span in self.spans if span[PARENT] < 0
        }

    def chrome_trace(self) -> dict:
        """Chrome-trace / Perfetto JSON: one complete event per span,
        one row (tid) per flow; ``args`` carries parent and flow id."""
        flows: dict[str, int] = {}
        events = []
        origin = self.spans[0][START] if self.spans else 0.0
        for index, span in enumerate(self.spans):
            tid = flows.setdefault(span[FLOW], len(flows) + 1)
            events.append({
                "name": span[NAME], "cat": span[LAYER], "ph": "X",
                "pid": 1, "tid": tid,
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "args": {"id": index, "parent": span[PARENT],
                         "flow": span[FLOW]},
            })
        for flow, tid in flows.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": flow}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


class _SpannedGuard:
    """A watchdog context whose arming and disarming are spans."""

    __slots__ = ("_inner", "_recorder", "_name")

    def __init__(self, inner, recorder, name):
        self._inner, self._recorder, self._name = inner, recorder, name

    def __enter__(self):
        with self._recorder.span(f"{self._name}.arm", "resilience"):
            return self._inner.__enter__()

    def __exit__(self, *exc_info):
        with self._recorder.span(f"{self._name}.disarm", "resilience"):
            return self._inner.__exit__(*exc_info)


def install(recorder: Recorder) -> None:
    """Wrap the layers' public entry points (idempotence not needed:
    the traced run is a process of its own and calls this once)."""
    from repro.analysis.disambiguate import Disambiguator
    from repro.codegen import jitgen
    from repro.codegen.inline import Inliner
    from repro.codegen.jitgen import CompiledObject, JitCompiler
    from repro.codegen.runtime_support import RuntimeSupport
    from repro.codegen.srcgen import SourceCompiler
    from repro.frontend.lexer import Lexer
    from repro.frontend.parser import Parser
    from repro.inference.engine import TypeInferenceEngine
    from repro.inference.speculation import Speculator
    from repro.interp.interpreter import Interpreter
    from repro.kernels.cache import KernelCache
    from repro.native.engine import NativeEngine
    from repro.repository.cache import RepositoryCache
    from repro.repository.repo import CodeRepository
    from repro.resilience import ExecutionGuard
    from repro.tiering import TierController
    from repro.vcode.regalloc import LinearScanAllocator

    def method(owner, attr, layer):
        name = f"{owner.__name__}.{attr}"
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, layer))

    method(Lexer, "tokenize", "frontend")
    method(Parser, "parse_program", "frontend")
    method(Disambiguator, "run_function", "analysis")
    method(TypeInferenceEngine, "infer", "inference")
    method(Speculator, "speculate", "inference")
    method(Inliner, "run", "codegen")
    method(JitCompiler, "compile", "codegen")
    method(SourceCompiler, "compile", "codegen")
    method(CompiledObject, "invoke", "codegen")
    method(LinearScanAllocator, "allocate", "vcode")
    # Module-level vcode functions: wrap the JIT's imported bindings.
    for attr in ("emit_python", "compute_intervals"):
        setattr(jitgen, attr, recorder.wrap(
            getattr(jitgen, attr), f"vcode.{attr}", "vcode"))
    method(NativeEngine, "dispatch", "native")
    for attr in ("execute", "locate", "jit_compile", "speculate",
                 "add_source"):
        method(CodeRepository, attr, "repository")
    method(RepositoryCache, "get", "repository")
    method(RepositoryCache, "put", "repository")
    method(Interpreter, "call_function", "interp")
    method(TierController, "observe", "tiering")

    # The runtime library is reached through RuntimeSupport's public
    # helpers; a span on each attributes their time to ``runtime``.
    for attr, value in list(vars(RuntimeSupport).items()):
        if attr.startswith("_"):
            continue
        name = f"rt.{attr}"
        if isinstance(value, staticmethod):
            wrapped = staticmethod(
                recorder.wrap(value.__func__, name, "runtime"))
        elif callable(value):
            wrapped = recorder.wrap(value, name, "runtime")
        else:
            continue
        setattr(RuntimeSupport, attr, wrapped)

    # Fused kernels are bound lazily from the cache; hand out kernels
    # whose function records a span, so their run time lands on
    # ``kernels`` instead of on the emitted code that called them.
    def spanned_kernels(fn, name):
        def lookup(*args, **kwargs):
            with recorder.span(name, "kernels"):
                kernel = fn(*args, **kwargs)
            if kernel is not None and not hasattr(kernel.fn, "__wrapped__"):
                kernel.fn = recorder.wrap(kernel.fn, kernel.name, "kernels")
            return kernel
        return lookup

    for attr in ("get_or_compile", "lookup"):
        setattr(KernelCache, attr, spanned_kernels(
            getattr(KernelCache, attr), f"KernelCache.{attr}"))

    for attr in ("compile_guard", "run_guard"):
        original = getattr(ExecutionGuard, attr)

        def guarded(self, label, _original=original, _name=attr):
            return _SpannedGuard(_original(self, label), recorder, _name)

        setattr(ExecutionGuard, attr, guarded)
