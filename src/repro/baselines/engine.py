"""Shared machinery for the batch-compiler baselines.

A :class:`BaselineEngine` owns a function table, compiles whole programs
ahead of time (batch), and executes invocations against its compiled
objects.  Unlike the MaJIC repository there is no locator ladder: a batch
compiler produces exactly one version per function, and a call that
version's signature does not accept runs in the interpreter.
"""

from __future__ import annotations

from repro.codegen.inline import Inliner
from repro.codegen.jitgen import CompiledObject
from repro.codegen.runtime_support import RuntimeSupport
from repro.errors import CodegenError, RepositoryError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.interp.interpreter import Interpreter
from repro.runtime.display import OutputSink
from repro.runtime.mxarray import MxArray
from repro.typesys.signature import Signature, signature_of_values


class BaselineEngine:
    """Base class: function table + batch compile + execution."""

    name = "baseline"
    inline_enabled = True

    def __init__(self, sink: OutputSink | None = None):
        self.sink = sink if sink is not None else OutputSink()
        self._functions: dict[str, ast.FunctionDef] = {}
        self._objects: dict[str, CompiledObject] = {}
        self._uncompilable: set[str] = set()
        self.compile_seconds = 0.0
        self._interpreter = Interpreter(
            function_lookup=self._functions.get,
            sink=self.sink,
            call_dispatcher=self._dispatch,
        )
        self._rt = RuntimeSupport(call_user=self._call_user, sink=self.sink)

    # ------------------------------------------------------------------
    def add_source(self, text: str) -> list[str]:
        program = parse(text)
        names = []
        for fn in program.functions:
            self._functions[fn.name] = fn
            self._objects.pop(fn.name, None)
            names.append(fn.name)
        return names

    def knows(self, name: str) -> bool:
        return name in self._functions

    def prepared(self, name: str) -> ast.FunctionDef:
        fn = self._functions.get(name)
        if fn is None:
            raise RepositoryError(f"unknown function '{name}'")
        if not self.inline_enabled:
            return fn
        return Inliner(self._functions.get).run(fn)

    # ------------------------------------------------------------------
    def compile_function(
        self, name: str, example_args: list[MxArray]
    ) -> CompiledObject | None:
        """Batch-compile one function; engines define _compile."""
        import time

        start = time.perf_counter()
        try:
            obj = self._compile(name, example_args)
        except CodegenError:
            self._uncompilable.add(name)
            return None
        finally:
            self.compile_seconds += time.perf_counter() - start
        self._objects[name] = obj
        return obj

    def _compile(self, name: str, example_args: list[MxArray]) -> CompiledObject:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def execute(self, name: str, args: list[MxArray], nargout: int = 1):
        fn = self._functions[name]
        if len(args) > len(fn.params):
            obj = None  # the interpreter's to refuse, with its error text
        else:
            obj = self._objects.get(name)
            if obj is None and name not in self._uncompilable:
                obj = self.compile_function(name, args)
            elif obj is not None and not self._compiled_for(obj, args):
                obj = None
        if obj is None:
            return self._interpreter.call_function(fn, args, nargout)
        return obj.invoke(args, nargout, self._rt)

    @staticmethod
    def _compiled_for(obj: CompiledObject, args: list[MxArray]) -> bool:
        """One version, compiled for the first call's types and ranges: a
        call it was not compiled for is interpreted."""
        return len(args) == len(obj.signature) and obj.accepts(args)

    def _call_user(self, name: str, args: list[MxArray], nargout: int):
        return tuple(self.execute(name, args, nargout))

    def _dispatch(self, name, args, nargout):
        if not self.knows(name):
            return None
        return self.execute(name, args, nargout)

    # ------------------------------------------------------------------
    def invocation_signature(self, args: list[MxArray]) -> Signature:
        return signature_of_values(args)
