"""A warm first call never parses.

With a ``cache_dir``, ``add_source`` registers a text seen before from
its parse record, a compile's cache key is computed from raw source
text, and tokenizing, parsing and inlining run only on a cache miss (or
when the interpreter needs a definition).  Every sequence here runs over
a shared ``cache_dir``; the interpreter is the oracle.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import FaultPlan, MajicSession, backends
from repro.backends import Program
from repro.codegen import inline
from repro.codegen.inline import Inliner
from repro.errors import MatlabError, RepositoryError
from repro.faults.plan import SITE_KERNEL_RUN
from repro.frontend.lexer import Lexer
from repro.frontend.parser import Parser
from repro.kernels import KERNEL_CACHE
from repro.repository import repo as repo_module
from repro.repository.cache import UNIT_TAG, cache_key, source_digest
from repro.repository.diagnostics import CACHE_CORRUPT
from repro.runtime.values import from_python

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

UNIT_FG = "function y = f(x)\ny = g(x) + 1;\n\nfunction z = g(x)\nz = 2 * x;\n"
UNIT_G = "function z = g(x)\nz = 10 * x;\n"
OUTER = "function y = outer(x)\ny = inner(x) + 1;\n"
INNER = "function y = inner(x)\ny = x * 2;\n"
INNER_V2 = "function y = inner(x)\ny = x * 3;\n"
AXPY = "function y = axpy(a, x, b)\ny = a .* x + b .* x - x ./ 4;\n"


def _program(entry, *sources, args=(3.0,)) -> Program:
    return Program(tuple(sources), entry,
                   lambda: [from_python(value) for value in args])


def _fill(program: Program, cache_dir) -> None:
    """A cold session over ``cache_dir``: parse records and entries."""
    with backends.open(program, "fused", cache_dir=cache_dir) as cold:
        assert cold.call() == backends.reference(program)


@pytest.fixture
def front_end(monkeypatch) -> Counter:
    """Calls of the three front-end passes, by ``Class.method``."""
    counts: Counter = Counter()
    for cls, method in (
        (Lexer, "tokenize"), (Parser, "parse_program"), (Inliner, "run"),
    ):
        def counted(self, *args, _run=getattr(cls, method),
                    _label=f"{cls.__name__}.{method}", **kwargs):
            counts[_label] += 1
            return _run(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)
    return counts


# ----------------------------------------------------------------------
# No front end on a hit
# ----------------------------------------------------------------------
@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cells(*workloads):
    module = _workloads()
    return [
        pytest.param(workload, program, id=program.name)
        for workload in workloads
        for program in module.WORKLOADS[workload].programs
    ]


def _first_call(program, workload, **kwargs):
    args = program.args(_workloads().program_rng(0, workload, program.name))
    session = MajicSession(seed=None, **kwargs)
    for text in program.sources:
        session.add_source(text)
    session.call_boxed(program.name, [from_python(a) for a in args])
    return session


@pytest.mark.parametrize("workload, program", _cells("scalar_loops", "call_heavy"))
def test_warm_first_call_runs_no_front_end(tmp_path, front_end, workload, program):
    _first_call(program, workload, cache_dir=tmp_path).close()
    KERNEL_CACHE.clear()
    front_end.clear()
    warm = _first_call(program, workload, cache_dir=tmp_path)
    warm.close()
    assert front_end == Counter(), "a warm first call ran the front end"
    assert warm.stats.jit_compiles == 0 and warm.stats.cache_hits >= 1

    # Without a cache the path is today's: every source tokenized and
    # parsed once, every compiled function inlined once.
    front_end.clear()
    cold = _first_call(program, workload)
    cold.close()
    compiled = {name for name, _, _ in cold.repository.compile_log}
    assert front_end == Counter({
        "Lexer.tokenize": len(program.sources),
        "Parser.parse_program": len(program.sources),
        "Inliner.run": len(compiled),
    })


# ----------------------------------------------------------------------
# Complete, order-independent keys
# ----------------------------------------------------------------------
def test_inline_switch_and_limits_are_in_the_key(tmp_path, monkeypatch):
    """Inlining on and off share one ``cache_dir`` and never serve each
    other's entries; the inliner's limits are key inputs too."""
    def run(inline_enabled):
        session = MajicSession(cache_dir=tmp_path, inline_enabled=inline_enabled)
        session.add_source(OUTER)
        session.add_source(INNER)
        assert session.call("outer", 5.0) == 11.0
        (version,) = session.repository.versions_of("outer")
        return session, version.source

    cold_on, source_on = run(True)
    cold_off, source_off = run(False)
    assert source_on != source_off, "inlining changed nothing to test"
    for cold in (cold_on, cold_off):
        assert cold.stats.cache_hits == 0 and cold.stats.jit_compiles >= 1
    for inline_enabled, source in ((True, source_on), (False, source_off)):
        warm, warm_source = run(inline_enabled)
        assert warm.stats.jit_compiles == 0 and warm.stats.cache_hits >= 1
        assert warm_source == source

    repo = cold_on.repository
    key = repo._cache_key("outer", "spec")
    monkeypatch.setattr(inline, "MAX_INLINE_LINES", inline.MAX_INLINE_LINES - 1)
    assert repo._cache_key("outer", "spec") != key
    monkeypatch.undo()
    monkeypatch.setattr(repo_module, "_INLINE_DEPTH", repo_module._INLINE_DEPTH + 1)
    assert repo._cache_key("outer", "spec") != key


def test_a_callee_added_after_the_caller_was_prepared_purges_it():
    """``f`` compiled while ``g`` is unknown depends on the name ``g``:
    adding ``g`` purges it, and its recompile is a fresh session's."""
    late = MajicSession()
    late.add_source(OUTER)
    signature = late.invocation("outer", 3.0).signature
    late.repository.jit_compile("outer", signature)
    assert late.repository.versions_of("outer")
    late.add_source(INNER)
    assert late.repository.versions_of("outer") == []
    assert late.call("outer", 3.0) == 7.0

    early = MajicSession()
    early.add_source(INNER)
    early.add_source(OUTER)
    assert early.call("outer", 3.0) == 7.0
    assert [v.source for v in late.repository.versions_of("outer")] == [
        v.source for v in early.repository.versions_of("outer")
    ]


# ----------------------------------------------------------------------
# Lazy-unit sequences
# ----------------------------------------------------------------------
def test_a_later_unit_redefines_a_callee_of_a_lazy_unit(tmp_path, front_end):
    """Unit A defines ``f`` and ``g``, unit B redefines ``g``: a warm ``f``
    inlines B's ``g`` (never A's, though an A-only entry is on disk),
    and parsing A afterwards does not clobber it."""
    _fill(_program("f", UNIT_FG), tmp_path)
    program = _program("f", UNIT_FG, UNIT_G)
    _fill(program, tmp_path)
    front_end.clear()
    with backends.open(program, "fused", cache_dir=tmp_path) as warm:
        assert warm.call() == backends.reference(program)
        session = warm.session
        assert session.stats.jit_compiles == 0 and session.stats.cache_hits == 1
        assert front_end == Counter()
        session.repository.lookup_function("f")     # parses A, now
        assert front_end["Parser.parse_program"] == 1
        assert session.call("g", 3.0) == 30.0
    assert backends.reference(program).outputs != backends.reference(
        _program("f", UNIT_FG)).outputs


def test_preparing_a_caller_parses_no_callee_it_would_not_inline(
        tmp_path, front_end):
    """A callee named only in a ``while`` condition is never inlined, so
    preparing a changed caller over a warm cache leaves its unit
    unparsed: the inliner looks up only the calls its rewrite would ask
    about."""
    callee = "function y = f(x)\ny = x - 1;\n"
    caller = ("function r = g(x)\nr = 0;\nwhile f(x) > 0\n"
              "  x = x - 1;\n  r = r + 1;\nend\n")
    _fill(_program("g", callee, caller, args=(5.0,)), tmp_path)
    program = _program("g", callee, caller + "% changed\n", args=(5.0,))
    expected = backends.reference(program)
    front_end.clear()
    with backends.open(program, "fused", cache_dir=tmp_path) as warm:
        assert warm.call() == expected
        assert warm.session.stats.jit_compiles == 1
    assert front_end["Inliner.run"] == 1
    assert front_end["Parser.parse_program"] == 1  # the changed caller


def test_redefining_a_callee_after_a_warm_hit_purges_the_caller(tmp_path):
    program = _program("outer", OUTER, INNER)
    _fill(program, tmp_path)
    with backends.open(program, "fused", cache_dir=tmp_path) as warm:
        warm.call()
        session = warm.session
        assert session.stats.cache_hits == 1
        assert session.repository.versions_of("outer")
        session.add_source(INNER_V2)
        assert session.repository.versions_of("outer") == []
        assert warm.call() == backends.reference(_program("outer", OUTER, INNER_V2))


def test_a_deopt_on_a_warm_hit_reexecutes_through_the_interpreter(tmp_path):
    x = np.arange(1.0, 65.0).reshape(1, 64)
    program = _program("axpy", AXPY, args=(2.0, x, 3.0))
    _fill(program, tmp_path)
    KERNEL_CACHE.clear()
    plan = FaultPlan.at(SITE_KERNEL_RUN)
    with backends.open(program, "fused", cache_dir=tmp_path, fault_plan=plan) as warm:
        assert warm.call() == backends.reference(program)
        stats = warm.session.stats
    assert len(plan.fired) == 1
    assert stats.cache_hits == 1 and stats.jit_compiles == 0
    assert stats.deopts == 1 and stats.calls_interpreted == 1


def test_syntax_errors_and_scripts_still_raise_at_add_source(tmp_path):
    for _ in range(2):
        session = MajicSession(cache_dir=tmp_path)
        with pytest.raises(MatlabError):
            session.add_source("function y = f(x)\ny = (x + ;\n")
        with pytest.raises(RepositoryError, match="scripts"):
            session.add_source("y = 1 + 2;\n")
        assert session.repository.function_names() == []
    assert list(tmp_path.glob("*.blob")) == [], "a failed parse left a record"


def test_a_corrupt_parse_record_falls_back_to_an_eager_parse(tmp_path, front_end):
    program = _program("outer", OUTER, INNER)
    _fill(program, tmp_path)
    record = tmp_path / f"{cache_key(source_digest(OUTER), UNIT_TAG, '')}.blob"
    data = bytearray(record.read_bytes())
    data[-1] ^= 0xFF
    record.write_bytes(bytes(data))
    front_end.clear()
    with backends.open(program, "fused", cache_dir=tmp_path) as warm:
        assert warm.call() == backends.reference(program)
        session = warm.session
        assert front_end["Parser.parse_program"] == 1     # OUTER, eagerly
        assert session.repository.cache.corruption_detected == 1
        assert len(session.diagnostics.events(CACHE_CORRUPT)) == 1
        assert session.stats.cache_hits == 1 and session.stats.jit_compiles == 0
    assert record.exists(), "the eager parse rewrote the record"
    front_end.clear()
    with backends.open(program, "fused", cache_dir=tmp_path) as again:
        assert again.call() == backends.reference(program)
    assert front_end == Counter()


def test_a_dynamic_call_function_hits_under_its_widened_key(tmp_path, front_end):
    program = Program.benchmark("fibonacci")
    _fill(program, tmp_path)
    front_end.clear()
    with backends.open(program, "fused", cache_dir=tmp_path) as warm:
        assert warm.call() == backends.reference(program)
        session = warm.session
        (version,) = session.repository.versions_of("fibonacci")
    assert front_end == Counter()
    assert session.stats.jit_compiles == 0
    # Two keys probed (the asked signature's, then the widened one): one
    # request, and a hit.
    assert session.stats.cache_requests == Counter(hit=1)
    assert all(t.range.is_top for t in version.signature.types)
