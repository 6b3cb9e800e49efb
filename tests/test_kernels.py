"""Unit tests for the fused elementwise kernel subsystem (ISSUE 4).

Covers the content-addressed cache (hit/miss accounting, deterministic
naming), both consumers (JIT codegen and the interpreter fast path),
the ``fusion=False`` escape hatch, disk persistence revival through the
repository cache, the missing-kernel deopt path, fault injection at the
two kernel sites, and the metrics wiring.
"""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from repro.faults.plan import (
    FaultPlan,
    SITE_KERNEL_COMPILE,
    SITE_KERNEL_RUN,
)
from repro.kernels import (
    DESC_BOXED,
    DESC_SCALAR,
    KERNEL_CACHE,
    Leaf,
    Node,
    generate_source,
    match_dynamic,
)
from repro.kernels.cache import kernel_name
from repro.runtime.values import from_python

AXPY = """
function y = axpy(a, x, b)
y = a .* x + b ./ (x + 1.0) - abs(x);
"""

#: Ten elements: past the unroll limit, so the JIT fuses the tree.
XS = [float(x) for x in range(1, 11)]
ARGS = [2.0, [XS], 5.0]

#: 2*x + 5/(x+1) - |x| evaluated with the same host float ops.
EXPECTED = [[2.0 * x + 5.0 / (x + 1.0) - abs(x) for x in XS]]


def call_axpy(session) -> list:
    boxed = [from_python(a) for a in ARGS]
    out = session.call_boxed("axpy", boxed, nargout=1)[0]
    return out.view().tolist()


def jit_source(session, name: str = "axpy") -> str:
    return session.repository._objects[name][0].emitted.source


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------

def test_kernel_names_are_content_addressed():
    tree = Node("+", (Leaf(0), Leaf(1)))
    from repro.kernels.fusion import encode

    key_bb = encode(tree, (DESC_BOXED, DESC_BOXED))
    key_bs = encode(tree, (DESC_BOXED, DESC_SCALAR))
    assert key_bb != key_bs
    assert kernel_name(key_bb) == kernel_name(key_bb)
    assert kernel_name(key_bb) != kernel_name(key_bs)
    assert kernel_name(key_bb).startswith("kernel_")


def test_cache_hit_miss_accounting():
    KERNEL_CACHE.clear()
    tree = Node("+", (Leaf(0), Leaf(1)))
    first = KERNEL_CACHE.get_or_compile(tree, (DESC_BOXED, DESC_BOXED))
    again = KERNEL_CACHE.get_or_compile(tree, (DESC_BOXED, DESC_BOXED))
    assert first is again
    stats = KERNEL_CACHE.stats()
    assert stats == {
        "kernels": 1, "capacity": KERNEL_CACHE.capacity,
        "hits": 1, "misses": 1, "evictions": 0,
    }
    assert KERNEL_CACHE.hit_rate() == 0.5


def _distinct_tree(depth: int) -> Node:
    """A chain of ``depth`` additions — each depth is a distinct key."""
    tree = Node("+", (Leaf(0), Leaf(1)))
    for _ in range(depth):
        tree = Node("+", (tree, Leaf(1)))
    return tree


def test_cache_lru_eviction_with_counter():
    from repro.kernels.cache import KernelCache

    cache = KernelCache(capacity=2)
    descs = (DESC_BOXED, DESC_BOXED)
    k0 = cache.get_or_compile(_distinct_tree(0), descs)
    k1 = cache.get_or_compile(_distinct_tree(1), descs)
    # Refresh k0's recency, then overflow: k1 (now oldest) must go.
    assert cache.lookup(k0.name) is k0
    k2 = cache.get_or_compile(_distinct_tree(2), descs)
    stats = cache.stats()
    assert stats["kernels"] == 2 and stats["evictions"] == 1, stats
    assert cache.lookup(k1.name) is None
    assert cache.lookup(k0.name) is k0 and cache.lookup(k2.name) is k2
    # An evicted tree recompiles on the next cold lookup (a miss).
    revived = cache.get_or_compile(_distinct_tree(1), descs)
    assert revived.name == k1.name and revived is not k1
    assert cache.stats()["evictions"] == 2  # k0 went this time


def test_cache_capacity():
    from repro.kernels.cache import (
        DEFAULT_KERNEL_CACHE_CAPACITY,
        KernelCache,
    )

    assert KernelCache().capacity == DEFAULT_KERNEL_CACHE_CAPACITY
    assert KernelCache(capacity=11).capacity == 11


def test_cache_eviction_metric(fresh_session, monkeypatch):
    """Evictions surface as majic_kernel_cache_evictions_total — read
    from the process-wide cache's own tally, not reported to the session."""
    KERNEL_CACHE.clear()
    monkeypatch.setattr(KERNEL_CACHE, "capacity", 1)
    session = fresh_session(metrics=True)
    descs = (DESC_BOXED, DESC_BOXED)
    KERNEL_CACHE.get_or_compile(_distinct_tree(0), descs)
    KERNEL_CACHE.get_or_compile(_distinct_tree(1), descs)
    text = session.metrics_text()
    session.close()
    KERNEL_CACHE.clear()
    assert "majic_kernel_cache_evictions_total 1" in text


def test_generated_source_shape():
    tree = Node("+", (Node(".*", (Leaf(0), Leaf(1))), Leaf(2)))
    source = generate_source(
        "kernel_test", tree, (DESC_BOXED, DESC_SCALAR, DESC_BOXED))
    assert "def kernel_test(a0, a1, a2):" in source
    assert "a0.view()" in source and "_scal(a1)" in source
    assert "from_ndarray" in source


#: ``crnich_step``'s update (the ``large_vector`` workload's Crank-Nicholson
#: core): four operators over two 1x65536 operands and two scalars.
CRNICH = """
function u = crnich(u, uold, c)
u = 0.5 .* (u + uold) + c .* (uold - u);
"""


def test_kernel_reuses_dead_temporaries(fresh_session):
    """One call of ``crnich``'s kernel on 1x65536 operands holds two
    512 KiB buffers at its peak — ``u + uold`` and ``uold - u``, each of
    which takes the next op's result — not one per operator (five,
    2,560 KiB).  ``tracemalloc`` counts bytes, so the bound holds on any
    machine."""
    session = fresh_session()
    session.add_source(CRNICH)
    rng = np.random.default_rng(0)
    u, uold = (from_python(rng.random((1, 65536))) for _ in range(2))
    session.call_boxed("crnich", [u, uold, from_python(0.25)], nargout=1)
    (name,) = session.repository._objects["crnich"][0].kernel_keys
    kernel = KERNEL_CACHE.lookup(name).fn
    args = (0.5, u, uold, 0.25)        # leaves in first-reached order
    expected = kernel(*args).view().tobytes()
    tracemalloc.start()
    try:
        result = kernel(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.view().tobytes() == expected
    assert peak <= 1100 * 1024, f"peak {peak / 1024:.0f} KiB"


# ----------------------------------------------------------------------
# The JIT consumer
# ----------------------------------------------------------------------

def test_jit_emits_fused_kernel_call(fresh_session):
    session = fresh_session()
    session.add_source(AXPY)
    result = call_axpy(session)
    source = jit_source(session)
    names = set(re.findall(r"kernel_[0-9a-f]{16}", source))
    assert names, f"no fused kernel call in:\n{source}"
    # Each kernel's key rides along on the compiled object.
    obj = session.repository._objects["axpy"][0]
    assert names <= set(obj.kernel_keys)
    assert result == EXPECTED


def test_fusion_escape_hatch_emits_plain_chain(fresh_session):
    session = fresh_session(fusion=False)
    session.add_source(AXPY)
    result = call_axpy(session)
    assert "kernel_" not in jit_source(session)
    assert result == EXPECTED


def test_fused_and_unfused_agree(fresh_session):
    fused = fresh_session()
    fused.add_source(AXPY)
    unfused = fresh_session(fusion=False)
    unfused.add_source(AXPY)
    assert call_axpy(fused) == call_axpy(unfused)


# ----------------------------------------------------------------------
# The interpreter consumer
# ----------------------------------------------------------------------

def test_interpreter_fast_path_uses_cache():
    from repro.frontend.parser import parse
    from repro.interp.interpreter import Interpreter
    from repro.runtime.display import OutputSink

    KERNEL_CACHE.clear()
    table = {fn.name: fn for fn in parse(AXPY).functions}
    on = Interpreter(function_lookup=table.get, sink=OutputSink())
    off = Interpreter(function_lookup=table.get, sink=OutputSink(),
                      fusion=False)
    boxed = [from_python(a) for a in ARGS]
    got = on.call_function(table["axpy"], boxed, 1)[0].view().tolist()
    want = off.call_function(table["axpy"], boxed, 1)[0].view().tolist()
    assert got == want
    assert KERNEL_CACHE.stats()["kernels"] > 0
    # Second evaluation reuses the memoized plan + compiled kernel.
    misses_before = KERNEL_CACHE.stats()["misses"]
    on.call_function(table["axpy"], boxed, 1)
    assert KERNEL_CACHE.stats()["misses"] == misses_before


def test_dynamic_matcher_rejects_matmul_at_runtime():
    from repro.frontend.parser import parse

    # ``a * b + c``: fusible only when a or b is scalar at run time.
    fn = parse("function y = f(a, b, c)\ny = a * b + c;\n").functions[0]
    expr = fn.body[0].value
    plan = match_dynamic(expr)
    assert plan is not None and plan.has_matmul
    scalar = from_python(2.0)
    matrix = from_python(np.ones((2, 2)))
    assert plan.runtime_ok([scalar, matrix, matrix])
    assert not plan.runtime_ok([matrix, matrix, matrix])


# ----------------------------------------------------------------------
# Persistence and deopt
# ----------------------------------------------------------------------

def test_disk_cache_revives_kernels(tmp_path, fresh_session):
    first = fresh_session(cache_dir=tmp_path)
    first.add_source(AXPY)
    expected = call_axpy(first)
    kernels = set(first.repository._objects["axpy"][0].kernel_keys)
    assert kernels
    first.close()

    # A "new process": the in-memory kernel cache is empty, but the
    # compiled object loaded from disk re-registers its kernel sources.
    KERNEL_CACHE.clear()
    second = fresh_session(cache_dir=tmp_path)
    second.add_source(AXPY)
    assert call_axpy(second) == expected
    assert second.repository.stats.cache_hits >= 1
    assert second.repository.stats.jit_compiles == 0
    for name in kernels:
        assert KERNEL_CACHE.lookup(name) is not None


def test_missing_kernel_deopts_to_interpreter(fresh_session):
    session = fresh_session()
    session.add_source(AXPY)
    assert call_axpy(session) == EXPECTED          # compiles and binds
    # Sabotage: the compiled code references a kernel the cache lost and
    # the dispatcher never re-bound (no disk entry to revive it from).
    # The guarded runner must deopt and the interpreter must still
    # produce the right answer.
    rt = session.repository._rt
    for attr in list(vars(rt)):
        if attr.startswith("kernel_"):
            delattr(rt, attr)
    KERNEL_CACHE.clear()
    assert call_axpy(session) == EXPECTED
    assert session.repository.stats.deopts >= 1


def test_unknown_kernel_attribute_error():
    from repro.codegen.runtime_support import RuntimeSupport

    rt = RuntimeSupport(knows=lambda name: False)
    with pytest.raises(AttributeError, match="kernel_feedbeefdeadbeef"):
        rt.kernel_feedbeefdeadbeef


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------

def test_kernel_compile_fault_falls_back_to_interpreter(fresh_session):
    plan = FaultPlan.at(SITE_KERNEL_COMPILE)
    KERNEL_CACHE.clear()
    session = fresh_session(fault_plan=plan)
    session.add_source(AXPY)
    assert call_axpy(session) == EXPECTED
    assert session.repository.stats.compile_failures >= 1


def test_kernel_run_fault_deopts(fresh_session):
    plan = FaultPlan.at(SITE_KERNEL_RUN)
    session = fresh_session(fault_plan=plan)
    session.add_source(AXPY)
    assert call_axpy(session) == EXPECTED
    assert session.repository.stats.deopts >= 1
    assert len(plan.fired) == 1


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

def test_kernel_metrics_exposed(fresh_session):
    KERNEL_CACHE.clear()
    session = fresh_session(metrics=True)
    session.add_source(AXPY)
    call_axpy(session)
    text = session.metrics_text()
    assert "majic_kernel_cache_misses_total" in text
    assert "majic_kernel_run_seconds" in text
