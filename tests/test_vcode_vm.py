"""Differential validation of the ICODE emitter against the reference VM.

For benchmark-grade IR produced by the real JIT lowering, the emitted host
code and the direct IR interpreter must compute identical results — under
the normal allocator *and* under spill-everything.
"""

import pytest

from repro.analysis.disambiguate import Disambiguator
from repro.backends import canon_value
from repro.codegen.jitgen import JitOptions, _Lowerer
from repro.codegen.runtime_support import RuntimeSupport
from repro.frontend.parser import parse
from repro.inference.engine import infer_function
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.values import from_python
from repro.typesys.signature import signature_of_values
from repro.vcode.emit import emit_python
from repro.vcode.liveness import compute_intervals
from repro.vcode.regalloc import LinearScanAllocator
from repro.vcode.vm import VcodeVM

PROGRAMS = [
    (
        "function p = poly(x)\np = x.^5 + 3*x + 2;\n",
        (4.0,),
    ),
    (
        "function s = f(n)\ns = 0;\n"
        "for i = 1:n,\n  if mod(i, 3) == 0, s = s + i; end\nend\n",
        (20,),
    ),
    (
        "function A = f(n)\nA = zeros(n, n);\n"
        "for i = 2:n-1,\n  A(i, i) = A(i-1, i-1) + i;\nend\n",
        (7,),
    ),
    (
        "function k = f(x)\nk = 0;\nwhile 2^k < x,\n  k = k + 1;\nend\n",
        (1000.0,),
    ),
    (
        "function v = f(n)\nv = zeros(1, n);\n"
        "for i = n:-1:1,\n  v(1, i) = i * 2;\nend\n",
        (6,),
    ),
]


def lower(source, values):
    fn = parse(source).primary
    args = [from_python(v) for v in values]
    signature = signature_of_values(args)
    dis = Disambiguator(lambda n: False).run_function(fn)
    ann = infer_function(fn, signature, disambiguation=dis)
    lowerer = _Lowerer(fn, ann, dis, JitOptions())
    ir = lowerer.lower()
    return ir, lowerer, args


def raw_args(lowerer, args):
    from repro.codegen.runtime_support import unbox

    out = []
    for value, kind in zip(args, lowerer.param_reprs):
        out.append(unbox(value) if kind in "fic" else value)
    return out


@pytest.mark.parametrize("source,values", PROGRAMS)
def test_vm_matches_emitted_code(source, values):
    ir, lowerer, args = lower(source, values)
    rt = RuntimeSupport()

    GLOBAL_RANDOM.seed(0)
    vm_result = VcodeVM(ir, rt).run(*raw_args(lowerer, [a.copy() for a in args]))

    intervals = compute_intervals(ir)
    emitted = emit_python(ir, LinearScanAllocator().allocate(intervals))
    GLOBAL_RANDOM.seed(0)
    host_result = emitted.callable(
        *raw_args(lowerer, [a.copy() for a in args]), rt
    )

    assert len(vm_result) == len(host_result)
    for a, b in zip(vm_result, host_result):
        assert canon_value(a) == canon_value(b)


@pytest.mark.parametrize("source,values", PROGRAMS)
def test_vm_matches_spilled_code(source, values):
    ir, lowerer, args = lower(source, values)
    rt = RuntimeSupport()

    GLOBAL_RANDOM.seed(0)
    vm_result = VcodeVM(ir, rt).run(*raw_args(lowerer, [a.copy() for a in args]))

    intervals = compute_intervals(ir)
    spilled = LinearScanAllocator(spill_everything=True).allocate(intervals)
    emitted = emit_python(ir, spilled)
    GLOBAL_RANDOM.seed(0)
    host_result = emitted.callable(
        *raw_args(lowerer, [a.copy() for a in args]), rt
    )
    for a, b in zip(vm_result, host_result):
        assert canon_value(a) == canon_value(b)


@pytest.mark.parametrize("nregs", [2, 4, 6, 16])
def test_vm_matches_under_any_register_pressure(nregs):
    source, values = PROGRAMS[2]
    ir, lowerer, args = lower(source, values)
    rt = RuntimeSupport()
    vm_result = VcodeVM(ir, rt).run(*raw_args(lowerer, [a.copy() for a in args]))
    intervals = compute_intervals(ir)
    emitted = emit_python(
        ir, LinearScanAllocator(num_registers=nregs).allocate(intervals)
    )
    host_result = emitted.callable(
        *raw_args(lowerer, [a.copy() for a in args]), rt
    )
    for a, b in zip(vm_result, host_result):
        assert canon_value(a) == canon_value(b)
