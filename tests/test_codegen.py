"""Code-generator tests: JIT and optimizing pipelines, selection rules."""

import numpy as np
import pytest

from repro.analysis.disambiguate import Disambiguator
from repro.codegen.jitgen import JitCompiler, JitOptions
from repro.codegen.runtime_support import RuntimeSupport
from repro.codegen.select import Selector
from repro.codegen.srcgen import SourceCompiler, SrcOptions
from repro.frontend.parser import parse
from repro.inference.engine import infer_function
from repro.inference.speculation import Speculator
from repro.runtime.values import from_python, to_python
from repro.typesys.signature import signature_of_values


def compile_jit(source, *values, options=None):
    fn = parse(source).primary
    args = [from_python(v) for v in values]
    obj = JitCompiler(options).compile(fn, signature_of_values(args))
    return obj, args


def compile_src(source, *values, options=None):
    fn = parse(source).primary
    args = [from_python(v) for v in values]
    obj = SourceCompiler(options).compile(fn, signature_of_values(args))
    return obj, args


def run(obj, args, nargout=1):
    outs = obj.invoke(args, nargout, RuntimeSupport())
    values = [to_python(o) for o in outs]
    return values[0] if nargout == 1 else values


POLY = "function p = poly(x)\np = x.^5 + 3*x + 2;\n"


class TestJitBasics:
    def test_poly(self):
        obj, args = compile_jit(POLY, 4.0)
        assert run(obj, args) == 1038.0

    def test_scalar_ops_are_inlined(self):
        obj, _ = compile_jit(POLY, 4.0)
        # No generic helper calls for a fully scalar function.
        assert "g_epow" not in obj.source
        assert "g_mul" not in obj.source

    def test_loop_and_branch(self):
        src = (
            "function s = f(n)\ns = 0;\n"
            "for i = 1:n,\n  if mod(i, 2) == 0, s = s + i; end\nend\n"
        )
        obj, args = compile_jit(src, 10)
        assert run(obj, args) == 30.0  # 2+4+6+8+10

    def test_while_loop(self):
        src = "function k = f(n)\nk = 0;\nwhile 2^k < n, k = k + 1; end\n"
        obj, args = compile_jit(src, 100)
        assert run(obj, args) == 7.0

    def test_short_circuit_and(self):
        src = (
            "function y = f(v, n)\ny = 0;\n"
            "if (n >= 1) && (v(n) > 0), y = 1; end\n"
        )
        # v(n) with n = 0 would error if && were eager.
        obj, args = compile_jit(src, np.array([[1.0]]), 0)
        assert run(obj, args) == 0.0

    def test_short_circuit_or(self):
        src = "function y = f(a)\nif (a > 0) || (1/a > 0), y = 1; else y = 0; end\n"
        obj, args = compile_jit(src, 2.0)
        assert run(obj, args) == 1.0

    def test_multiple_outputs(self):
        src = "function [a, b] = f(x)\na = x + 1;\nb = x - 1;\n"
        obj, args = compile_jit(src, 5.0)
        assert run(obj, args, nargout=2) == [6.0, 4.0]

    def test_early_return(self):
        src = (
            "function y = f(x)\ny = 1;\nif x > 0, return; end\ny = 2;\n"
        )
        obj, args = compile_jit(src, 5.0)
        assert run(obj, args) == 1.0

    def test_unchecked_access_for_proven_subscripts(self):
        src = (
            "function s = f(n)\nA = zeros(n, n);\ns = 0;\n"
            "for i = 1:n,\n  A(i, i) = i;\n  s = s + A(i, i);\nend\n"
        )
        obj, args = compile_jit(src, 6)
        assert ".data.item(" in obj.source       # unchecked load
        assert "checked_load" not in obj.source
        assert run(obj, args) == 21.0

    def test_string_arguments(self):
        src = "function y = f(s)\ny = length(s);\n"
        obj, args = compile_jit(src, "hello")
        assert run(obj, args) == 5.0

    def test_complex_arithmetic(self):
        src = "function y = f(a)\nz = a + 2*i;\ny = abs(z);\n"
        obj, args = compile_jit(src, 0.0)
        assert run(obj, args) == 2.0

    def test_complex_store_widens(self):
        src = (
            "function A = f(n)\nA = zeros(1, n);\n"
            "for k = 1:n,\n  A(1, k) = sqrt(k - 3);\nend\n"
        )
        obj, args = compile_jit(src, 4)
        result = run(obj, args)
        assert np.iscomplexobj(result)

    def test_output_never_assigned_raises(self):
        from repro.errors import CodegenError

        src = "function y = f(x)\nif x > 0, y = 1; end\n"
        obj, args = compile_jit(src, -1.0)
        with pytest.raises(CodegenError):
            run(obj, args)


class TestJitSelection:
    def test_small_vector_unrolling(self):
        src = "function v = f(a)\nv = [a, a] + [1, 2];\n"
        obj, args = compile_jit(src, 1.0)
        assert "alloc" in obj.source            # pre-allocated temporary
        assert "hcat" not in obj.source          # literal fully unrolled
        assert np.array_equal(run(obj, args), [[2.0, 3.0]])

    def test_unrolling_disabled_by_option(self):
        src = "function v = f(a)\nv = [a, a] + [1, 2];\n"
        obj, args = compile_jit(
            src, 1.0, options=JitOptions(unroll_enabled=False)
        )
        assert "alloc" not in obj.source
        assert np.array_equal(run(obj, args), [[2.0, 3.0]])

    def test_dgemv_fusion(self):
        src = "function y = f(a, A, x, b, z)\ny = a*A*x + b*z;\n"
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = np.array([[1.0], [1.0]])
        z = np.array([[10.0], [10.0]])
        obj, args = compile_jit(src, 2.0, A, x, 1.0, z)
        assert "dgemv" in obj.source
        assert np.array_equal(run(obj, args), [[16.0], [24.0]])

    def test_scalar_math_fast_path(self):
        src = "function y = f(x)\ny = sqrt(x * x) + exp(0 * x);\n"
        obj, args = compile_jit(src, 3.0)
        assert "m_sqrt" in obj.source
        assert run(obj, args) == 4.0

    def test_read_only_params_not_copied(self):
        src = "function y = f(A)\ny = A(1, 1);\n"
        obj, args = compile_jit(src, np.ones((2, 2)))
        assert "copy_value" not in obj.source

    def test_mutated_params_copied(self):
        src = "function A = f(A)\nA(1, 1) = 99;\n"
        obj, args = compile_jit(src, np.ones((2, 2)))
        assert "copy_value" in obj.source
        original = args[0].view().copy()
        run(obj, args)
        assert np.array_equal(args[0].view(), original)  # caller unchanged

    def test_spill_everything_still_correct(self):
        obj, args = compile_jit(
            POLY, 4.0, options=JitOptions(spill_everything=True)
        )
        assert "sp[" in obj.source
        assert run(obj, args) == 1038.0

    def test_register_pressure_spills_and_stays_correct(self):
        src = (
            "function y = f(a)\n"
            "b = a+1; c = a+2; d = a+3; e = a+4; g = a+5; h = a+6;\n"
            "p = a+7; q = a+8; r = a+9; s = a+10; t = a+11; u = a+12;\n"
            "y = b+c+d+e+g+h+p+q+r+s+t+u;\n"
        )
        obj, args = compile_jit(src, 0.0, options=JitOptions(num_registers=4))
        assert run(obj, args) == sum(range(1, 13))


class TestSourceGenerator:
    def test_same_results_as_jit(self):
        src = (
            "function U = f(n)\nU = zeros(n, n);\n"
            "for i = 2:n-1,\n  U(i, i) = U(i-1, i-1) + 1;\nend\n"
        )
        jit_obj, args = compile_jit(src, 8)
        src_obj, args2 = compile_src(src, 8)
        assert np.array_equal(run(jit_obj, args), run(src_obj, args2))

    def test_loop_versioning_emitted(self):
        fn = parse(
            "function A = f(n)\nA = zeros(n, n);\n"
            "for i = 2:n-1,\n  A(i, i) = A(i-1, i-1) + 1;\nend\n"
        ).primary
        spec = Speculator().speculate(fn)
        obj = SourceCompiler().compile(
            fn, spec.signature, annotations=spec.annotations
        )
        # A guard followed by an unchecked body and a checked fallback.
        assert "if " in obj.source and ".rows" in obj.source
        assert ".data.item(" in obj.source
        assert "checked_load2" in obj.source
        args = [from_python(6)]
        result = run(obj, args)
        assert result[4, 4] == 4.0

    def test_hoisting_at_high_opt_level(self):
        src = (
            "function s = f(n, c)\ns = 0;\n"
            "for i = 1:n,\n  s = s + c * c * 3.0;\nend\n"
        )
        obj, args = compile_src(
            src, 100, 2.0, options=SrcOptions(native_opt_level=2)
        )
        assert "_inv" in obj.source  # hoisted invariant temp
        assert run(obj, args) == 1200.0

    def test_no_hoisting_at_low_opt_level(self):
        src = (
            "function s = f(n, c)\ns = 0;\n"
            "for i = 1:n,\n  s = s + c * c * 3.0;\nend\n"
        )
        obj, args = compile_src(
            src, 100, 2.0, options=SrcOptions(native_opt_level=1)
        )
        assert "_inv" not in obj.source

    def test_falcon_mode_has_no_unrolling(self):
        src = "function v = f(a)\nv = [a, a] + [1, 2];\n"
        obj, args = compile_src(
            src, 1.0, options=SrcOptions(majic_opts=False)
        )
        assert "alloc" not in obj.source
        assert np.array_equal(run(obj, args), [[2.0, 3.0]])

    def test_descending_loop(self):
        src = (
            "function v = f(n)\nv = zeros(1, n);\n"
            "for i = n:-1:1,\n  v(1, i) = i;\nend\n"
        )
        obj, args = compile_src(src, 5)
        assert np.array_equal(run(obj, args), [[1, 2, 3, 4, 5]])


class TestOneWalkTwoTargets:
    """Constructs the two hand-parallel walks once disagreed on: both
    compilers are invoked directly (no deopt net to hide a host error
    behind) and must return the interpreter's value."""

    @staticmethod
    def interpret(source, *values):
        from repro.interp.interpreter import Interpreter

        fn = parse(source).primary
        outs = Interpreter().call_function(
            fn, [from_python(v) for v in values], 1
        )
        return to_python(outs[0])

    #: ``end`` inside a multi-assignment's indexed target.
    MULTI_ASSIGN = {
        "linear": (
            "function r = f(x)\nv = zeros(1, 3);\n"
            "[v(end), w] = max(x);\nr = v(3) * 10 + w;\n"
        ),
        "two-d": (
            "function r = f(x)\nM = zeros(2, 2);\n"
            "[M(end, 1), w] = max(x);\nr = M(2, 1) * 10 + w;\n"
        ),
        "colon": (
            "function r = f(x)\nM = zeros(2, 2);\n"
            "[M(:, end), w] = max(x);\nr = M(1, 2) * 10 + w;\n"
        ),
    }

    @pytest.mark.parametrize("compiler", [compile_jit, compile_src])
    @pytest.mark.parametrize("case", MULTI_ASSIGN)
    def test_end_in_multi_assign_target(self, case, compiler):
        source = self.MULTI_ASSIGN[case]
        x = np.array([[3.0, 7.0, 5.0]])
        obj, args = compiler(source, x)
        assert run(obj, args) == self.interpret(source, x) == 72.0

    @pytest.mark.parametrize("compiler", [compile_jit, compile_src])
    def test_implicit_ans_is_a_variable(self, compiler):
        # The symbol table never sees ``ans`` assigned (an expression
        # statement is not an assignment); the walk has.
        source = "function r = f(x)\nx + 1;\nr = ans * 2;\n"
        obj, args = compiler(source, 3.0)
        assert run(obj, args) == self.interpret(source, 3.0) == 8.0

    @pytest.mark.parametrize("compiler", [compile_jit, compile_src])
    def test_boxed_scalar_subscript_under_a_bounds_check(self, compiler):
        # ``k`` is scalar where it subscripts but a matrix later, so it
        # lives boxed; the checked load/store helpers take raw scalars.
        source = (
            "function r = f(A)\nk = A(2) * 3;\nA(k) = A(k) + 1;\nr = A(k);\n"
            "k = [1 2 3];\nr = r + sum(k);\n"
        )
        A = np.array([[1.0, 1.0, 3.0, 4.0]])
        obj, args = compiler(source, A)
        assert "checked_load1" in obj.source
        assert run(obj, args) == self.interpret(source, A) == 10.0


class TestSelector:
    def test_mutated_names(self):
        fn = parse(
            "function A = f(A, b)\nA(1) = b;\nc = A(2);\n"
        ).primary
        ann = infer_function(
            fn, signature_of_values([from_python(np.ones((1, 3))), from_python(1.0)])
        )
        selector = Selector(fn, ann)
        assert "A" in selector.mutated_names
        assert selector.is_read_only("b")

    def test_unroll_limit(self):
        fn = parse("function v = f(a)\nv = [a,a,a,a,a,a,a,a,a,a];\n").primary
        ann = infer_function(fn, signature_of_values([from_python(1.0)]))
        selector = Selector(fn, ann)
        literal = fn.body[0].value
        assert selector.unroll_shape(literal) is None  # 10 > limit of 9
