"""Type-inference engine and calculator tests (Sections 2.3–2.4)."""

import gc
import weakref

import numpy as np
import pytest

from repro.analysis.cfg import ForIterAtom
from repro.analysis.disambiguate import Disambiguator
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.fuzz.grammar import generate_program
from repro.inference.annotations import SubscriptSafety
from repro.inference.calculator import RuleContext, default_calculator
from repro.inference.engine import (
    InferenceOptions,
    TypeInferenceEngine,
    infer_function,
)
from repro.typesys.intrinsic import Intrinsic
from repro.typesys.mtype import MType
from repro.typesys.ranges import Interval
from repro.typesys.signature import Signature, signature_of_values
from repro.runtime.values import from_python


def fn_of(source):
    return parse(source).primary


def sig(*values):
    return signature_of_values([from_python(v) for v in values])


def infer(source, *values, options=None):
    fn = fn_of(source)
    return fn, infer_function(fn, sig(*values), options=options)


class TestCalculator:
    def test_rule_count_near_paper(self):
        # "Currently, MaJIC's type calculator contains about 250 rules."
        assert default_calculator().rule_count >= 250

    def test_every_binop_has_rules(self):
        calc = default_calculator()
        for op in ("+", "-", "*", "/", "\\", "^", ".*", "./", ".^",
                   "==", "~=", "<", "<=", ">", ">=", "&", "|"):
            assert calc.rules_for(("binop", op)), op

    def test_rules_ordered_most_restrictive_first(self):
        """The paper's ``*`` ladder: int scalar before generic."""
        calc = default_calculator()
        names = [r.name for r in calc.rules_for(("binop", "*"))]
        assert names.index("*:int-scalar") < names.index("*:generic-complex-matrix")

    def test_int_scalar_multiply(self):
        calc = default_calculator()
        ctx = RuleContext(args=[MType.constant(2), MType.constant(3)])
        (result,) = calc.forward(("binop", "*"), ctx)
        assert result.is_constant and result.constant_value == 6

    def test_implicit_default_rule_is_top(self):
        calc = default_calculator()
        ctx = RuleContext(args=[MType.top(), MType.top()])
        (result,) = calc.forward(("binop", "no-such-op"), ctx)
        assert result.is_top_like

    def test_backward_colon_hint(self):
        calc = default_calculator()
        ctx = RuleContext(args=[MType.top(), MType.top()])
        hints = calc.backward(("colon", ":"), ctx)
        assert hints is not None
        assert all(h.is_scalar and h.is_integer_like for h in hints)


class TestConstantPropagation:
    """Section 2.4: range propagation is constant propagation."""

    def test_constants_flow(self):
        _, ann = infer("function y = f(x)\na = x * 2;\ny = a + 1;\n", 5)
        assert ann.output_types["y"].constant_value == 11.0

    def test_pi_is_constant(self):
        import math

        _, ann = infer("function y = f(x)\ny = pi * x;\n", 2.0)
        assert ann.output_types["y"].constant_value == pytest.approx(2 * math.pi)

    def test_figure3_poly_constant(self):
        """poly(x) with a constant x: the result is a compile-time
        constant (the paper's poly1_sig0 returning 254)."""
        _, ann = infer("function p = poly(x)\np = x.^5 + 3*x + 2;\n", 3)
        assert ann.output_types["p"].constant_value == 254.0

    def test_no_ranges_ablation_kills_constants(self):
        _, ann = infer(
            "function y = f(x)\ny = x * 2;\n", 5,
            options=InferenceOptions(range_propagation=False),
        )
        assert not ann.output_types["y"].is_constant


class TestShapeInference:
    def test_zeros_exact_from_constants(self):
        """Section 2.4: value ranges of m, n determine the shape of A."""
        _, ann = infer("function A = f(n)\nA = zeros(n, 2*n);\n", 3)
        shape = ann.output_types["A"].exact_shape
        assert shape is not None and (shape.rows, shape.cols) == (3, 6)

    def test_store_grows_minimum_shape(self):
        """`A(i) = ...`: the index range determines the array's shape."""
        _, ann = infer(
            "function A = f(n)\nA = zeros(1, 2);\nA(1, 7) = 1;\n", 0
        )
        out = ann.output_types["A"]
        assert (out.minshape.cols or 0) >= 7

    def test_linear_store_keeps_a_matrix_shape(self):
        """`B(4) = ...` addresses an element of a 2x2 matrix; it is not a
        store into row 4 (fuzz seed 165: the unroller then read past the
        buffer)."""
        _, ann = infer(
            "function B = f(n)\nB = zeros(2, 2);\nB(end) = n;\n", 1
        )
        shape = ann.output_types["B"].exact_shape
        assert shape is not None and (shape.rows, shape.cols) == (2, 2)

    def test_matrix_literal_exact(self):
        _, ann = infer("function v = f(x)\nv = [x, x, x];\n", 1.0)
        assert ann.output_types["v"].exact_shape.numel == 3

    def test_colon_constant_length(self):
        _, ann = infer("function v = f(n)\nv = 1:10;\n", 0)
        assert ann.output_types["v"].exact_shape.cols == 10

    def test_transpose_swaps_shape(self):
        _, ann = infer("function B = f(n)\nA = zeros(2, 5);\nB = A';\n", 0)
        shape = ann.output_types["B"].exact_shape
        assert (shape.rows, shape.cols) == (5, 2)

    def test_size_of_exact_shape_is_constant(self):
        _, ann = infer(
            "function n = f(x)\nA = zeros(4, 4);\nn = size(A, 1);\n", 0
        )
        assert ann.output_types["n"].constant_value == 4.0


class TestIntrinsicInference:
    def test_int_plus_int(self):
        _, ann = infer("function y = f(a, b)\ny = a + b;\n", 2, 3)
        assert ann.output_types["y"].intrinsic is Intrinsic.INT

    def test_division_promotes_to_real(self):
        _, ann = infer("function y = f(a, b)\ny = a / b;\n", 3, 2)
        assert ann.output_types["y"].intrinsic is Intrinsic.REAL

    def test_complex_propagates(self):
        _, ann = infer("function y = f(a)\ny = a * i;\n", 2)
        assert ann.output_types["y"].intrinsic is Intrinsic.COMPLEX

    def test_sqrt_nonnegative_stays_real(self):
        _, ann = infer("function y = f(a)\ny = sqrt(a * a);\n", 3.0)
        assert ann.output_types["y"].is_real_like

    def test_sqrt_unknown_sign_goes_complex(self):
        fn = fn_of("function y = f(a)\ny = sqrt(a);\n")
        ann = infer_function(
            fn, Signature.of([MType.scalar(Intrinsic.REAL)])
        )
        assert ann.output_types["y"].intrinsic is Intrinsic.COMPLEX

    def test_relational_is_bool(self):
        _, ann = infer("function y = f(a)\ny = a > 1;\n", 2.0)
        assert ann.output_types["y"].intrinsic is Intrinsic.BOOL


class TestSubscriptSafety:
    """Section 2.4: subscript check removal."""

    def source(self):
        return (
            "function A = f(n)\n"
            "A = zeros(n, n);\n"
            "for i = 1:n,\n"
            "  for j = 1:n,\n"
            "    A(i, j) = A(i, j) + 1;\n"
            "  end\n"
            "end\n"
        )

    def test_constant_size_proves_safe(self):
        _, ann = infer(self.source(), 8)
        stats = ann.stats()
        assert stats["safe_loads"] >= 1 and stats["checked_loads"] == 0
        assert stats["safe_stores"] >= 1

    def test_unknown_size_stays_checked(self):
        fn = fn_of(self.source())
        ann = infer_function(
            fn, Signature.of([MType.scalar(Intrinsic.INT)])
        )
        stats = ann.stats()
        assert stats["safe_loads"] == 0

    def test_no_ranges_disables_removal(self):
        _, ann = infer(
            self.source(), 8,
            options=InferenceOptions(range_propagation=False),
        )
        assert ann.stats()["safe_loads"] == 0

    def test_out_of_creation_bound_store_is_grow(self):
        _, ann = infer(
            "function A = f(n)\nA = zeros(1, 2);\n"
            "for i = 1:n,\n  A(1, i) = i;\nend\n",
            5,
        )
        fn_stats = ann.stats()
        assert fn_stats["checked_stores"] >= 1

    def test_loop_over_constant_range_safe(self):
        _, ann = infer(
            "function v = f(x)\nv = zeros(1, 10);\n"
            "for i = 2:9,\n  v(i) = v(i-1) + 1;\nend\n",
            0,
        )
        assert ann.stats()["checked_loads"] == 0

    def test_negative_offset_not_safe(self):
        _, ann = infer(
            "function v = f(x)\nv = zeros(1, 10);\n"
            "for i = 1:10,\n  v(i) = i;\n  w = v(i - 1);\nend\n",
            0,
        )
        # v(i-1) can be v(0) on the first trip: must stay checked.
        assert ann.stats()["checked_loads"] >= 1


class TestConvergence:
    def test_growing_loop_converges_by_widening(self):
        _, ann = infer(
            "function s = f(n)\ns = 0;\n"
            "while s < n,\n  s = s + 1;\nend\n",
            1000,
        )
        assert ann.converged

    def test_ping_pong_shapes_converge(self):
        _, ann = infer(
            "function A = f(n)\nA = zeros(1, 1);\n"
            "for i = 1:n,\n  A = [A, A];\nend\n",
            3,
        )
        assert ann.converged

    def test_loop_carried_complex_converges(self):
        _, ann = infer(
            "function z = f(n)\nz = 0;\n"
            "for k = 1:n,\n  z = z * i + 1;\nend\n",
            5,
        )
        assert ann.converged
        assert ann.output_types["z"].intrinsic is Intrinsic.COMPLEX


class TestSolverFallbacks:
    """The two cases where annotations do not come from a block's last
    evaluation during the solve: the iteration cap was hit, or the block
    was never reached."""

    NESTED = (
        "function s = f(n)\ns = zeros(n, n);\n"
        "for i = 1:n,\n  for j = 1:n,\n"
        "    s(i, j) = s(j, i) + i * j;\n  end\nend\n"
    )

    def test_iteration_cap_falls_back_to_top(self):
        fn, ann = infer(
            self.NESTED, 4, options=InferenceOptions(max_iterations=2)
        )
        assert not ann.converged
        assert ann.iterations == 3
        # Every block is annotated from the all-⊤ state: no variable read
        # knows anything (each one here is defined in another block) ...
        idents = [
            node
            for stmt in ast.walk_stmts(fn.body)
            for expr in ast.stmt_exprs(stmt)
            for node in ast.walk_expr(expr)
            if isinstance(node, ast.Ident)
        ]
        assert {node.name for node in idents} == {"n", "i", "j"}
        assert all(ann.type_of(node) == MType.top() for node in idents)
        # ... so no subscript check can be dropped ...
        assert ann.load_safety and ann.store_safety
        assert set(ann.load_safety.values()) == {SubscriptSafety.CHECKED}
        assert set(ann.store_safety.values()) == {SubscriptSafety.CHECKED}
        # ... and nothing is promised about the result.
        assert ann.output_types == {"s": MType.top()}
        # The same function does converge when allowed to.
        assert infer(self.NESTED, 4)[1].converged

    def test_jit_compiles_unconverged_inference_correctly(self):
        from repro.codegen.jitgen import JitCompiler, JitOptions
        from repro.codegen.runtime_support import RuntimeSupport
        from repro.interp.interpreter import Interpreter

        fn = fn_of(self.NESTED)
        args = [from_python(4)]
        options = JitOptions(inference=InferenceOptions(max_iterations=2))
        obj = JitCompiler(options).compile(fn, signature_of_values(args))
        assert not obj.annotations.converged
        compiled = obj.invoke(args, 1, RuntimeSupport(knows=lambda name: False))[0]
        expected = Interpreter().call_function(fn, [from_python(4)], 1)[0]
        assert compiled.view().tolist() == expected.view().tolist()

    def test_unreachable_code_is_annotated_from_the_empty_state(self):
        fn, ann = infer(
            "function y = f(x)\ny = x + 1;\n"
            "for k = 1:3,\n  break;\n  y = k;\nend\n"
            "return\ny = y * 2;\n",
            5,
        )
        assert ann.converged
        after_break, after_return = [
            stmt for stmt in ast.walk_stmts(fn.body)
            if isinstance(stmt, ast.Assign)
        ][1:]
        # Both dead statements are typed (code generation walks them) ...
        assert id(after_break.value) in ann.expr_types
        assert id(after_return.value) in ann.expr_types
        # ... from a state that holds no variable: reads are ⊤.
        assert ann.type_of(after_break.value) == MType.top()
        assert ann.type_of(after_return.value.left) == MType.top()
        # Dead definitions widen the variable's summary, not what flows
        # to the exit.
        assert ann.output_types["y"].constant_value == 6.0
        assert not ann.var_type("y").is_constant


class EveryAtom(TypeInferenceEngine):
    """The solver without its atom memo: every atom of an evaluated block
    is transferred, whatever it reads."""

    def _evaluate(self, block, env, record, memo):
        for atom in block.atoms:
            self._transfer(atom, env, record)


def _tables(annotations):
    """Everything an ``Annotations`` says, as comparable text (``repr``
    tells ``-0.0`` from ``0.0``; ``==`` does not)."""
    return (
        {key: repr(value) for key, value in annotations.expr_types.items()},
        annotations.load_safety,
        annotations.store_safety,
        repr(sorted(annotations.var_types.items())),
        repr(sorted(annotations.output_types.items())),
        annotations.converged,
        annotations.iterations,
    )


class TestSparseSolve:
    """An atom whose read names kept their types is replayed, not
    transferred; that must conclude exactly what transferring it does."""

    SOURCES = {
        "clear-in-loop": (
            "function s = f(n)\ns = 0;\nfor k = 1:n,\n  t = s;\n"
            "  clear t\n  u = t;\n  s = s + k;\nend\n", (4,)),
        "global-in-loop": (
            "function s = f(n)\ns = 0;\nwhile s < n,\n  global G\n"
            "  s = s + 1;\nend\n", (4,)),
        "multi-assign": (
            "function s = f(M)\ns = 0;\nfor k = 1:3,\n"
            "  [r, c] = size(M);\n  [q, q] = size(M);\n"
            "  s = s + r * c + k;\nend\n", (np.ones((2, 3)),)),
        "growing-store": (
            "function v = f(n)\nv = [];\nfor k = 1:n,\n"
            "  v(k) = k * 2;\n  w = v(end);\nend\n", (5,)),
    }

    @staticmethod
    def both(fn, signature):
        dis = Disambiguator(lambda name: False).run_function(fn)
        sparse = TypeInferenceEngine().infer(fn, signature, dis)
        dense = EveryAtom().infer(fn, signature, dis)
        return sparse, dense

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_handwritten(self, name):
        source, values = self.SOURCES[name]
        fn = fn_of(source)
        sparse, dense = self.both(fn, sig(*values))
        assert _tables(sparse) == _tables(dense)

    def test_fuzz_programs(self):
        for seed in range(120):
            program = generate_program(seed)
            fn = parse(program.source).primary
            sparse, dense = self.both(fn, sig(*program.args))
            assert _tables(sparse) == _tables(dense), program.source

    def test_inference_keeps_no_ast_alive(self):
        # Every memo of a solve lives in that solve: nothing outside the
        # returned annotations (keyed by id, holding only types) may
        # still reach the function or its CFG.
        fn = fn_of(
            "function s = f(n)\ns = 0;\nfor k = 1:n,\n  s = s + k;\nend\n"
        )
        dis = Disambiguator(lambda name: False).run_function(fn)
        # The loop's atom: its block is evaluated more than once, so the
        # solve memoises it.
        atom = next(
            a for b in dis.cfg.blocks for a in b.atoms
            if isinstance(a, ForIterAtom)
        )
        annotations = infer_function(fn, sig(4), disambiguation=dis)
        assert annotations.converged
        refs = weakref.ref(fn), weakref.ref(atom)
        del fn, dis, atom
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
