"""Optimizing-pipeline analysis tests: purity, affine subscripts,
versioning plans, and the baseline engines."""

import numpy as np
import pytest

from repro.codegen.optimizations import (
    find_hoistable,
    is_pure_scalar,
    match_affine,
    plan_versioning,
)
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.inference.engine import infer_function
from repro.runtime.values import from_python
from repro.typesys.signature import signature_of_values


def annotated(source, *values):
    fn = parse(source).primary
    ann = infer_function(
        fn, signature_of_values([from_python(v) for v in values])
    )
    return fn, ann


def first_loop(fn):
    return next(s for s in ast.walk_stmts(fn.body) if isinstance(s, ast.For))


class TestPurity:
    def test_scalar_arith_is_pure(self):
        fn, ann = annotated(
            "function s = f(c)\ns = 0;\nfor i = 1:3, s = s + c * 2; end\n",
            1.5,
        )
        loop = first_loop(fn)
        body_assign = loop.body[0]
        # `c * 2` is pure and loop-invariant; `s + ...` is not (s varies).
        variant = ast.assigned(loop.body) | {loop.var}
        rhs = body_assign.value
        assert not is_pure_scalar(rhs, ann, variant)       # mentions s
        assert is_pure_scalar(rhs.right, ann, variant)     # c * 2

    def test_array_load_is_not_pure(self):
        fn, ann = annotated(
            "function s = f(v)\ns = 0;\nfor i = 1:3, s = s + v(1) * 2; end\n",
            np.ones((1, 4)),
        )
        loop = first_loop(fn)
        variant = ast.assigned(loop.body) | {loop.var}
        rhs = loop.body[0].value.right   # v(1) * 2
        assert not is_pure_scalar(rhs, ann, variant)

    def test_find_hoistable_maximal(self):
        fn, ann = annotated(
            "function s = f(n, c)\ns = 0;\n"
            "for i = 1:n, s = s + c * c * 3.0; end\n",
            10, 2.0,
        )
        loop = first_loop(fn)
        variant = ast.assigned(loop.body) | {loop.var}
        found = find_hoistable(loop.body, ann, variant)
        assert len(found) == 1  # the maximal c*c*3.0, not its subtrees


class TestAffine:
    def source(self):
        return (
            "function A = f(n)\nA = zeros(n, n);\n"
            "for i = 2:n-1,\n  A(i, 1) = A(i-1, 2) + A(i+1, 3);\nend\n"
        )

    def test_match_var_plus_const(self):
        fn, ann = annotated(self.source(), 0)
        loop = first_loop(fn)
        variant = ast.assigned(loop.body) | {loop.var}
        load = next(
            node
            for e in ast.stmt_exprs(loop.body[0])
            for node in ast.walk_expr(e)
            if isinstance(node, ast.Apply)
        )
        affine = match_affine(load.args[0], "i", ann, variant)
        assert affine is not None and affine.uses_var
        assert affine.offset_sign == -1

    def test_invariant_constant_index(self):
        fn, ann = annotated(self.source(), 0)
        loop = first_loop(fn)
        variant = ast.assigned(loop.body) | {loop.var}
        target = loop.body[0].target
        affine = match_affine(target.indices[1], "i", ann, variant)
        assert affine is not None and not affine.uses_var

    def test_nonaffine_rejected(self):
        fn, ann = annotated(
            "function A = f(n)\nA = zeros(n, n);\n"
            "for i = 1:n,\n  A(i * i, 1) = 1;\nend\n",
            0,
        )
        loop = first_loop(fn)
        variant = ast.assigned(loop.body) | {loop.var}
        target = loop.body[0].target
        assert match_affine(target.indices[0], "i", ann, variant) is None


class TestVersioningPlan:
    def test_plan_covers_checked_accesses(self):
        fn, ann = annotated(
            "function A = f(n)\nA = zeros(n, n);\n"
            "for i = 2:n-1,\n  A(i, i) = A(i-1, i-1) + 1;\nend\n",
            0,  # unknown n: accesses stay CHECKED, versioning plans them
        )
        # Signature with unknown n: use int scalar, range top.
        from repro.typesys.intrinsic import Intrinsic
        from repro.typesys.mtype import MType
        from repro.typesys.signature import Signature

        ann = infer_function(
            fn, Signature.of([MType.scalar(Intrinsic.INT)])
        )
        loop = first_loop(fn)
        plan = plan_versioning(loop, ann)
        assert plan.worthwhile
        assert len(plan.forced_safe) == 2  # the load and the store

    def test_no_plan_when_everything_safe(self):
        fn, ann = annotated(
            "function A = f(n)\nA = zeros(n, n);\n"
            "for i = 2:n-1,\n  A(i, i) = A(i-1, i-1) + 1;\nend\n",
            8,  # constant n: everything already SAFE
        )
        loop = first_loop(fn)
        plan = plan_versioning(loop, ann)
        assert not plan.worthwhile

    def test_descending_constant_step_planned(self):
        from repro.typesys.intrinsic import Intrinsic
        from repro.typesys.mtype import MType
        from repro.typesys.signature import Signature

        fn = parse(
            "function v = f(n)\nv = zeros(1, n);\n"
            "for i = n:-1:1,\n  v(i) = i;\nend\n"
        ).primary
        ann = infer_function(fn, Signature.of([MType.scalar(Intrinsic.INT)]))
        loop = first_loop(fn)
        plan = plan_versioning(loop, ann)
        assert plan.worthwhile

    def test_wholesale_reassignment_blocks_plan(self):
        from repro.typesys.intrinsic import Intrinsic
        from repro.typesys.mtype import MType
        from repro.typesys.signature import Signature

        fn = parse(
            "function A = f(n)\nA = zeros(1, n);\n"
            "for i = 1:n,\n  x = A(i);\n  A = zeros(1, n + i);\nend\n"
        ).primary
        ann = infer_function(fn, Signature.of([MType.scalar(Intrinsic.INT)]))
        loop = first_loop(fn)
        plan = plan_versioning(loop, ann)
        assert not plan.worthwhile


class TestBaselines:
    def test_mcc_is_fully_generic(self):
        from repro.baselines.mcc import MccCompilerEngine
        from repro.runtime.values import to_python

        engine = MccCompilerEngine()
        engine.add_source("function p = poly(x)\np = x.^5 + 3*x + 2;\n")
        out = engine.execute("poly", [from_python(4.0)], 1)
        assert to_python(out[0]) == 1038.0
        obj = engine._objects["poly"]
        # Every operation is a generic library call (Figure 3 bottom row).
        assert "g_epow" in obj.source and "g_mul" in obj.source

    def test_falcon_uses_peeked_types(self):
        from repro.baselines.falcon import FalconCompilerEngine
        from repro.runtime.values import to_python

        engine = FalconCompilerEngine()
        engine.add_source("function p = poly(x)\np = x.^5 + 3*x + 2;\n")
        out = engine.execute("poly", [from_python(4.0)], 1)
        assert to_python(out[0]) == 1038.0
        obj = engine._objects["poly"]
        # Peeked types specialize the code: no generic calls remain.
        assert "g_epow" not in obj.source

    def test_falcon_inherits_native_opt_level(self):
        from repro.baselines.falcon import FalconCompilerEngine

        engine = FalconCompilerEngine(native_opt_level=2)
        engine.add_source(
            "function s = f(n, c)\ns = 0;\n"
            "for i = 1:n, s = s + c * c * 3.0; end\n"
        )
        engine.execute("f", [from_python(10), from_python(2.0)], 1)
        assert "_inv" in engine._objects["f"].source  # hoisting on
