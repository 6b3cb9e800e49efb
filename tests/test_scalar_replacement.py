"""Small fixed-shape vectors live in registers.

Code selection holds a local whose every definition has one exact real
shape of 2..9 elements as one raw host float per element (scalar
replacement, :meth:`repro.codegen.select.Selector.scalar_replaced`), and
boxes it into a fresh array only where it escapes.  Inference's sign
facts (a real value times itself is ≥ 0) type the orbit programs'
``sqrt(r(1) * r(1) + r(2) * r(2))`` real, which is what lets their loops
run on host floats at all.  Pinned here as facts about emitted text and
about the selector's and the engine's answers; bit-identity with the
interpreter is ``test_differential_backends.py``'s (its ``unrolled-*``,
``sign-*``, ``rand-draws`` and ``small-product`` probes).
"""

from __future__ import annotations

import pytest

from repro import backends
from repro.analysis.disambiguate import disambiguate_function
from repro.backends import Program
from repro.benchsuite.registry import benchmark_names
from repro.codegen.select import Selector
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.inference.engine import infer_function
from repro.typesys.intrinsic import Intrinsic
from repro.typesys.mtype import MType
from repro.typesys.signature import Signature


def _versions(name: str, row: str) -> list:
    with backends.open(Program.benchmark(name), row) as handle:
        handle.call()
        repo = handle.session.repository
        return [
            version for function in repo.function_names()
            for version in repo.versions_of(function)
        ]


def _complex_typed(version) -> bool:
    """Whether inference typed any expression of ``version`` complex (a
    ``sqrt`` it could not prove real, say)."""
    return any(
        mtype.intrinsic is Intrinsic.COMPLEX
        for mtype in version.annotations.expr_types.values()
    )


def _loop(source: str) -> str:
    """The emitted text from the first ``for`` header on."""
    lines = source.splitlines()
    start = next(
        index for index, line in enumerate(lines)
        if line.lstrip().startswith("for ")
    )
    return "\n".join(lines[start:])


# ----------------------------------------------------------------------
# Text facts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("row", ["jit", "spec"])
@pytest.mark.parametrize("name", ["orbec", "orbrk"])
def test_orbit_loops_run_on_host_floats(name, row):
    versions = [v for v in _versions(name, row) if v.name == name]
    assert {v.mode for v in versions} >= {row}
    for version in versions:
        loop = _loop(version.source)
        for text in ("_h_kernel_", "_h_hcat", ".data.item"):
            assert text not in loop, f"{text} in {version.mode}:\n{loop}"
        assert not _complex_typed(version), version.mode


@pytest.mark.parametrize("row", ["jit", "spec"])
def test_fractal_draws_raw_floats(row):
    [version] = [v for v in _versions("fractal", row) if v.mode == row]
    loop = _loop(version.source)
    assert "builtin1('rand'" not in loop
    assert "_h_rand_scalar()" in loop


@pytest.mark.parametrize("row", ["jit", "spec"])
def test_fractal_product_returns_host_floats(row):
    # v = A * v + t: one helper returns A * v's elements; no array is
    # built and none is read back.
    [version] = [v for v in _versions("fractal", row) if v.mode == row]
    loop = _loop(version.source)
    assert "_h_mtimes_elements(2, 2, 1, " in loop
    for text in ("_h_dgemv", "_h_pack", ".data.item"):
        assert text not in loop, f"{text} in {row}:\n{loop}"


def test_no_table1_program_allocates_site_buffers():
    for name in benchmark_names():
        for row in ("jit", "fused", "spec"):
            for version in _versions(name, row):
                assert "alloc(" not in version.source, (name, row)


# ----------------------------------------------------------------------
# Which variables are replaced
# ----------------------------------------------------------------------
#: A real scalar of unknown range.
REAL = MType.scalar()


def replaced(
    source: str, *types: MType, unroll_enabled: bool = True
) -> dict:
    fn = parse(source).primary
    dis = disambiguate_function(fn)
    annotations = infer_function(
        fn, Signature.of(types), disambiguation=dis
    )
    selector = Selector(fn, annotations, unroll_enabled=unroll_enabled)
    return selector.scalar_replaced(dis)


@pytest.mark.parametrize("body,expected", [
    ("v = [x, 1];\nv = v * 2;\ny = v(1);\n", {"v": (1, 2)}),
    ("v = [x; 1; 2];\nv(2) = 5;\ny = v(2) + v(3);\n", {"v": (3, 1)}),
    ("A = [x, 1; 2, 3];\ny = A(2, 1) + A(3);\n", {"A": (2, 2)}),
    # Grown, stored at a non-constant subscript, stored before it is
    # surely assigned, cleared, BOOL: not replaced.
    ("v = [x, 1];\nv(3) = 2;\ny = v(1);\n", {}),
    ("v = [x, 1];\nv(x) = 3;\ny = v(1);\n", {}),
    ("if x > 0, v = [x, 1]; end\nv(2) = 3;\ny = v(1);\n", {}),
    ("v = [x, 1];\nclear v\ny = 1;\n", {}),
    ("v = [x, 1];\ny = v(2);\nclear\n", {}),
    ("v = [x > 1, x > 2];\ny = v(1);\n", {}),
    # One logical and one numeric definition: the join says INT, but the
    # logical value's class must survive.
    ("m = [0, 0];\nm = [x, x] > 0;\ny = m(1);\n", {}),
    ("m = x > [0, 0];\nm(1) = 1;\ny = m(1);\n", {}),
    # A for variable, even a column of exact shape.
    ("y = 0;\nfor c = [1 2; 3 4], y = y + c(1); end\n", {}),
    # A maybe-undefined read.
    ("if x > 0, v = [x, 1]; end\ny = v(1);\n", {}),
])
def test_which_locals_are_replaced(body, expected):
    assert replaced("function y = f(x)\n" + body, REAL) == expected


def test_formals_and_outputs_stay_boxed():
    assert replaced("function v = f(x)\nv = [x, 1];\n", REAL) == {}
    assert replaced(
        "function y = f(v)\nv = v + 1;\ny = v(2);\n",
        MType.exact(Intrinsic.REAL, 1, 2),
    ) == {}


def test_no_replacement_without_unrolling():
    source = "function y = f(x)\nv = [x, 1];\ny = v(1);\n"
    assert replaced(source, REAL) == {"v": (1, 2)}
    assert replaced(source, REAL, unroll_enabled=False) == {}


# ----------------------------------------------------------------------
# Sign facts
# ----------------------------------------------------------------------
def sqrt_is_real(body: str) -> bool:
    """Is ``sqrt`` in ``body`` typed real, for a real scalar ``x`` of
    unknown range?"""
    fn = parse("function y = f(x)\n" + body).primary
    annotations = infer_function(fn, Signature.of([REAL]))
    [node] = [
        node for stmt in ast.walk_stmts(fn.body)
        for expr in ast.stmt_exprs(stmt) for node in ast.walk_expr(expr)
        if isinstance(node, ast.Apply) and node.name == "sqrt"
    ]
    return annotations.type_of(node).intrinsic is not Intrinsic.COMPLEX


@pytest.mark.parametrize("body,real", [
    ("y = sqrt(x * x);\n", True),
    ("y = sqrt(x .* x);\n", True),
    ("r = [x, 3];\ny = sqrt(r(1) * r(1) + r(2) * r(2));\n", True),
    ("t = 1 + x * x;\ny = 1 / sqrt(t);\n", True),
    # Not the same value: another variable, another subscript, a store
    # between the reads, a complex square, a product of two draws.
    ("z = 2 * x;\ny = sqrt(x * z);\n", False),
    ("r = [x, 3];\ny = sqrt(r(1) * r(2));\n", False),
    ("r = [x, 3];\nt = r(1);\nr(1) = -2;\ny = sqrt(t * r(1));\n", False),
    ("z = x * 1i;\ny = sqrt(z * z);\n", False),
    ("y = sqrt(rand * rand - 0.5);\n", False),
])
def test_a_real_value_times_itself_is_nonnegative(body, real):
    assert sqrt_is_real(body) is real


@pytest.mark.parametrize("name", ["orbec", "orbrk", "qmr"])
def test_table1_square_roots_are_real(name):
    for version in _versions(name, "jit"):
        assert not _complex_typed(version), version.name
