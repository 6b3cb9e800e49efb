"""Transfer rules for arithmetic, relational and logical operators.

Rules are registered most-restrictive-first, mirroring the paper's ``*``
example: *integer scalar multiply; real scalar multiply; complex scalar
multiply; real scalar × vector or vector × scalar; part of a dgemv
operation; or a generic complex matrix multiply*.
"""

from __future__ import annotations

from repro.inference.calculator import RuleContext, TypeCalculator
from repro.typesys.intrinsic import Intrinsic
from repro.typesys.mtype import MType
from repro.typesys.ranges import Interval
from repro.typesys.shape import Shape


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
def is_int_scalar(t: MType) -> bool:
    return t.is_scalar and t.is_integer_like


def is_real_scalar(t: MType) -> bool:
    return t.is_scalar and t.is_real_like


def is_complex_scalar(t: MType) -> bool:
    return t.is_scalar and t.intrinsic.leq(Intrinsic.COMPLEX) and not t.is_bottom


def is_numeric(t: MType) -> bool:
    return t.intrinsic.leq(Intrinsic.COMPLEX) and not t.is_bottom


def is_real_like(t: MType) -> bool:
    return t.is_real_like


def is_vector(t: MType) -> bool:
    """Definitely a (row or column) vector."""
    return (
        (t.maxshape.rows == 1 and (t.minshape.rows or 0) <= 1)
        or (t.maxshape.cols == 1 and (t.minshape.cols or 0) <= 1)
    ) and not t.is_scalar


# ----------------------------------------------------------------------
# Shape combination for elementwise operators
# ----------------------------------------------------------------------
def elementwise_shape(a: MType, b: MType) -> tuple[Shape, Shape]:
    """Shape bounds of ``a OP b`` under MATLAB scalar-expansion rules."""
    if a.is_scalar:
        return b.minshape, b.maxshape
    if b.is_scalar:
        return a.minshape, a.maxshape
    if not a.could_be_scalar and not b.could_be_scalar:
        # Shapes must be equal at runtime: intersect the windows.
        return a.minshape.join(b.minshape), a.maxshape.meet(b.maxshape)
    # One side might be scalar: the result can be as small as the other
    # side's minimum and as large as the larger maximum.
    return (
        a.minshape.meet(b.minshape),
        a.maxshape.join(b.maxshape),
    )


def ablate_min(mn, mx, ctx):
    """Apply the min-shape ablation to a derived lower bound.

    Scalar-ness is not minimum-shape information: a result bounded above
    by 1x1 keeps its lower bound even when the ablation is active.
    """
    if ctx.min_shape_propagation or mx.is_scalar:
        return mn
    return Shape.bottom()


def _numeric_join(a: MType, b: MType, at_least: Intrinsic = Intrinsic.INT) -> Intrinsic:
    """Intrinsic of an arithmetic result; bools promote to int."""
    intrinsic = a.intrinsic.join(b.intrinsic)
    if intrinsic is Intrinsic.STRING:
        # Strings coerce to char codes (integers) under arithmetic.
        intrinsic = Intrinsic.INT
    if intrinsic is Intrinsic.TOP:
        return Intrinsic.TOP
    return intrinsic.join(at_least) if intrinsic.leq(Intrinsic.REAL) else intrinsic


def _range_of(op: str, a: MType, b: MType, ctx: RuleContext) -> Interval:
    if not ctx.range_propagation:
        return Interval.top()
    if not (a.is_real_like or a.intrinsic is Intrinsic.STRING) or not (
        b.is_real_like or b.intrinsic is Intrinsic.STRING
    ):
        return Interval.top()
    ra, rb = a.range, b.range
    if op == "+":
        return ra.add(rb)
    if op == "-":
        return ra.sub(rb)
    if op in ("*", ".*"):
        return ra.mul(rb)
    if op in ("/", "./"):
        return ra.div(rb)
    if op in ("\\", ".\\"):
        return rb.div(ra)
    if op in ("^", ".^"):
        return ra.power(rb)
    return Interval.top()


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
def register(calc: TypeCalculator) -> None:
    _register_additive(calc, "+")
    _register_additive(calc, "-")
    _register_mtimes(calc)
    _register_elementwise_mul(calc, ".*")
    _register_division(calc, "/")
    _register_division(calc, "./")
    _register_division(calc, "\\")
    _register_division(calc, ".\\")
    _register_power(calc, "^")
    _register_power(calc, ".^")
    for op in ("==", "~=", "<", "<=", ">", ">="):
        _register_relational(calc, op)
    for op in ("&", "|"):
        _register_logical(calc, op)
    for op in ("&&", "||"):
        _register_short_circuit(calc, op)
    _register_unary(calc)
    _register_transpose(calc)
    _register_colon(calc)
    _register_matrixlit(calc)


def _register_additive(calc: TypeCalculator, op: str) -> None:
    key = ("binop", op)

    def scalar_int(ctx: RuleContext) -> list[MType]:
        a, b = ctx.arg(0), ctx.arg(1)
        return [MType.scalar(Intrinsic.INT, _range_of(op, a, b, ctx))]

    calc.rule(
        key,
        f"{op}:int-scalar",
        lambda ctx: is_int_scalar(ctx.arg(0)) and is_int_scalar(ctx.arg(1)),
        scalar_int,
    )

    def scalar_real(ctx: RuleContext) -> list[MType]:
        a, b = ctx.arg(0), ctx.arg(1)
        return [MType.scalar(Intrinsic.REAL, _range_of(op, a, b, ctx))]

    calc.rule(
        key,
        f"{op}:real-scalar",
        lambda ctx: is_real_scalar(ctx.arg(0)) and is_real_scalar(ctx.arg(1)),
        scalar_real,
    )

    calc.rule(
        key,
        f"{op}:complex-scalar",
        lambda ctx: is_complex_scalar(ctx.arg(0)) and is_complex_scalar(ctx.arg(1)),
        lambda ctx: [MType.scalar(Intrinsic.COMPLEX)],
    )

    def elementwise(ctx: RuleContext) -> list[MType]:
        a, b = ctx.arg(0), ctx.arg(1)
        mn, mx = elementwise_shape(a, b)
        mn = ablate_min(mn, mx, ctx)
        return [
            MType(
                _numeric_join(a, b),
                mn,
                mx,
                _range_of(op, a, b, ctx),
            )
        ]

    calc.rule(
        key,
        f"{op}:elementwise",
        lambda ctx: is_numeric(ctx.arg(0)) and is_numeric(ctx.arg(1)),
        elementwise,
    )
    calc.rule(
        key,
        f"{op}:generic",
        lambda ctx: True,
        lambda ctx: [MType.top()],
    )


def _register_mtimes(calc: TypeCalculator) -> None:
    key = ("binop", "*")

    calc.rule(
        key,
        "*:int-scalar",
        lambda ctx: is_int_scalar(ctx.arg(0)) and is_int_scalar(ctx.arg(1)),
        lambda ctx: [
            MType.scalar(
                Intrinsic.INT, _range_of("*", ctx.arg(0), ctx.arg(1), ctx)
            )
        ],
    )
    calc.rule(
        key,
        "*:real-scalar",
        lambda ctx: is_real_scalar(ctx.arg(0)) and is_real_scalar(ctx.arg(1)),
        lambda ctx: [
            MType.scalar(
                Intrinsic.REAL, _range_of("*", ctx.arg(0), ctx.arg(1), ctx)
            )
        ],
    )
    calc.rule(
        key,
        "*:complex-scalar",
        lambda ctx: is_complex_scalar(ctx.arg(0)) and is_complex_scalar(ctx.arg(1)),
        lambda ctx: [MType.scalar(Intrinsic.COMPLEX)],
    )

    def scalar_matrix(ctx: RuleContext) -> list[MType]:
        a, b = ctx.arg(0), ctx.arg(1)
        scalar, matrix = (a, b) if a.is_scalar else (b, a)
        mn = ablate_min(matrix.minshape, matrix.maxshape, ctx)
        return [
            MType(
                _numeric_join(a, b),
                mn,
                matrix.maxshape,
                _range_of("*", a, b, ctx),
            )
        ]

    calc.rule(
        key,
        "*:scalar-x-array",
        lambda ctx: is_numeric(ctx.arg(0))
        and is_numeric(ctx.arg(1))
        and (ctx.arg(0).is_scalar or ctx.arg(1).is_scalar),
        scalar_matrix,
    )

    def matrix_product(ctx: RuleContext) -> list[MType]:
        a, b = ctx.arg(0), ctx.arg(1)
        mn = Shape(
            a.minshape.rows if a.minshape.rows else 0,
            b.minshape.cols if b.minshape.cols else 0,
        )
        mx = Shape(a.maxshape.rows, b.maxshape.cols)
        mn = ablate_min(mn, mx, ctx)
        intrinsic = _numeric_join(a, b, at_least=Intrinsic.REAL)
        return [MType(intrinsic, mn, mx, Interval.top())]

    calc.rule(
        key,
        "*:dgemv",  # matrix × vector, the dgemv-selectable case
        lambda ctx: is_numeric(ctx.arg(0)) and is_vector(ctx.arg(1)),
        matrix_product,
    )
    calc.rule(
        key,
        "*:matrix-product",
        lambda ctx: is_numeric(ctx.arg(0)) and is_numeric(ctx.arg(1)),
        matrix_product,
    )
    calc.rule(
        key,
        "*:generic-complex-matrix",
        lambda ctx: True,
        lambda ctx: [MType.top()],
    )


def _register_elementwise_mul(calc: TypeCalculator, op: str) -> None:
    key = ("binop", op)
    calc.rule(
        key,
        f"{op}:int-scalar",
        lambda ctx: is_int_scalar(ctx.arg(0)) and is_int_scalar(ctx.arg(1)),
        lambda ctx: [
            MType.scalar(
                Intrinsic.INT, _range_of(op, ctx.arg(0), ctx.arg(1), ctx)
            )
        ],
    )
    calc.rule(
        key,
        f"{op}:real-scalar",
        lambda ctx: is_real_scalar(ctx.arg(0)) and is_real_scalar(ctx.arg(1)),
        lambda ctx: [
            MType.scalar(
                Intrinsic.REAL, _range_of(op, ctx.arg(0), ctx.arg(1), ctx)
            )
        ],
    )

    def elementwise(ctx: RuleContext) -> list[MType]:
        a, b = ctx.arg(0), ctx.arg(1)
        mn, mx = elementwise_shape(a, b)
        mn = ablate_min(mn, mx, ctx)
        return [MType(_numeric_join(a, b), mn, mx, _range_of(op, a, b, ctx))]

    calc.rule(
        key,
        f"{op}:elementwise",
        lambda ctx: is_numeric(ctx.arg(0)) and is_numeric(ctx.arg(1)),
        elementwise,
    )
    calc.rule(key, f"{op}:generic", lambda ctx: True, lambda ctx: [MType.top()])


def _register_division(calc: TypeCalculator, op: str) -> None:
    key = ("binop", op)

    calc.rule(
        key,
        f"{op}:real-scalar",
        lambda ctx: is_real_scalar(ctx.arg(0)) and is_real_scalar(ctx.arg(1)),
        lambda ctx: [
            MType.scalar(
                Intrinsic.REAL, _range_of(op, ctx.arg(0), ctx.arg(1), ctx)
            )
        ],
    )
    calc.rule(
        key,
        f"{op}:complex-scalar",
        lambda ctx: is_complex_scalar(ctx.arg(0)) and is_complex_scalar(ctx.arg(1)),
        lambda ctx: [MType.scalar(Intrinsic.COMPLEX)],
    )

    if op in ("./", ".\\"):

        def elementwise(ctx: RuleContext) -> list[MType]:
            a, b = ctx.arg(0), ctx.arg(1)
            mn, mx = elementwise_shape(a, b)
            if not ctx.min_shape_propagation:
                mn = Shape.bottom()
            intrinsic = _numeric_join(a, b, at_least=Intrinsic.REAL)
            return [MType(intrinsic, mn, mx, _range_of(op, a, b, ctx))]

        calc.rule(
            key,
            f"{op}:elementwise",
            lambda ctx: is_numeric(ctx.arg(0)) and is_numeric(ctx.arg(1)),
            elementwise,
        )
    else:

        def scalar_divisor(ctx: RuleContext) -> list[MType]:
            a, b = ctx.arg(0), ctx.arg(1)
            array = a if op == "/" else b
            mn = ablate_min(array.minshape, array.maxshape, ctx)
            intrinsic = _numeric_join(a, b, at_least=Intrinsic.REAL)
            return [MType(intrinsic, mn, array.maxshape, _range_of(op, a, b, ctx))]

        calc.rule(
            key,
            f"{op}:array-by-scalar",
            lambda ctx: is_numeric(ctx.arg(0))
            and is_numeric(ctx.arg(1))
            and (ctx.arg(1).is_scalar if op == "/" else ctx.arg(0).is_scalar),
            scalar_divisor,
        )

        def solve(ctx: RuleContext) -> list[MType]:
            # mldivide/mrdivide: linear solve; shape from the system.
            a, b = ctx.arg(0), ctx.arg(1)
            if op == "\\":
                mx = Shape(a.maxshape.cols, b.maxshape.cols)
            else:
                mx = Shape(a.maxshape.rows, b.maxshape.rows)
            intrinsic = _numeric_join(a, b, at_least=Intrinsic.REAL)
            return [MType(intrinsic, Shape.bottom(), mx, Interval.top())]

        calc.rule(
            key,
            f"{op}:linear-solve",
            lambda ctx: is_numeric(ctx.arg(0)) and is_numeric(ctx.arg(1)),
            solve,
        )
    calc.rule(key, f"{op}:generic", lambda ctx: True, lambda ctx: [MType.top()])


def _register_power(calc: TypeCalculator, op: str) -> None:
    key = ("binop", op)

    def stays_real(ctx: RuleContext) -> bool:
        base, exponent = ctx.arg(0), ctx.arg(1)
        if not (base.is_real_like and exponent.is_real_like):
            return False
        # real^fractional with a possibly negative base goes complex.
        if exponent.is_integer_like:
            return True
        return ctx.range_propagation and base.range.is_nonnegative

    calc.rule(
        key,
        f"{op}:int-scalar",
        lambda ctx: is_int_scalar(ctx.arg(0))
        and is_int_scalar(ctx.arg(1))
        and ctx.range_propagation
        and ctx.arg(1).range.is_nonnegative,
        lambda ctx: [
            MType.scalar(
                Intrinsic.INT, _range_of(op, ctx.arg(0), ctx.arg(1), ctx)
            )
        ],
    )
    calc.rule(
        key,
        f"{op}:real-scalar",
        lambda ctx: is_real_scalar(ctx.arg(0))
        and is_real_scalar(ctx.arg(1))
        and stays_real(ctx),
        lambda ctx: [
            MType.scalar(
                Intrinsic.REAL, _range_of(op, ctx.arg(0), ctx.arg(1), ctx)
            )
        ],
    )
    calc.rule(
        key,
        f"{op}:complex-scalar",
        lambda ctx: is_complex_scalar(ctx.arg(0)) and is_complex_scalar(ctx.arg(1)),
        lambda ctx: [MType.scalar(Intrinsic.COMPLEX)],
    )

    if op == ".^":

        def elementwise(ctx: RuleContext) -> list[MType]:
            a, b = ctx.arg(0), ctx.arg(1)
            mn, mx = elementwise_shape(a, b)
            if not ctx.min_shape_propagation:
                mn = Shape.bottom()
            intrinsic = (
                Intrinsic.REAL if stays_real(ctx) else Intrinsic.COMPLEX
            )
            rng = _range_of(op, a, b, ctx) if stays_real(ctx) else Interval.top()
            return [MType(intrinsic, mn, mx, rng)]

        calc.rule(
            key,
            ".^:elementwise",
            lambda ctx: is_numeric(ctx.arg(0)) and is_numeric(ctx.arg(1)),
            elementwise,
        )
    else:
        calc.rule(
            key,
            "^:matrix-power",
            lambda ctx: is_numeric(ctx.arg(0))
            and is_int_scalar(ctx.arg(1))
            and not ctx.arg(0).is_scalar,
            lambda ctx: [
                MType(
                    Intrinsic.REAL
                    if ctx.arg(0).is_real_like
                    else Intrinsic.COMPLEX,
                    ablate_min(ctx.arg(0).minshape, ctx.arg(0).maxshape, ctx),
                    ctx.arg(0).maxshape,
                    Interval.top(),
                )
            ],
        )
    calc.rule(key, f"{op}:generic", lambda ctx: True, lambda ctx: [MType.top()])


def _register_relational(calc: TypeCalculator, op: str) -> None:
    key = ("binop", op)
    bool01 = Interval.of(0.0, 1.0)

    calc.rule(
        key,
        f"{op}:scalar",
        lambda ctx: ctx.arg(0).is_scalar and ctx.arg(1).is_scalar,
        lambda ctx: [MType.scalar(Intrinsic.BOOL, bool01)],
    )

    def elementwise(ctx: RuleContext) -> list[MType]:
        mn, mx = elementwise_shape(ctx.arg(0), ctx.arg(1))
        if not ctx.min_shape_propagation:
            mn = Shape.bottom()
        return [MType(Intrinsic.BOOL, mn, mx, bool01)]

    calc.rule(key, f"{op}:elementwise", lambda ctx: True, elementwise)


def _register_logical(calc: TypeCalculator, op: str) -> None:
    key = ("binop", op)
    bool01 = Interval.of(0.0, 1.0)
    calc.rule(
        key,
        f"{op}:scalar",
        lambda ctx: ctx.arg(0).is_scalar and ctx.arg(1).is_scalar,
        lambda ctx: [MType.scalar(Intrinsic.BOOL, bool01)],
    )

    def elementwise(ctx: RuleContext) -> list[MType]:
        mn, mx = elementwise_shape(ctx.arg(0), ctx.arg(1))
        if not ctx.min_shape_propagation:
            mn = Shape.bottom()
        return [MType(Intrinsic.BOOL, mn, mx, bool01)]

    calc.rule(key, f"{op}:elementwise", lambda ctx: True, elementwise)


def _register_short_circuit(calc: TypeCalculator, op: str) -> None:
    calc.rule(
        ("binop", op),
        f"{op}:scalar",
        lambda ctx: True,
        lambda ctx: [MType.scalar(Intrinsic.BOOL, Interval.of(0.0, 1.0))],
    )


def _register_unary(calc: TypeCalculator) -> None:
    def neg(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        intrinsic = a.intrinsic
        if intrinsic is Intrinsic.BOOL:
            intrinsic = Intrinsic.INT
        if intrinsic is Intrinsic.STRING:
            intrinsic = Intrinsic.INT
        rng = a.range.neg() if (ctx.range_propagation and a.is_real_like) else Interval.top()
        return [MType(intrinsic, a.minshape, a.maxshape, rng)]

    calc.rule(
        ("unary", "-"),
        "-:numeric",
        lambda ctx: is_numeric(ctx.arg(0)) or ctx.arg(0).is_string,
        neg,
    )
    calc.rule(("unary", "-"), "-:generic", lambda ctx: True, lambda ctx: [MType.top()])

    calc.rule(
        ("unary", "+"),
        "+:identity",
        lambda ctx: True,
        lambda ctx: [ctx.arg(0)],
    )

    def logical_not(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        return [
            MType(Intrinsic.BOOL, a.minshape, a.maxshape, Interval.of(0.0, 1.0))
        ]

    calc.rule(("unary", "~"), "~:any", lambda ctx: True, logical_not)


def _register_transpose(calc: TypeCalculator) -> None:
    def transpose(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        return [
            MType(
                a.intrinsic if is_numeric(a) else Intrinsic.TOP,
                a.minshape.transposed(),
                a.maxshape.transposed(),
                a.range if a.is_real_like else Interval.top(),
            )
        ]

    calc.rule(
        ("transpose", "'"),
        "':numeric",
        lambda ctx: is_numeric(ctx.arg(0)),
        transpose,
    )
    calc.rule(
        ("transpose", "'"), "':generic", lambda ctx: True, lambda ctx: [MType.top()]
    )
    calc.rule(
        ("transpose", ".'"),
        ".':numeric",
        lambda ctx: is_numeric(ctx.arg(0)),
        transpose,
    )
    calc.rule(
        ("transpose", ".'"), ".':generic", lambda ctx: True, lambda ctx: [MType.top()]
    )


def _register_colon(calc: TypeCalculator) -> None:
    key = ("colon", ":")

    def exact(ctx: RuleContext) -> list[MType]:
        # start/stop (and step) are known constants: exact row vector.
        args = ctx.args
        start = args[0].constant_value
        stop = args[-1].constant_value
        step = args[1].constant_value if len(args) == 3 else 1.0
        if step == 0:
            count = 0
        else:
            count = max(int((stop - start) / step + 1e-10) + 1, 0)
        intrinsic = (
            Intrinsic.INT
            if all(a.is_integer_like for a in args)
            else Intrinsic.REAL
        )
        if count == 0:
            return [MType.exact(intrinsic, 1, 0, Interval.bottom())]
        lo, hi = (start, start + step * (count - 1))
        return [
            MType.exact(
                intrinsic, 1, count, Interval.of(min(lo, hi), max(lo, hi))
            )
        ]

    calc.rule(
        key,
        ":const-endpoints",
        lambda ctx: ctx.range_propagation
        and all(a.is_constant for a in ctx.args),
        exact,
    )

    def bounded(ctx: RuleContext) -> list[MType]:
        args = ctx.args
        intrinsic = (
            Intrinsic.INT
            if all(a.is_integer_like for a in args)
            else Intrinsic.REAL
        )
        rng = Interval.top()
        if ctx.range_propagation:
            rng = args[0].range.join(args[-1].range)
        return [
            MType(intrinsic, Shape.exact(1, 0), Shape(1, None), rng)
        ]

    calc.rule(
        key,
        ":numeric-endpoints",
        lambda ctx: all(is_numeric(a) for a in ctx.args),
        bounded,
    )
    calc.rule(key, ":generic", lambda ctx: True, lambda ctx: [
        MType(Intrinsic.REAL, Shape.exact(1, 0), Shape(1, None), Interval.top())
    ])


def _register_matrixlit(calc: TypeCalculator) -> None:
    key = ("matrix", "[]")

    calc.rule(
        key,
        "[]:empty",
        lambda ctx: not ctx.args,
        lambda ctx: [MType.exact(Intrinsic.REAL, 0, 0, Interval.bottom())],
    )

    def all_scalars(ctx: RuleContext) -> bool:
        return all(a.is_scalar for a in ctx.args)

    def scalar_vector(ctx: RuleContext) -> list[MType]:
        # The engine passes element types row-major with a marker of the
        # row structure via nargout (= number of rows).
        rows = max(ctx.nargout, 1)
        cols = len(ctx.args) // rows if rows else 0
        intrinsic = Intrinsic.BOTTOM
        rng = Interval.bottom()
        for a in ctx.args:
            intrinsic = intrinsic.join(a.intrinsic)
            rng = rng.join(a.range if a.is_real_like else Interval.top())
        if not ctx.range_propagation:
            rng = Interval.top()
        return [MType.exact(intrinsic, rows, cols, rng)]

    calc.rule(key, "[]:scalar-elements", all_scalars, scalar_vector)

    def general(ctx: RuleContext) -> list[MType]:
        intrinsic = Intrinsic.BOTTOM
        for a in ctx.args:
            intrinsic = intrinsic.join(a.intrinsic)
        return [
            MType(intrinsic, Shape.bottom(), Shape.top(), Interval.top())
        ]

    calc.rule(
        key,
        "[]:general",
        lambda ctx: all(
            is_numeric(a) or a.is_string for a in ctx.args
        ),
        general,
    )
    calc.rule(key, "[]:generic", lambda ctx: True, lambda ctx: [MType.top()])
