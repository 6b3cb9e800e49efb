"""Transfer rules for MATLAB builtin functions.

Many builtins have several rules each (paper: "many of MATLAB's built-in
functions have several entries each").  The interesting ones implement the
collaborations Section 2.4 describes — e.g. ``A = zeros(m, n)``: when range
propagation has constant ranges for ``m`` and ``n``, the shape of ``A`` is
exactly determined.
"""

from __future__ import annotations

import math

from repro.inference.calculator import RuleContext, TypeCalculator
from repro.inference.rules_arith import (
    ablate_min,
    is_int_scalar,
    is_numeric,
    is_real_scalar,
)
from repro.runtime.builtins import BUILTINS
from repro.typesys.intrinsic import Intrinsic
from repro.typesys.mtype import MType
from repro.typesys.ranges import Interval
from repro.typesys.shape import INF, Shape


def _dims_from_types(ctx: RuleContext) -> tuple[Shape, Shape]:
    """Shape bounds of a constructor call from its argument ranges."""
    args = ctx.args
    if not args:
        return Shape.scalar(), Shape.scalar()

    def bounds(t: MType) -> tuple[int, int | None]:
        # A negative size is an extent of 0; a NaN or infinite one raises,
        # so an infinite end of the range bounds nothing.
        if not ctx.range_propagation or t.range.is_top or t.range.is_bottom:
            return 0, None
        lo, hi = t.range.lo, t.range.hi
        return (
            max(math.floor(lo), 0) if math.isfinite(lo) else 0,
            max(math.ceil(hi), 0) if math.isfinite(hi) else None,
        )

    if len(args) == 1:
        lo, hi = bounds(args[0])
        return Shape(lo, lo), Shape(hi, hi)
    (rlo, rhi), (clo, chi) = bounds(args[0]), bounds(args[1])
    return Shape(rlo, clo), Shape(rhi, chi)


def _constructor_rules(
    calc: TypeCalculator, name: str, intrinsic: Intrinsic, rng: Interval
) -> None:
    key = ("builtin", name)

    def exact(ctx: RuleContext) -> list[MType]:
        mn, mx = _dims_from_types(ctx)
        return [MType(intrinsic, mn, mx, rng)]

    calc.rule(
        key,
        f"{name}:const-dims",
        lambda ctx: ctx.range_propagation
        and all(a.is_constant for a in ctx.args),
        exact,
    )

    def bounded(ctx: RuleContext) -> list[MType]:
        mn, mx = _dims_from_types(ctx)
        mn = ablate_min(mn, mx, ctx)
        return [MType(intrinsic, mn, mx, rng)]

    calc.rule(
        key,
        f"{name}:int-dims",
        lambda ctx: all(is_numeric(a) and a.is_scalar for a in ctx.args),
        bounded,
    )
    calc.rule(
        key,
        f"{name}:generic",
        lambda ctx: True,
        lambda ctx: [MType(intrinsic, Shape.bottom(), Shape.top(), rng)],
    )


def _unary_elementwise_rules(
    calc: TypeCalculator,
    name: str,
    result_range,
    complex_in_complex_out: bool = True,
    result_intrinsic=None,
):
    """Rules for a shape-preserving elementwise builtin.

    ``result_range(arg_range)`` maps input to output interval for real
    arguments.  A builtin with a ``domain`` (sqrt, log) goes complex when
    the argument may dip below it.
    """
    key = ("builtin", name)
    domain = BUILTINS[name].domain

    def real_result(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        intrinsic = result_intrinsic(a) if result_intrinsic else Intrinsic.REAL
        rng = (
            result_range(a.range)
            if ctx.range_propagation and not a.range.is_top
            else Interval.top()
        )
        mn = ablate_min(a.minshape, a.maxshape, ctx)
        return [MType(intrinsic, mn, a.maxshape, rng)]

    def real_ok(ctx: RuleContext) -> bool:
        a = ctx.arg(0)
        if not a.is_real_like:
            return False
        if domain is None:
            return True
        return ctx.range_propagation and not a.range.is_bottom and (
            a.range.lo >= domain
        )

    calc.rule(key, f"{name}:real", real_ok, real_result)

    def complex_result(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        intrinsic = (
            Intrinsic.COMPLEX
            if complex_in_complex_out
            else (result_intrinsic(a) if result_intrinsic else Intrinsic.REAL)
        )
        mn = ablate_min(a.minshape, a.maxshape, ctx)
        return [MType(intrinsic, mn, a.maxshape, Interval.top())]

    calc.rule(
        key,
        f"{name}:complex",
        lambda ctx: is_numeric(ctx.arg(0)),
        complex_result,
    )
    calc.rule(
        key, f"{name}:generic", lambda ctx: True, lambda ctx: [MType.top()]
    )


def register(calc: TypeCalculator) -> None:
    _constructor_rules(calc, "zeros", Intrinsic.INT, Interval.constant(0.0))
    _constructor_rules(calc, "ones", Intrinsic.INT, Interval.constant(1.0))
    _constructor_rules(calc, "eye", Intrinsic.INT, Interval.of(0.0, 1.0))
    _constructor_rules(calc, "rand", Intrinsic.REAL, Interval.of(0.0, 1.0))
    _constructor_rules(calc, "randn", Intrinsic.REAL, Interval.top())

    # ------------------------------------------------------------------
    # Shape queries — where exact shape inference pays off.
    # ------------------------------------------------------------------
    def size_result(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        rows = Interval.of(
            float(a.minshape.rows or 0),
            float(a.maxshape.rows) if a.maxshape.rows is not None else math.inf,
        )
        cols = Interval.of(
            float(a.minshape.cols or 0),
            float(a.maxshape.cols) if a.maxshape.cols is not None else math.inf,
        )
        if not ctx.range_propagation:
            rows = cols = Interval.top()
        if len(ctx.args) == 2:
            dim = ctx.arg(1)
            if dim.is_constant and dim.constant_value == 1.0:
                return [MType.scalar(Intrinsic.INT, rows)]
            if dim.is_constant and dim.constant_value == 2.0:
                return [MType.scalar(Intrinsic.INT, cols)]
            return [MType.scalar(Intrinsic.INT, Interval.top())]
        if ctx.nargout >= 2:
            return [
                MType.scalar(Intrinsic.INT, rows),
                MType.scalar(Intrinsic.INT, cols),
            ]
        return [MType.exact(Intrinsic.INT, 1, 2, rows.join(cols))]

    calc.rule(("builtin", "size"), "size:shape-bounds", lambda ctx: True, size_result)

    def length_result(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        if ctx.range_propagation and a.has_exact_shape:
            shape = a.exact_shape
            value = 0 if shape.numel == 0 else max(shape.rows, shape.cols)
            return [MType.scalar(Intrinsic.INT, Interval.constant(float(value)))]
        return [MType.scalar(Intrinsic.INT, Interval.of(0.0, math.inf))]

    calc.rule(("builtin", "length"), "length:bounds", lambda ctx: True, length_result)

    def numel_result(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        if ctx.range_propagation and a.has_exact_shape:
            return [
                MType.scalar(
                    Intrinsic.INT, Interval.constant(float(a.exact_shape.numel))
                )
            ]
        return [MType.scalar(Intrinsic.INT, Interval.of(0.0, math.inf))]

    calc.rule(("builtin", "numel"), "numel:bounds", lambda ctx: True, numel_result)

    for name in ("isempty", "isreal", "isscalar"):
        calc.rule(
            ("builtin", name),
            f"{name}:bool",
            lambda ctx: True,
            lambda ctx: [MType.scalar(Intrinsic.BOOL, Interval.of(0.0, 1.0))],
        )

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def abs_intrinsic(a: MType) -> Intrinsic:
        return Intrinsic.INT if a.is_integer_like else Intrinsic.REAL

    _unary_elementwise_rules(
        calc, "abs", lambda r: r.abs(),
        complex_in_complex_out=False, result_intrinsic=abs_intrinsic,
    )
    _unary_elementwise_rules(
        calc, "sqrt",
        lambda r: Interval.of(math.sqrt(max(r.lo, 0.0)), math.sqrt(max(r.hi, 0.0)))
        if not r.is_bottom and r.hi >= 0
        else Interval.top(),
    )
    _unary_elementwise_rules(
        calc, "exp",
        lambda r: Interval.of(math.exp(min(r.lo, 700)), math.exp(min(r.hi, 700)))
        if not r.is_bottom
        else Interval.top(),
    )
    for name in ("log", "log2", "log10"):
        _unary_elementwise_rules(calc, name, lambda r: Interval.top())
    for name in ("sin", "cos"):
        _unary_elementwise_rules(
            calc, name, lambda r: Interval.of(-1.0, 1.0)
        )
    _unary_elementwise_rules(calc, "tan", lambda r: Interval.top())
    _unary_elementwise_rules(
        calc, "atan",
        lambda r: Interval.of(-math.pi / 2, math.pi / 2),
    )
    for name in ("asin", "acos"):
        _unary_elementwise_rules(
            calc, name, lambda r: Interval.of(-math.pi, math.pi)
        )
    for name in ("sinh", "cosh", "tanh"):
        _unary_elementwise_rules(calc, name, lambda r: Interval.top())

    def int_intrinsic(a: MType) -> Intrinsic:
        return Intrinsic.INT

    def _round_interval(r: Interval) -> Interval:
        if r.is_bottom or not (math.isfinite(r.lo) and math.isfinite(r.hi)):
            return Interval.top()
        return Interval.of(math.floor(r.lo), math.ceil(r.hi))

    for name, op in (
        ("floor", lambda r: r.floor()),
        ("ceil", lambda r: r.ceil()),
        ("round", _round_interval),
        ("fix", _round_interval),
    ):
        _unary_elementwise_rules(
            calc, name, op,
            complex_in_complex_out=True, result_intrinsic=int_intrinsic,
        )
    _unary_elementwise_rules(
        calc, "sign", lambda r: Interval.of(-1.0, 1.0),
        result_intrinsic=int_intrinsic,
    )

    def conj_rule(ctx: RuleContext) -> list[MType]:
        return [ctx.arg(0)]

    calc.rule(("builtin", "conj"), "conj:identity-type", lambda ctx: True, conj_rule)

    def real_part(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        intrinsic = a.intrinsic if a.is_real_like else Intrinsic.REAL
        return [MType(intrinsic, a.minshape, a.maxshape,
                       a.range if a.is_real_like else Interval.top())]

    calc.rule(("builtin", "real"), "real:project", lambda ctx: is_numeric(ctx.arg(0)), real_part)
    calc.rule(("builtin", "real"), "real:generic", lambda ctx: True, lambda ctx: [MType.top()])
    calc.rule(("builtin", "imag"), "imag:project", lambda ctx: is_numeric(ctx.arg(0)), real_part)
    calc.rule(("builtin", "imag"), "imag:generic", lambda ctx: True, lambda ctx: [MType.top()])
    calc.rule(
        ("builtin", "angle"),
        "angle:range",
        lambda ctx: is_numeric(ctx.arg(0)),
        lambda ctx: [
            MType(
                Intrinsic.REAL,
                ctx.arg(0).minshape,
                ctx.arg(0).maxshape,
                Interval.of(-math.pi, math.pi),
            )
        ],
    )

    def mod_rule(ctx: RuleContext) -> list[MType]:
        a, b = ctx.arg(0), ctx.arg(1)
        intrinsic = (
            Intrinsic.INT
            if a.is_integer_like and b.is_integer_like
            else Intrinsic.REAL
        )
        rng = Interval.top()
        if ctx.range_propagation and b.is_real_like and b.range.is_positive:
            rng = Interval.of(0.0, b.range.hi)
        from repro.inference.rules_arith import elementwise_shape

        mn, mx = elementwise_shape(a, b)
        return [MType(intrinsic, mn, mx, rng)]

    calc.rule(
        ("builtin", "mod"), "mod:real",
        lambda ctx: ctx.arg(0).is_real_like and ctx.arg(1).is_real_like, mod_rule,
    )
    calc.rule(("builtin", "mod"), "mod:generic", lambda ctx: True, lambda ctx: [MType.top()])
    calc.rule(
        ("builtin", "rem"), "rem:real",
        lambda ctx: ctx.arg(0).is_real_like and ctx.arg(1).is_real_like, mod_rule,
    )
    calc.rule(("builtin", "rem"), "rem:generic", lambda ctx: True, lambda ctx: [MType.top()])
    calc.rule(
        ("builtin", "atan2"),
        "atan2:range",
        lambda ctx: True,
        lambda ctx: [
            MType(
                Intrinsic.REAL,
                ctx.arg(0).minshape.meet(ctx.arg(1).minshape),
                ctx.arg(0).maxshape.join(ctx.arg(1).maxshape),
                Interval.of(-math.pi, math.pi),
            )
        ],
    )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def reduction_rules(name: str, keeps_intrinsic: bool, keeps_range: bool) -> None:
        key = ("builtin", name)

        def vector_case(ctx: RuleContext) -> list[MType]:
            a = ctx.arg(0)
            intrinsic = a.intrinsic if keeps_intrinsic else Intrinsic.REAL
            if intrinsic is Intrinsic.BOOL:
                intrinsic = Intrinsic.INT
            rng = a.range if (keeps_range and ctx.range_propagation) else Interval.top()
            outs = [MType.scalar(intrinsic, rng)]
            if ctx.nargout >= 2:
                outs.append(MType.scalar(Intrinsic.INT, Interval.of(1.0, math.inf)))
            return outs

        from repro.inference.rules_arith import is_vector

        calc.rule(
            key,
            f"{name}:vector",
            lambda ctx: len(ctx.args) == 1
            and (ctx.arg(0).is_scalar or is_vector(ctx.arg(0))),
            vector_case,
        )

        if name in ("max", "min"):

            def two_arg(ctx: RuleContext) -> list[MType]:
                from repro.inference.rules_arith import elementwise_shape

                a, b = ctx.arg(0), ctx.arg(1)
                mn, mx = elementwise_shape(a, b)
                intrinsic = a.intrinsic.join(b.intrinsic)
                if not intrinsic.leq(Intrinsic.REAL):
                    intrinsic = Intrinsic.REAL
                rng = (
                    a.range.join(b.range) if ctx.range_propagation else Interval.top()
                )
                return [MType(intrinsic, mn, mx, rng)]

            calc.rule(
                key,
                f"{name}:elementwise-2arg",
                lambda ctx: len(ctx.args) == 2,
                two_arg,
            )

        def matrix_case(ctx: RuleContext) -> list[MType]:
            a = ctx.arg(0)
            intrinsic = a.intrinsic if keeps_intrinsic else Intrinsic.REAL
            if intrinsic is Intrinsic.BOOL:
                intrinsic = Intrinsic.INT
            if not intrinsic.leq(Intrinsic.COMPLEX):
                intrinsic = Intrinsic.TOP
            rng = a.range if (keeps_range and ctx.range_propagation) else Interval.top()
            return [
                MType(intrinsic, Shape.bottom(), Shape(1, a.maxshape.cols), rng)
            ]

        calc.rule(key, f"{name}:columnwise", lambda ctx: True, matrix_case)

    reduction_rules("sum", keeps_intrinsic=True, keeps_range=False)
    reduction_rules("prod", keeps_intrinsic=True, keeps_range=False)
    reduction_rules("mean", keeps_intrinsic=False, keeps_range=True)
    reduction_rules("max", keeps_intrinsic=True, keeps_range=True)
    reduction_rules("min", keeps_intrinsic=True, keeps_range=True)

    for name in ("any", "all"):
        calc.rule(
            ("builtin", name),
            f"{name}:bool",
            lambda ctx: True,
            lambda ctx: [
                MType(
                    Intrinsic.BOOL,
                    Shape.bottom(),
                    Shape(1, ctx.arg(0).maxshape.cols),
                    Interval.of(0.0, 1.0),
                )
            ],
        )

    calc.rule(
        ("builtin", "find"),
        "find:index-vector",
        lambda ctx: True,
        lambda ctx: [
            MType(
                Intrinsic.INT,
                Shape.bottom(),
                Shape.top(),
                Interval.of(1.0, math.inf),
            )
        ],
    )
    calc.rule(
        ("builtin", "sort"),
        "sort:same-shape",
        lambda ctx: is_numeric(ctx.arg(0)),
        lambda ctx: [
            ctx.arg(0),
            MType(
                Intrinsic.INT,
                ctx.arg(0).minshape,
                ctx.arg(0).maxshape,
                Interval.of(1.0, math.inf),
            ),
        ],
    )
    calc.rule(("builtin", "sort"), "sort:generic", lambda ctx: True, lambda ctx: [MType.top()])

    calc.rule(
        ("builtin", "cumsum"),
        "cumsum:same-shape",
        lambda ctx: is_numeric(ctx.arg(0)),
        lambda ctx: [
            MType(
                ctx.arg(0).intrinsic.join(Intrinsic.INT),
                ctx.arg(0).minshape,
                ctx.arg(0).maxshape,
                Interval.top(),
            )
        ],
    )

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    calc.rule(
        ("builtin", "norm"),
        "norm:nonneg-scalar",
        lambda ctx: True,
        lambda ctx: [MType.scalar(Intrinsic.REAL, Interval.of(0.0, math.inf))],
    )

    def eig_real(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        n_min = a.minshape.rows if a.minshape.rows else 0
        outs = [
            MType(Intrinsic.REAL, Shape(n_min, 1), Shape(a.maxshape.rows, 1),
                  Interval.top())
        ]
        if ctx.nargout >= 2:
            outs = [
                MType(Intrinsic.REAL, a.minshape, a.maxshape, Interval.top()),
                MType(Intrinsic.REAL, a.minshape, a.maxshape, Interval.top()),
            ]
        return outs

    # MaJIC (like FALCON) types eig of a real matrix as real; the runtime
    # library widens dynamically if a non-symmetric input produces complex
    # eigenvalues.  The speculator never reaches this rule — that is the
    # paper's documented `mei` performance loss.
    calc.rule(
        ("builtin", "eig"),
        "eig:real-input",
        lambda ctx: ctx.arg(0).is_real_like,
        eig_real,
    )

    def eig_complex(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        outs = [
            MType(Intrinsic.COMPLEX, Shape.bottom(), Shape(a.maxshape.rows, 1),
                  Interval.top())
        ]
        if ctx.nargout >= 2:
            outs = [
                MType(Intrinsic.COMPLEX, Shape.bottom(), a.maxshape, Interval.top()),
                MType(Intrinsic.COMPLEX, Shape.bottom(), a.maxshape, Interval.top()),
            ]
        return outs

    calc.rule(("builtin", "eig"), "eig:complex", lambda ctx: True, eig_complex)

    for name in ("inv", "chol", "tril", "triu"):
        calc.rule(
            ("builtin", name),
            f"{name}:same-shape",
            lambda ctx: is_numeric(ctx.arg(0)),
            lambda ctx: [
                MType(
                    ctx.arg(0).intrinsic.join(Intrinsic.REAL)
                    if ctx.arg(0).is_real_like
                    else Intrinsic.COMPLEX,
                    ctx.arg(0).minshape,
                    ctx.arg(0).maxshape,
                    Interval.top(),
                )
            ],
        )
        calc.rule(
            ("builtin", name), f"{name}:generic",
            lambda ctx: True, lambda ctx: [MType.top()],
        )

    calc.rule(
        ("builtin", "det"),
        "det:scalar",
        lambda ctx: ctx.arg(0).is_real_like,
        lambda ctx: [MType.scalar(Intrinsic.REAL)],
    )
    calc.rule(
        ("builtin", "det"), "det:generic",
        lambda ctx: True, lambda ctx: [MType.scalar(Intrinsic.COMPLEX)],
    )
    calc.rule(
        ("builtin", "dot"),
        "dot:real",
        lambda ctx: ctx.arg(0).is_real_like and ctx.arg(1).is_real_like,
        lambda ctx: [MType.scalar(Intrinsic.REAL)],
    )
    calc.rule(
        ("builtin", "dot"), "dot:generic",
        lambda ctx: True, lambda ctx: [MType.scalar(Intrinsic.COMPLEX)],
    )

    def diag_rule(ctx: RuleContext) -> list[MType]:
        # diag(v) of a vector of n >= 1 elements is n x n, v on the
        # diagonal and zeros off it; diag(A) of anything else (an empty
        # included) is A's diagonal, a min(r, c) x 1 column.
        a = ctx.arg(0)
        rng = a.range if a.is_real_like else Interval.top()
        lo, hi = a.minshape, a.maxshape
        if (lo.rows is not INF and lo.rows <= 1 and Shape(1, 2).leq(hi)) or (
            lo.cols is not INF and lo.cols <= 1 and Shape(2, 1).leq(hi)
        ):
            rng = rng.join(Interval.constant(0.0))   # a vector of >= 2
        shape = a.exact_shape
        if shape is None:
            return [MType(a.intrinsic, Shape.bottom(), Shape.top(), rng)]
        rows, cols = shape.rows, shape.cols
        if rows * cols and 1 in (rows, cols):
            return [MType.exact(a.intrinsic, rows * cols, rows * cols, rng)]
        return [MType.exact(a.intrinsic, min(rows, cols), 1, rng)]

    calc.rule(("builtin", "diag"), "diag:numeric", lambda ctx: is_numeric(ctx.arg(0)), diag_rule)
    calc.rule(("builtin", "diag"), "diag:generic", lambda ctx: True, lambda ctx: [MType.top()])

    # ------------------------------------------------------------------
    # Construction / reshaping
    # ------------------------------------------------------------------
    def const_size(ctx: RuleContext, t: MType) -> int | None:
        """A constant size argument as the builtin converts it (truncated,
        a negative one 0), or None: not a constant, or NaN or Inf, which
        the builtin refuses."""
        if not (ctx.range_propagation and t.is_constant):
            return None
        value = t.constant_value
        return max(int(value), 0) if math.isfinite(value) else None

    def linspace_rule(ctx: RuleContext) -> list[MType]:
        count: int | None = 100
        if len(ctx.args) > 2:
            count = const_size(ctx, ctx.arg(2))
        rng = Interval.top()
        if ctx.range_propagation:
            rng = ctx.arg(0).range.join(ctx.arg(1).range)
        if count is not None:
            return [MType.exact(Intrinsic.REAL, 1, count, rng)]
        return [MType(Intrinsic.REAL, Shape(1, 0), Shape(1, None), rng)]

    calc.rule(("builtin", "linspace"), "linspace:vector", lambda ctx: True, linspace_rule)

    def reshape_rule(ctx: RuleContext) -> list[MType]:
        a = ctx.arg(0)
        if len(ctx.args) == 3:
            rows = const_size(ctx, ctx.arg(1))
            cols = const_size(ctx, ctx.arg(2))
            if rows is not None and cols is not None:
                return [MType.exact(a.intrinsic, rows, cols, a.range)]
        return [MType(a.intrinsic, Shape.bottom(), Shape.top(), a.range)]

    calc.rule(("builtin", "reshape"), "reshape:dims", lambda ctx: True, reshape_rule)
    calc.rule(
        ("builtin", "repmat"),
        "repmat:numeric",
        lambda ctx: is_numeric(ctx.arg(0)),
        lambda ctx: [
            MType(ctx.arg(0).intrinsic, Shape.bottom(), Shape.top(), ctx.arg(0).range)
        ],
    )
    calc.rule(("builtin", "repmat"), "repmat:generic", lambda ctx: True, lambda ctx: [MType.top()])

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------
    calc.rule(
        ("builtin", "pi"), "pi:constant", lambda ctx: True,
        lambda ctx: [MType.scalar(Intrinsic.REAL, Interval.constant(math.pi))],
    )
    calc.rule(
        ("builtin", "eps"), "eps:constant", lambda ctx: True,
        lambda ctx: [
            MType.scalar(Intrinsic.REAL, Interval.constant(2.220446049250313e-16))
        ],
    )
    for name in ("inf", "Inf"):
        calc.rule(
            ("builtin", name), f"{name}:constant", lambda ctx: True,
            lambda ctx: [
                MType.scalar(Intrinsic.REAL, Interval.of(math.inf, math.inf))
            ],
        )
    for name in ("nan", "NaN"):
        calc.rule(
            ("builtin", name), f"{name}:constant", lambda ctx: True,
            lambda ctx: [MType.scalar(Intrinsic.REAL, Interval.top())],
        )
    for name in ("i", "j"):
        calc.rule(
            ("builtin", name), f"{name}:imaginary-unit", lambda ctx: True,
            lambda ctx: [MType.scalar(Intrinsic.COMPLEX)],
        )

    # ------------------------------------------------------------------
    # Output / strings / errors
    # ------------------------------------------------------------------
    for name in ("disp", "fprintf", "error"):
        calc.rule(
            ("builtin", name), f"{name}:void", lambda ctx: True,
            lambda ctx: [],
        )
    calc.rule(
        ("builtin", "sprintf"), "sprintf:string", lambda ctx: True,
        lambda ctx: [MType.string()],
    )
    calc.rule(
        ("builtin", "num2str"), "num2str:string", lambda ctx: True,
        lambda ctx: [MType.string()],
    )
    calc.rule(
        ("builtin", "strcmp"), "strcmp:bool", lambda ctx: True,
        lambda ctx: [MType.scalar(Intrinsic.BOOL, Interval.of(0.0, 1.0))],
    )
