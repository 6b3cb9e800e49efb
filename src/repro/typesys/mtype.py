"""The product type T = Li x Ls x Ls x Ll (Section 2.2).

An :class:`MType` bundles an intrinsic type, a *minimum* and a *maximum*
shape bound, and a value range.  The paper's collective term "shape" means
both shape descriptors together; an array's shape is *exactly determined*
when the two bounds are equal (Section 2.4, "Exact shape inference"), and a
real scalar is a known *constant* when its range has lo == hi.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.typesys.intrinsic import Intrinsic
from repro.typesys.ranges import Interval
from repro.typesys.shape import Shape


@dataclass(frozen=True)
class MType:
    """One element of the MaJIC type lattice."""

    intrinsic: Intrinsic
    minshape: Shape
    maxshape: Shape
    range: Interval

    # ------------------------------------------------------------------
    # Canonical elements
    # ------------------------------------------------------------------
    @staticmethod
    def bottom() -> "MType":
        return MType(
            Intrinsic.BOTTOM, Shape.bottom(), Shape.bottom(), Interval.bottom()
        )

    @staticmethod
    def top() -> "MType":
        return _TOP

    @staticmethod
    def scalar(
        intrinsic: Intrinsic = Intrinsic.REAL,
        rng: Interval | None = None,
    ) -> "MType":
        return MType(
            intrinsic,
            Shape.scalar(),
            Shape.scalar(),
            rng if rng is not None else Interval.top(),
        )

    @staticmethod
    def constant(value: float) -> "MType":
        intrinsic = (
            Intrinsic.INT if float(value) == int(value) else Intrinsic.REAL
        )
        return MType.scalar(intrinsic, Interval.constant(float(value)))

    @staticmethod
    def matrix(
        intrinsic: Intrinsic = Intrinsic.REAL,
        minshape: Shape | None = None,
        maxshape: Shape | None = None,
        rng: Interval | None = None,
    ) -> "MType":
        return MType(
            intrinsic,
            minshape if minshape is not None else Shape.bottom(),
            maxshape if maxshape is not None else Shape.top(),
            rng if rng is not None else Interval.top(),
        )

    @staticmethod
    def exact(
        intrinsic: Intrinsic, rows: int, cols: int, rng: Interval | None = None
    ) -> "MType":
        shape = Shape.exact(rows, cols)
        return MType(
            intrinsic, shape, shape, rng if rng is not None else Interval.top()
        )

    @staticmethod
    def string() -> "MType":
        return MType(
            Intrinsic.STRING, Shape.bottom(), Shape.top(), Interval.top()
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_bottom(self) -> bool:
        return self.intrinsic is Intrinsic.BOTTOM

    @property
    def is_top_like(self) -> bool:
        return (
            self.intrinsic is Intrinsic.TOP
            and self.maxshape.is_top
            and self.range.is_top
        )

    @property
    def is_scalar(self) -> bool:
        """Shape exactly determined as 1x1."""
        return self.minshape.is_scalar and self.maxshape.is_scalar

    @property
    def could_be_scalar(self) -> bool:
        return self.minshape.leq(Shape.scalar()) and Shape.scalar().leq(
            self.maxshape
        )

    @property
    def has_exact_shape(self) -> bool:
        return (
            self.minshape == self.maxshape
            and self.minshape.is_finite
        )

    @property
    def exact_shape(self) -> Shape | None:
        return self.minshape if self.has_exact_shape else None

    @property
    def is_constant(self) -> bool:
        """A known real constant (Section 2.4, constant propagation)."""
        return (
            self.is_scalar
            and self.range.is_constant
            and self.intrinsic.leq(Intrinsic.REAL)
            and self.intrinsic is not Intrinsic.BOTTOM
        )

    @property
    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError(f"{self!r} is not a constant")
        return self.range.constant_value

    @property
    def is_real_like(self) -> bool:
        """Intrinsic within the real chain (no complex/string possible)."""
        return self.intrinsic.leq(Intrinsic.REAL) and self.intrinsic is not Intrinsic.BOTTOM

    @property
    def is_integer_like(self) -> bool:
        return self.intrinsic.leq(Intrinsic.INT) and self.intrinsic is not Intrinsic.BOTTOM

    @property
    def is_complex(self) -> bool:
        return self.intrinsic is Intrinsic.COMPLEX

    @property
    def is_string(self) -> bool:
        return self.intrinsic is Intrinsic.STRING

    # ------------------------------------------------------------------
    # Lattice operations (componentwise)
    # ------------------------------------------------------------------
    def leq(self, other: "MType") -> bool:
        """The subtype order ⊑: safe substitutability of values.

        A value set described by ``self`` fits the description ``other``
        when the intrinsic is below, the shape window is contained
        (other.min ⊑ self.min and self.max ⊑ other.max) and the range is
        contained.
        """
        if self.is_bottom:
            return True
        return (
            self.intrinsic.leq(other.intrinsic)
            and other.minshape.leq(self.minshape)
            and self.maxshape.leq(other.maxshape)
            and self.range.leq(other.range)
        )

    def join(self, other: "MType") -> "MType":
        """⊔ — the least type describing values of either type."""
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return MType(
            self.intrinsic.join(other.intrinsic),
            self.minshape.meet(other.minshape),
            self.maxshape.join(other.maxshape),
            self.range.join(other.range),
        )

    def meet(self, other: "MType") -> "MType":
        """Greatest lower bound — the type of values fitting *both*
        descriptions.  Used by the speculator to fold hints into parameter
        types; a bottom result signals conflicting hints."""
        return MType(
            self.intrinsic.meet(other.intrinsic),
            self.minshape.join(other.minshape),
            self.maxshape.meet(other.maxshape),
            self.range.meet(other.range),
        )

    def widen_range(self) -> "MType":
        """Drop range information (used when iteration caps are hit)."""
        return replace(self, range=Interval.top())

    def widen_shape(self) -> "MType":
        return replace(self, minshape=Shape.bottom(), maxshape=Shape.top())

    def with_range(self, rng: Interval) -> "MType":
        return replace(self, range=rng)

    def with_intrinsic(self, intrinsic: Intrinsic) -> "MType":
        return replace(self, intrinsic=intrinsic)

    def with_shape(self, minshape: Shape, maxshape: Shape) -> "MType":
        return replace(self, minshape=minshape, maxshape=maxshape)

    def __repr__(self) -> str:
        return (
            f"MType({self.intrinsic!r}, min{self.minshape!r}, "
            f"max{self.maxshape!r}, rng{self.range!r})"
        )


# ⊤ is immutable and by far the most requested element (the default of
# every rule, table lookup and padded output list): every caller shares one.
_TOP = MType(Intrinsic.TOP, Shape.bottom(), Shape.top(), Interval.top())


def join_types(items) -> MType:
    """Join of an iterable of types (bottom for empty)."""
    result = MType.bottom()
    for item in items:
        result = result.join(item)
    return result
