"""The intrinsic-type lattice Li (Section 2.2).

    top
   /   \\
 cplx  strg
  |     |
 real   |
  |     |
 int    |
  |     |
 bool   |
   \\   /
   bottom

The numeric chain is totally ordered; ``strg`` branches off on its own.
"""

from __future__ import annotations

import enum


class Intrinsic(enum.Enum):
    BOTTOM = "bottom"
    BOOL = "bool"
    INT = "int"
    REAL = "real"
    COMPLEX = "cplx"
    STRING = "strg"
    TOP = "top"

    # ------------------------------------------------------------------
    @property
    def is_numeric(self) -> bool:
        return self in _NUMERIC

    @property
    def height(self) -> int:
        """Distance from bottom; used by the Manhattan distance metric."""
        return _HEIGHT[self]

    def leq(self, other: "Intrinsic") -> bool:
        """The partial order ⊑i."""
        if self is other or self is Intrinsic.BOTTOM or other is Intrinsic.TOP:
            return True
        if self is Intrinsic.TOP or other is Intrinsic.BOTTOM:
            return False
        if self is Intrinsic.STRING or other is Intrinsic.STRING:
            return False  # incomparable with the numeric chain
        return _HEIGHT[self] <= _HEIGHT[other]

    def join(self, other: "Intrinsic") -> "Intrinsic":
        """Least upper bound ⊔i."""
        if self.leq(other):
            return other
        if other.leq(self):
            return self
        return Intrinsic.TOP  # strg joined with a numeric type

    def meet(self, other: "Intrinsic") -> "Intrinsic":
        """Greatest lower bound."""
        if self.leq(other):
            return self
        if other.leq(self):
            return other
        return Intrinsic.BOTTOM

    def __repr__(self) -> str:
        return self.value


_NUMERIC = frozenset(
    {Intrinsic.BOOL, Intrinsic.INT, Intrinsic.REAL, Intrinsic.COMPLEX}
)

_HEIGHT = {
    Intrinsic.BOTTOM: 0,
    Intrinsic.BOOL: 1,
    Intrinsic.INT: 2,
    Intrinsic.REAL: 3,
    Intrinsic.COMPLEX: 4,
    Intrinsic.STRING: 1,
    Intrinsic.TOP: 5,
}
