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
    # ``leq`` is the hottest question inference asks (tens of thousands
    # per compile), so each member carries its answers as attributes:
    # reading them hashes nothing, unlike a lookup keyed by the member.
    @property
    def is_numeric(self) -> bool:
        return self._numeric

    @property
    def height(self) -> int:
        """Distance from bottom; used by the Manhattan distance metric."""
        return self._height

    def leq(self, other: "Intrinsic") -> bool:
        """The partial order ⊑i."""
        return other in self._above

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


_HEIGHT = {
    Intrinsic.BOTTOM: 0,
    Intrinsic.BOOL: 1,
    Intrinsic.INT: 2,
    Intrinsic.REAL: 3,
    Intrinsic.COMPLEX: 4,
    Intrinsic.STRING: 1,
    Intrinsic.TOP: 5,
}


def _leq_rule(a: Intrinsic, b: Intrinsic) -> bool:
    """The Hasse diagram above: heights on the numeric chain, ``strg``
    comparable only with ⊥, ⊤ and itself."""
    if a is b or a is Intrinsic.BOTTOM or b is Intrinsic.TOP:
        return True
    if a is Intrinsic.TOP or b is Intrinsic.BOTTOM:
        return False
    if a is Intrinsic.STRING or b is Intrinsic.STRING:
        return False  # incomparable with the numeric chain
    return _HEIGHT[a] <= _HEIGHT[b]


for _member in Intrinsic:
    _member._height = _HEIGHT[_member]
    _member._numeric = _member in (
        Intrinsic.BOOL, Intrinsic.INT, Intrinsic.REAL, Intrinsic.COMPLEX
    )
    # Tuple membership compares by identity first: no hashing.
    _member._above = tuple(b for b in Intrinsic if _leq_rule(_member, b))
del _member
