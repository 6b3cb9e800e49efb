"""The range lattice Ll — real value intervals (Section 2.2).

bottom = ⟨nan, nan⟩ (the empty interval), top = ⟨-∞, +∞⟩, and
⟨a, b⟩ ⊑ ⟨c, d⟩ iff the left interval is empty or c ≤ a and b ≤ d
(containment).  Ranges exist only for real-valued data; complex and string
expressions carry ⊤l (no information).

Range propagation over this lattice *is* MaJIC's constant propagation
(Section 2.4): a real scalar is a known constant exactly when its interval
has lo == hi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]; ``nan`` bounds encode the empty interval."""

    lo: float
    hi: float

    # ``nan != nan``, and the generated tuple comparison only hides that
    # while both sides hold the *same* nan object — which an interval that
    # went through pickle (disk cache, parallel rank) no longer does.  All
    # empty intervals are one lattice element: equal, with one hash.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo == other.lo and self.hi == other.hi) or (
            self.is_bottom and other.is_bottom
        )

    def __hash__(self) -> int:
        return hash(None if self.is_bottom else (self.lo, self.hi))

    # ------------------------------------------------------------------
    @staticmethod
    def bottom() -> "Interval":
        return _BOTTOM

    @staticmethod
    def top() -> "Interval":
        return _TOP

    @staticmethod
    def constant(value: float) -> "Interval":
        if math.isnan(value):
            # A NaN value is representable only by the full interval: the
            # empty interval means "no value", not "the value NaN".
            return Interval.top()
        return Interval(value, value)

    @staticmethod
    def of(lo: float, hi: float) -> "Interval":
        if math.isnan(lo) or math.isnan(hi):
            return Interval.top()
        if lo > hi:
            return Interval.bottom()
        return Interval(lo, hi)

    # ------------------------------------------------------------------
    @property
    def is_bottom(self) -> bool:
        return math.isnan(self.lo)

    @property
    def is_top(self) -> bool:
        return self.lo == -math.inf and self.hi == math.inf

    @property
    def is_constant(self) -> bool:
        return not self.is_bottom and self.lo == self.hi and math.isfinite(self.lo)

    @property
    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("interval is not a constant")
        return self.lo

    @property
    def is_integral_constant(self) -> bool:
        """True for a constant whose value is an integer.

        Integrality of *non-constant* quantities is conveyed by the
        intrinsic component (itype ⊑ int), not by the interval: an interval
        only bounds the value set, it cannot exclude non-integers.
        """
        return self.is_constant and self.lo == math.floor(self.lo)

    @property
    def is_positive(self) -> bool:
        return not self.is_bottom and self.lo > 0

    @property
    def is_nonnegative(self) -> bool:
        return not self.is_bottom and self.lo >= 0

    # ------------------------------------------------------------------
    def leq(self, other: "Interval") -> bool:
        """⊑l — containment (empty ⊑ everything)."""
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    def join(self, other: "Interval") -> "Interval":
        """⊔l — interval hull."""
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        """Intersection."""
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return Interval.bottom()
        return Interval(lo, hi)

    def contains(self, value: float) -> bool:
        return not self.is_bottom and self.lo <= value <= self.hi

    # ------------------------------------------------------------------
    # Interval arithmetic used by the transfer functions.
    # ------------------------------------------------------------------
    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval.of(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval.of(self.lo - other.hi, self.hi - other.lo)

    def neg(self) -> "Interval":
        if self.is_bottom:
            return self
        return Interval.of(-self.hi, -self.lo)

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        products = [0.0 if math.isnan(p) else p for p in products]
        return Interval.of(min(products), max(products))

    def div(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if other.contains(0.0):
            return Interval.top()
        quotients = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ]
        return Interval.of(min(quotients), max(quotients))

    def power(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if not other.is_constant:
            return Interval.top()
        exponent = other.lo
        if exponent == math.floor(exponent) and exponent >= 0:
            candidates = [self.lo ** exponent, self.hi ** exponent]
            if exponent % 2 == 0 and self.contains(0.0):
                candidates.append(0.0)
            return Interval.of(min(candidates), max(candidates))
        if self.lo >= 0:
            return Interval.of(self.lo ** exponent, self.hi ** exponent)
        return Interval.top()

    def floor(self) -> "Interval":
        if self.is_bottom:
            return self
        lo = math.floor(self.lo) if math.isfinite(self.lo) else self.lo
        hi = math.floor(self.hi) if math.isfinite(self.hi) else self.hi
        return Interval.of(lo, hi)

    def ceil(self) -> "Interval":
        if self.is_bottom:
            return self
        lo = math.ceil(self.lo) if math.isfinite(self.lo) else self.lo
        hi = math.ceil(self.hi) if math.isfinite(self.hi) else self.hi
        return Interval.of(lo, hi)

    def abs(self) -> "Interval":
        if self.is_bottom:
            return self
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return self.neg()
        return Interval.of(0.0, max(-self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_bottom:
            return "<nan,nan>"
        return f"<{self.lo},{self.hi}>"


# The canonical elements are immutable, so every caller shares one.
_BOTTOM = Interval(math.nan, math.nan)
_TOP = Interval(-math.inf, math.inf)
