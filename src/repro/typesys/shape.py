"""The shape lattice Ls (Section 2.2).

A shape is a pair ⟨rows, cols⟩ of extended naturals (``None`` encodes ∞).
bottom = ⟨0, 0⟩, top = ⟨∞, ∞⟩, and ⟨a, b⟩ ⊑ ⟨c, d⟩ iff a ≤ c and b ≤ d.
MaJIC tracks *two* shapes per type — a lower and an upper bound — so the
componentwise max (join) and min (meet) both appear in type transfer
functions.
"""

from __future__ import annotations

from dataclasses import dataclass

INF = None  # infinity marker for a dimension


def _leq_dim(a: int | None, b: int | None) -> bool:
    if b is INF:
        return True
    if a is INF:
        return False
    return a <= b


def _max_dim(a: int | None, b: int | None) -> int | None:
    if a is INF or b is INF:
        return INF
    return max(a, b)


def _min_dim(a: int | None, b: int | None) -> int | None:
    if a is INF:
        return b
    if b is INF:
        return a
    return min(a, b)


@dataclass(frozen=True)
class Shape:
    """One element of Ls: ⟨rows, cols⟩ with ``None`` = ∞."""

    rows: int | None
    cols: int | None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Shape:
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols

    # ------------------------------------------------------------------
    @staticmethod
    def bottom() -> "Shape":
        return _BOTTOM

    @staticmethod
    def top() -> "Shape":
        return _TOP

    @staticmethod
    def scalar() -> "Shape":
        return _SCALAR

    @staticmethod
    def exact(rows: int, cols: int) -> "Shape":
        return Shape(rows, cols)

    # ------------------------------------------------------------------
    @property
    def is_bottom(self) -> bool:
        return self.rows == 0 and self.cols == 0

    @property
    def is_top(self) -> bool:
        return self.rows is INF and self.cols is INF

    @property
    def is_finite(self) -> bool:
        return self.rows is not INF and self.cols is not INF

    @property
    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1

    @property
    def numel(self) -> int | None:
        if not self.is_finite:
            return INF
        return self.rows * self.cols

    # ------------------------------------------------------------------
    def leq(self, other: "Shape") -> bool:
        """⊑s — componentwise ≤."""
        return _leq_dim(self.rows, other.rows) and _leq_dim(self.cols, other.cols)

    def join(self, other: "Shape") -> "Shape":
        """⊔s — componentwise max."""
        return self._either(
            _max_dim(self.rows, other.rows), _max_dim(self.cols, other.cols), other
        )

    def meet(self, other: "Shape") -> "Shape":
        """Componentwise min."""
        return self._either(
            _min_dim(self.rows, other.rows), _min_dim(self.cols, other.cols), other
        )

    def _either(self, rows: int | None, cols: int | None, other: "Shape") -> "Shape":
        """⟨rows, cols⟩, as whichever operand already is it."""
        if rows == self.rows and cols == self.cols:
            return self
        if rows == other.rows and cols == other.cols:
            return other
        return Shape(rows, cols)

    def transposed(self) -> "Shape":
        return Shape(self.cols, self.rows)

    def __repr__(self) -> str:
        def show(dim: int | None) -> str:
            return "inf" if dim is INF else str(dim)

        return f"<{show(self.rows)},{show(self.cols)}>"


# The canonical elements are immutable, so every caller shares one.
_BOTTOM = Shape(0, 0)
_TOP = Shape(INF, INF)
_SCALAR = Shape(1, 1)
