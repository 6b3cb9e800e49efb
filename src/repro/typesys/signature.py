"""Type signatures and the repository's matching machinery (Section 2.2.1).

A signature assigns an :class:`~repro.typesys.mtype.MType` to each formal
parameter of a compiled function.  An invocation with actual types
``Q1..Qn`` may safely execute code compiled for ``T1..Tn`` iff ``Qi ⊑ Ti``
for all ``i``.  When several safe candidates exist, the function locator
picks the one at the smallest *Manhattan-like distance* — the sum of
per-component widening penalties — so the most specialized safe code wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.typesys.intrinsic import Intrinsic
from repro.typesys.mtype import MType
from repro.typesys.ranges import Interval
from repro.typesys.shape import Shape

INTRINSIC_OF_CLASS = {
    IntrinsicClass.BOOL: Intrinsic.BOOL,
    IntrinsicClass.INT: Intrinsic.INT,
    IntrinsicClass.REAL: Intrinsic.REAL,
    IntrinsicClass.COMPLEX: Intrinsic.COMPLEX,
    IntrinsicClass.STRING: Intrinsic.STRING,
}

# Cap on the per-dimension shape distance so one huge matrix cannot mask
# differences in the other components.
_SHAPE_CAP = 64.0


def type_of_value(value: MxArray) -> MType:
    """Derive the most precise MType describing one runtime value.

    This is the "very precise initial data" JIT type inference starts from
    (Section 2.4): exact intrinsic class, exact shape (min == max) and the
    tight value range — for a scalar, a constant.
    """
    intrinsic = INTRINSIC_OF_CLASS[value.klass]
    if value.is_string:
        return MType(
            Intrinsic.STRING,
            Shape.exact(value.rows, value.cols),
            Shape.exact(value.rows, value.cols),
            Interval.top(),
        )
    shape = Shape.exact(value.rows, value.cols)
    if intrinsic is Intrinsic.COMPLEX or value.is_empty:
        rng = Interval.top()
    else:
        view = value.view()
        lo = float(np.min(view.real))
        hi = float(np.max(view.real))
        if math.isnan(lo) or math.isnan(hi):
            rng = Interval.top()
        else:
            rng = Interval.of(lo, hi)
    return MType(intrinsic, shape, shape, rng)


@dataclass(frozen=True)
class Signature:
    """Types of a compiled function's formal parameters."""

    types: tuple[MType, ...]

    @staticmethod
    def of(types) -> "Signature":
        return Signature(types=tuple(types))

    @staticmethod
    def all_top(arity: int) -> "Signature":
        return Signature(types=tuple(MType.top() for _ in range(arity)))

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self):
        return iter(self.types)

    def __getitem__(self, index: int) -> MType:
        return self.types[index]

    # ------------------------------------------------------------------
    def accepts(self, invocation: "Signature") -> bool:
        """Safety: every actual type a subtype of the formal type."""
        if len(invocation) != len(self):
            return False
        return all(q.leq(t) for q, t in zip(invocation.types, self.types))

    def distance(self, invocation: "Signature") -> float:
        """Manhattan-like distance from an invocation to this signature.

        Zero means a perfect match; larger values mean the compiled code
        was compiled for a (safely) wider context and is expected to be
        less optimized.  Only meaningful when :meth:`accepts` holds.
        """
        total = 0.0
        for actual, formal in zip(invocation.types, self.types):
            total += _component_distance(actual, formal)
        return total

    def join(self, other: "Signature") -> "Signature":
        if len(self) != len(other):
            raise ValueError("cannot join signatures of different arity")
        return Signature.of(a.join(b) for a, b in zip(self.types, other.types))

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.types)
        return f"Signature({inner})"


def _dim_distance(actual: int | None, formal: int | None) -> float:
    if formal is None:  # formal allows ∞
        return 0.0 if actual is None else _SHAPE_CAP
    if actual is None:
        return _SHAPE_CAP
    return min(float(abs(formal - actual)), _SHAPE_CAP)


def _component_distance(actual: MType, formal: MType) -> float:
    intrinsic = abs(formal.intrinsic.height - actual.intrinsic.height)
    shape = (
        _dim_distance(actual.minshape.rows, formal.minshape.rows)
        + _dim_distance(actual.minshape.cols, formal.minshape.cols)
        + _dim_distance(actual.maxshape.rows, formal.maxshape.rows)
        + _dim_distance(actual.maxshape.cols, formal.maxshape.cols)
    ) / 4.0
    if formal.range.is_top:
        range_penalty = 4.0 if not actual.range.is_top else 0.0
    elif formal.range.is_constant and actual.range.is_constant:
        range_penalty = 0.0
    else:
        range_penalty = 1.0
    return float(intrinsic) * 8.0 + shape + range_penalty


def signature_of_values(values) -> Signature:
    """The invocation signature derived from actual argument values."""
    return Signature.of(type_of_value(v) for v in values)
