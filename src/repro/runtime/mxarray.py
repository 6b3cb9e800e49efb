"""The MxArray boxed value type.

Every value in interpreted MATLAB is a two-dimensional array carrying an
intrinsic class tag.  This mirrors the ``mxArray`` structure of the MATLAB C
library that the paper's generic generated code calls into (Figure 3,
``poly4_sig1``).

Design notes
------------
* Data is stored in a numpy array whose *capacity* may exceed the logical
  ``rows x cols`` size.  The slack is how the paper's "oversizing"
  optimization (Section 2.6.1) is implemented: growing an array whose target
  still fits the capacity only updates the logical dimensions.  ``size``
  queries always report the logical dimensions, never the capacity, which is
  the paper's correctness requirement for oversizing.
* Arrays use MATLAB semantics throughout: 1-based subscripts, column-major
  linear indexing, automatic zero-filled growth when a store lands out of
  bounds.
* Values are conceptually immutable-by-value (MATLAB is call-by-value); the
  engines enforce copy-on-assignment where required, the box itself offers
  :meth:`copy`.
* The class tag is lazy in one respect (DESIGN.md, *Value runtime*): BOOL,
  COMPLEX and STRING are explicit tags, but *INT or REAL?* is a question
  about the data that only a signature read asks, so a box of real data is
  built with :attr:`MxArray.tag` ``None`` and :attr:`MxArray.klass` answers
  on first read.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import DimensionError, SubscriptError


class IntrinsicClass(enum.IntEnum):
    """Runtime intrinsic classes, ordered consistently with the Li lattice.

    ``BOOL < INT < REAL < COMPLEX`` is the numeric chain of the paper's
    intrinsic-type lattice; ``STRING`` sits on its own branch.
    """

    BOOL = 1
    INT = 2
    REAL = 3
    COMPLEX = 4
    STRING = 5

    @property
    def is_numeric(self) -> bool:
        return self is not IntrinsicClass.STRING


_NUMERIC_DTYPE = {
    IntrinsicClass.BOOL: np.float64,
    IntrinsicClass.INT: np.float64,
    IntrinsicClass.REAL: np.float64,
    IntrinsicClass.COMPLEX: np.complex128,
}

# Arrays above this element count are never oversized (Section 2.6.1:
# "Large arrays are never oversized").
OVERSIZE_LIMIT = 1 << 20
# Fraction of extra capacity allocated when an array is grown ("about 10%
# more space ... than strictly necessary").
OVERSIZE_SLACK = 0.10


def classify_ndarray(data: np.ndarray) -> IntrinsicClass:
    """Derive the most precise intrinsic class describing ``data``."""
    if np.iscomplexobj(data):
        if data.size and np.all(data.imag == 0.0):
            data = data.real
        else:
            return IntrinsicClass.COMPLEX
    if data.dtype == np.bool_:
        return IntrinsicClass.BOOL
    if data.size == 0:
        return IntrinsicClass.REAL
    if np.all(np.isfinite(data)) and np.all(data == np.floor(data)):
        # Integral 0/1 data is INT too, not BOOL: MATLAB bools only arise
        # from logical operators, which tag them explicitly.
        return IntrinsicClass.INT
    return IntrinsicClass.REAL


class MxArray:
    """A boxed MATLAB value: intrinsic class + logical 2-D shape + data.

    Attributes
    ----------
    tag:
        The explicit :class:`IntrinsicClass` tag — BOOL, COMPLEX or STRING,
        or an INT / REAL answer a constructor or an earlier :attr:`klass`
        read supplied — or ``None`` while INT-vs-REAL is unanswered.  Code
        that asks only BOOL? / COMPLEX? / STRING? reads this.
    klass:
        The runtime :class:`IntrinsicClass`: :attr:`tag`, answered from
        the data (:func:`classify_ndarray`) and cached when it is ``None``.
        Every store drops a cached INT / REAL answer, so at each read it
        describes the current data.
    rows, cols:
        Logical dimensions.  The backing numpy buffer may be larger
        (oversizing); use :meth:`view` for the logically valid region.
    data:
        Backing buffer.  ``data.shape == (capacity_rows, capacity_cols)``.
    text:
        For ``STRING`` values only, the character payload.
    """

    __slots__ = ("tag", "rows", "cols", "data", "text")

    def __init__(
        self,
        klass: IntrinsicClass | None,
        data: np.ndarray | None = None,
        text: str | None = None,
        rows: int | None = None,
        cols: int | None = None,
    ):
        self.tag = klass
        if klass is IntrinsicClass.STRING:
            self.text = text if text is not None else ""
            self.data = np.empty((0, 0))
            self.rows = 1 if self.text else 0
            self.cols = len(self.text)
            return
        self.text = None
        if data is None:
            data = np.zeros((0, 0))
        if data.ndim != 2:
            data = np.atleast_2d(data)
        self.data = data
        self.rows = data.shape[0] if rows is None else rows
        self.cols = data.shape[1] if cols is None else cols

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def klass(self) -> IntrinsicClass:
        """The intrinsic class; answers INT-vs-REAL from the data when the
        tag does not say (a 1x1 by scalar arithmetic), and caches it."""
        tag = self.tag
        if tag is None:
            if self.rows == 1 and self.cols == 1:
                value = self.data.item(0)
                if type(value) is float:
                    tag = (
                        IntrinsicClass.INT
                        if value.is_integer()
                        else IntrinsicClass.REAL
                    )
            if tag is None:
                tag = classify_ndarray(self.view())
            self.tag = tag
        return tag

    @klass.setter
    def klass(self, klass: IntrinsicClass | None) -> None:
        self.tag = klass

    @property
    def part_tag(self) -> IntrinsicClass | None:
        """The tag a slice of this box inherits: BOOL and COMPLEX describe
        every part, INT-vs-REAL has to be asked of the part's own data."""
        tag = self.tag
        if tag is IntrinsicClass.BOOL or tag is IntrinsicClass.COMPLEX:
            return tag
        return None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def numel(self) -> int:
        return self.rows * self.cols

    @property
    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1

    @property
    def is_empty(self) -> bool:
        return self.numel == 0

    @property
    def is_vector(self) -> bool:
        return (self.rows == 1 or self.cols == 1) and not self.is_empty

    @property
    def is_string(self) -> bool:
        return self.tag is IntrinsicClass.STRING

    def view(self) -> np.ndarray:
        """The logically valid region of the backing buffer."""
        if self.data.shape == (self.rows, self.cols):
            return self.data
        return self.data[: self.rows, : self.cols]

    def scalar(self) -> float | complex:
        """The sole element of a 1x1 array, as a host scalar."""
        if not self.is_scalar:
            raise DimensionError(
                f"expected a scalar, got a {self.rows}x{self.cols} array"
            )
        value = self.data[0, 0]
        if self.tag is IntrinsicClass.COMPLEX:
            return complex(value)
        return float(value)

    def bool_value(self) -> bool:
        """Truth value per MATLAB: true iff non-empty and all-nonzero."""
        if self.is_string:
            return bool(self.text)
        if self.is_empty:
            return False
        return bool(np.all(self.view() != 0))

    def copy(self) -> "MxArray":
        """A by-value copy (drops capacity slack)."""
        if self.is_string:
            return MxArray(IntrinsicClass.STRING, text=self.text)
        return MxArray(self.tag, self.view().copy())

    def forget_class(self) -> None:
        """After a store of values nobody examined: INT-vs-REAL is
        unanswered again and a mask is no longer known to be logical.  A
        complex array whose imaginary parts vanished stays complex (MATLAB
        does not narrow implicitly, and neither do we)."""
        tag = self.tag
        if tag is not IntrinsicClass.COMPLEX and tag is not IntrinsicClass.STRING:
            self.tag = None

    # ------------------------------------------------------------------
    # Subscripting (1-based, column-major, checked)
    # ------------------------------------------------------------------
    def _check_subscript(self, value: float, limit: int, grow: bool) -> int:
        try:
            index = int(value)
        except (ValueError, OverflowError):  # NaN, Inf
            index = 0
        if index != value or index < 1:
            raise SubscriptError(
                "subscript indices must be positive integers"
            )
        if not grow and index > limit:
            raise SubscriptError(
                f"index {index} exceeds matrix dimension ({limit})"
            )
        return index

    def get_linear(self, k: float) -> float | complex:
        """Checked linear (column-major) element load, ``A(k)``."""
        index = self._check_subscript(k, self.numel, grow=False)
        index -= 1
        return self.view()[index % self.rows, index // self.rows]

    def get2(self, i: float, j: float) -> float | complex:
        """Checked two-subscript element load, ``A(i, j)``."""
        ri = self._check_subscript(i, self.rows, grow=False)
        ci = self._check_subscript(j, self.cols, grow=False)
        return self.data[ri - 1, ci - 1]

    def set_linear(self, k: float, value) -> None:
        """Checked linear element store with MATLAB growth semantics.

        Storing past the end of a vector extends it; storing past the end of
        a true matrix is an error (MATLAB forbids linear growth of
        matrices).
        """
        index = self._check_subscript(k, self.numel, grow=True)
        if index > self.numel:
            if self.rows > 1 and self.cols > 1:
                raise SubscriptError(
                    "in an assignment A(I) = B, a matrix A cannot be resized"
                )
            if self.rows > 1:  # column vector
                self._grow(index, max(self.cols, 1))
            else:  # row vector, scalar or empty
                self._grow(max(self.rows, 1), index)
        index -= 1
        self._store(index % self.rows, index // self.rows, value)

    def set2(self, i: float, j: float, value) -> None:
        """Checked two-subscript store with growth."""
        ri = self._check_subscript(i, self.rows, grow=True)
        ci = self._check_subscript(j, self.cols, grow=True)
        if ri > self.rows or ci > self.cols:
            self._grow(max(ri, self.rows), max(ci, self.cols))
        self._store(ri - 1, ci - 1, value)

    def _store(self, r: int, c: int, value) -> None:
        if isinstance(value, complex):
            if value.imag == 0.0:
                value = value.real
            elif self.tag is not IntrinsicClass.COMPLEX:
                self._widen_to_complex()
        # The stored value is not examined: a cached answer is dropped for
        # the next klass read.  A mask stays logical under a 0/1 store only.
        tag = self.tag
        if tag is not None and not (
            tag is IntrinsicClass.BOOL and value in (0, 1)
        ):
            self.forget_class()
        self.data[r, c] = value

    def _widen_to_complex(self) -> None:
        self.data = self.data.astype(np.complex128)
        self.tag = IntrinsicClass.COMPLEX

    # ------------------------------------------------------------------
    # Growth with oversizing (Section 2.6.1)
    # ------------------------------------------------------------------
    def _grow(self, new_rows: int, new_cols: int) -> None:
        cap_rows, cap_cols = self.data.shape
        if new_rows <= cap_rows and new_cols <= cap_cols:
            # Fits the oversized capacity: zero the newly exposed region and
            # bump the logical size.  This is the cheap path oversizing buys.
            if new_rows > self.rows:
                self.data[self.rows: new_rows, :].fill(0)
            if new_cols > self.cols:
                self.data[:, self.cols: new_cols].fill(0)
            self.rows = max(self.rows, new_rows)
            self.cols = max(self.cols, new_cols)
            return
        alloc_rows, alloc_cols = new_rows, new_cols
        if new_rows * new_cols <= OVERSIZE_LIMIT:
            if new_rows > cap_rows and new_rows > 1:
                alloc_rows = int(new_rows * (1.0 + OVERSIZE_SLACK)) + 1
            if new_cols > cap_cols and new_cols > 1:
                alloc_cols = int(new_cols * (1.0 + OVERSIZE_SLACK)) + 1
        fresh = np.zeros((alloc_rows, alloc_cols), dtype=self.data.dtype)
        fresh[: self.rows, : self.cols] = self.view()
        self.data = fresh
        self.rows = max(self.rows, new_rows)
        self.cols = max(self.cols, new_cols)

    @property
    def capacity(self) -> tuple[int, int]:
        """Backing-buffer dimensions (exceeds shape after oversizing)."""
        return self.data.shape

    # ------------------------------------------------------------------
    # Representation
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_string:
            return f"MxArray(string, {self.text!r})"
        if self.is_scalar:
            return f"MxArray({self.klass.name.lower()}, {self.scalar()!r})"
        return (
            f"MxArray({self.klass.name.lower()}, {self.rows}x{self.cols})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MxArray):
            return NotImplemented
        if self.is_string or other.is_string:
            return self.is_string and other.is_string and self.text == other.text
        return (
            self.shape == other.shape
            and bool(np.array_equal(self.view(), other.view()))
        )

    def __hash__(self):  # MxArray is mutable; identity hash like list
        raise TypeError("MxArray is unhashable")
