"""Type lattice tests: Li, Ls, Ll laws (property-based) and signatures."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.values import from_python
from repro.typesys.intrinsic import Intrinsic
from repro.typesys.mtype import MType
from repro.typesys.ranges import Interval
from repro.typesys.shape import Shape
from repro.typesys.signature import Signature, signature_of_values, type_of_value

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
intrinsics = st.sampled_from(list(Intrinsic))
dims = st.one_of(st.integers(min_value=0, max_value=6), st.none())
shapes = st.builds(Shape, dims, dims)
finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
intervals = st.one_of(
    st.just(Interval.bottom()),
    st.just(Interval.top()),
    st.builds(lambda a, b: Interval.of(min(a, b), max(a, b)), finite, finite),
)
mtypes = st.builds(MType, intrinsics, shapes, shapes, intervals)


# ----------------------------------------------------------------------
# Li — the intrinsic lattice
# ----------------------------------------------------------------------
class TestIntrinsicLattice:
    def test_numeric_chain(self):
        chain = [
            Intrinsic.BOTTOM, Intrinsic.BOOL, Intrinsic.INT,
            Intrinsic.REAL, Intrinsic.COMPLEX, Intrinsic.TOP,
        ]
        for lower, upper in zip(chain, chain[1:]):
            assert lower.leq(upper)
            assert not upper.leq(lower)

    def test_string_branch(self):
        assert Intrinsic.BOTTOM.leq(Intrinsic.STRING)
        assert Intrinsic.STRING.leq(Intrinsic.TOP)
        assert not Intrinsic.STRING.leq(Intrinsic.REAL)
        assert not Intrinsic.REAL.leq(Intrinsic.STRING)

    def test_string_join_numeric_is_top(self):
        assert Intrinsic.STRING.join(Intrinsic.INT) is Intrinsic.TOP

    @given(intrinsics, intrinsics)
    def test_join_is_upper_bound(self, a, b):
        j = a.join(b)
        assert a.leq(j) and b.leq(j)

    @given(intrinsics, intrinsics)
    def test_join_commutative(self, a, b):
        assert a.join(b) is b.join(a)

    @given(intrinsics, intrinsics, intrinsics)
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) is a.join(b.join(c))

    @given(intrinsics)
    def test_join_idempotent(self, a):
        assert a.join(a) is a

    @given(intrinsics, intrinsics)
    def test_meet_is_lower_bound(self, a, b):
        m = a.meet(b)
        assert m.leq(a) and m.leq(b)

    @given(intrinsics, intrinsics)
    def test_connecting_lemma(self, a, b):
        # a ⊑ b iff a ⊔ b = b
        assert a.leq(b) == (a.join(b) is b)


# ----------------------------------------------------------------------
# Ls — the shape lattice
# ----------------------------------------------------------------------
class TestShapeLattice:
    def test_bottom_top(self):
        assert Shape.bottom().leq(Shape.top())
        assert Shape.bottom().is_bottom and Shape.top().is_top

    def test_componentwise_order(self):
        assert Shape(2, 3).leq(Shape(4, 3))
        assert not Shape(2, 3).leq(Shape(1, 5))

    def test_infinity_absorbs(self):
        assert Shape(5, 5).leq(Shape(None, None))

    @given(shapes, shapes)
    def test_join_upper_bound(self, a, b):
        j = a.join(b)
        assert a.leq(j) and b.leq(j)

    @given(shapes, shapes)
    def test_meet_lower_bound(self, a, b):
        m = a.meet(b)
        assert m.leq(a) and m.leq(b)

    @given(shapes, shapes)
    def test_join_commutative(self, a, b):
        assert a.join(b) == b.join(a)

    @given(shapes)
    def test_transpose_involution(self, a):
        assert a.transposed().transposed() == a

    def test_numel(self):
        assert Shape(2, 3).numel == 6
        assert Shape(None, 3).numel is None


# ----------------------------------------------------------------------
# Ll — the range lattice
# ----------------------------------------------------------------------
class TestIntervalLattice:
    def test_bottom_below_everything(self):
        assert Interval.bottom().leq(Interval.of(1, 2))

    def test_containment_order(self):
        assert Interval.of(1, 2).leq(Interval.of(0, 3))
        assert not Interval.of(0, 3).leq(Interval.of(1, 2))

    def test_constant(self):
        c = Interval.constant(5.0)
        assert c.is_constant and c.constant_value == 5.0

    @pytest.mark.parametrize("value", [
        Interval.bottom(),
        MType.bottom(),
        Signature.of([MType.bottom(), MType.scalar()]),
    ], ids=lambda value: type(value).__name__)
    def test_empty_interval_equal_however_it_was_built(self, value):
        # A disk-cache load or a parallel rank hands back a *different*
        # nan object; the empty interval is still one lattice element.
        revived = pickle.loads(pickle.dumps(value))
        assert revived == value and hash(revived) == hash(value)
        assert Interval(float("nan"), float("nan")) == Interval.bottom()
        assert Interval.bottom() != Interval.top()

    def test_nan_constant_widens(self):
        assert Interval.constant(float("nan")).is_top

    @given(intervals, intervals)
    def test_join_upper_bound(self, a, b):
        j = a.join(b)
        assert a.leq(j) and b.leq(j)

    @given(intervals, intervals)
    def test_meet_lower_bound(self, a, b):
        m = a.meet(b)
        assert m.leq(a) and m.leq(b)

    @given(intervals, intervals)
    def test_join_commutative(self, a, b):
        assert a.join(b) == b.join(a)

    @given(finite, finite, finite, finite)
    def test_add_soundness(self, a, b, c, d):
        x = Interval.of(min(a, b), max(a, b))
        y = Interval.of(min(c, d), max(c, d))
        assert x.add(y).contains(x.lo + y.lo)
        assert x.add(y).contains(x.hi + y.hi)

    @given(finite, finite, finite, finite)
    def test_mul_soundness(self, a, b, c, d):
        x = Interval.of(min(a, b), max(a, b))
        y = Interval.of(min(c, d), max(c, d))
        product = x.mul(y)
        for u in (x.lo, x.hi):
            for v in (y.lo, y.hi):
                assert product.contains(u * v) or math.isclose(
                    u * v, product.lo, rel_tol=1e-9
                ) or math.isclose(u * v, product.hi, rel_tol=1e-9)

    def test_div_by_interval_containing_zero(self):
        assert Interval.of(1, 2).div(Interval.of(-1, 1)).is_top

    def test_abs(self):
        assert Interval.of(-3, 2).abs() == Interval.of(0, 3)

    def test_neg(self):
        assert Interval.of(1, 2).neg() == Interval.of(-2, -1)


# ----------------------------------------------------------------------
# The product lattice and signatures
# ----------------------------------------------------------------------
class TestMType:
    def test_constant_detection(self):
        assert MType.constant(3.0).is_constant
        assert MType.constant(3.0).constant_value == 3.0

    def test_scalar_detection(self):
        assert MType.scalar(Intrinsic.REAL).is_scalar
        assert not MType.matrix().is_scalar

    def test_exact_shape(self):
        t = MType.exact(Intrinsic.REAL, 3, 4)
        assert t.has_exact_shape and t.exact_shape == Shape(3, 4)

    @given(mtypes, mtypes)
    def test_join_upper_bound(self, a, b):
        j = a.join(b)
        assert a.leq(j) and b.leq(j)

    @given(mtypes)
    def test_top_absorbs(self, a):
        assert a.leq(MType.top())

    @given(mtypes)
    def test_bottom_below(self, a):
        assert MType.bottom().leq(a)

    @given(mtypes, mtypes)
    def test_meet_below_both(self, a, b):
        m = a.meet(b)
        assert m.leq(a) or m.is_bottom
        assert m.leq(b) or m.is_bottom


class TestSignatures:
    def test_type_of_value_is_exact(self):
        t = type_of_value(from_python(4.0))
        assert t.is_scalar and t.is_constant and t.constant_value == 4.0

    def test_type_of_matrix_value(self):
        import numpy as np

        t = type_of_value(from_python(np.ones((2, 3))))
        assert t.exact_shape == Shape(2, 3)
        assert t.range.lo == 1.0 and t.range.hi == 1.0

    def test_safety_accepts_subtypes(self):
        wide = Signature.of([MType.scalar(Intrinsic.REAL)])
        narrow = signature_of_values([from_python(2.0)])
        assert wide.accepts(narrow)

    def test_safety_rejects_wider_actuals(self):
        import numpy as np

        narrow = Signature.of([MType.scalar(Intrinsic.REAL)])
        actual = signature_of_values([from_python(np.ones((2, 2)))])
        assert not narrow.accepts(actual)

    def test_safety_rejects_complex_into_real(self):
        narrow = Signature.of([MType.scalar(Intrinsic.REAL)])
        actual = signature_of_values([from_python(1 + 2j)])
        assert not narrow.accepts(actual)

    def test_arity_mismatch(self):
        one = Signature.all_top(1)
        assert not one.accepts(Signature.all_top(2))

    def test_distance_prefers_specialized(self):
        """The locator's Manhattan distance picks the tightest safe match."""
        actual = signature_of_values([from_python(4.0)])
        exact = Signature.of([type_of_value(from_python(4.0))])
        wide = Signature.all_top(1)
        assert exact.accepts(actual) and wide.accepts(actual)
        assert exact.distance(actual) < wide.distance(actual)

    def test_distance_zero_for_identical(self):
        sig = signature_of_values([from_python(4.0)])
        assert sig.distance(sig) == 0.0

    @given(st.lists(finite, min_size=1, max_size=3))
    def test_value_signature_accepts_itself(self, values):
        sig = signature_of_values([from_python(v) for v in values])
        assert sig.accepts(sig)
