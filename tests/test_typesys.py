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


# ----------------------------------------------------------------------
# The repository's one acceptance predicate, against the lattice's
# ----------------------------------------------------------------------
def _version(signature):
    """A version holding ``signature`` and nothing else (``accepts`` and
    ``exact_for`` read only the signature)."""
    from repro.codegen.jitgen import CompiledObject

    return CompiledObject(
        name="f", signature=signature, emitted=None, annotations=None,
        param_reprs=["boxed"] * len(signature), output_reprs=[],
    )


def _values():
    import numpy as np

    from repro.runtime.mxarray import IntrinsicClass, MxArray
    from repro.runtime.values import make_bool, make_string

    special = st.sampled_from(
        [0.0, -0.0, 1.0, 2.0, 5.0, -3.0, 0.5, 2.5, 1e6,
         math.nan, math.inf, -math.inf]
    )
    shape = st.sampled_from(
        [(1, 1), (1, 1), (1, 3), (3, 1), (2, 2), (0, 0), (0, 3), (1, 0)]
    )

    def real(shape, elements):
        rows, cols = shape
        data = np.array(
            (elements * (rows * cols))[: rows * cols], dtype=float
        ).reshape(rows, cols)
        return data

    reals = st.builds(real, shape, st.lists(special, min_size=1, max_size=4))

    def boxed(data, how):
        if how == "classified":
            return from_python(data)
        if how == "unanswered":
            return MxArray(None, data)
        if how == "oversized":   # capacity beyond the logical size
            buffer = np.full((data.shape[0] + 2, data.shape[1] + 1), 99.0)
            buffer[: data.shape[0], : data.shape[1]] = data
            return MxArray(None, buffer, rows=data.shape[0], cols=data.shape[1])
        if how == "bool":
            return MxArray(IntrinsicClass.BOOL, (data > 0).astype(float))
        if how == "complex":
            return MxArray(IntrinsicClass.COMPLEX, data.astype(complex) + 1j)
        if how == "complex-tagged-real":
            return MxArray(IntrinsicClass.COMPLEX, data.astype(complex))
        return MxArray(None, data.astype(complex))   # "complex-dtype-real"

    arrays = st.builds(boxed, reals, st.sampled_from([
        "classified", "classified", "unanswered", "oversized", "bool",
        "complex", "complex-tagged-real", "complex-dtype-real",
    ]))
    return st.one_of(
        arrays,
        st.sampled_from([True, False]).map(make_bool),
        st.sampled_from(["", "a", "abc"]).map(make_string),
    )


def _formal_for(value_type, how, other):
    """A formal near an actual's own type, so acceptance is not a
    foregone ``False``."""
    if how == "own":
        return value_type
    if how == "widen-range":
        return value_type.widen_range()
    if how == "widen-shape":
        return value_type.widen_shape()
    if how == "top-intrinsic":
        return value_type.with_intrinsic(Intrinsic.TOP)
    if how == "half-open":
        return value_type.with_range(Interval(value_type.range.lo, math.inf))
    if how == "joined":
        return value_type.join(other)
    if how == "other-range":
        return value_type.with_range(other.range)
    return other


half_open = st.one_of(
    st.builds(lambda a: Interval(a, math.inf), finite),
    st.builds(lambda a: Interval(-math.inf, a), finite),
    st.builds(lambda a: Interval.constant(float(int(a) % 7)), finite),
)
formal_types = st.builds(
    MType, intrinsics, shapes, shapes, st.one_of(intervals, half_open)
)


class TestAcceptsIsTheLatticeOrder:
    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_accepts_equals_signature_accepts(self, data):
        """``version.accepts(args)`` — classes, shapes and values read
        straight off the boxes — is *exactly* ``signature.accepts`` of the
        derived invocation signature; and where ``exact_for`` says so the
        distance is 0.  A call of any other arity is refused: the emitted
        function takes every formal positionally."""
        args = data.draw(st.lists(_values(), min_size=0, max_size=3))
        arity = data.draw(st.sampled_from(
            [len(args)] * 4 + [len(args) + 1] + [len(args) - 1] * bool(args)
        ))
        formals = []
        for position in range(arity):
            other = data.draw(formal_types)
            if position < len(args):
                how = data.draw(st.sampled_from([
                    "own", "own", "widen-range", "widen-shape",
                    "top-intrinsic", "half-open", "joined", "other-range",
                    "other-range", "other",
                ]))
                formals.append(
                    _formal_for(type_of_value(args[position]), how, other)
                )
            else:
                formals.append(other)
        signature = Signature.of(formals)
        version = _version(signature)
        accepted = version.accepts(args)
        if len(args) != arity:
            assert not accepted
            return
        actual = signature_of_values(args)
        assert accepted == signature.accepts(actual), (signature, actual)
        if accepted and version.exact_for(args):
            assert signature.distance(actual) == 0.0, (signature, actual)

    def test_every_edge_value_against_every_edge_formal(self):
        """The same equivalence, exhaustively, where the edges are: NaN,
        ±Inf, -0.0, empties, strings, complex-tagged reals and oversized
        buffers against constant / finite / half-open / ⊤ / ⊥ ranges at
        the value's own class and shape, one class up, and ⊤."""
        import numpy as np

        from repro.runtime.mxarray import IntrinsicClass, MxArray
        from repro.runtime.values import make_bool, make_string

        scalars = [0.0, -0.0, 1.0, 5.0, 2.5, -3.0, math.nan, math.inf, -math.inf]
        values = [from_python(v) for v in scalars]
        values += [MxArray(None, np.array([[v]])) for v in scalars]
        values += [make_bool(True), make_bool(False), from_python(2 + 1j),
                   MxArray(IntrinsicClass.COMPLEX, np.array([[2 + 0j]])),
                   make_string(""), make_string("ab")]
        for row in ([1.0, 2.0, 3.0], [0.5, math.nan, 1.0], [-math.inf, 0.0, math.inf],
                    [-0.0, 0.0, 0.0], [5.0, 5.0, 5.0]):
            values.append(from_python(np.array([row])))
            buffer = np.full((3, 5), 99.0)
            buffer[0, :3] = row
            values.append(MxArray(None, buffer, rows=1, cols=3))
        values += [from_python(np.zeros((0, 0))), from_python(np.zeros((0, 3))),
                   MxArray(IntrinsicClass.BOOL, np.array([[1.0, 0.0, 1.0]]))]
        ranges = [Interval.top(), Interval.bottom(), Interval(-math.inf, 0.0),
                  Interval(0.0, math.inf), Interval(math.inf, math.inf),
                  Interval(0.0, 0.0), Interval(5.0, 5.0), Interval(1.0, 3.0),
                  Interval(-3.0, 2.5), Interval(0.0, 1.0)]
        checked = accepted = 0
        for value in values:
            own = type_of_value(value)
            up = {Intrinsic.BOOL: Intrinsic.INT, Intrinsic.INT: Intrinsic.REAL,
                  Intrinsic.REAL: Intrinsic.COMPLEX}.get(own.intrinsic, Intrinsic.TOP)
            for intrinsic in {own.intrinsic, up, Intrinsic.TOP, Intrinsic.BOTTOM,
                              Intrinsic.STRING, Intrinsic.BOOL}:
                for shaped in (own, own.widen_shape(),
                               own.with_shape(Shape(1, 1), Shape(1, None)),
                               own.with_shape(Shape(None, 1), Shape(None, None))):
                    for rng in ranges + [own.range]:
                        formal = shaped.with_intrinsic(intrinsic).with_range(rng)
                        signature = Signature.of([formal])
                        version = _version(signature)
                        actual = signature_of_values([value])
                        expected = signature.accepts(actual)
                        assert version.accepts([value]) == expected, (value.shape, own, formal)
                        if expected and version.exact_for([value]):
                            assert signature.distance(actual) == 0.0, (own, formal)
                        checked += 1
                        accepted += expected
        assert checked > 5000 and checked // 10 < accepted < checked - checked // 10

    @pytest.mark.parametrize(("value", "provable"), [
        (4.0, True), (True, True), (2.5, True), (-0.0, True),
        (1 + 2j, True), ("abc", True), ("", True),
        # distance 0 too, but not cheaply provable: locate() ranks these
        (math.nan, False),
        # <inf,inf> is not a constant (Interval.is_constant): distance 1
        (math.inf, False),
    ])
    def test_own_signature_is_exact_where_distance_zero_is_provable(
        self, value, provable
    ):
        import numpy as np

        boxes = [from_python(value)]
        if not isinstance(value, (str, bool)):
            boxes.append(from_python(np.full((2, 3), value)))
        for boxed in boxes:
            version = _version(Signature.of([type_of_value(boxed)]))
            assert version.accepts([boxed])
            assert version.exact_for([boxed]) == provable
