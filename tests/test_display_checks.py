"""Formatting and checked-access helper tests."""

import numpy as np
import pytest

from repro.errors import SubscriptError
from repro.codegen.runtime_support import RuntimeSupport
from repro.runtime.display import OutputSink, format_scalar, format_value, sprintf
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import from_python, make_matrix, make_scalar, make_string


class TestFormatScalar:
    def test_integer_valued(self):
        assert format_scalar(42.0) == "42"

    def test_fractional(self):
        assert format_scalar(2.5) == "2.5000"

    def test_nan_inf(self):
        assert format_scalar(float("nan")) == "NaN"
        assert format_scalar(float("inf")) == "Inf"
        assert format_scalar(float("-inf")) == "-Inf"

    def test_complex(self):
        assert format_scalar(1 + 2j) == "1 + 2i"
        assert format_scalar(1 - 2j) == "1 - 2i"


class TestFormatValue:
    def test_scalar_with_name(self):
        assert format_value(make_scalar(3), "x") == "x =\n     3\n"

    def test_matrix(self):
        text = format_value(make_matrix([[1, 2], [3, 4]]))
        assert "1   2" in text and "3   4" in text

    def test_empty(self):
        assert "[]" in format_value(from_python(np.zeros((0, 0))))

    def test_string(self):
        assert format_value(make_string("hi"), "s") == "s =\nhi\n"


class TestSprintf:
    def test_basic_conversions(self):
        assert sprintf("%d|%i|%.2f|%s", [make_scalar(3), make_scalar(4),
                                         make_scalar(2.5), make_string("x")]) \
            == "3|4|2.50|x"

    def test_escapes(self):
        assert sprintf("a\\tb\\n", []) == "a\tb\n"

    def test_percent_literal(self):
        assert sprintf("100%%", []) == "100%"

    def test_format_recycling(self):
        # MATLAB reapplies the format until arguments run out.
        assert sprintf("%d,", [make_matrix([[1, 2, 3]])]) == "1,2,3,"

    def test_char_conversion(self):
        assert sprintf("%c", [make_scalar(65)]) == "A"

    def test_width_and_precision(self):
        assert sprintf("%6.3f", [make_scalar(3.14159)]) == " 3.142"


class TestCheckedHelpers:
    """Compiled code's checked accesses are MxArray's own methods, under
    their ``rt`` names."""

    def test_rt_names_are_mxarray_methods(self):
        assert RuntimeSupport.checked_load1 is MxArray.get_linear
        assert RuntimeSupport.checked_load2 is MxArray.get2
        assert RuntimeSupport.checked_store1 is MxArray.set_linear
        assert RuntimeSupport.checked_store2 is MxArray.set2

    def test_checked_load_bounds(self):
        v = make_matrix([[1.0, 2.0]])
        assert RuntimeSupport.checked_load1(v, 2) == 2.0
        with pytest.raises(SubscriptError):
            RuntimeSupport.checked_load1(v, 3)

    def test_checked_load_is_column_major(self):
        m = make_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert [RuntimeSupport.checked_load1(m, k) for k in range(1, 7)] \
            == [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]

    def test_checked_store_grows(self):
        v = make_matrix([[1.0]])
        RuntimeSupport.checked_store1(v, 3, 9.0)
        assert v.shape == (1, 3)

    def test_checked_store_refuses_to_resize_a_matrix(self):
        m = make_matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(SubscriptError, match="cannot be resized"):
            RuntimeSupport.checked_store1(m, 5, 7.0)
        assert m.shape == (2, 2)

    def test_checked_store_2d_grows(self):
        m = make_matrix([[1.0]])
        RuntimeSupport.checked_store2(m, 2, 3, 5.0)
        assert m.shape == (2, 3)
        assert m.get2(2, 3) == 5.0

    def test_checked_store_complex_widens(self):
        m = make_matrix([[1.0]])
        RuntimeSupport.checked_store2(m, 1, 1, 1 + 1j)
        assert m.get2(1, 1) == 1 + 1j

    def test_checked_store_keeps_the_class_tag(self):
        m = make_matrix([[1.0, 2.0]])
        assert m.klass is IntrinsicClass.INT
        RuntimeSupport.checked_store1(m, 3, 0.5)
        assert m.klass is IntrinsicClass.REAL

    def test_fractional_subscript_refused(self):
        v = make_matrix([[1.0, 2.0]])
        with pytest.raises(SubscriptError, match="positive integers"):
            RuntimeSupport.checked_load1(v, 0.5)


class TestOutputSink:
    def test_accumulates(self):
        sink = OutputSink()
        sink.write("a")
        sink.write("b")
        assert sink.getvalue() == "ab"

    def test_clear(self):
        sink = OutputSink()
        sink.write("a")
        sink.clear()
        assert str(sink) == ""
