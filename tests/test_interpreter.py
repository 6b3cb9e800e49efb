"""Interpreter tests: MATLAB semantics of the baseline engine."""

import numpy as np
import pytest

from repro.errors import RuntimeMatlabError, UndefinedSymbolError
from repro.frontend.parser import parse
from repro.interp.environment import Environment
from repro.interp.interpreter import Interpreter
from repro.runtime.display import OutputSink
from repro.runtime.values import from_python, to_python


def run_script(source, functions=None, sink=None):
    table = dict(functions or {})
    interp = Interpreter(function_lookup=table.get, sink=sink)
    return interp.run_script(parse(source))


def value(env, name):
    return to_python(env.get(name))


def make_functions(*sources):
    table = {}
    for source in sources:
        for fn in parse(source).functions:
            table[fn.name] = fn
    return table


class TestExpressions:
    def test_arithmetic(self):
        env = run_script("x = 2 + 3 * 4;")
        assert value(env, "x") == 14.0

    def test_matrix_literal(self):
        env = run_script("m = [1 2; 3 4];")
        assert np.array_equal(value(env, "m"), [[1, 2], [3, 4]])

    def test_range(self):
        env = run_script("v = 2:2:8;")
        assert np.array_equal(value(env, "v"), [[2, 4, 6, 8]])

    def test_indexing(self):
        env = run_script("m = [1 2; 3 4]; x = m(2, 1);")
        assert value(env, "x") == 3.0

    def test_end_keyword(self):
        env = run_script("v = [10 20 30]; x = v(end); y = v(end-1);")
        assert value(env, "x") == 30.0 and value(env, "y") == 20.0

    def test_end_is_the_innermost_arrays_extent(self):
        env = run_script(
            "x = [10 20 30 40 50]; y = [1 2];\n"
            "a = x(y(end)); b = x(1, y(end)); c = x(y(end) + end - 5);\n"
            "x(end + 1) = y(end);"
        )
        assert [value(env, name) for name in "abc"] == [20.0, 20.0, 20.0]
        assert value(env, "x")[0][-1] == 2.0

    def test_end_in_a_call_that_indexes_nothing_raises(self):
        with pytest.raises(RuntimeMatlabError, match="'end'"):
            run_script("x = [1 2]; y = sin(end);")
        # A callee's ``end`` never reads the caller's subscript.
        table = make_functions("function y = g(n)\ny = sin(end);\n")
        with pytest.raises(RuntimeMatlabError, match="'end'"):
            run_script("x = [1 2]; y = x(g(1));", table)

    def test_end_in_a_loop_keeps_one_fusion_plan(self):
        """``end`` is evaluated in place, so a subscript holding it is
        one expression node however often it runs: its fusion plan is
        made once (a rewritten copy per evaluation left 1,001 plans)."""
        interp = Interpreter()
        env = interp.run_script(parse(
            "x = 1:50;\ns = 0;\nfor k = 1:1000\n  s = s + x(end - 2 * 3 + 1);\nend\n"
        ))
        assert value(env, "s") == 45000.0
        assert len(interp._fusion_plans) <= 2

    def test_colon_slice(self):
        env = run_script("m = [1 2; 3 4]; c = m(:, 2);")
        assert np.array_equal(value(env, "c"), [[2], [4]])

    def test_transpose(self):
        env = run_script("v = [1 2 3]'; ")
        assert value(env, "v").shape == (3, 1)

    def test_ans_variable(self):
        env = run_script("3 + 4;")
        assert value(env, "ans") == 7.0


class TestControlFlow:
    def test_if_chain(self):
        env = run_script(
            "x = 5;\nif x > 10, y = 1; elseif x > 3, y = 2; else y = 3; end"
        )
        assert value(env, "y") == 2.0

    def test_while_with_break(self):
        env = run_script(
            "k = 0;\nwhile 1, k = k + 1; if k == 5, break; end\nend"
        )
        assert value(env, "k") == 5.0

    def test_for_continue(self):
        env = run_script(
            "s = 0;\nfor i = 1:10, if mod(i,2)==1, continue; end\n"
            "s = s + i; end"
        )
        assert value(env, "s") == 30.0

    def test_for_over_matrix_columns(self):
        env = run_script(
            "s = 0;\nfor col = [1 2; 3 4], s = s + sum(col); end"
        )
        assert value(env, "s") == 10.0

    def test_short_circuit_guards(self):
        env = run_script(
            "v = [1];\nn = 0;\nif (n >= 1) && (v(n) > 0), y = 1; "
            "else y = 0; end"
        )
        assert value(env, "y") == 0.0


class TestDynamicResolution:
    """Section 2.1's runtime symbol rule: variable > builtin > function."""

    def test_builtin_i_then_variable(self):
        """The paper's Figure 2 ambiguity, dynamically resolved."""
        env = run_script(
            "z = i;\ni = 5;\nw = i;"
        )
        assert value(env, "z") == 1j
        assert value(env, "w") == 5.0

    def test_variable_shadows_builtin(self):
        env = run_script("zeros = 7; x = zeros;")
        assert value(env, "x") == 7.0

    def test_undefined_symbol_raises(self):
        with pytest.raises(UndefinedSymbolError):
            run_script("x = no_such_thing;")

    def test_clear_restores_builtin(self):
        env = run_script("pi = 1; clear pi\nx = pi;")
        assert value(env, "x") == pytest.approx(np.pi)


class TestCallByValue:
    def test_assignment_copies(self):
        env = run_script("a = [1 2]; b = a; a(1) = 99;")
        assert np.array_equal(value(env, "b"), [[1, 2]])

    def test_function_args_copied(self):
        table = make_functions(
            "function y = clobber(v)\nv(1) = 99;\ny = v(1);\n"
        )
        env = Environment()
        interp = Interpreter(function_lookup=table.get)
        interp.run_statements(
            parse("a = [1 2]; r = clobber(a); keep = a(1);").script, env
        )
        assert value(env, "r") == 99.0
        assert value(env, "keep") == 1.0


class TestFunctions:
    def test_call_and_return(self):
        table = make_functions("function y = double_it(x)\ny = 2 * x;\n")
        interp = Interpreter(function_lookup=table.get)
        out = interp.call_function(table["double_it"], [from_python(21)], 1)
        assert to_python(out[0]) == 42.0

    def test_recursion(self):
        table = make_functions(
            "function f = fib(n)\nif n < 2, f = n; else "
            "f = fib(n-1) + fib(n-2); end\n"
        )
        interp = Interpreter(function_lookup=table.get)
        out = interp.call_function(table["fib"], [from_python(10)], 1)
        assert to_python(out[0]) == 55.0

    def test_multiple_outputs(self):
        table = make_functions(
            "function [s, p] = both(a, b)\ns = a + b;\np = a * b;\n"
        )
        interp = Interpreter(function_lookup=table.get)
        out = interp.call_function(
            table["both"], [from_python(3), from_python(4)], 2
        )
        assert [to_python(v) for v in out] == [7.0, 12.0]

    def test_unassigned_output_raises(self):
        table = make_functions("function y = bad(x)\nz = x;\n")
        interp = Interpreter(function_lookup=table.get)
        with pytest.raises(RuntimeMatlabError):
            interp.call_function(table["bad"], [from_python(1)], 1)

    def test_too_many_args_raises(self):
        table = make_functions("function y = one(x)\ny = x;\n")
        interp = Interpreter(function_lookup=table.get)
        with pytest.raises(RuntimeMatlabError):
            interp.call_function(
                table["one"], [from_python(1), from_python(2)], 1
            )

    def test_return_statement(self):
        table = make_functions(
            "function y = early(x)\ny = 1;\nif x > 0, return; end\ny = 2;\n"
        )
        interp = Interpreter(function_lookup=table.get)
        out = interp.call_function(table["early"], [from_python(5)], 1)
        assert to_python(out[0]) == 1.0


class TestDisplay:
    def test_unsuppressed_assignment_echoes(self):
        sink = OutputSink()
        run_script("x = 41 + 1", sink=sink)
        assert "x =" in sink.getvalue() and "42" in sink.getvalue()

    def test_semicolon_suppresses(self):
        sink = OutputSink()
        run_script("x = 42;", sink=sink)
        assert sink.getvalue() == ""

    def test_disp_and_fprintf(self):
        sink = OutputSink()
        run_script("disp('hi');\nfprintf('%d\\n', 7);", sink=sink)
        assert sink.getvalue() == "hi\n7\n"

    def test_growth_semantics(self):
        env = run_script("a = []; a(3) = 5;")
        assert np.array_equal(value(env, "a"), [[0, 0, 5]])
