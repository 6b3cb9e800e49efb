"""Parser tests: precedence, statements, function files, round-tripping."""

import pytest

from repro.errors import ParseError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse, parse_expression
from repro.frontend.pretty import pretty, pretty_expr


def expr(source):
    return parse_expression(source)


class TestPrecedence:
    def test_mul_over_add(self):
        assert pretty_expr(expr("1 + 2 * 3")) == "(1 + (2 * 3))"

    def test_power_tighter_than_unary_minus(self):
        # MATLAB: -2^2 == -4
        assert pretty_expr(expr("-2^2")) == "-((2 ^ 2))"

    def test_power_unary_exponent(self):
        assert pretty_expr(expr("2^-1")) == "(2 ^ -(1))"

    def test_power_left_associative(self):
        assert pretty_expr(expr("2^3^2")) == "((2 ^ 3) ^ 2)"

    def test_relational_below_additive(self):
        assert pretty_expr(expr("a + 1 < b")) == "((a + 1) < b)"

    def test_colon_between_relational_and_additive(self):
        tree = expr("1:n+1")
        assert isinstance(tree, ast.Range)
        assert pretty_expr(tree) == "(1:(n + 1))"

    def test_colon_with_step(self):
        tree = expr("10:-2:0")
        assert isinstance(tree, ast.Range)
        assert tree.step is not None

    def test_logical_ladder(self):
        assert pretty_expr(expr("a & b | c")) == "((a & b) | c)"

    def test_short_circuit_lowest(self):
        assert pretty_expr(expr("a < b && c > d")) == "((a < b) && (c > d))"

    def test_elementwise_ops(self):
        assert pretty_expr(expr("a .* b ./ c")) == "((a .* b) ./ c)"

    def test_backslash_level(self):
        assert pretty_expr(expr("A \\ b + c")) == "((A \\ b) + c)"

    def test_transpose_postfix(self):
        tree = expr("A'*B")
        assert isinstance(tree, ast.BinaryOp)
        assert isinstance(tree.left, ast.Transpose)

    def test_parenthesized(self):
        assert pretty_expr(expr("(1 + 2) * 3")) == "((1 + 2) * 3)"


class TestPrimary:
    def test_call_or_index(self):
        tree = expr("f(x, y)")
        assert isinstance(tree, ast.Apply)
        assert tree.name == "f" and len(tree.args) == 2

    def test_nested_calls(self):
        tree = expr("f(g(x))")
        assert isinstance(tree.args[0], ast.Apply)

    def test_colon_subscript(self):
        tree = expr("A(:, j)")
        assert isinstance(tree.args[0], ast.ColonAll)

    def test_end_in_subscript(self):
        tree = expr("A(end - 1)")
        inner = tree.args[0]
        assert isinstance(inner, ast.BinaryOp)
        assert isinstance(inner.left, ast.EndMarker)

    def test_end_outside_subscript_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("end + 1")

    def test_matrix_literal_rows(self):
        tree = expr("[1 2; 3 4]")
        assert isinstance(tree, ast.MatrixLit)
        assert len(tree.rows) == 2 and len(tree.rows[0]) == 2

    def test_empty_matrix(self):
        tree = expr("[]")
        assert isinstance(tree, ast.MatrixLit) and tree.rows == []

    def test_matrix_of_expressions(self):
        tree = expr("[a+1, b*2]")
        assert len(tree.rows[0]) == 2

    def test_imaginary_literal(self):
        assert isinstance(expr("3i"), ast.ImagNumber)

    def test_string(self):
        assert expr("'txt'").text == "txt"


class TestStatements:
    def test_assignment_display_flag(self):
        program = parse("x = 1\ny = 2;")
        assert program.script[0].display is True
        assert program.script[1].display is False

    def test_indexed_assignment(self):
        program = parse("A(i, j) = 5;")
        target = program.script[0].target
        assert target.is_indexed and len(target.indices) == 2

    def test_multi_assignment(self):
        program = parse("[a, b] = size(x);")
        stmt = program.script[0]
        assert isinstance(stmt, ast.MultiAssign)
        assert [t.name for t in stmt.targets] == ["a", "b"]

    def test_matrix_literal_statement_not_multiassign(self):
        program = parse("[1 2 3];")
        assert isinstance(program.script[0], ast.ExprStmt)

    def test_bare_bracket_ident_expression(self):
        program = parse("[a, b];")
        assert isinstance(program.script[0], ast.ExprStmt)

    def test_if_elseif_else(self):
        program = parse(
            "if a\n x=1;\nelseif b\n x=2;\nelse\n x=3;\nend"
        )
        stmt = program.script[0]
        assert isinstance(stmt, ast.If)
        assert len(stmt.branches) == 2 and len(stmt.orelse) == 1

    def test_if_with_comma(self):
        program = parse("if a, x = 1; end")
        assert isinstance(program.script[0], ast.If)

    def test_while(self):
        program = parse("while x < 3, x = x + 1; end")
        assert isinstance(program.script[0], ast.While)

    def test_for_with_range(self):
        program = parse("for i = 1:10, s = s + i; end")
        stmt = program.script[0]
        assert isinstance(stmt, ast.For) and stmt.var == "i"
        assert isinstance(stmt.iterable, ast.Range)

    def test_break_continue_return(self):
        program = parse(
            "while 1, break; end\nwhile 1, continue; end\nreturn"
        )
        assert isinstance(program.script[0].body[0], ast.Break)
        assert isinstance(program.script[1].body[0], ast.Continue)
        assert isinstance(program.script[2], ast.Return)

    def test_clear_command_form(self):
        program = parse("clear\nclear x y")
        assert program.script[0].names == []
        assert program.script[1].names == ["x", "y"]

    def test_global(self):
        program = parse("global g h;")
        assert program.script[0].names == ["g", "h"]

    def test_nested_loops(self):
        program = parse(
            "for i = 1:3\n for j = 1:3\n  A(i,j) = 0;\n end\nend"
        )
        outer = program.script[0]
        assert isinstance(outer.body[0], ast.For)

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse("x = ;")


class TestFunctions:
    def test_single_output(self):
        fn = parse("function y = f(x)\ny = x;\n").primary
        assert fn.name == "f" and fn.outputs == ["y"] and fn.params == ["x"]

    def test_multi_output(self):
        fn = parse("function [a, b] = f(x, y)\na=x; b=y;\n").primary
        assert fn.outputs == ["a", "b"]

    def test_no_output(self):
        fn = parse("function f(x)\ndisp(x);\n").primary
        assert fn.outputs == []

    def test_no_params(self):
        fn = parse("function y = f\ny = 1;\n").primary
        assert fn.params == []

    def test_subfunctions(self):
        program = parse(
            "function y = main(x)\ny = helper(x);\n\n"
            "function z = helper(x)\nz = x + 1;\n"
        )
        assert [f.name for f in program.functions] == ["main", "helper"]

    def test_end_terminated_function(self):
        program = parse("function y = f(x)\ny = x;\nend\n")
        assert program.primary.name == "f"

    def test_script_vs_function(self):
        assert parse("x = 1;").is_script
        assert not parse("function f\nx = 1;").is_script


class TestRoundTrip:
    SOURCES = [
        "x = a(i) + b(j);",
        "for i = 1:2:9, A(i) = i^2; end",
        "while (x < 10) && ok, x = x + 1; end",
        "if a == b, c = [1 2; 3 4]; else c = []; end",
        "y = A(2:end, :)' * b;",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_parse_pretty_parse(self, source):
        first = pretty(parse(source))
        second = pretty(parse(first))
        assert first == second


def corpus_functions():
    """Every function of the 16 Table-1 programs and 200 fuzz programs."""
    from repro.benchsuite.registry import benchmark_names, sources_of
    from repro.fuzz import generate_program

    sources = [s for name in benchmark_names() for s in sources_of(name)]
    sources += [generate_program(seed).source for seed in range(200)]
    return [fn for source in sources for fn in parse(source).functions]


def objects_under(root):
    """Every node and every list under ``root``, preorder, found through
    the objects' own fields (not through the walkers ``clone`` could
    share a blind spot with)."""
    found = []

    def visit(value):
        if isinstance(value, (ast.Expr, ast.Stmt, ast.LValue, ast.FunctionDef)):
            found.append(value)
            for field in vars(value).values():
                visit(field)
        elif isinstance(value, (list, tuple)):
            if isinstance(value, list):
                found.append(value)
            for item in value:
                visit(item)

    visit(root)
    return found


class TestClone:
    def test_clone_is_equal_in_structure_and_shares_nothing_mutable(self):
        from repro.frontend.pretty import pretty_function

        functions = corpus_functions()
        assert len(functions) > 216
        for fn in functions:
            twin = ast.clone(fn)
            assert pretty_function(twin) == pretty_function(fn)
            ours, theirs = objects_under(fn), objects_under(twin)
            assert [type(o) for o in ours] == [type(o) for o in theirs]
            # A tree: nothing is reachable twice, so no memo is needed ...
            assert len({id(o) for o in ours}) == len(ours)
            # ... and the copy can be rewritten without touching the original.
            assert not {id(o) for o in ours} & {id(o) for o in theirs}

    def test_clone_copies_whatever_fields_a_node_carries(self):
        node = parse_expression("a(end)")
        node.note = "undeclared"
        marker = node.args[0]
        marker.__class__, marker.value = ast.Number, 3.0  # as the interpreter
        twin = ast.clone(node)
        assert twin.note == "undeclared"
        assert type(twin.args[0]) is ast.Number and twin.args[0].value == 3.0
        assert twin.location is node.location  # immutable: shared
