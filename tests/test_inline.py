"""Inliner tests (Section 2.6.1's inlining rules)."""

import hashlib

import pytest

from repro.backends import Program, observe, reference
from repro.benchsuite.registry import benchmark_names, sources_of
from repro.codegen.inline import MAX_INLINE_LINES, Inliner, inline_function
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.runtime.values import from_python

from .test_parse_golden import dump


def table_of(*sources):
    table = {}
    for source in sources:
        for fn in parse(source).functions:
            table[fn.name] = fn
    return table


def calls_in(fn, name):
    return [
        node
        for stmt in ast.walk_stmts(fn.body)
        for e in ast.stmt_exprs(stmt)
        for node in ast.walk_expr(e)
        if isinstance(node, ast.Apply) and node.name == name
    ]


class TestBasicInlining:
    def test_direct_assignment_call(self):
        table = table_of(
            "function y = main(x)\ny = helper(x);\n",
            "function z = helper(a)\nz = a * 2;\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 1
        assert not calls_in(result, "helper")

    def test_nested_expression_call_hoisted(self):
        table = table_of(
            "function y = main(x)\ny = 1 + helper(x) * 3;\n",
            "function z = helper(a)\nz = a + 1;\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 1
        assert not calls_in(result, "helper")

    def test_locals_renamed_apart(self):
        table = table_of(
            "function y = main(x)\nt = 10;\ny = helper(x) + t;\n",
            "function z = helper(a)\nt = a * 2;\nz = t;\n",
        )
        result, _ = inline_function(table["main"], table.get)
        assigned = {
            s.target.name
            for s in ast.walk_stmts(result.body)
            if isinstance(s, ast.Assign)
        }
        # The helper's `t` must not collide with the caller's `t`.
        renamed = [n for n in assigned if n.startswith("t__il")]
        assert renamed and "t" in assigned

    def test_multi_output_callee(self):
        table = table_of(
            "function y = main(x)\n[a, b] = pair(x);\ny = a + b;\n",
            "function [p, q] = pair(v)\np = v + 1;\nq = v - 1;\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 1
        assert not calls_in(result, "pair")

    def test_unknown_callee_untouched(self):
        table = table_of("function y = main(x)\ny = mystery(x);\n")
        result, count = inline_function(table["main"], table.get)
        assert count == 0
        assert calls_in(result, "mystery")


class TestLimits:
    def test_recursion_depth_cap(self):
        table = table_of(
            "function f = fib(n)\nif n < 2, f = n; else "
            "f = fib(n-1) + fib(n-2); end\n"
        )
        inliner = Inliner(table.get, max_depth=3)
        result = inliner.run(table["fib"])
        # After 3 levels, dynamic fib calls must remain.
        assert calls_in(result, "fib")
        assert inliner.inlined_calls > 0

    def test_large_function_not_inlined(self):
        body = "\n".join(f"a{i} = {i};" for i in range(250))
        table = table_of(
            f"function z = big(a)\n{body}\nz = a;\n",
            "function y = main(x)\ny = big(x);\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 0

    def test_shadowed_name_not_inlined(self):
        """A local assignment may shadow the function at runtime."""
        table = table_of(
            "function y = main(x)\nhelper = 3;\ny = helper(1) + x;\n",
            "function z = helper(a)\nz = a * 100;\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 0

    def test_mid_body_return_blocks_inlining(self):
        table = table_of(
            "function z = helper(a)\nif a > 0, z = 1; return; end\nz = 2;\n"
            "z = z + 1;\n",
            "function y = main(x)\ny = helper(x);\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 0

    def test_trailing_return_is_fine(self):
        table = table_of(
            "function z = helper(a)\nz = a + 1;\nreturn\n",
            "function y = main(x)\ny = helper(x);\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 1


class TestSemantics:
    def test_inlined_result_matches_dynamic(self):
        """Differential check through the repository."""
        from repro.repository.repo import CodeRepository
        from repro.runtime.values import from_python, to_python

        sources = [
            "function y = main(x)\ny = helper(x) + helper(x + 1);\n",
            "function z = helper(a)\nz = a * a;\n",
        ]
        with_inline = CodeRepository(inline_enabled=True)
        without = CodeRepository(inline_enabled=False)
        for source in sources:
            with_inline.add_source(source)
            without.add_source(source)
        a = to_python(with_inline.execute("main", [from_python(3.0)])[0])
        b = to_python(without.execute("main", [from_python(3.0)])[0])
        assert a == b == 25.0

    def test_call_by_value_preserved(self):
        """The callee mutates its parameter; the caller's copy survives."""
        from repro.repository.repo import CodeRepository
        from repro.runtime.values import from_python, to_python
        import numpy as np

        repo = CodeRepository()
        repo.add_source(
            "function z = clobber(v)\nv(1) = 99;\nz = v(1);\n"
        )
        repo.add_source(
            "function y = main(a)\nr = clobber(a);\ny = r + a(1);\n"
        )
        args = [from_python(np.array([[1.0, 2.0]]))]
        assert to_python(repo.execute("main", args)[0]) == 100.0  # 99 + 1

    def test_inlined_names_recorded(self):
        table = table_of(
            "function y = main(x)\ny = helper(x);\n",
            "function z = helper(a)\nz = a;\n",
        )
        inliner = Inliner(table.get)
        inliner.run(table["main"])
        assert inliner.inlined_names == {"helper"}


class TestInputUntouched:
    def test_run_leaves_its_input_as_it_found_it(self):
        """``Inliner.run`` rewrites a copy: the repository keeps handing
        the original to the interpreter and to later compiles."""
        from repro.frontend.pretty import pretty_function
        from repro.fuzz import generate_program

        programs = [sources_of(name) for name in benchmark_names()]
        programs += [(generate_program(seed).source,) for seed in range(60)]
        inlined = 0
        for sources in programs:
            table = table_of(*sources)

            def state():
                return [pretty_function(fn) for fn in table.values()]

            before = state()
            for fn in table.values():
                inliner = Inliner(table.get)
                inliner.run(fn)
                inlined += inliner.inlined_calls
            assert state() == before
        assert inlined >= 40  # the check above saw real rewriting


class TestParsedTreesStayPut:
    """After parse nothing writes into a tree: disambiguation keeps its
    resolutions in a side table, so a function with nothing to inline is
    compiled from the parsed tree itself, and the inliner writes only
    into its own copies."""

    @pytest.mark.parametrize("row", ["jit", "spec", "falcon", "mcc"])
    def test_compiling_leaves_every_parsed_tree_as_parsed(self, row):
        from repro import backends

        for name in benchmark_names():
            program = Program.benchmark(name)
            fresh = [fn for text in program.sources
                     for fn in parse(text).functions]
            with backends.open(program, row) as handle:
                assert handle.call().error is None
                if handle.session is not None:
                    held = handle.session.repository.lookup_function
                else:
                    held = handle.engine._functions.get
                parsed = [held(fn.name) for fn in fresh]
            assert [dump(fn) for fn in parsed] == [dump(fn) for fn in fresh], (
                f"compiling {name} on {row} wrote into a parsed tree")


class TestEvaluationOrder:
    """A call hoisted out of the middle of an expression runs ahead of its
    whole statement; what the interpreter evaluates *before* the call — a
    draw, an operand that fails — must still come first.  (Found by the
    fuzzer's ``rand`` / ``effects-then-error`` shapes.)"""

    CALLEES = (
        "function d = draw(k)\nd = rand * k;\n"
        "function d = shout(k)\ndisp(k);\nd = k;\n"
        "function d = pair(a, b)\nd = a - b;\n"
    )

    @pytest.mark.parametrize("statement", [
        "r = rand(2, 2) * draw(3);",          # draw order
        "r = pair(rand + 1, draw(2));",       # ... among arguments
        "r = [rand, draw(2); rand, 1];",      # ... inside a matrix literal
        "r = M(9) + shout(1);",               # error before output
        "r = M(end) + shout(M(end - 1));",    # `end` cannot be pinned
        "if M(1) > 0, r = 1; elseif shout(2) > 0, r = 2; end",  # not reached
    ])
    def test_hoisting_keeps_the_interpreters_order(self, statement):
        program = Program(
            (f"function r = order(M)\n{statement}\n" + self.CALLEES,),
            "order", lambda: [from_python([[1.0, 2.0, 3.0]])],
        )
        for backend in ("fused", "spec", "falcon"):
            assert not reference(program).diff(observe(program, backend))


class TestNothingEligible:
    """With no eligible callee ``run`` returns its input, uncopied: the
    rewrite, which would map every node to itself, never runs."""

    BIG = "\n".join(f"a{i} = {i};" for i in range(MAX_INLINE_LINES + 50))

    @pytest.mark.parametrize("sources", [
        ("function y = main(x)\ny = x * 2;\n",),
        ("function y = main(x)\ny = sum(x) + mystery(x);\n",),
        ("function y = main(x)\nhelper = 3;\ny = helper(1) + x;\n",
         "function z = helper(a)\nz = a * 100;\n"),
        ("function y = main(x)\ny = big(x);\n",
         f"function z = big(a)\n{BIG}\nz = a;\n"),
        ("function y = main(x)\ny = helper(x);\n",
         "function z = helper(a)\nglobal g\nz = a + g;\n"),
        sources_of("dirich"),
    ], ids=["no-call", "unknown-callees", "shadowed", "too-long", "blocker",
            "dirich"])
    def test_skip_returns_the_parse_itself(self, sources, monkeypatch):
        table = table_of(*sources)
        name = next(iter(table))

        def entered(*args):
            raise AssertionError("the rewrite ran")

        monkeypatch.setattr(Inliner, "_inline_body", entered)
        inliner = Inliner(table.get)
        result = inliner.run(table[name])
        assert result is table[name]
        assert dump(result) == dump(table_of(*sources)[name])
        assert inliner.inlined_calls == 0
        assert inliner.inlined_names == set()

    @pytest.mark.parametrize("body", [
        "while helper(x) > 0\n  x = x - 1;\nend\ny = x;",
        "if x > 5\n  y = 1;\nelseif helper(x) > 0\n  y = 2;\nelse\n"
        "  y = 3;\nend",
        "y = x(end, helper(1));",
        "y = x;\ny(2) = helper(x);",
    ], ids=["while-condition", "elseif-condition", "after-end", "indexed-store"])
    def test_calls_the_rewrite_never_inlines_are_never_looked_up(
            self, body, monkeypatch):
        table = table_of(f"function y = main(x)\n{body}\n",
                         "function z = helper(a)\nz = a + 1;\n")
        asked = []

        def lookup(name):
            asked.append(name)
            return table.get(name)

        def entered(*args):
            raise AssertionError("the rewrite ran")

        monkeypatch.setattr(Inliner, "_inline_body", entered)
        result = Inliner(lookup).run(table["main"])
        assert "helper" not in asked
        assert dump(result) == dump(table["main"])

    def test_one_eligible_call_still_inlines(self):
        table = table_of(
            "function y = main(x)\ny = 1 + helper(x) * 3;\n",
            "function z = helper(a)\nz = a + 1;\n",
        )
        inliner = Inliner(table.get)
        result = inliner.run(table["main"])
        assert inliner.inlined_calls == 1
        assert inliner.inlined_names == {"helper"}
        # The rewrite's tree for this call, dumped field by field.
        assert hashlib.sha256(dump(result).encode()).hexdigest() == (
            "664cf94a2c6e80a90345ac1e98b32b9b1c5415adeec0abd862d267b34f88e49b"
        )
