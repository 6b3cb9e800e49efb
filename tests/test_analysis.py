"""CFG, dataflow, disambiguation and U/D chain tests (Section 2.1)."""

import re
from pathlib import Path

import pytest

import repro
from repro.analysis.cfg import CondAtom, ForIterAtom, StmtAtom, build_cfg
from repro.analysis.disambiguate import Disambiguator
from repro.analysis.reaching import assignment_analysis
from repro.analysis.symtab import SymbolKind
from repro.analysis.usedef import build_use_def
from repro.benchsuite.registry import programs_dir
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.fuzz.grammar import generate_program


def script(source):
    return parse(source).script


def disambiguate(source, params=(), functions=()):
    program = parse(source)
    dis = Disambiguator(lambda n: n in functions)
    if program.is_script:
        return dis.run(program.script, params=list(params))
    return dis.run_function(program.primary)


class TestCFG:
    def test_straight_line_single_block(self):
        cfg = build_cfg(script("a = 1; b = 2;"))
        populated = [b for b in cfg.blocks if b.atoms]
        assert len(populated) == 1 and len(populated[0].atoms) == 2

    def test_if_creates_branches(self):
        cfg = build_cfg(script("if a, b = 1; else b = 2; end"))
        cond_blocks = [
            b for b in cfg.blocks
            if any(isinstance(x, CondAtom) for x in b.atoms)
        ]
        assert len(cond_blocks) == 1
        assert len(cond_blocks[0].successors) == 2

    def test_while_has_back_edge(self):
        cfg = build_cfg(script("while a, b = 1; end"))
        header = next(
            b for b in cfg.blocks
            if any(isinstance(x, CondAtom) for x in b.atoms)
        )
        # Body eventually links back to the header.
        assert any(header in b.successors for b in cfg.blocks if b is not header)

    def test_for_iter_atom(self):
        cfg = build_cfg(script("for i = 1:3, x = i; end"))
        assert any(
            isinstance(a, ForIterAtom)
            for b in cfg.blocks for a in b.atoms
        )

    def test_break_exits_loop(self):
        cfg = build_cfg(script("while 1, break; x = 1; end"))
        # The statement after break is unreachable from the entry.
        order = cfg.reverse_postorder()
        reachable = {b.index for b in order}
        unreachable = [
            b for b in cfg.blocks
            if b.index not in reachable and b.atoms
        ]
        assert unreachable  # the x = 1 block

    def test_return_links_to_exit(self):
        cfg = build_cfg(script("return"))
        assert cfg.exit in cfg.entry.successors or any(
            cfg.exit in b.successors for b in cfg.blocks
        )

    def test_reverse_postorder_starts_at_entry(self):
        cfg = build_cfg(script("a=1; if a, b=1; end\nc=2;"))
        assert cfg.reverse_postorder()[0] is cfg.entry


class TestAssignmentAnalysis:
    def test_must_assigned_after_straight_line(self):
        body = script("a = 1; b = a;")
        cfg = build_cfg(body)
        sets = assignment_analysis(cfg, params=[])
        atom = cfg.blocks[0].atoms[1] if cfg.blocks[0].atoms else None
        second = next(
            a for b in cfg.blocks for a in b.atoms
            if isinstance(a, StmtAtom) and isinstance(a.stmt, ast.Assign)
            and a.stmt.target.name == "b"
        )
        assert "a" in sets.must_before(second)

    def test_branch_only_assignment_is_may_not_must(self):
        body = script("if c, y = 1; end\nz = y;")
        cfg = build_cfg(body)
        sets = assignment_analysis(cfg, params=[])
        use = next(
            a for b in cfg.blocks for a in b.atoms
            if isinstance(a, StmtAtom) and isinstance(a.stmt, ast.Assign)
            and a.stmt.target.name == "z"
        )
        assert "y" not in sets.must_before(use)
        assert "y" in sets.may_before(use)

    def test_params_are_must_assigned(self):
        body = script("y = x;")
        cfg = build_cfg(body)
        sets = assignment_analysis(cfg, params=["x"])
        atom = next(a for b in cfg.blocks for a in b.atoms)
        assert "x" in sets.must_before(atom)

    def test_clear_kills_assignment(self):
        body = script("a = 1; clear a\nb = a;")
        cfg = build_cfg(body)
        sets = assignment_analysis(cfg, params=[])
        use = next(
            a for b in cfg.blocks for a in b.atoms
            if isinstance(a, StmtAtom) and isinstance(a.stmt, ast.Assign)
            and a.stmt.target.name == "b"
        )
        assert "a" not in sets.must_before(use)


class TestDisambiguation:
    def test_paper_figure2_left(self):
        """`z = i` inside a while loop: i is ambiguous (builtin on the
        first trip, variable afterwards)."""
        result = disambiguate(
            "clear\nwhile z < 10, z = i; i = z + 1; end"
        )
        assert SymbolKind.AMBIGUOUS in result.symbols.lookup("i").kinds

    def test_paper_figure2_right(self):
        result = disambiguate(
            "clear\nx = 0;\nfor p = 1:N,\n"
            "if p >= 2, x = y; end\ny = p;\nend"
        )
        info = result.symbols.lookup("y")
        assert SymbolKind.AMBIGUOUS in info.kinds

    def test_must_assigned_is_variable(self):
        result = disambiguate("a = 1; b = a + 1;")
        assert result.symbols.lookup("a").kinds == {SymbolKind.VARIABLE}

    def test_builtin_resolution(self):
        result = disambiguate("x = zeros(3);")
        assert SymbolKind.BUILTIN in result.symbols.lookup("zeros").kinds

    def test_variable_shadows_builtin(self):
        result = disambiguate("zeros = 5; x = zeros;")
        # After assignment, zeros is a variable everywhere it is read.
        kinds = result.symbols.lookup("zeros").kinds
        assert SymbolKind.VARIABLE in kinds
        assert SymbolKind.BUILTIN not in kinds

    def test_user_function_resolution(self):
        result = disambiguate("y = helper(3);", functions=("helper",))
        assert SymbolKind.USER_FUNCTION in result.symbols.lookup("helper").kinds

    def test_unknown_apply_is_late_bound_function(self):
        result = disambiguate("y = mystery(3);")
        assert SymbolKind.USER_FUNCTION in result.symbols.lookup("mystery").kinds

    def test_apply_kind_recorded_per_node(self):
        program = parse("function y = f(a)\ny = a(2) + zeros(1);\n")
        result = Disambiguator(lambda n: False).run_function(program.primary)
        applies = {
            node.name: result.kind_of(node)
            for stmt in ast.walk_stmts(program.primary.body)
            for e in ast.stmt_exprs(stmt)
            for node in ast.walk_expr(e)
            if isinstance(node, ast.Apply)
        }
        assert applies["a"] is SymbolKind.VARIABLE
        assert applies["zeros"] is SymbolKind.BUILTIN

    def test_indexed_store_defines_variable(self):
        result = disambiguate("A(3) = 1; x = A(1);")
        assert result.symbols.lookup("A").is_variable

    def test_params_are_variables(self):
        program = parse("function y = f(x)\ny = x;\n")
        result = Disambiguator(lambda n: False).run_function(program.primary)
        assert result.symbols.lookup("x").is_param

    def test_has_ambiguous_flag(self):
        assert disambiguate("clear\nz = maybe; maybe = 1;").has_ambiguous
        assert not disambiguate("a = 1; b = a;").has_ambiguous


class TestUseDef:
    def test_single_definition(self):
        program = parse("function y = f(x)\na = 1;\ny = a;\n")
        dis = Disambiguator(lambda n: False).run_function(program.primary)
        chains = build_use_def(dis.cfg, program.primary.params)
        use = next(
            node
            for stmt in ast.walk_stmts(program.primary.body)
            for e in ast.stmt_exprs(stmt)
            for node in ast.walk_expr(e)
            if isinstance(node, ast.Ident) and node.name == "a"
        )
        assert chains.single_definition(use) is not None

    def test_param_only_use(self):
        program = parse("function y = f(x)\ny = x + 1;\n")
        dis = Disambiguator(lambda n: False).run_function(program.primary)
        chains = build_use_def(dis.cfg, program.primary.params)
        use = next(
            node
            for stmt in ast.walk_stmts(program.primary.body)
            for e in ast.stmt_exprs(stmt)
            for node in ast.walk_expr(e)
            if isinstance(node, ast.Ident) and node.name == "x"
        )
        assert chains.is_param_only(use)

    def test_redefined_param_not_param_only(self):
        program = parse("function y = f(x)\nx = x + 1;\ny = x;\n")
        dis = Disambiguator(lambda n: False).run_function(program.primary)
        chains = build_use_def(dis.cfg, program.primary.params)
        uses = [
            node
            for stmt in ast.walk_stmts(program.primary.body)
            for e in ast.stmt_exprs(stmt)
            for node in ast.walk_expr(e)
            if isinstance(node, ast.Ident) and node.name == "x"
        ]
        # The use in `y = x` sees only the redefinition.
        assert not chains.is_param_only(uses[-1])

    def test_merged_definitions(self):
        program = parse(
            "function y = f(c)\nif c, a = 1; else a = 2; end\ny = a;\n"
        )
        dis = Disambiguator(lambda n: False).run_function(program.primary)
        chains = build_use_def(dis.cfg, program.primary.params)
        use = next(
            node
            for stmt in ast.walk_stmts(program.primary.body)
            for e in ast.stmt_exprs(stmt)
            for node in ast.walk_expr(e)
            if isinstance(node, ast.Ident) and node.name == "a"
        )
        assert len(chains.definitions_for(use)) == 2


# ----------------------------------------------------------------------
# What an atom evaluates, reads, defines and kills is stated once
# ----------------------------------------------------------------------
_BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "programs"


def _corpus():
    """Table-1 sources and helpers, the benchmark's programs, fuzz cases."""
    for path in sorted(programs_dir().glob("*.m")):
        yield pytest.param(path.read_text(), id=path.stem)
    for path in sorted(_BENCH_DIR.glob("*.m")):
        yield pytest.param(path.read_text(), id=f"perfbench-{path.stem}")
    for seed in range(112):
        yield pytest.param(generate_program(seed).source, id=f"fuzz-{seed}")


def _reference(atom):
    """``(uses, defs, kills)`` of one atom, walked from its statement."""
    stmt = atom.stmt
    if isinstance(atom, CondAtom):
        exprs = [atom.cond]
    elif isinstance(atom, ForIterAtom):
        exprs = [stmt.iterable]
    else:
        exprs = list(ast.stmt_exprs(stmt))
    uses = [
        node
        for expr in exprs
        for node in ast.walk_expr(expr)
        if isinstance(node, (ast.Ident, ast.Apply))
    ]
    defs, kills = [], []
    if isinstance(atom, ForIterAtom):
        defs = [stmt.var]
    elif isinstance(atom, CondAtom):
        pass
    elif isinstance(stmt, ast.Assign):
        defs = [stmt.target.name]
    elif isinstance(stmt, ast.MultiAssign):
        defs = [target.name for target in stmt.targets]
    elif isinstance(stmt, ast.Global):
        defs = list(stmt.names)
    elif isinstance(stmt, ast.Clear):
        kills = list(stmt.names) or None
    return uses, defs, kills


class TestAtomFields:
    @pytest.mark.parametrize("source", _corpus())
    def test_fields_match_a_reference_walk(self, source):
        program = parse(source)
        bodies = [fn.body for fn in program.functions] or [program.script]
        for atom in (a for body in bodies for a in build_cfg(body).atoms()):
            uses, defs, kills = _reference(atom)
            assert [id(node) for node in atom.uses] == [id(n) for n in uses]
            assert (atom.defs, atom.kills) == (defs, kills)

    def test_clear_and_global(self):
        atoms = list(build_cfg(script("global g h\nclear x\nclear")).atoms())
        assert [(a.defs, a.kills) for a in atoms] == [
            (["g", "h"], []), ([], ["x"]), ([], None),
        ]

    def test_assigned_and_stored(self):
        body = script(
            "a = 1; v(2) = a;\nfor i = 1:3, [p, q(i)] = size(v); end\n"
            "if a, w = 2; end"
        )
        assert ast.assigned(body) == {"a", "v", "i", "p", "q", "w"}
        assert ast.stored(body) == {"v", "q"}


#: The ``src/`` modules that walk statements or expressions themselves.
#: What an execution point evaluates, reads, defines and kills is its CFG
#: atom's (``exprs`` / ``uses`` / ``defs`` / ``kills``), and what a loop
#: body assigns is ``ast.assigned`` / ``ast.stored``: a module that starts
#: deriving names again has to be added here.
WALKERS = {
    "repro/analysis/cfg.py",
    "repro/codegen/inline.py",
    "repro/codegen/optimizations.py",
    "repro/codegen/select.py",
    "repro/codegen/srcgen.py",
    "repro/inference/speculation.py",
    "repro/kernels/fusion.py",
}


def test_only_allowlisted_modules_walk_the_tree():
    root = Path(repro.__file__).resolve().parent.parent
    walkers = {
        path.relative_to(root).as_posix()
        for path in (root / "repro").rglob("*.py")
        if re.search(r"\bast\.walk_(expr|stmts)\(", path.read_text())
    }
    assert walkers == WALKERS
