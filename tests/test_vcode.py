"""vcode substrate tests: liveness, linear scan, emission."""

from hypothesis import given
from hypothesis import strategies as st

from repro.vcode.emit import emit_python
from repro.vcode.icode import (
    Block,
    ForRegion,
    FunctionIR,
    IfRegion,
    Instr,
    Seq,
    VRegAllocator,
    WhileRegion,
)
from repro.vcode.liveness import Interval, compute_intervals
from repro.vcode.regalloc import Assignment, LinearScanAllocator


def build_straightline(ops):
    """FunctionIR computing a chain: r_{i+1} = r_i + 1."""
    block = Block()
    regs = VRegAllocator()
    first = regs.fresh()
    block.emit(Instr("CONST", first, (), 1.0))
    current = first
    for _ in range(ops):
        nxt = regs.fresh()
        block.emit(Instr("BIN", nxt, (current, current), "+"))
        current = nxt
    return FunctionIR(
        name="chain",
        params=[],
        body=Seq(parts=[block]),
        outputs=(current,),
    )


class TestLiveness:
    def test_chain_intervals_are_short(self):
        ir = build_straightline(5)
        intervals = compute_intervals(ir)
        by_reg = {iv.reg: iv for iv in intervals}
        # Each intermediate dies right after its single use.
        assert by_reg[1].end - by_reg[1].start <= 2

    def test_params_start_at_zero(self):
        block = Block()
        block.emit(Instr("BIN", 1, (0, 0), "+"))
        ir = FunctionIR(
            name="f", params=[0],
            body=Seq(parts=[block]), outputs=(1,),
        )
        intervals = {iv.reg: iv for iv in compute_intervals(ir)}
        assert intervals[0].start == 0

    def test_outputs_live_from_entry(self):
        """Outputs are None-initialized in the prologue; their intervals
        must start at 0 or the initializer clobbers a neighbour
        (regression: mei's H0 was overwritten by G's init)."""
        block = Block()
        block.emit(Instr("MOV", 1, (0,)))
        ir = FunctionIR(
            name="f", params=[0],
            body=Seq(parts=[block]), outputs=(1,),
        )
        intervals = {iv.reg: iv for iv in compute_intervals(ir)}
        assert intervals[1].start == 0

    def test_loop_extends_variable_interval(self):
        # var 0 is written before the loop and read inside it.
        pre = Block()
        pre.emit(Instr("CONST", 0, (), 1.0))
        header = Block()
        header.emit(Instr("BIN", 1, (0, 0), "<"))
        body_block = Block()
        body_block.emit(Instr("BIN", 0, (0, 0), "+"))
        body_block.emit(Instr("CONST", 2, (), 0.0))  # temp inside loop
        loop = WhileRegion(header=header, cond=1, body=Seq(parts=[body_block]))
        ir = FunctionIR(
            name="f", params=[],
            body=Seq(parts=[pre, loop]), outputs=(0,),
            variable_regs=frozenset({0}),
        )
        intervals = {iv.reg: iv for iv in compute_intervals(ir)}
        # Variable 0 must live through the whole loop (the back edge).
        assert intervals[0].end >= intervals[2].end


class TestLinearScan:
    def test_no_spills_when_registers_suffice(self):
        intervals = [Interval(reg=i, start=i, end=i + 1) for i in range(6)]
        result = LinearScanAllocator(num_registers=4).allocate(intervals)
        assert result.spill_count == 0

    def test_spills_under_pressure(self):
        # Ten simultaneously-live intervals, four registers.
        intervals = [Interval(reg=i, start=0, end=100) for i in range(10)]
        result = LinearScanAllocator(num_registers=4).allocate(intervals)
        assert result.spill_count == 6
        assert len(result.physical) == 4

    def test_no_two_live_intervals_share_a_register(self):
        intervals = [
            Interval(reg=0, start=0, end=10),
            Interval(reg=1, start=2, end=8),
            Interval(reg=2, start=3, end=12),
            Interval(reg=3, start=9, end=15),
        ]
        result = LinearScanAllocator(num_registers=3).allocate(intervals)
        for a in intervals:
            for b in intervals:
                if a.reg >= b.reg:
                    continue
                pa, pb = (
                    result.physical.get(a.reg),
                    result.physical.get(b.reg),
                )
                overlap = a.start <= b.end and b.start <= a.end
                if pa is not None and pb is not None and overlap:
                    assert pa != pb, (a, b)

    def test_expired_registers_are_reused(self):
        intervals = [
            Interval(reg=0, start=0, end=2),
            Interval(reg=1, start=3, end=5),
        ]
        result = LinearScanAllocator(num_registers=1).allocate(intervals)
        assert result.spill_count == 0

    def test_spill_everything_flag(self):
        intervals = [Interval(reg=i, start=i, end=i + 1) for i in range(4)]
        result = LinearScanAllocator(spill_everything=True).allocate(intervals)
        assert result.spill_count == 4 and not result.physical

    def test_spill_furthest_heuristic(self):
        # The long-lived interval is spilled in favour of short ones.
        intervals = sorted(
            [Interval(reg=0, start=0, end=100)]
            + [Interval(reg=i, start=i, end=i + 2) for i in range(1, 5)],
            key=lambda iv: iv.start,
        )
        result = LinearScanAllocator(num_registers=1).allocate(intervals)
        assert 0 in result.spills

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 50), st.integers(0, 50)
            ).map(lambda p: (min(p), max(p))),
            min_size=1,
            max_size=30,
        ),
        st.integers(1, 8),
    )
    def test_allocation_is_always_conflict_free(self, spans, nregs):
        intervals = sorted(
            (Interval(reg=i, start=a, end=b) for i, (a, b) in enumerate(spans)),
            key=lambda iv: (iv.start, iv.end),
        )
        result = LinearScanAllocator(num_registers=nregs).allocate(intervals)
        by_reg = {iv.reg: iv for iv in intervals}
        # Every vreg has exactly one home.
        for iv in intervals:
            assert (iv.reg in result.physical) != (iv.reg in result.spills)
        # No overlapping intervals share a physical register.
        assigned = list(result.physical.items())
        for i, (ra, pa) in enumerate(assigned):
            for rb, pb in assigned[i + 1:]:
                if pa != pb:
                    continue
                a, b = by_reg[ra], by_reg[rb]
                assert not (a.start < b.end and b.start < a.end), (a, b)


class TestEmission:
    def test_straightline_executes(self):
        ir = build_straightline(4)
        intervals = compute_intervals(ir)
        emitted = emit_python(ir, LinearScanAllocator().allocate(intervals))
        (result,) = emitted.callable(None)
        assert result == 16.0  # 1 doubled four times

    def test_spilled_code_computes_the_same(self):
        ir = build_straightline(4)
        intervals = compute_intervals(ir)
        spilled = LinearScanAllocator(spill_everything=True).allocate(intervals)
        emitted = emit_python(ir, spilled)
        assert "sp[" in emitted.source
        (result,) = emitted.callable(None)
        assert result == 16.0

    def test_if_region(self):
        regs = VRegAllocator()
        p = regs.fresh()
        out = regs.fresh()
        header = Block()
        then_b = Block()
        one = regs.fresh()
        then_b.emit(Instr("CONST", one, (), 1.0))
        then_b.emit(Instr("MOV", out, (one,)))
        else_b = Block()
        two = regs.fresh()
        else_b.emit(Instr("CONST", two, (), 2.0))
        else_b.emit(Instr("MOV", out, (two,)))
        region = IfRegion(
            header=header, cond=p,
            then=Seq(parts=[then_b]), orelse=Seq(parts=[else_b]),
        )
        ir = FunctionIR(
            name="pick", params=[p],
            body=Seq(parts=[region]), outputs=(out,),
        )
        emitted = emit_python(
            ir, LinearScanAllocator().allocate(compute_intervals(ir))
        )
        assert emitted.callable(1.0, None) == (1.0,)
        assert emitted.callable(0.0, None) == (2.0,)

    def test_for_region_int_counter(self):
        regs = VRegAllocator()
        total = regs.fresh()
        var = regs.fresh()
        start, stop = regs.fresh(), regs.fresh()
        init = Block()
        init.emit(Instr("CONST", total, (), 0))
        init.emit(Instr("CONST", start, (), 1))
        init.emit(Instr("CONST", stop, (), 4))
        body = Block()
        body.emit(Instr("BIN", total, (total, var), "+"))
        loop = ForRegion(
            var=var, start=start, stop=stop, step=None,
            body=Seq(parts=[body]),
        )
        ir = FunctionIR(
            name="sum4", params=[],
            body=Seq(parts=[init, loop]), outputs=(total,),
            variable_regs=frozenset({total, var}),
            reg_kinds={var: "i", start: "i", stop: "i", total: "i"},
        )
        emitted = emit_python(
            ir, LinearScanAllocator().allocate(compute_intervals(ir))
        )
        assert emitted.callable(None) == (10,)


# ----------------------------------------------------------------------
# Folding: a single-use temporary is written as an expression at its use
# ----------------------------------------------------------------------
class _Recorder:
    """A runtime whose helpers record the order they are called in."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def helper(*args):
            self.calls.append(name)
            return 1.0
        return helper


def _fold(instrs, params=(0,), outputs=(), variables=(), **alloc):
    ir = FunctionIR(
        name="f", params=list(params),
        body=Seq(parts=[Block(list(instrs))]), outputs=tuple(outputs),
        variable_regs=frozenset(variables),
    )
    assignment = LinearScanAllocator(**alloc).allocate(compute_intervals(ir))
    return assignment, emit_python(ir, assignment)


def _statements(emitted):
    """Body statements other than the prologue's and the return."""
    return [
        line.strip() for line in emitted.source.splitlines()[1:]
        if not line.strip().startswith(("_h_", "return", "sp = "))
        and not line.strip().endswith(("= p_0", "= None"))
    ]


class TestFolding:
    def test_single_use_chain_is_one_statement(self):
        assignment, emitted = _fold([
            Instr("BIN", 1, (0, 0), "+"),
            Instr("BIN", 2, (1, 0), "*"),
            Instr("UN", 3, (2,), "-"),
            Instr("MOV", 4, (3,)),
        ], outputs=(4,))
        assert assignment.folded == {1, 2, 3}
        assert _statements(emitted) == ["pr1 = (-((pr0 + pr0) * pr0))"]
        assert emitted.callable(3.0, None) == (-18.0,)
        assert emitted.instruction_count == 4

    def test_const_is_a_literal_at_every_read(self):
        assignment, emitted = _fold([
            Instr("CONST", 1, (), -2.0),
            Instr("BIN", 2, (0, 1), "**"),
            Instr("BIN", 3, (2, 1), "*"),
            Instr("MOV", 4, (3,)),
        ], outputs=(4,))
        assert 1 in assignment.folded
        # A negative literal keeps its sign inside ``**``.
        assert _statements(emitted) == ["pr1 = ((pr0 ** (-2.0)) * (-2.0))"]
        assert emitted.callable(2.0, None) == (-0.5,)

    def test_operands_fold_in_evaluation_order(self):
        assignment, emitted = _fold([
            Instr("CALLRT", 1, (0,), "first"),
            Instr("CALLRT", 2, (0,), "second"),
            Instr("BIN", 3, (1, 2), "-"),
            Instr("MOV", 4, (3,)),
        ], outputs=(4,))
        assert {1, 2, 3} <= assignment.folded
        rt = _Recorder()
        emitted.callable(0.0, rt)
        assert rt.calls == ["first", "second"]

    def test_pending_def_materialises_before_a_statement(self):
        # A call with no result is a statement of its own: the def
        # before it cannot move past it.
        assignment, emitted = _fold([
            Instr("CALLRT", 1, (0,), "first"),
            Instr("CALLRT", None, (0,), "second"),
            Instr("MOV", 2, (1,)),
        ], outputs=(2,))
        assert 1 not in assignment.folded
        rt = _Recorder()
        emitted.callable(0.0, rt)
        assert rt.calls == ["first", "second"]

    def test_pending_defs_materialise_out_of_operand_order(self):
        assignment, emitted = _fold([
            Instr("CALLRT", 1, (0,), "first"),
            Instr("CALLRT", 2, (0,), "second"),
            Instr("BIN", 3, (2, 1), "-"),
            Instr("MOV", 4, (3,)),
        ], outputs=(4,))
        assert not {1, 2} & assignment.folded
        rt = _Recorder()
        emitted.callable(0.0, rt)
        assert rt.calls == ["first", "second"]

    def test_lazy_right_operand_never_folds(self):
        for op in ("&", "|"):
            assignment, emitted = _fold([
                Instr("CALLRT", 1, (0,), "right"),
                Instr("CALLRT", 2, (0,), "left"),
                Instr("BIN", 3, (2, 1), op),
                Instr("MOV", 4, (3,)),
            ], outputs=(4,))
            assert 1 not in assignment.folded and 2 in assignment.folded
            rt = _Recorder()
            emitted.callable(0.0, rt)
            assert rt.calls == ["right", "left"]

    def test_store_array_and_index_never_fold(self):
        for op, args in (("STORE1", (1, 2, 3)), ("STORE2", (1, 2, 2, 3))):
            assignment, emitted = _fold([
                Instr("CALLRT", 1, (0,), "array"),
                Instr("CALLRT", 2, (0,), "index"),
                Instr("CALLRT", 3, (0,), "value"),
                Instr(op, None, args, "checked"),
            ])
            assert assignment.folded == {3}
            rt = _Recorder()
            emitted.callable(0.0, rt)
            assert rt.calls[:3] == ["array", "index", "value"]

    def test_a_value_read_twice_stays_a_register(self):
        assignment, _ = _fold([
            Instr("CALLRT", 1, (0,), "once"),
            Instr("BIN", 2, (1, 1), "+"),
            Instr("MOV", 3, (2,)),
        ], outputs=(3,))
        assert 1 not in assignment.folded and 2 in assignment.folded

    def test_variables_never_fold(self):
        assignment, _ = _fold([
            Instr("BIN", 1, (0, 0), "+"),
            Instr("MOV", 2, (1,)),
        ], outputs=(2,), variables=(1,))
        assert 1 not in assignment.folded

    def test_folded_register_has_no_location(self):
        ir = build_straightline(1)
        ir.body.parts[0].instrs.append(Instr("BIN", 2, (1, 0), "+"))
        ir.outputs = (2,)
        intervals = {iv.reg: iv for iv in compute_intervals(ir)}
        assignment = LinearScanAllocator().allocate(list(intervals.values()))
        assert intervals[0].foldable  # the CONST: a literal
        for reg in assignment.folded:
            assert reg not in assignment.physical
            assert reg not in assignment.spills

    def test_spill_everything_folds_nothing(self):
        assignment, emitted = _fold([
            Instr("CONST", 1, (), 2.0),
            Instr("BIN", 2, (0, 1), "+"),
            Instr("BIN", 3, (2, 0), "<"),
            Instr("MOV", 4, (3,)),
        ], outputs=(4,), spill_everything=True)
        assert not assignment.folded
        assert emitted.source == (
            "def f(p_0, rt):\n"
            "    sp = [None] * 5\n"
            "    sp[0] = p_0\n"
            "    sp[1] = None\n"
            "    sp[2] = 2.0\n"
            "    sp[3] = (sp[0] + sp[2])\n"
            "    sp[4] = (1.0 if sp[3] < sp[0] else 0.0)\n"
            "    sp[1] = sp[4]\n"
            "    return (sp[1],)\n"
        )

    def test_folded_comparison_is_the_bare_test(self):
        regs = VRegAllocator()
        p, out, cond = regs.fresh(), regs.fresh(), regs.fresh()
        header = Block([Instr("BIN", cond, (p, p), "==")])
        then_b = Block([Instr("MOV", out, (p,))])
        ir = FunctionIR(
            name="f", params=[p],
            body=Seq(parts=[IfRegion(header=header, cond=cond,
                                     then=Seq(parts=[then_b]),
                                     orelse=Seq(parts=[]))]),
            outputs=(out,),
        )
        emitted = emit_python(
            ir, LinearScanAllocator().allocate(compute_intervals(ir))
        )
        assert "    if pr0 == pr0:\n" in emitted.source
        assert emitted.callable(1.0, None) == (1.0,)

    def test_deep_tree_materialises_within_the_host_limit(self):
        block = Block()
        regs = VRegAllocator()
        x = regs.fresh()
        total = x
        for _ in range(300):
            nxt = regs.fresh()
            block.emit(Instr("BIN", nxt, (total, x), "+"))
            total = nxt
        out = regs.fresh()
        block.emit(Instr("MOV", out, (total,)))
        ir = FunctionIR(name="f", params=[x], body=Seq(parts=[block]),
                        outputs=(out,))
        emitted = emit_python(
            ir, LinearScanAllocator().allocate(compute_intervals(ir))
        )
        assert emitted.callable(1.0, None) == (301.0,)
        for line in emitted.source.splitlines():
            depth = deepest = 0
            for char in line:
                depth += (char == "(") - (char == ")")
                deepest = max(deepest, depth)
            assert deepest < 200
