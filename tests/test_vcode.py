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
