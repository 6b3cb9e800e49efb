"""Experiment harness tests: each table/figure generator runs and shows
the paper's qualitative shape at tiny scales."""

import pytest

from repro.experiments import figure4, figure5, figure6, figure7, table1, table2
from repro.experiments.harness import run_benchmark, speedup_table
from repro.experiments.report import format_table, log_bar, render_speedup_chart
from repro.benchsuite.registry import BENCHMARKS

SUBSET = ["dirich", "qmr", "fractal", "fibonacci"]
OVERRIDES = {name: spec.smoke_scale for name, spec in BENCHMARKS.items()}


class TestHarness:
    def test_run_benchmark_fields(self):
        result = run_benchmark(
            "dirich", "jit", scale=OVERRIDES["dirich"], repeats=1
        )
        assert result.runtime_s > 0
        assert result.engine == "jit" and result.platform == "sparc"
        assert result.breakdown is not None
        assert result.breakdown.total > 0

    def test_spec_excludes_compile_time(self):
        result = run_benchmark(
            "dirich", "spec", scale=OVERRIDES["dirich"], repeats=1
        )
        assert result.compile_s > 0  # recorded, but not in runtime_s

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark("dirich", "llvm")

    def test_speedup_table_rows(self):
        table = speedup_table(
            ["fibonacci"], engines=("mcc", "jit"),
            scale_overrides=OVERRIDES, repeats=1,
        )
        row = table["fibonacci"]
        assert set(row) == {"interp_s", "mcc", "jit"}
        assert row["jit"] > 0


class TestTable1:
    def test_generates_all_rows(self):
        rows = table1.generate(names=SUBSET, repeats=1)
        assert [r.name for r in rows] == SUBSET
        for row in rows:
            assert row.our_interp_runtime_s > 0
            assert row.paper_runtime_s > 0
        text = table1.render(rows)
        assert "dirich" in text and "paper t_i(s)" in text


class TestFigure4Shape:
    """The qualitative acceptance criteria from DESIGN.md."""

    @pytest.fixture(scope="class")
    def table(self):
        return figure4.generate(names=SUBSET, repeats=1,
                                scale_overrides=OVERRIDES)

    def test_falcon_omitted_for_unsuitable(self, table):
        assert "falcon" not in table["fibonacci"]
        assert "falcon" in table["dirich"]

    def test_compiled_tiers_beat_interpreter_on_scalar_code(self, table):
        assert table["dirich"]["jit"] > 3
        assert table["dirich"]["spec"] > 3

    def test_mcc_is_never_the_best_bar(self, table):
        for name, row in table.items():
            engines = [v for k, v in row.items() if k not in ("interp_s",)]
            assert row["mcc"] <= max(engines)
            assert row["mcc"] == min(
                v for k, v in row.items() if k != "interp_s"
            ) or row["mcc"] < max(engines)

    def test_builtin_heavy_gains_are_small(self, table):
        # qmr lives in library calls: nothing should exceed ~10x even here.
        assert table["qmr"]["jit"] < 10

    def test_majic_beats_falcon_on_small_vector_code(self):
        # fractal: MaJIC's unrolling is exactly what FALCON lacks.  Its
        # falcon bar is omitted per the paper, so compare via the raw
        # harness — and compare generated-code quality, i.e. the JIT's
        # execution share: its wall time includes a compile whose length
        # depends on machine load.
        falcon_run = run_benchmark(
            "fractal", "falcon", scale=OVERRIDES["fractal"], repeats=3
        )
        jit_run = run_benchmark(
            "fractal", "jit", scale=OVERRIDES["fractal"], repeats=3
        )
        assert jit_run.breakdown.execution < falcon_run.runtime_s

    def test_render(self, table):
        text = figure4.render(table)
        assert "Figure 4" in text and "#" in text


class TestFigure5Shape:
    def test_adapt_excluded_on_mips(self):
        table = figure5.generate(
            names=["adapt", "fibonacci"], repeats=1, scale_overrides=OVERRIDES
        )
        assert "adapt" not in table and "fibonacci" in table

    def test_falcon_catches_jit_on_mips_scalar_code(self):
        """The strong native backend helps FALCON; the incomplete JIT
        falls behind (the paper's Figure 4 → Figure 5 flip)."""
        table = figure5.generate(
            names=["dirich"], repeats=1, scale_overrides=OVERRIDES
        )
        assert table["dirich"]["falcon"] > table["dirich"]["jit"]


class TestFigure6Shape:
    def test_fractions_sum_to_one(self):
        rows = figure6.generate(names=SUBSET, repeats=1,
                                scale_overrides=OVERRIDES)
        for name, fractions in rows.items():
            assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-6)

    def test_compile_time_is_nonzero(self):
        rows = figure6.generate(names=["dirich"], repeats=1,
                                scale_overrides=OVERRIDES)
        fractions = rows["dirich"]
        assert fractions["typeinf"] > 0 and fractions["codegen"] > 0

    def test_render(self):
        rows = figure6.generate(names=["dirich"], repeats=1,
                                scale_overrides=OVERRIDES)
        text = figure6.render(rows)
        assert "disamb" in text and "|" in text


class TestFigure7Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        return figure7.generate(
            names=["dirich", "fractal"], repeats=2,
            scale_overrides={"dirich": (16, 0.5, 8), "fractal": (1500,)},
        )

    def test_no_ranges_hurts_subscript_heavy_code(self, rows):
        assert rows["dirich"]["no ranges"] < 0.8

    def test_no_min_shapes_hurts_small_vector_code(self, rows):
        assert rows["fractal"]["no min. shapes"] < 0.8

    def test_render(self, rows):
        text = figure7.render(rows)
        assert "no regalloc" in text and "%" in text


class TestTable2Shape:
    def test_spec_close_to_jit_on_scalar_code(self):
        rows = table2.generate(
            names=["dirich"], repeats=2,
            scale_overrides={"dirich": (16, 0.5, 8)},
        )
        (row,) = rows
        # Speculation succeeds on Fortran-like code (paper: 817 vs 817).
        assert row.spec_speedup > 0.5 * row.jit_speedup

    def test_spec_loses_on_mei(self):
        rows = table2.generate(
            names=["mei"], repeats=1, scale_overrides=OVERRIDES
        )
        (row,) = rows
        # The documented eig misprediction (paper: 4.24 vs 5.67).
        assert row.spec_speedup < row.jit_speedup

    def test_render(self):
        rows = table2.generate(
            names=["fibonacci"], repeats=1, scale_overrides=OVERRIDES
        )
        text = table2.render(rows)
        assert "Table 2" in text and "fibonacci" in text


class TestResponsiveness:
    """The responsiveness acceptance criteria: background speculation
    measurably drops foreground-visible compile time, and a warm-cache
    session compiles zero functions.  Thresholds are generous — the point
    is orders of magnitude, not microseconds."""

    @pytest.fixture(scope="class")
    def phases(self, tmp_path_factory):
        from repro.experiments import responsiveness

        cache = tmp_path_factory.mktemp("resp-cache")
        return responsiveness.generate(
            names=["fibonacci", "dirich"], cache_dir=cache
        )

    def test_cold_session_pays_real_compile_time(self, phases):
        assert phases["cold"].compiles == 2
        assert phases["cold"].foreground_s > 0

    def test_background_hides_compile_time_from_foreground(self, phases):
        # An enqueue is *vastly* cheaper than compiling, but only demand
        # a 2x improvement so slow CI machines never flake.
        assert phases["background"].compiles == 2
        assert (
            phases["background"].foreground_s
            < 0.5 * phases["cold"].foreground_s
        )

    def test_warm_session_compiles_nothing(self, phases):
        assert phases["warm"].compiles == 0
        assert phases["warm"].cache_hits == 2

    def test_render(self, phases):
        from repro.experiments import responsiveness

        text = responsiveness.render(phases)
        assert "cold (background)" in text and "warm (disk cache)" in text

    def test_unknown_benchmark_rejected(self):
        from repro.experiments import responsiveness

        with pytest.raises(ValueError):
            responsiveness.generate(names=["nope"])


class TestReportHelpers:
    def test_format_table(self):
        text = format_table(["a", "b"], [["x", 1.0], ["y", 123.456]])
        assert "a" in text and "123" in text

    def test_log_bar_monotone(self):
        assert len(log_bar(100.0)) > len(log_bar(10.0)) > len(log_bar(1.0))

    def test_log_bar_clamps(self):
        assert log_bar(1e9)  # does not explode
        assert log_bar(0.0) == ""

    def test_render_speedup_chart(self):
        text = render_speedup_chart({"bench": {"jit": 10.0}}, engines=("jit",))
        assert "bench" in text and "10.00x" in text


class TestFinedifHand:
    """The Section 5 hand-optimization estimate."""

    def test_hand_optimized_matches_plain_result(self):
        import numpy as np
        from repro.core.majic import MajicSession
        from repro.benchsuite.registry import source_of
        from repro.experiments.finedif_hand import HAND_OPTIMIZED

        plain = MajicSession()
        plain.add_source(source_of("finedif"))
        hand = MajicSession()
        hand.add_source(HAND_OPTIMIZED)
        a = plain.call("finedif", 20, 20, 1.0)
        b = hand.call("finedif_hand", 20, 20, 1.0)
        assert np.allclose(a, b)

    def test_experiment_runs_and_reports(self):
        # On the Python host the JIT-to-AOT gap comes from three-address
        # emission rather than redundant loads, so source-level unrolling
        # +CSE recovers far less than the paper's ~2x; EXPERIMENTS.md
        # documents this divergence.  Here we check the replay runs and
        # reports sane numbers.
        from repro.experiments import finedif_hand

        result = finedif_hand.generate(scale=(48, 48, 1.0), repeats=2)
        assert result.hand_gain > 0.5
        assert result.gap_to_best > 0
        text = finedif_hand.render(result)
        assert "hand-optimized" in text
