"""The measurement matrix and its views: every cell timed once and refused
when it diverges; each table/figure a pure view; the paper's shape claims
— the same functions EXPERIMENTS.md prints — asserted on live smoke-scale
matrices; and EXPERIMENTS.md itself an output of the committed numbers."""

import collections
import json
from pathlib import Path

import numpy as np
import pytest

from repro import backends
from repro.baselines.mcc import MccCompilerEngine
from repro.benchsuite.registry import BENCHMARKS, source_of
from repro.experiments import figures, matrix
from repro.experiments.figures import CLAIMS, FIGURES, measure, show
from repro.experiments.matrix import Cell, DivergedRun, Matrix, run_benchmark
from repro.experiments.report import format_table, log_bar, render_speedup_chart
from repro.runtime.values import from_python

ROOT = Path(__file__).resolve().parent.parent
SUBSET = ["dirich", "qmr", "fractal", "fibonacci"]
SMOKE = {name: spec.smoke_scale for name, spec in BENCHMARKS.items()}


@pytest.fixture(scope="module")
def live():
    """Every figure over a few programs at smoke scale, best of 1."""
    return measure(SUBSET + ["mei", "adapt", "finedif"], repeats=1, scales=SMOKE)


@pytest.fixture(scope="module")
def steady():
    """Sizes at which code-quality ratios stand clear of timer noise."""
    return measure(
        ["dirich", "fractal"], figures=["figure4", "figure7", "table2"],
        repeats=2, scales={"dirich": (16, 0.5, 8), "fractal": (1500,)},
    )


def holds(name, m):
    ok, measured = CLAIMS[name](m)
    assert ok, f"{CLAIMS[name].paper}: measured {measured}"


class TestHarness:
    def test_run_benchmark_fields(self):
        result = run_benchmark("dirich", "jit", scale=SMOKE["dirich"], repeats=1)
        assert result.runtime_s > 0
        assert result.cell == Cell("dirich", "jit", "sparc", "full")
        assert result.breakdown.compile > 0
        assert result.breakdown.total == pytest.approx(result.runtime_s)

    def test_spec_excludes_compile_time(self):
        result = run_benchmark("dirich", "spec", scale=SMOKE["dirich"], repeats=1)
        assert result.compile_s > 0  # recorded, but not in runtime_s
        assert result.breakdown.compile == 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark("dirich", "llvm")


class TestMatrix:
    def test_a_diverged_run_is_not_a_measurement(self, monkeypatch):
        """A backend row returning a wrong value: the cell is refused,
        naming itself and the observation fields that differ."""
        class Wrong(MccCompilerEngine):
            def execute(self, name, args, nargout=1):
                super().execute(name, args, nargout)
                return [from_python(-1.0)]

        monkeypatch.setitem(
            backends.BACKENDS, "mcc",
            backends.Backend(engine=lambda platform, sink: Wrong(sink=sink)))
        with pytest.raises(DivergedRun, match=r"fibonacci/mcc/sparc/full.*outputs"):
            Matrix(1, {"fibonacci": SMOKE["fibonacci"]}).time(Cell("fibonacci", "mcc"))

    def test_each_distinct_cell_is_timed_once(self, monkeypatch):
        """14 configurations per program (adapt skips MIPS: 10), where the
        per-figure drivers timed 19 (the interpreter 4x, the SPARC JIT 3x)."""
        timed = collections.Counter()
        best_of = matrix.best_of

        def counting(program, backend, repeats, fresh=False, **overrides):
            ablation = overrides.get("ablation")
            timed[program.entry, id(backend), overrides["platform"].name,
                  ablation and ablation.label] += 1
            return best_of(program, backend, repeats, fresh, **overrides)

        monkeypatch.setattr(matrix, "best_of", counting)
        programs = ["adapt", "fibonacci"]
        m = measure(programs, repeats=1, scales=SMOKE)
        asked = [c for f in FIGURES.values() for b in programs for c in f.cells(b)]
        assert len(asked) == 14 + 19
        assert len(set(asked)) == len(m.cells) == len(timed) == 10 + 14
        assert set(timed.values()) == {1}
        assert m.phases is not None

    def test_the_file_is_numbers_and_round_trips(self, live):
        text = live.to_json()
        assert Matrix.from_json(text).to_json() == text
        data = json.loads(text)
        assert set(data["cells"][0]) == {
            "cell", "runtime_s", "compile_s", "breakdown", "spec_missed"}
        assert show("figure7", Matrix.from_json(text)) == show("figure7", live)


class TestTable1:
    def test_generates_all_rows(self, live):
        rows = figures.table1(live)
        assert [row[0] for row in rows][:2] == ["adapt", "dirich"]  # Table 1 order
        assert sorted(row[0] for row in rows) == sorted(live.names)
        for row in rows:
            paper_runtime, ours = row[5], row[-1]
            assert ours > 0 and paper_runtime > 0
        text = show("table1", live)
        assert "dirich" in text and "paper t_i(s)" in text


class TestFigure4Shape:
    """The qualitative acceptance criteria from DESIGN.md."""

    def test_rows(self, live):
        row = figures.figure4(live)["fibonacci"]
        assert set(row) == {"interp_s", "mcc", "jit", "spec"}
        assert row["jit"] > 0

    def test_falcon_omitted_for_unsuitable(self, live):
        holds("falcon_bars_omitted", live)
        table = figures.figure4(live)
        assert "falcon" not in table["fibonacci"] and "falcon" in table["dirich"]

    def test_compiled_tiers_beat_interpreter_on_scalar_code(self, live):
        holds("scalar_codes_gain_most", live)

    def test_mcc_is_never_the_best_bar(self, live):
        holds("mcc_never_best", live)

    def test_builtin_heavy_gains_are_small(self, live):
        # qmr lives in library calls: nothing should exceed ~10x even here.
        holds("builtin_codes_gain_little", live)

    def test_majic_beats_falcon_on_small_vector_code(self, steady):
        # fractal: MaJIC's unrolling is exactly what FALCON lacks.  Its
        # falcon bar is omitted per the paper, but the cell is measured.
        holds("majic_beats_falcon_on_small_vectors", steady)

    def test_render(self, live):
        text = show("figure4", live)
        assert "Figure 4" in text and "#" in text


class TestFigure5Shape:
    def test_adapt_excluded_on_mips(self, live):
        table = figures.figure5(live)
        assert "adapt" not in table and "fibonacci" in table
        assert not any(c.platform == "mips" and c.benchmark == "adapt"
                       for c in live.cells)

    def test_falcon_catches_jit_on_mips_scalar_code(self):
        """The strong native backend helps FALCON; the incomplete JIT
        falls behind (the paper's Figure 4 → Figure 5 flip)."""
        holds("falcon_overtakes_jit_on_mips",
              measure(["dirich"], figures=["figure5"], repeats=1, scales=SMOKE))


class TestFigure6Shape:
    def test_fractions_sum_to_one(self, live):
        for fractions in figures.figure6(live).values():
            assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-6)

    def test_compile_time_is_nonzero(self, live):
        fractions = figures.figure6(live)["dirich"]
        assert fractions["typeinf"] > 0 and fractions["codegen"] > 0

    def test_render(self, live):
        text = show("figure6", live)
        assert "disamb" in text and "|" in text


class TestFigure7Shape:
    def test_no_ranges_hurts_subscript_heavy_code(self, steady):
        holds("no_ranges_hurts_subscript_heavy_codes", steady)

    def test_no_min_shapes_hurts_small_vector_code(self, steady):
        holds("no_min_shapes_hurts_small_vector_codes", steady)

    def test_render(self, steady):
        text = show("figure7", steady)
        assert "no regalloc" in text and "%" in text


class TestTable2Shape:
    def test_spec_close_to_jit_on_scalar_code(self, steady):
        # Speculation succeeds on Fortran-like code (paper: 817 vs 817).
        holds("speculation_matches_jit_on_scalar_and_vector_codes", steady)

    def test_spec_loses_on_mei(self, live):
        # The documented eig misprediction (paper: 4.24 vs 5.67).
        row = figures.table2(live)["mei"]
        assert row["spec"] < row["jit"]

    def test_render(self, live):
        text = show("table2", live)
        assert "Table 2" in text and "fibonacci" in text


class TestResponsiveness:
    """Background speculation measurably drops foreground-visible compile
    time, and a warm-cache session compiles zero functions.  Thresholds
    are generous — the point is orders of magnitude, not microseconds."""

    @pytest.fixture(scope="class")
    def phases(self):
        return measure(["fibonacci", "dirich"], figures=["responsiveness"])

    def test_cold_session_pays_real_compile_time(self, phases):
        assert not phases.cells
        assert phases.phases["cold"].compiles == 2
        assert phases.phases["cold"].foreground_s > 0

    def test_background_hides_compile_time_from_foreground(self, phases):
        assert phases.phases["background"].compiles == 2
        holds("background_hides_compile_time", phases)

    def test_warm_session_compiles_nothing(self, phases):
        assert phases.phases["warm"].cache_hits == 2
        holds("warm_cache_compiles_nothing", phases)

    def test_render(self, phases):
        text = show("responsiveness", phases)
        assert "cold (background)" in text and "warm (disk cache)" in text

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            measure(["nope"], figures=["responsiveness"])


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
        from repro.core.majic import MajicSession

        plain = MajicSession()
        plain.add_source(source_of("finedif"))
        hand = MajicSession()
        hand.add_source(source_of("finedif_hand"))
        a = plain.call("finedif", 20, 20, 1.0)
        b = hand.call("finedif_hand", 20, 20, 1.0)
        assert np.allclose(a, b)

    def test_experiment_runs_and_reports(self, live):
        # On the Python host the JIT-to-AOT gap comes from three-address
        # emission rather than redundant loads, so source-level unrolling
        # +CSE recovers far less than the paper's ~2x; EXPERIMENTS.md
        # prints that verdict.  Here: the replay runs, through the one
        # timer, and reports sane numbers.
        assert Cell("finedif_hand", "jit") in live.cells
        # One sub-millisecond sample a side (``live``) puts the ratio
        # anywhere in 0.4-1.0; the parent's scale and best-of-3 do not.
        sized = measure(["finedif"], figures=["finedif_hand"], repeats=3,
                        scales={"finedif": (48, 48, 1.0)})
        rows = figures.finedif_hand(sized)
        assert rows["plain JIT"] / rows["hand-optimized JIT"] > 0.5
        assert rows["best ahead-of-time"] > 0
        assert "hand-optimized" in show("finedif_hand", live)


class TestDocument:
    """EXPERIMENTS.md is ``render(experiment_results.json)``."""

    @pytest.fixture(scope="class")
    def committed(self):
        return Matrix.from_json((ROOT / "experiment_results.json").read_text())

    def test_experiments_md_is_the_rendered_file(self, committed):
        assert figures.document(committed) == (ROOT / "EXPERIMENTS.md").read_text(), (
            "EXPERIMENTS.md was edited by hand or a renderer changed: "
            "python -m repro.experiments render experiment_results.json "
            "> EXPERIMENTS.md")

    def test_file_holds_numbers_only(self, committed):
        data = json.loads((ROOT / "experiment_results.json").read_text())
        assert not {"table1", "figure4", "figure5", "figure6", "figure7",
                    "table2"} & set(data)
        assert data["git_commit"] and data["repeats"] == committed.repeats
        # 16 programs x 14 configurations, less adapt's 4 MIPS cells, plus
        # Section 5's one extra program.
        assert len(committed.cells) == 16 * 14 - 4 + 1

    def test_every_claim_is_printed_with_its_verdict(self, committed):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for check in CLAIMS.values():
            ok, measured = check(committed)
            verdict = "holds" if ok else "**does not hold**"
            assert f"| {check.paper} | {measured} | {verdict} |" in text
