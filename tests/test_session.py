"""End-to-end MajicSession tests (the public API)."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro import MajicSession, MIPS, SPARC, platform_by_name
from repro.resilience import ResiliencePolicy

POLY = "function p = poly(x)\np = x.^5 + 3*x + 2;\n"


class TestSessionBasics:
    def test_quickstart_flow(self, session):
        session.add_source(POLY)
        assert session.call("poly", 4) == 1038.0

    def test_eval_and_get(self, session):
        session.eval("x = 3; y = x^2 + 1;")
        assert session.get("y") == 10.0

    def test_eval_echo_capture(self, session):
        session.eval("z = 6 * 7")
        assert "z =" in session.output() and "42" in session.output()

    def test_front_end_defers_calls_to_repository(self, session):
        """The MaJIC front end builds invocations for user functions
        instead of interpreting them (Section 2)."""
        session.add_source(POLY)
        session.eval("r = poly(2);")
        assert session.get("r") == 40.0
        assert session.stats.jit_compiles == 1

    def test_speculation_hides_compilation(self, session):
        session.add_source(POLY)
        session.speculate_all()
        assert session.stats.speculative_compiles == 1
        session.call("poly", 7.0)
        assert session.stats.jit_compiles == 0

    def test_matrix_arguments(self, session):
        session.add_source("function y = total(A)\ny = sum(sum(A));\n")
        assert session.call("total", np.ones((3, 3))) == 9.0

    def test_nargout(self, session):
        session.add_source(
            "function [r, c] = dims(A)\n[r, c] = size(A);\n"
        )
        assert session.call("dims", np.zeros((2, 5)), nargout=2) == (2.0, 5.0)

    def test_platform_selection(self):
        assert MajicSession(platform="mips").platform is MIPS
        assert MajicSession(platform="sparc").platform is SPARC
        with pytest.raises(ValueError):
            platform_by_name("vax")

    def test_path_snooping(self, tmp_path):
        (tmp_path / "sq.m").write_text("function y = sq(x)\ny = x * x;\n")
        session = MajicSession()
        session.add_path(tmp_path)
        assert session.call("sq", 9.0) == 81.0


class TestCorrectnessAcrossTiers:
    """The same call must produce identical results however it is served."""

    def test_jit_vs_speculative(self):
        jit = MajicSession()
        jit.add_source(POLY)
        spec = MajicSession()
        spec.add_source(POLY)
        spec.speculate_all()
        for x in (0.0, 1.5, -2.0, 10.0):
            assert jit.call("poly", x) == spec.call("poly", x)

    def test_wrong_speculation_falls_back_to_jit(self):
        """A matrix argument where speculation guessed scalar: the JIT
        kicks in, the result is still correct (the paper's safety
        property: a wrong guess never affects correctness)."""
        session = MajicSession()
        session.add_source("function r = scale(c)\nr = c * 2 + 1;\n")
        session.speculate_all()
        result = session.call("scale", np.array([[1.0, 2.0]]))
        assert np.array_equal(result, [[3.0, 5.0]])
        assert session.stats.jit_compiles == 1  # speculation missed

    def test_ablation_does_not_change_results(self):
        from repro import AblationFlags

        source = (
            "function U = relax(n)\nU = zeros(n, n);\n"
            "for i = 1:n, U(i, 1) = 1; end\n"
            "for k = 1:3,\n  for i = 2:n-1,\n    for j = 2:n-1,\n"
            "      U(i,j) = (U(i-1,j) + U(i,j-1)) / 2;\n"
            "    end\n  end\nend\n"
        )
        reference = MajicSession()
        reference.add_source(source)
        expected = reference.call("relax", 8)
        for flags in (
            AblationFlags(no_ranges=True),
            AblationFlags(no_min_shapes=True),
            AblationFlags(no_regalloc=True),
        ):
            ablated = MajicSession(ablation=flags)
            ablated.add_source(source)
            assert np.array_equal(ablated.call("relax", 8), expected), flags

    def test_mips_platform_still_correct(self):
        session = MajicSession(platform="mips")
        session.add_source(POLY)
        assert session.call("poly", 4) == 1038.0


class TestResponsiveness:
    """The paper's headline: near-zero response time via the repository."""

    def test_second_call_skips_compilation(self, session):
        session.add_source(POLY)
        session.call("poly", 4.0)
        compiles = session.stats.jit_compiles
        session.call("poly", 4.0)
        assert session.stats.jit_compiles == compiles

    def test_different_types_recompile(self, session):
        session.add_source(POLY)
        session.call("poly", 4.0)
        session.call("poly", np.array([[1.0, 2.0]]))
        assert session.stats.jit_compiles == 2

    def test_speculative_is_replaced_by_specializing_jit(self, session):
        session.add_source(POLY)
        session.speculate_all()
        session.call("poly", 3.0)
        versions = session.repository.versions_of("poly")
        assert {v.mode for v in versions} == {"spec"}


class TestSurface:
    """The configuration surface, pinned.  Each setting has one spelling
    (DESIGN.md, *Session knobs*); a new entry in either list needs a
    caller outside ``tests/`` — a knob only a test sets is a test seam,
    not an option."""

    SESSION_KWARGS = [
        "platform", "ablation", "inline_enabled", "seed", "max_strikes",
        "fault_plan", "cache_dir", "background", "workers", "trace",
        "metrics", "fusion", "native", "sync", "native_hot_threshold",
        "native_min_elems", "adaptive", "tiering", "resilience",
        "run_deadline", "parallel",
    ]
    POLICY_FIELDS = [
        "compile_deadline", "run_deadline", "sandbox", "sandbox_timeout",
        "worker_max_restarts", "worker_max_task_retries",
        "parallel_recv_timeout", "parallel_max_restarts",
    ]

    def test_session_kwargs(self):
        assert list(inspect.signature(MajicSession).parameters) == (
            self.SESSION_KWARGS
        )

    def test_resilience_policy_fields(self):
        assert [f.name for f in dataclasses.fields(ResiliencePolicy)] == (
            self.POLICY_FIELDS
        )
