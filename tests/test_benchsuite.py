"""Benchmark suite integration tests: the registry, known answers, and
that every call the experiment harness *times* — on every engine
(interpreter, mcc, FALCON, JIT, speculative), at smoke problem sizes —
is observed to do exactly what the interpreter does."""

import pytest

from repro.backends import Program, reference

from repro.benchsuite.registry import (
    BENCHMARKS,
    actual_lines,
    benchmark,
    benchmark_names,
    source_of,
)
from repro.experiments.matrix import ENGINES, run_benchmark


class TestRegistry:
    def test_sixteen_benchmarks(self):
        assert len(benchmark_names()) == 16

    def test_paper_metadata_complete(self):
        for name in benchmark_names():
            spec = benchmark(name)
            assert spec.paper_lines > 0
            assert spec.paper_runtime_s > 0
            assert spec.category in {"scalar", "builtin", "array", "recursive"}

    def test_categories_match_paper_grouping(self):
        """Section 3.1's four partially overlapping groups."""
        by_cat = {}
        for name in benchmark_names():
            by_cat.setdefault(benchmark(name).category, set()).add(name)
        assert {"dirich", "finedif", "icn", "mandel", "crnich"} <= by_cat["scalar"]
        assert {"cgopt", "qmr", "sor", "mei"} == by_cat["builtin"]
        assert {"orbec", "orbrk", "fractal", "adapt"} == by_cat["array"]
        assert {"fibonacci", "ackermann"} == by_cat["recursive"]

    def test_sources_parse(self):
        from repro.frontend.parser import parse

        for name in benchmark_names():
            program = parse(source_of(name))
            assert program.primary.name == name

    def test_line_counts_in_paper_ballpark(self):
        """Our rewrites should be the same order of size as the paper's
        (50-250 line) originals — no stub one-liners."""
        for name in benchmark_names():
            assert actual_lines(name) >= 6, name

    def test_helpers_exist(self):
        for name in benchmark_names():
            for helper in benchmark(name).helpers:
                assert source_of(helper)

    def test_package_data_ships_every_data_file(self):
        """pyproject.toml is the one packaging spelling: every non-Python
        file under src/repro is matched by a package-data glob, and every
        glob matches a file."""
        import tomllib
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        globs = tomllib.loads((root / "pyproject.toml").read_text())[
            "tool"]["setuptools"]["package-data"]
        assert not (root / "setup.py").exists()
        shipped = set()
        for package, patterns in globs.items():
            base = root / "src" / package.replace(".", "/")
            for pattern in patterns:
                matched = set(base.glob(pattern))
                assert matched, f"{package}: {pattern} matches nothing"
                shipped |= matched
        data_files = {
            path for path in (root / "src" / "repro").rglob("*")
            if path.is_file() and path.suffix not in (".py", ".pyc")
        }
        assert data_files == shipped


def _timed_call_diverges(name, engine, **kwargs):
    """Fields on which the call ``run_benchmark`` timed — the *second*
    call of a warmed batch compiler, unlike the matrix's first calls —
    differs from the interpreter's reference."""
    result = run_benchmark(
        name, engine, scale=benchmark(name).smoke_scale, repeats=1, **kwargs
    )
    return reference(Program.benchmark(name)).diff(result.observation)


@pytest.mark.parametrize("name", benchmark_names())
def test_engines_agree(name):
    """The headline correctness property: what all five engines are timed
    doing is what the interpreter does, on every benchmark."""
    for engine in ENGINES:
        assert not _timed_call_diverges(name, engine), engine


@pytest.mark.parametrize("name", ["dirich", "orbec", "fibonacci"])
def test_engines_agree_on_mips(name):
    """The MIPS configuration changes code quality, never results."""
    from repro.core.platformcfg import MIPS

    for engine in ("jit", "spec", "falcon"):
        assert not _timed_call_diverges(name, engine, platform=MIPS), engine


class TestKnownValues:
    """Spot checks against independently computable answers."""

    def test_fibonacci(self, session):
        session.add_source(source_of("fibonacci"))
        assert session.call("fibonacci", 12) == 144.0

    def test_ackermann(self, session):
        session.add_source(source_of("ackermann"))
        assert session.call("ackermann", 2, 3) == 9.0
        assert session.call("ackermann", 3, 3) == 61.0

    def test_adapt_integrates_humps(self, session):
        import numpy as np
        from scipy.integrate import quad

        session.add_source(source_of("adapt"))
        ours = session.call("adapt", 20, 1e-10)
        reference, _ = quad(
            lambda x: 1 / ((x - 0.3) ** 2 + 0.01)
            + 1 / ((x - 0.9) ** 2 + 0.04) - 6,
            0.0, 1.0,
        )
        assert ours == pytest.approx(reference, rel=1e-6)

    def test_cgopt_solves_system(self, session):
        import numpy as np
        from repro.benchsuite.workloads import workload_for

        session.add_source(source_of("cgopt"))
        A, b, tol, maxit = workload_for("cgopt", (50, 1e-12, 200))
        x = session.call("cgopt", A, b, tol, maxit)
        assert np.allclose(A @ x, b, atol=1e-8)

    def test_qmr_solves_system(self, session):
        import numpy as np
        from repro.benchsuite.workloads import workload_for

        session.add_source(source_of("qmr"))
        A, b, tol, maxit = workload_for("qmr", (40, 1e-12, 200))
        x = session.call("qmr", A, b, tol, maxit)
        assert np.allclose(A @ x, b, atol=1e-7)

    def test_sor_solves_system(self, session):
        import numpy as np
        from repro.benchsuite.workloads import workload_for

        session.add_source(source_of("sor"))
        A, b, w, tol, maxit = workload_for("sor", (30, 1.5, 1e-10, 2000))
        x = session.call("sor", A, b, w, tol, maxit)
        assert np.allclose(A @ x, b, atol=1e-6)

    def test_icn_factorizes(self, session):
        import numpy as np
        from repro.benchsuite.workloads import workload_for

        session.add_source(source_of("icn"))
        A, n = workload_for("icn", (12,))
        R = session.call("icn", A, n)
        # For a dense SPD matrix, incomplete Cholesky == complete: the
        # lower factor reproduces A.
        L = np.tril(R)
        assert np.allclose(L @ L.T, A, rtol=1e-8)

    def test_galrkn_matches_analytic_solution(self, session):
        import numpy as np

        session.add_source(source_of("galrkn"))
        n = 120
        u = session.call("galrkn", n)
        h = 1.0 / (n + 1)
        xs = (np.arange(1, n + 1)) * h
        exact = np.sin(np.pi * xs) / np.pi**2
        assert np.allclose(u.ravel(), exact, atol=1e-4)

    def test_mandel_counts_bounded(self, session):
        import numpy as np

        session.add_source(source_of("mandel"))
        M = session.call("mandel", 8, 15)
        assert M.shape == (8, 8)
        assert np.all((M >= 0) & (M <= 15))

    def test_orbec_conserves_radius_roughly(self, session):
        import numpy as np

        session.add_source(source_of("orbec"))
        R = session.call("orbec", 500, 0.0005)
        radii = np.hypot(R[:, 0], R[:, 1])
        assert radii.min() > 0.5 and radii.max() < 1.5  # circular-ish orbit
