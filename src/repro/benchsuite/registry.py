"""Table 1: benchmark inventory and metadata.

Per benchmark we record the paper's metadata (source, description,
problem size, lines of code, interpreted runtime on the reference SPARC)
and our own scaled default problem size, chosen so the full suite runs in
seconds on a laptop while exercising the same code paths.  Paper-size
runs use :attr:`Benchmark.paper_scale`; differential sweeps and tests use
:attr:`Benchmark.smoke_scale`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Paper category per benchmark (Section 3.1's four groups).
CATEGORY = {
    "dirich": "scalar",
    "finedif": "scalar",
    "icn": "scalar",
    "mandel": "scalar",
    "crnich": "scalar",
    "cgopt": "builtin",
    "qmr": "builtin",
    "sor": "builtin",
    "mei": "builtin",
    "orbec": "array",
    "orbrk": "array",
    "fractal": "array",
    "adapt": "array",
    "fibonacci": "recursive",
    "ackermann": "recursive",
    "galrkn": "scalar",
}


@dataclass(frozen=True)
class Benchmark:
    """One row of Table 1."""

    name: str
    source: str                 # provenance cited in Table 1
    description: str
    paper_problem_size: str
    paper_lines: int
    paper_runtime_s: float      # stock MATLAB 6 on the reference SPARC
    category: str
    # Arguments for the benchmark function at the three scales: the
    # laptop default, the paper's, and one small enough that a sweep of
    # every backend over every program takes seconds.
    default_scale: tuple
    paper_scale: tuple
    smoke_scale: tuple
    # Helper functions that must also be on the path.
    helpers: tuple[str, ...] = ()


BENCHMARKS: dict[str, Benchmark] = {}


def _add(benchmark: Benchmark) -> None:
    BENCHMARKS[benchmark.name] = benchmark


_add(Benchmark(
    name="adapt", source="Mathews [14]",
    description="adaptive quadrature",
    paper_problem_size="approx. 2500", paper_lines=81, paper_runtime_s=5.24,
    category=CATEGORY["adapt"],
    default_scale=(16, 1e-7), paper_scale=(24, 1e-10),
    smoke_scale=(8, 1e-4),
))
_add(Benchmark(
    name="cgopt", source="Templates [3]",
    description="conjugate gradient w. diagonal preconditioner",
    paper_problem_size="420 x 420", paper_lines=38, paper_runtime_s=0.43,
    category=CATEGORY["cgopt"],
    default_scale=(150, 1e-10, 400), paper_scale=(420, 1e-10, 900),
    smoke_scale=(40, 1e-8, 60),
))
_add(Benchmark(
    name="crnich", source="Mathews [14]",
    description="Crank-Nicholson heat equation solver",
    paper_problem_size="321 x 321", paper_lines=40, paper_runtime_s=16.33,
    category=CATEGORY["crnich"],
    default_scale=(45, 45, 1.0), paper_scale=(321, 321, 1.0),
    smoke_scale=(15, 15, 1.0),
))
_add(Benchmark(
    name="dirich", source="Mathews [14]",
    description="Dirichlet solution to Laplace's equation",
    paper_problem_size="134 x 134", paper_lines=34, paper_runtime_s=277.89,
    category=CATEGORY["dirich"],
    default_scale=(18, 0.5, 10), paper_scale=(134, 0.1, 1000),
    smoke_scale=(10, 0.5, 4),
))
_add(Benchmark(
    name="finedif", source="Mathews [14]",
    description="finite difference solution to the wave equation",
    paper_problem_size="1000 x 1000", paper_lines=21, paper_runtime_s=57.81,
    category=CATEGORY["finedif"],
    default_scale=(64, 64, 1.0), paper_scale=(1000, 1000, 1.0),
    smoke_scale=(16, 16, 1.0),
))
_add(Benchmark(
    name="galrkn", source="Garcia [12]",
    description="Galerkin's method (finite element method)",
    paper_problem_size="40 x 40", paper_lines=43, paper_runtime_s=8.02,
    category=CATEGORY["galrkn"],
    default_scale=(700,), paper_scale=(3000,),
    smoke_scale=(60,),
))
_add(Benchmark(
    name="icn", source="R. Bramley",
    description="incomplete Cholesky factorization",
    paper_problem_size="400 x 400", paper_lines=29, paper_runtime_s=7.72,
    category=CATEGORY["icn"],
    default_scale=(32,), paper_scale=(400,),
    smoke_scale=(14,),
))
_add(Benchmark(
    name="mei", source="unknown",
    description="fractal landscape generator",
    paper_problem_size="31 x 14", paper_lines=24, paper_runtime_s=10.77,
    category=CATEGORY["mei"],
    default_scale=(31, 14), paper_scale=(64, 28),
    smoke_scale=(12, 6),
))
_add(Benchmark(
    name="orbec", source="Garcia [12]",
    description="Euler-Cromer method for 1-body problem",
    paper_problem_size="62400 points", paper_lines=24, paper_runtime_s=19.10,
    category=CATEGORY["orbec"],
    default_scale=(2600, 0.0005), paper_scale=(62400, 0.0005),
    smoke_scale=(150, 0.0005),
))
_add(Benchmark(
    name="orbrk", source="Garcia [12]",
    description="Runge-Kutta method for 1-body problem",
    paper_problem_size="5000 points", paper_lines=52, paper_runtime_s=9.30,
    category=CATEGORY["orbrk"],
    default_scale=(700, 0.002), paper_scale=(5000, 0.002),
    smoke_scale=(60, 0.002),
    helpers=("gravrk",),
))
_add(Benchmark(
    name="qmr", source="Templates [3]",
    description="linear equation system solver, QMR method",
    paper_problem_size="420 x 420", paper_lines=119, paper_runtime_s=5.29,
    category=CATEGORY["qmr"],
    default_scale=(150, 1e-10, 400), paper_scale=(420, 1e-10, 900),
    smoke_scale=(40, 1e-8, 60),
))
_add(Benchmark(
    name="sor", source="Templates [3]",
    description="lin. eq. sys. solver, successive overrelaxation",
    paper_problem_size="420 x 420", paper_lines=29, paper_runtime_s=4.77,
    category=CATEGORY["sor"],
    default_scale=(120, 1.5, 1e-6, 400), paper_scale=(420, 1.5, 1e-6, 900),
    smoke_scale=(30, 1.5, 1e-6, 80),
))
_add(Benchmark(
    name="ackermann", source="authors",
    description="Ackermann's function",
    paper_problem_size="ackermann(3,5)", paper_lines=15, paper_runtime_s=3.84,
    category=CATEGORY["ackermann"],
    default_scale=(3, 3), paper_scale=(3, 5),
    smoke_scale=(2, 2),
))
_add(Benchmark(
    name="fractal", source="authors",
    description="Barnsley fern generator",
    paper_problem_size="25000 points", paper_lines=35, paper_runtime_s=26.55,
    category=CATEGORY["fractal"],
    default_scale=(3500,), paper_scale=(25000,),
    smoke_scale=(200,),
))
_add(Benchmark(
    name="mandel", source="authors",
    description="Mandelbrot set generator",
    paper_problem_size="200 x 200", paper_lines=16, paper_runtime_s=8.64,
    category=CATEGORY["mandel"],
    default_scale=(36, 30), paper_scale=(200, 100),
    smoke_scale=(10, 12),
))
_add(Benchmark(
    name="fibonacci", source="authors",
    description="recursive Fibonacci function",
    paper_problem_size="fibonacci(20)", paper_lines=10, paper_runtime_s=1.29,
    category=CATEGORY["fibonacci"],
    default_scale=(17,), paper_scale=(20,),
    smoke_scale=(10,),
))

#: The paper's Table 2: benchmark -> (speculative, JIT) speedup of the same
#: code generator fed either origin of type annotations.
PAPER_TABLE2 = {
    "crnich": (181, 181), "dirich": (817, 817), "finedif": (412, 413),
    "icn": (48, 51), "mandel": (36, 54.0), "cgopt": (1, 1.16),
    "mei": (4.24, 5.67), "qmr": (4.52, 5.68), "sor": (1.68, 1.79),
    "adapt": (4.09, 4.16), "orbec": (146, 174), "orbrk": (465, 465),
    "fractal": (663, 664), "galrkn": (61.7, 72.9), "ackermann": (4.04, 6.00),
    "fibonacci": (3.49, 5.16),
}


def benchmark(name: str) -> Benchmark:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}"
        ) from None


def benchmark_names() -> list[str]:
    """Table 1 order (alphabetical within the paper's listing)."""
    return [
        "adapt", "cgopt", "crnich", "dirich", "finedif", "galrkn", "icn",
        "mei", "orbec", "orbrk", "qmr", "sor", "ackermann", "fractal",
        "mandel", "fibonacci",
    ]


def programs_dir() -> Path:
    """Filesystem location of the bundled ``.m`` sources."""
    return Path(__file__).parent / "programs"


def source_of(name: str) -> str:
    """The MATLAB source text of one benchmark (or helper)."""
    return (programs_dir() / f"{name}.m").read_text()


def sources_of(name: str) -> tuple[str, ...]:
    """Every source text one benchmark needs: its own, then its helpers'."""
    return tuple(source_of(n) for n in (name, *benchmark(name).helpers))


def actual_lines(name: str) -> int:
    """Non-comment, non-blank source lines of our implementation."""
    count = 0
    for line in source_of(name).splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            count += 1
    return count
