"""Check generated programs on every backend, bit for bit.

The running and the comparing live in :mod:`repro.backends` (one
backend table, one :class:`~repro.backends.Observation`, one
:func:`~repro.backends.check`); this module only walks seeds and reports
every field on which a backend diverged from the interpreter — or
silently fell back to it (field ``fallbacks``) — as a :class:`Mismatch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends import BACKENDS, Observation, Program, check, observe
from repro.fuzz.grammar import GeneratedProgram, generate_program

DEFAULT_BACKENDS = tuple(label for label in BACKENDS if label != "interpreter")


@dataclass(frozen=True)
class Mismatch:
    seed: int
    backend: str
    field: str
    expected: object
    actual: object

    def __str__(self) -> str:
        return (
            f"seed {self.seed}: backend '{self.backend}' diverged on "
            f"{self.field}: expected {self.expected!r}, got {self.actual!r}"
        )


def _check(program: GeneratedProgram, backends) -> tuple[Observation, list]:
    case = Program.generated(program)
    expected = observe(case, "interpreter")
    mismatches = [
        Mismatch(program.seed, label, name, want, got)
        for label in backends if label != "interpreter"
        for name, want, got in check(case, label, expected)
    ]
    return expected, mismatches


def check_program(
    program: GeneratedProgram, backends=DEFAULT_BACKENDS
) -> list[Mismatch]:
    """Run one program everywhere; report every divergence from the
    interpreter, a silent fallback to it included."""
    return _check(program, backends)[1]


@dataclass
class FuzzReport:
    checked: int = 0
    errored_programs: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def fuzz(
    seed: int = 0,
    count: int = 50,
    backends=DEFAULT_BACKENDS,
    on_case=None,
) -> FuzzReport:
    """Check ``count`` consecutive seeds starting at ``seed``."""
    report = FuzzReport()
    for case_seed in range(seed, seed + count):
        program = generate_program(case_seed)
        expected, found = _check(program, backends)
        report.checked += 1
        if expected.error is not None:
            report.errored_programs += 1
        report.mismatches.extend(found)
        if on_case is not None:
            on_case(program, found)
    return report
