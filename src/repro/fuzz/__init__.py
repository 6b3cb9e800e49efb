"""Grammar-driven differential fuzzing across every execution backend.

A seeded generator (:mod:`repro.fuzz.grammar`) produces random MATLAB
programs — scalar and matrix arithmetic, elementwise operators, ``for``
/ ``while`` / ``if`` control flow, slicing, stores and a curated builtin
set, ``rand``/``randn`` draws, and side effects before a failure — and
the runner (:mod:`repro.fuzz.runner`) checks each program on every row of
:data:`repro.backends.BACKENDS`, asserting that the whole
:class:`~repro.backends.Observation` — output bytes, display text, error
message, random-stream post-state — is **identical** to the interpreter's.

Use as a library (the differential pytest suite), or as a CLI::

    python -m repro.fuzz --seed 0 --count 50
    python -m repro.fuzz --backends jit,fused,parallel --count 200
"""

from __future__ import annotations

from repro.fuzz.grammar import GeneratedProgram, generate_program
from repro.fuzz.runner import BACKENDS, check_program, fuzz

__all__ = [
    "BACKENDS",
    "GeneratedProgram",
    "check_program",
    "fuzz",
    "generate_program",
]
