"""C toolchain detection and invocation.

The native tier never assumes a compiler exists: :func:`detect_toolchain`
probes the conventional spellings (``cc``, ``gcc``, ``clang``) plus the
``MAJIC_CC`` override, captures the version banner (part of the artifact
cache key — a compiler upgrade silently invalidates old ``.so``\\ s), and
returns ``None`` on a machine with no toolchain, which disables the tier
without disabling anything else.

Compiles run in a child process with a hard timeout
(``engine.COMPILE_DEADLINE``) — the watchdog for work
that cannot be cancelled by in-process exception injection.  Every
kernel is built with the one flag set :data:`BUILD_FLAGS`, which carries
:data:`SAFETY_FLAGS`: the fused Python kernels are the bit-identity
reference, so the C side must stay plain IEEE-754 — no reassociation, no
FMA contraction, no errno-driven libm wrappers.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from dataclasses import dataclass

#: IEEE-754-exact code generation.
#: ``-fno-fast-math`` forbids value-changing reassociation,
#: ``-ffp-contract=off`` forbids fusing ``a*b+c`` into an FMA (a different
#: rounding), ``-fno-math-errno`` merely lets ``sqrt`` lower to the
#: (correctly rounded) hardware instruction.
SAFETY_FLAGS = ("-fno-fast-math", "-ffp-contract=off", "-fno-math-errno")

#: The flags every kernel is built with (and part of its artifact key).
BUILD_FLAGS = SAFETY_FLAGS + ("-O3",)

#: Probe order when ``MAJIC_CC`` names nothing.
DEFAULT_CANDIDATES = ("cc", "gcc", "clang")

#: Environment kill switch: set to force the no-toolchain path (tests and
#: CI assert graceful degradation through this).
DISABLE_ENV = "MAJIC_NATIVE_DISABLE"


class CompileError(Exception):
    """A toolchain invocation failed (bad exit, timeout, missing output)."""


class CompileTimeout(CompileError):
    """The compile child overran its watchdog deadline and was killed."""


@dataclass(frozen=True)
class Toolchain:
    """One usable C compiler: absolute path plus its version banner."""

    path: str
    name: str
    version: str

    @property
    def ident(self) -> str:
        """The cache-key component: compiler name + exact version line."""
        return f"{self.name} {self.version}"

    # ------------------------------------------------------------------
    def compile_shared(
        self,
        c_path: str,
        so_path: str,
        timeout: float | None = 60.0,
    ) -> None:
        """Compile one C file into a shared object; raise on any failure."""
        command = [
            self.path, "-shared", "-fPIC", *BUILD_FLAGS,
            "-o", so_path, c_path, "-lm",
        ]
        try:
            proc = subprocess.run(
                command,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise CompileTimeout(
                f"native compile overran its {timeout}s deadline"
            ) from exc
        except OSError as exc:
            raise CompileError(f"cannot invoke {self.path}: {exc}") from exc
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()[:2000]
            raise CompileError(
                f"{self.name} exited {proc.returncode}: {detail}"
            )
        if not os.path.exists(so_path):
            raise CompileError(f"{self.name} produced no output at {so_path}")


def _probe(candidate: str) -> Toolchain | None:
    path = shutil.which(candidate)
    if path is None:
        return None
    try:
        proc = subprocess.run(
            [path, "--version"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    banner = (proc.stdout or proc.stderr or "").splitlines()
    version = banner[0].strip() if banner else "unknown"
    return Toolchain(path=path, name=os.path.basename(candidate), version=version)


def detect_toolchain(candidates=None) -> Toolchain | None:
    """Find a working C compiler, or ``None`` (the tier then stays off).

    ``MAJIC_CC`` overrides the probe order entirely;
    ``MAJIC_NATIVE_DISABLE`` (non-empty) forces ``None`` regardless.
    """
    if os.environ.get(DISABLE_ENV):
        return None
    override = os.environ.get("MAJIC_CC")
    if candidates is None:
        candidates = (override,) if override else DEFAULT_CANDIDATES
    for candidate in candidates:
        toolchain = _probe(candidate)
        if toolchain is not None:
            return toolchain
    return None
