"""The native (C) execution tier.

MaJIC's fourth tier: fused elementwise kernel trees — the compute cores
of the hottest JIT functions and interpreter expressions — are lowered
to C, compiled out-of-band by a detected toolchain (one ``-O3`` build
per kernel), cached content-addressed on disk, loaded through
``ctypes``, and dispatched in front of the Python fused kernels behind
the existing guarded-deopt chain.  No toolchain, an ineligible tree, or
any compile/load/run fault simply leaves the Python kernels serving the
call bit-identically.

Layout:

* :mod:`repro.native.toolchain` — compiler probe + watchdogged invocation;
* :mod:`repro.native.clower` — fused tree → C lowering (IEEE-exact subset);
* :mod:`repro.native.artifacts` — content-addressed ``.so`` store with
  digest verification and quarantine healing;
* :mod:`repro.native.engine` — hotness promotion, the build, forked
  first-run trial, and the guarded per-call dispatcher.
"""

from repro.native.artifacts import (
    DEFAULT_NATIVE_DIR,
    NATIVE_FORMAT_VERSION,
    NativeArtifactStore,
    artifact_key,
)
from repro.native.clower import generate_c, native_eligible
from repro.native.engine import DEFAULT_MIN_ELEMS, NativeEngine
from repro.native.toolchain import (
    CompileError,
    CompileTimeout,
    Toolchain,
    detect_toolchain,
)

__all__ = [
    "CompileError",
    "CompileTimeout",
    "DEFAULT_MIN_ELEMS",
    "DEFAULT_NATIVE_DIR",
    "NATIVE_FORMAT_VERSION",
    "NativeArtifactStore",
    "NativeEngine",
    "Toolchain",
    "artifact_key",
    "detect_toolchain",
    "generate_c",
    "native_eligible",
]
