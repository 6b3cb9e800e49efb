"""Platform configurations and ablation flags.

The paper evaluates on two machines whose relevant differences are
qualitative, not absolute speed:

* **SPARC** (UltraSparc 10, Sparcworks C) — "the native Fortran-90 compiler
  generates relatively poor code, causing MaJIC to outperform FALCON in a
  few of the benchmarks"; the JIT code generator "was optimized for this
  platform".
* **MIPS** (SGI Origin 200, MIPSPro C) — "the native compiler is
  excellent, causing MaJIC's JIT compiler to fall behind FALCON"; the JIT
  "is not yet completely implemented" there (some benchmarks run at
  reduced performance, `adapt` is excluded).

We model exactly those differences: the modelled native backend's
optimization level (which both FALCON and MaJIC-speculative inherit, since
both compile through the native toolchain) and the JIT's maturity.

:class:`AblationFlags` carries the Figure 7 switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.codegen.jitgen import JitOptions
from repro.codegen.srcgen import SrcOptions
from repro.inference.engine import InferenceOptions


@dataclass(frozen=True)
class AblationFlags:
    """Figure 7: individually disabled JIT optimizations."""

    no_ranges: bool = False        # disable range propagation
    no_min_shapes: bool = False    # disable minimum-shape propagation
    no_regalloc: bool = False      # spill every register

    @property
    def label(self) -> str:
        parts = []
        if self.no_ranges:
            parts.append("no ranges")
        if self.no_min_shapes:
            parts.append("no min. shapes")
        if self.no_regalloc:
            parts.append("no regalloc")
        return ", ".join(parts) or "full"


@dataclass(frozen=True)
class PlatformConfig:
    """One modelled evaluation platform."""

    name: str
    description: str
    # Strength of the modelled native toolchain (srcgen optimization gate).
    native_opt_level: int
    # JIT maturity on this platform.
    jit_num_registers: int = 12
    jit_unroll: bool = True
    jit_dgemv: bool = True
    # Benchmarks excluded on this platform (paper: adapt on MIPS).
    excluded_benchmarks: tuple[str, ...] = ()
    # Host recursion headroom sessions request (deeply recursive MATLAB
    # code interprets through host recursion); 0 = leave the limit alone.
    host_recursion_limit: int = 100_000
    # Width of the background speculation worker pool ("the compiler runs
    # during user think-time"); sessions use this when asked to speculate
    # in the background without an explicit worker count.
    speculation_workers: int = 2

    # ------------------------------------------------------------------
    def jit_options(self, ablation: AblationFlags | None = None) -> JitOptions:
        flags = ablation or AblationFlags()
        inference = InferenceOptions(
            range_propagation=not flags.no_ranges,
            min_shape_propagation=not flags.no_min_shapes,
        )
        return JitOptions(
            num_registers=self.jit_num_registers,
            spill_everything=flags.no_regalloc,
            unroll_enabled=self.jit_unroll and not flags.no_min_shapes,
            dgemv_enabled=self.jit_dgemv,
            inference=inference,
        )

    def src_options(
        self,
        majic_opts: bool = True,
        ablation: AblationFlags | None = None,
    ) -> SrcOptions:
        flags = ablation or AblationFlags()
        inference = InferenceOptions(
            range_propagation=not flags.no_ranges,
            min_shape_propagation=not flags.no_min_shapes,
        )
        return SrcOptions(
            native_opt_level=self.native_opt_level,
            majic_opts=majic_opts and not flags.no_min_shapes,
            inference=inference,
        )


SPARC = PlatformConfig(
    name="sparc",
    description="400MHz UltraSparc 10 / Solaris 7 / Sparcworks C 5.0 "
    "(weak native backend, fully tuned JIT)",
    native_opt_level=1,
)

MIPS = PlatformConfig(
    name="mips",
    description="SGI Origin 200, 180MHz R10000 / IRIX 6.5 / MIPSPro C "
    "(strong native backend, incomplete JIT)",
    native_opt_level=2,
    jit_num_registers=6,
    jit_unroll=False,
    jit_dgemv=False,
    excluded_benchmarks=("adapt",),
)

_PLATFORMS = {"sparc": SPARC, "mips": MIPS}


def platform_by_name(name: str) -> PlatformConfig:
    try:
        return _PLATFORMS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown platform {name!r} (choose from {sorted(_PLATFORMS)})"
        ) from None
