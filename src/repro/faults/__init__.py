"""Fault injection and the differential robustness harness.

``repro.faults`` provides the pieces that let the test suite (and CI)
*prove* the tiered-execution safety property instead of assuming it:

* :class:`~repro.faults.plan.FaultPlan` — a deterministic, seeded,
  site/count-addressable schedule of injected failures, hooked into
  ``JitCompiler.compile``, ``SourceCompiler.compile`` and
  ``RuntimeSupport``;
* :mod:`~repro.faults.harness` — runs benchsuite programs under injected
  compile- and run-time faults and checks outputs stay bit-identical to
  the pure interpreter.
"""

from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    FiredFault,
    InjectedFault,
    RT_ANY,
    SITE_CACHE_CORRUPT,
    SITE_CACHE_PARTIAL,
    SITE_HANG,
    SITE_JIT,
    SITE_OOM,
    SITE_SPEC,
    SimulatedCrash,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "InjectedFault",
    "SimulatedCrash",
    "RT_ANY",
    "SITE_JIT",
    "SITE_SPEC",
    "SITE_HANG",
    "SITE_OOM",
    "SITE_CACHE_CORRUPT",
    "SITE_CACHE_PARTIAL",
]
