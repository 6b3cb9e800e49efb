"""MaJIC core: the public session API and platform configurations."""

from repro.core.majic import MajicSession
from repro.core.platformcfg import (
    PlatformConfig,
    AblationFlags,
    SPARC,
    MIPS,
    platform_by_name,
)
from repro.core.timing import ExecutionBreakdown

__all__ = [
    "MajicSession",
    "PlatformConfig",
    "AblationFlags",
    "SPARC",
    "MIPS",
    "platform_by_name",
    "ExecutionBreakdown",
]
