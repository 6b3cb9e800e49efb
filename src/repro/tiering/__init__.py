"""Profile-guided adaptive tiering (``MajicSession(adaptive=True)``).

The decayed hotness counter (:class:`HotnessCounter`) plus the online
:class:`TierController` that promotes hot functions up the ladder
interpreter → JIT → optimizing srcgen in the background, demotes measured
regressions, and persists learned profiles so warm sessions skip the
warmup ramp.
"""

from repro.tiering.controller import (
    LADDER,
    PROFILE_TAG,
    TierController,
    TieringPolicy,
)
from repro.tiering.hotness import HotnessCounter

__all__ = [
    "HotnessCounter",
    "LADDER",
    "PROFILE_TAG",
    "TierController",
    "TieringPolicy",
]
