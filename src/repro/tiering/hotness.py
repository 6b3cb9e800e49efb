"""The adaptive controller's per-function hotness.

A :class:`HotnessCounter` tracks a per-key activity score.  Scores decay
deterministically: after every ``decay_interval`` recorded observations
*all* scores are halved (multiplied by ``decay_factor``), so a function
that was hot an hour ago but has gone quiet cools off and will not be
promoted on stale evidence.

The decay schedule is driven by the observation count, not wall-clock time,
which keeps the counter fully deterministic — the same call sequence always
produces the same scores, which the controller tests rely on.
"""

from __future__ import annotations

import threading


class HotnessCounter:
    """Thread-safe per-key hotness scores with deterministic decay."""

    def __init__(self, decay_interval: int = 512, decay_factor: float = 0.5) -> None:
        if decay_interval < 1:
            raise ValueError("decay_interval must be >= 1")
        if not (0.0 <= decay_factor <= 1.0):
            raise ValueError("decay_factor must be in [0, 1]")
        self.decay_interval = int(decay_interval)
        self.decay_factor = float(decay_factor)
        self._scores: dict[str, float] = {}
        self._observations = 0
        self._lock = threading.Lock()

    def record(self, key: str, weight: float = 1.0) -> float:
        """Record one observation of *key* and return its new score."""
        with self._lock:
            self._observations += 1
            if self._observations % self.decay_interval == 0:
                self._decay_locked()
            score = self._scores.get(key, 0.0) + weight
            self._scores[key] = score
            return score

    def score(self, key: str) -> float:
        with self._lock:
            return self._scores.get(key, 0.0)

    def seed(self, key: str, score: float) -> None:
        """Pre-load a score (used when restoring a persisted profile)."""
        with self._lock:
            if score > self._scores.get(key, 0.0):
                self._scores[key] = float(score)

    def forget(self, key: str) -> None:
        with self._lock:
            self._scores.pop(key, None)

    def _decay_locked(self) -> None:
        factor = self.decay_factor
        if factor == 0.0:
            self._scores.clear()
            return
        cooled = []
        for key, score in self._scores.items():
            score *= factor
            if score < 1e-3:
                cooled.append(key)
            else:
                self._scores[key] = score
        for key in cooled:
            del self._scores[key]

    @property
    def observations(self) -> int:
        with self._lock:
            return self._observations

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self._scores)

    def restore(self, scores: dict[str, float]) -> None:
        with self._lock:
            for key, score in scores.items():
                if score > self._scores.get(key, 0.0):
                    self._scores[key] = float(score)

    def reset(self) -> None:
        with self._lock:
            self._scores.clear()
            self._observations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._scores)
