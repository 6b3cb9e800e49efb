"""Timing utilities for the measurement harness (Figure 6 breakdowns)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ExecutionBreakdown:
    """Where one benchmark run spent its time (Figure 6's categories)."""

    disambiguation: float = 0.0
    type_inference: float = 0.0
    codegen: float = 0.0
    execution: float = 0.0

    @property
    def compile(self) -> float:
        return self.disambiguation + self.type_inference + self.codegen

    @property
    def total(self) -> float:
        return self.compile + self.execution

    def fractions(self) -> dict[str, float]:
        """Normalized shares (the stacked bars of Figure 6)."""
        total = self.total or 1.0
        return {
            "disamb": self.disambiguation / total,
            "typeinf": self.type_inference / total,
            "codegen": self.codegen / total,
            "exec": self.execution / total,
        }

    def add_phases(self, phase_times) -> None:
        self.disambiguation += phase_times.disambiguation
        self.type_inference += phase_times.type_inference
        self.codegen += phase_times.codegen

    @classmethod
    def from_spans(cls, spans) -> "ExecutionBreakdown":
        """Re-derive Figure 6's categories from a traced session's spans.

        Each compile-phase span category maps to its breakdown bucket;
        ``execution`` spans contribute *self* time (duration minus direct
        children) so nested interpreter->compiled calls are not double
        counted.  Built on the same :func:`repro.obs.trace.self_times`
        substrate as the profiler, so the two reports agree by
        construction.
        """
        from repro.obs.trace import self_times

        spans = tuple(spans)
        selfs = self_times(spans)
        breakdown = cls()
        for span in spans:
            if span.category == "disambiguation":
                breakdown.disambiguation += span.duration
            elif span.category == "type_inference":
                breakdown.type_inference += span.duration
            elif span.category == "codegen":
                breakdown.codegen += span.duration
            elif span.category == "execution":
                breakdown.execution += selfs.get(span.span_id, 0.0)
        return breakdown
