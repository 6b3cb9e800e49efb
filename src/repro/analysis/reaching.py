"""Assignment analyses over the CFG.

Two related forward analyses drive symbol disambiguation (Section 2.1):

* **definite assignment** (must): the set of names assigned on *all* paths
  reaching a point — "a symbol that has a reaching definition as a variable
  on all paths leading to it must be a variable";
* **possible assignment** (may): the set of names assigned on *some* path —
  a name read while only may-assigned is ambiguous and its resolution is
  deferred to runtime.

:func:`reaching_definitions` additionally computes classic def-site reaching
definitions used to build U/D chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import CFG, Atom
from repro.analysis.dataflow import DataflowProblem, DataflowResult, solve_forward


@dataclass
class AssignmentSets:
    """Result of the must/may assignment analyses."""

    must: DataflowResult[frozenset[str]]
    may: DataflowResult[frozenset[str]]

    def must_before(self, atom: Atom) -> frozenset[str]:
        return self.must.state_before(atom)

    def may_before(self, atom: Atom) -> frozenset[str]:
        return self.may.state_before(atom)


def _transfer_assigned(atom: Atom, state: frozenset[str]) -> frozenset[str]:
    kills = atom.kills
    if kills is None:
        state = frozenset()
    elif kills:
        state = state - frozenset(kills)
    if atom.defs:
        state = state | frozenset(atom.defs)
    return state


def assignment_analysis(cfg: CFG, params: list[str]) -> AssignmentSets:
    """Run the must- and may-assignment analyses over ``cfg``.

    Formal parameters are assigned on entry (their definitions come from the
    caller), so they seed the entry state of both analyses.
    """
    entry = frozenset(params)

    # The must analysis needs intersection at joins.  The framework joins
    # with a client-supplied function, so we simply pass set intersection.
    # A subtlety: unreachable predecessors contribute bottom; for a must
    # analysis bottom must be the universal set.  We approximate the
    # universe lazily with a token that intersects as identity.
    universe = _Universe()

    must_problem: DataflowProblem = DataflowProblem(
        entry_state=entry,
        bottom=lambda: universe,
        join=_must_join,
        equals=lambda a, b: a == b,
        copy=lambda s: s,
        transfer=_transfer_assigned_must,
    )
    may_problem: DataflowProblem = DataflowProblem(
        entry_state=entry,
        bottom=frozenset,
        join=lambda a, b: a | b,
        equals=lambda a, b: a == b,
        copy=lambda s: s,
        transfer=_transfer_assigned,
    )
    return AssignmentSets(
        must=solve_forward(cfg, must_problem),
        may=solve_forward(cfg, may_problem),
    )


class _Universe:
    """Identity element for set intersection (the must-analysis bottom)."""

    def __and__(self, other):
        return other

    def __rand__(self, other):
        return other

    def __eq__(self, other):
        return isinstance(other, _Universe)

    def __or__(self, other):
        return self

    def __sub__(self, other):
        return self

    def __contains__(self, item) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return "<universe>"


def _must_join(a, b):
    if isinstance(a, _Universe):
        return b
    if isinstance(b, _Universe):
        return a
    return a & b


def _transfer_assigned_must(atom: Atom, state):
    if isinstance(state, _Universe):
        # Transfer out of an unreachable block stays universal.
        return state
    return _transfer_assigned(atom, state)


# ----------------------------------------------------------------------
# Classic reaching definitions (def-site granularity), for U/D chains.
# ----------------------------------------------------------------------
DefSite = tuple[str, int]  # (variable name, id(atom))


def reaching_definitions(
    cfg: CFG, params: list[str]
) -> DataflowResult[frozenset[DefSite]]:
    """May-reaching definition sites; parameters reach from a pseudo-site 0."""
    entry = frozenset((name, 0) for name in params)

    def transfer(atom: Atom, state: frozenset[DefSite]) -> frozenset[DefSite]:
        kills = atom.kills
        if kills is None:
            state = frozenset()
        elif kills:
            killed = frozenset(kills)
            state = frozenset(d for d in state if d[0] not in killed)
        if atom.defs:
            defined = frozenset(atom.defs)
            state = frozenset(d for d in state if d[0] not in defined)
            state = state | frozenset((name, id(atom)) for name in defined)
        return state

    problem: DataflowProblem = DataflowProblem(
        entry_state=entry,
        bottom=frozenset,
        join=lambda a, b: a | b,
        equals=lambda a, b: a == b,
        copy=lambda s: s,
        transfer=transfer,
    )
    return solve_forward(cfg, problem)
