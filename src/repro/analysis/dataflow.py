"""Generic iterative monotone dataflow framework (Muchnick & Jones style).

Section 2.3 describes the type-inference engine as "an iterative
join-of-all-paths monotonic data analysis framework"; this module provides
that framework in a reusable form, shared by reaching definitions and the
disambiguator's definite-assignment analysis.  (The type-inference engine
has its own change-driven solver, ``TypeInferenceEngine._solve``.)

States are opaque to the framework; clients supply ``join``, ``equals``,
``copy`` and a per-atom ``transfer`` function.  A ``max_iterations`` cap
bounds the fixpoint loop — the paper's engine "caps the number of
iterations" to stay fast enough for JIT use; when the cap is hit, clients
are told so they can widen to a safe answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from repro.analysis.cfg import CFG, Atom, BasicBlock

State = TypeVar("State")


@dataclass
class DataflowProblem(Generic[State]):
    """Client-supplied pieces of a forward dataflow problem."""

    entry_state: State
    bottom: Callable[[], State]
    join: Callable[[State, State], State]
    equals: Callable[[State, State], bool]
    copy: Callable[[State], State]
    transfer: Callable[[Atom, State], State]


@dataclass
class DataflowResult(Generic[State]):
    """IN/OUT states per block plus per-atom entry states."""

    block_in: dict[int, State]
    block_out: dict[int, State]
    atom_in: dict[int, State]  # keyed by id(atom)
    converged: bool
    iterations: int

    def state_before(self, atom: Atom) -> State:
        return self.atom_in[id(atom)]


def solve_forward(
    cfg: CFG,
    problem: DataflowProblem[State],
    max_iterations: int = 50,
) -> DataflowResult[State]:
    """Iterate to a fixpoint (or the cap) over ``cfg`` in reverse postorder."""
    order = cfg.reverse_postorder()
    block_in: dict[int, State] = {}
    block_out: dict[int, State] = {}
    for block in cfg.blocks:
        block_out[block.index] = problem.bottom()

    iterations = 0
    changed = True
    converged = True
    while changed:
        iterations += 1
        if iterations > max_iterations:
            converged = False
            break
        changed = False
        for block in order:
            if block is cfg.entry:
                incoming = problem.copy(problem.entry_state)
            else:
                incoming = None
                for pred in block.predecessors:
                    state = block_out[pred.index]
                    incoming = (
                        problem.copy(state)
                        if incoming is None
                        else problem.join(incoming, state)
                    )
                if incoming is None:  # unreachable block
                    incoming = problem.bottom()
            block_in[block.index] = incoming
            state = problem.copy(incoming)
            for atom in block.atoms:
                state = problem.transfer(atom, state)
            if not problem.equals(state, block_out[block.index]):
                block_out[block.index] = state
                changed = True

    # One final pass to record the state in front of every atom.
    atom_in: dict[int, State] = {}
    for block in cfg.blocks:
        state = problem.copy(
            block_in.get(block.index, problem.bottom())
        )
        for atom in block.atoms:
            atom_in[id(atom)] = problem.copy(state)
            state = problem.transfer(atom, state)

    return DataflowResult(
        block_in=block_in,
        block_out=block_out,
        atom_in=atom_in,
        converged=converged,
        iterations=iterations,
    )
