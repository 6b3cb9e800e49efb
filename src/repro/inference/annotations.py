"""Type annotations: the output of type inference (Section 2.3).

``S`` in the paper — one conservative type per expression node — plus the
derived facts the code generators consume: per-variable summaries,
subscript-safety classifications (Section 2.4, "Subscript check removal"),
the inferred output types and the function's calls of itself bound to
the version being compiled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.frontend import ast_nodes as ast
from repro.typesys.mtype import MType


class SubscriptSafety(enum.Enum):
    """How much checking a compiled array access still needs."""

    CHECKED = "checked"        # full MATLAB checks (a store may grow)
    SAFE = "safe"              # proven in bounds: direct access


@dataclass
class Annotations:
    """Everything inference learned about one function body."""

    # id(expression node) -> inferred type
    expr_types: dict[int, MType] = field(default_factory=dict)
    # join of a variable's types over all its definitions
    var_types: dict[str, MType] = field(default_factory=dict)
    # id(Apply used as index / LValue) -> subscript safety class
    load_safety: dict[int, SubscriptSafety] = field(default_factory=dict)
    store_safety: dict[int, SubscriptSafety] = field(default_factory=dict)
    # inferred types of the declared outputs at function exit
    output_types: dict[str, MType] = field(default_factory=dict)
    # id(Apply of the function's own name) -> the output types of the
    # version being compiled, where the call is bound to it, or None
    bound_calls: dict[int, tuple[MType, ...] | None] = field(
        default_factory=dict
    )
    converged: bool = True
    iterations: int = 0

    # ------------------------------------------------------------------
    def type_of(self, node: ast.Expr) -> MType:
        return self.expr_types.get(id(node), MType.top())

    def set_type(self, node: ast.Expr, mtype: MType) -> None:
        self.expr_types[id(node)] = mtype

    def note_var(self, name: str, mtype: MType) -> None:
        existing = self.var_types.get(name)
        self.var_types[name] = mtype if existing is None else existing.join(mtype)

    def var_type(self, name: str) -> MType:
        return self.var_types.get(name, MType.top())

    def safety_of_load(self, node: ast.Expr) -> SubscriptSafety:
        return self.load_safety.get(id(node), SubscriptSafety.CHECKED)

    def safety_of_store(self, target: ast.LValue) -> SubscriptSafety:
        return self.store_safety.get(id(target), SubscriptSafety.CHECKED)

    def binding_of(self, node: ast.Expr) -> tuple[MType, ...] | None:
        return self.bound_calls.get(id(node))

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counts used by tests and the experiment reports."""
        return {
            "expressions": len(self.expr_types),
            "safe_loads": sum(
                1 for s in self.load_safety.values() if s is SubscriptSafety.SAFE
            ),
            "checked_loads": sum(
                1 for s in self.load_safety.values() if s is SubscriptSafety.CHECKED
            ),
            "safe_stores": sum(
                1 for s in self.store_safety.values() if s is SubscriptSafety.SAFE
            ),
            "checked_stores": sum(
                1 for s in self.store_safety.values()
                if s is SubscriptSafety.CHECKED
            ),
        }
