"""Analyses behind the optimizing (speculative/native) code generator.

Three pieces:

* **purity / invariance** — which expressions are pure scalar computations
  over variables not assigned in a given loop (candidates for hoisting and
  for appearing in versioning guards);
* **affine subscripts** — subscripts of the form ``v``, ``v+c``, ``v-c``
  (v the loop variable, c loop-invariant), whose extreme values over the
  loop range are expressible as code;
* **loop versioning** — given a unit-step ``for`` loop, determine which
  CHECKED/GROW subscript accesses can run unchecked behind a single
  entry guard, and build that guard's ingredients.

Versioning is the static-compiler counterpart of the JIT's range-based
check removal (Section 2.4): the speculative compiler lacks the exact
runtime constants, so it emits a guard comparing the loop bounds against
the array extents once, then runs the fully unchecked loop body — the
classic bounds-check optimization of Gupta [13], which the paper cites as
the conventional alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend import ast_nodes as ast
from repro.inference.annotations import Annotations, SubscriptSafety


# ----------------------------------------------------------------------
# Purity and loop-variance
# ----------------------------------------------------------------------
def is_pure_scalar(
    expr: ast.Expr, annotations: Annotations, variant: set[str]
) -> bool:
    """Pure scalar computation over variables outside ``variant``."""
    mtype = annotations.type_of(expr)
    if not (mtype.is_scalar and mtype.is_real_like):
        return False
    if isinstance(expr, ast.Number):
        return True
    if isinstance(expr, ast.Ident):
        return expr.name not in variant
    if isinstance(expr, ast.UnaryOp):
        return expr.op is not ast.UnaryKind.NOT and is_pure_scalar(
            expr.operand, annotations, variant
        )
    if isinstance(expr, ast.BinaryOp):
        if expr.op not in ("+", "-", "*", "/", "^", ".*", "./", ".^"):
            return False
        return is_pure_scalar(expr.left, annotations, variant) and is_pure_scalar(
            expr.right, annotations, variant
        )
    return False


def find_hoistable(
    body: list[ast.Stmt], annotations: Annotations, variant: set[str]
) -> list[ast.Expr]:
    """Maximal pure loop-invariant scalar subexpressions worth hoisting.

    "Worth" = contains at least one arithmetic operation (hoisting a bare
    variable or literal saves nothing).
    """
    found: list[ast.Expr] = []
    seen_ids: set[int] = set()

    def visit(expr: ast.Expr) -> None:
        if id(expr) in seen_ids:
            return
        if isinstance(expr, ast.BinaryOp) and is_pure_scalar(
            expr, annotations, variant
        ):
            found.append(expr)
            for node in ast.walk_expr(expr):
                seen_ids.add(id(node))
            return
        for child in ast.children(expr):
            visit(child)

    for stmt in ast.walk_stmts(body):
        for expr in ast.stmt_exprs(stmt):
            visit(expr)
    return found


# ----------------------------------------------------------------------
# Affine subscripts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AffineIndex:
    """``var + offset`` or a loop-invariant expression (var absent)."""

    uses_var: bool
    offset_expr: ast.Expr | None     # invariant offset (None = 0)
    offset_sign: int = 1             # +1 for v+c, -1 for v-c
    invariant: ast.Expr | None = None  # set when uses_var is False


def match_affine(
    expr: ast.Expr,
    loop_var: str,
    annotations: Annotations,
    variant: set[str],
) -> AffineIndex | None:
    """Classify a subscript relative to the loop variable."""
    if isinstance(expr, ast.Ident) and expr.name == loop_var:
        return AffineIndex(uses_var=True, offset_expr=None)
    if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-"):
        left_is_var = (
            isinstance(expr.left, ast.Ident) and expr.left.name == loop_var
        )
        right_is_var = (
            isinstance(expr.right, ast.Ident) and expr.right.name == loop_var
        )

        def integral_offset(offset: ast.Expr) -> bool:
            if not is_pure_scalar(offset, annotations, variant):
                return False
            mtype = annotations.type_of(offset)
            return mtype.is_integer_like or mtype.range.is_integral_constant

        if left_is_var and integral_offset(expr.right):
            sign = 1 if expr.op == "+" else -1
            return AffineIndex(
                uses_var=True, offset_expr=expr.right, offset_sign=sign
            )
        if right_is_var and expr.op == "+" and integral_offset(expr.left):
            return AffineIndex(uses_var=True, offset_expr=expr.left)
    if is_pure_scalar(expr, annotations, variant):
        mtype = annotations.type_of(expr)
        if mtype.is_integer_like or mtype.range.is_integral_constant:
            return AffineIndex(
                uses_var=False, offset_expr=None, invariant=expr
            )
    return None


# ----------------------------------------------------------------------
# Loop versioning
# ----------------------------------------------------------------------
@dataclass
class GuardTerm:
    """One conjunct: ``low ≥ 1`` and ``high ≤ extent`` for one subscript."""

    array: str
    dim: int                     # 0 = linear (numel), 1 = rows, 2 = cols
    affine: AffineIndex


@dataclass
class VersioningPlan:
    """Accesses provable unchecked behind one loop-entry guard."""

    guard_terms: list[GuardTerm] = field(default_factory=list)
    forced_safe: set[int] = field(default_factory=set)  # node/lvalue ids

    @property
    def worthwhile(self) -> bool:
        return bool(self.forced_safe)


def plan_versioning(
    loop: ast.For,
    annotations: Annotations,
) -> VersioningPlan:
    """Build the versioning plan for a constant-step integer ``for`` loop."""
    plan = VersioningPlan()
    if not isinstance(loop.iterable, ast.Range):
        return plan
    step = loop.iterable.step
    if step is not None:
        step_type = annotations.type_of(step)
        if not (
            step_type.is_constant
            and step_type.constant_value == int(step_type.constant_value)
            and step_type.constant_value != 0
        ):
            return plan
    var_type = annotations.var_type(loop.var)
    if not var_type.is_integer_like:
        return plan
    variant = ast.assigned(loop.body) | {loop.var}
    # Arrays the loop replaces as a whole: their extents may change.
    rebound = {
        target.name
        for stmt in ast.walk_stmts(loop.body)
        for target in ast.targets(stmt)
        if not target.is_indexed
    }

    def consider(array: str, indices: list[ast.Expr], node_id: int):
        if array in rebound:
            return
        terms: list[GuardTerm] = []
        if len(indices) == 1:
            array_type = annotations.var_type(array)
            is_vector = (
                array_type.maxshape.rows == 1 or array_type.maxshape.cols == 1
            )
            if not is_vector:
                return  # unchecked linear access is only valid on vectors
            affine = match_affine(indices[0], loop.var, annotations, variant)
            if affine is None:
                return
            terms.append(GuardTerm(array=array, dim=0, affine=affine))
        else:
            for position, index in enumerate(indices):
                if isinstance(index, (ast.ColonAll, ast.Range)):
                    return
                affine = match_affine(index, loop.var, annotations, variant)
                if affine is None:
                    return
                terms.append(
                    GuardTerm(array=array, dim=position + 1, affine=affine)
                )
        plan.guard_terms.extend(terms)
        plan.forced_safe.add(node_id)

    for stmt in ast.walk_stmts(loop.body):
        if isinstance(stmt, ast.Assign) and stmt.target.is_indexed:
            if annotations.safety_of_store(stmt.target) is not SubscriptSafety.SAFE:
                consider(stmt.target.name, stmt.target.indices, id(stmt.target))
        for expr in ast.stmt_exprs(stmt):
            for node in ast.walk_expr(expr):
                # Only an index load has a safety on record.
                if (
                    isinstance(node, ast.Apply)
                    and annotations.load_safety.get(id(node), SubscriptSafety.SAFE)
                    is not SubscriptSafety.SAFE
                ):
                    element = annotations.type_of(node)
                    if element.is_scalar and element.is_real_like:
                        consider(node.name, node.args, id(node))
    return plan
