"""Code selection, written once (Section 2.6.1).

MaJIC's two compilers differ in how much they optimise and in what they
emit, not in what they select.  Both drive code selection from the parsed
AST plus type annotations through this module: :class:`Selector` answers
the pattern questions (unroll this node? is it a dgemv?), and
:class:`Walk` is the one AST walk that asks them.  A code generator is a
:class:`Walk` subclass that supplies the *emission primitives* — the JIT
emits ICODE over virtual registers, the optimizing compiler emits
expression-style source text — and nothing else.  The decisions made here
are the paper's selection rules:

* **representation** — scalar arithmetic/logical operations, elementary
  math functions and scalar assignments are inlined on raw host scalars
  ("probably the most important performance optimization in MaJIC");
  everything else stays a boxed MxArray handled by library calls;
* **subscript inlining** — scalar index operations proven safe compile to
  direct buffer accesses;
* **unrolling** — elementary vector operations with exactly known small
  shapes (≤ 3×3) are completely unrolled, with pre-allocated temporaries;
* **dgemv fusion** — expression trees of the form ``a*X + b*C*Y`` collapse
  into a single BLAS call;
* **read-only parameters** — call-by-value copies are elided for
  parameters (and variables) that are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.disambiguate import DisambiguationResult
from repro.analysis.symtab import SymbolKind
from repro.codegen.runtime_support import SCALAR_MATH
from repro.errors import CodegenError
from repro.frontend import ast_nodes as ast
from repro.inference.annotations import Annotations, SubscriptSafety
from repro.typesys.intrinsic import Intrinsic
from repro.typesys.mtype import MType

#: Largest element count for complete unrolling of vector operations
#: ("very effective on small (up to 3 x 3) matrices and vectors").
UNROLL_LIMIT = 9

#: Kinds of value representation in generated code.
RAW_REAL = "f"
RAW_INT = "i"
RAW_COMPLEX = "c"
BOXED = "b"

_ELEMENTWISE_OPS = {"+", "-", ".*", "./", ".^"}


def repr_of_type(mtype: MType) -> str:
    """Representation kind for a value of this type."""
    if mtype.is_scalar and mtype.is_real_like:
        return RAW_REAL
    if mtype.is_scalar and mtype.intrinsic is Intrinsic.COMPLEX:
        return RAW_COMPLEX
    return BOXED


@dataclass
class DgemvMatch:
    """``alpha*A*x + beta*y`` pieces extracted from an expression tree."""

    alpha: ast.Expr | None     # None = 1.0
    matrix: ast.Expr
    vector: ast.Expr
    beta: ast.Expr | None      # None = 1.0
    addend: ast.Expr | None    # None = no +beta*y term


class Selector:
    """Code-selection oracle for one function's typed AST."""

    def __init__(
        self,
        fn: ast.FunctionDef,
        annotations: Annotations,
        unroll_enabled: bool = True,
        dgemv_enabled: bool = True,
    ):
        self.fn = fn
        self.annotations = annotations
        self.unroll_enabled = unroll_enabled
        self.dgemv_enabled = dgemv_enabled
        self.mutated_names = self._collect_mutated()

    # ------------------------------------------------------------------
    def _collect_mutated(self) -> set[str]:
        """Names whose storage may be written in place."""
        mutated: set[str] = set()
        for stmt in ast.walk_stmts(self.fn.body):
            if isinstance(stmt, ast.Assign) and stmt.target.is_indexed:
                mutated.add(stmt.target.name)
            elif isinstance(stmt, ast.MultiAssign):
                for target in stmt.targets:
                    if target.is_indexed:
                        mutated.add(target.name)
        return mutated

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------
    def var_repr(self, name: str) -> str:
        return repr_of_type(self.annotations.var_type(name))

    def is_read_only(self, name: str) -> bool:
        """Read-only variables need no call-by-value entry copy."""
        return name not in self.mutated_names

    # ------------------------------------------------------------------
    # Unrolling (elementary vector operations, exact small shapes)
    # ------------------------------------------------------------------
    def unroll_shape(self, node: ast.Expr):
        """(rows, cols) if the node's result should be built unrolled."""
        if not self.unroll_enabled:
            return None
        mtype = self.annotations.type_of(node)
        if not mtype.has_exact_shape or not mtype.is_real_like:
            return None
        shape = mtype.exact_shape
        if shape.numel == 0 or shape.numel > UNROLL_LIMIT or shape.is_scalar:
            return None
        if isinstance(node, ast.MatrixLit):
            flat = [item for row in node.rows for item in row]
            if all(
                repr_of_type(self.annotations.type_of(e)) in (RAW_REAL, RAW_INT)
                for e in flat
            ):
                return (shape.rows, shape.cols)
            return None
        if isinstance(node, ast.BinaryOp) and (
            node.op in _ELEMENTWISE_OPS
            or (node.op in ("*", "/") and self._one_side_scalar(node))
        ):
            if self._unrollable_operand(node.left) and self._unrollable_operand(
                node.right
            ):
                return (shape.rows, shape.cols)
        if isinstance(node, ast.UnaryOp) and node.op is ast.UnaryKind.NEG:
            if self._unrollable_operand(node.operand):
                return (shape.rows, shape.cols)
        return None

    def _one_side_scalar(self, node: ast.BinaryOp) -> bool:
        left = self.annotations.type_of(node.left)
        right = self.annotations.type_of(node.right)
        if node.op == "*":
            return left.is_scalar or right.is_scalar
        return right.is_scalar  # '/' by a scalar only

    def _unrollable_operand(self, node: ast.Expr) -> bool:
        """Operand readable element-by-element without a library call."""
        mtype = self.annotations.type_of(node)
        if mtype.is_scalar and mtype.is_real_like:
            return True
        if not mtype.has_exact_shape or not mtype.is_real_like:
            return False
        if mtype.exact_shape.numel > UNROLL_LIMIT:
            return False
        # Variables and nested unrollable expressions both qualify; the
        # generators materialize nested results into site buffers.
        return True

    # ------------------------------------------------------------------
    # dgemv fusion
    # ------------------------------------------------------------------
    def match_dgemv(self, node: ast.Expr) -> DgemvMatch | None:
        """Match ``alpha*A*x [+ beta*y]`` patterns (Section 2.6.1)."""
        if not self.dgemv_enabled or not isinstance(node, ast.BinaryOp):
            return None
        if node.op == "+":
            left = self._match_ax(node.left)
            if left is not None:
                beta, addend = self._match_scaled_vector(node.right)
                if addend is not None:
                    return DgemvMatch(
                        alpha=left[0], matrix=left[1], vector=left[2],
                        beta=beta, addend=addend,
                    )
            right = self._match_ax(node.right)
            if right is not None:
                beta, addend = self._match_scaled_vector(node.left)
                if addend is not None:
                    return DgemvMatch(
                        alpha=right[0], matrix=right[1], vector=right[2],
                        beta=beta, addend=addend,
                    )
            return None
        if node.op == "-":
            left = self._match_ax(node.left)
            if left is not None:
                beta, addend = self._match_scaled_vector(node.right)
                if addend is not None and beta is None:
                    # a*A*x - y  =>  dgemv(alpha, A, x, -1, y)
                    return DgemvMatch(
                        alpha=left[0], matrix=left[1], vector=left[2],
                        beta=_NEG_ONE, addend=addend,
                    )
            return None
        matched = self._match_ax(node)
        if matched is not None:
            return DgemvMatch(
                alpha=matched[0], matrix=matched[1], vector=matched[2],
                beta=None, addend=None,
            )
        return None

    def _match_ax(self, node: ast.Expr):
        """Match ``A*x`` or ``alpha*A*x`` where A is a matrix, x a vector."""
        if not isinstance(node, ast.BinaryOp) or node.op != "*":
            return None
        right_type = self.annotations.type_of(node.right)
        if not self._is_vector_type(right_type):
            return None
        left = node.left
        left_type = self.annotations.type_of(left)
        if self._is_matrix_type(left_type):
            return (None, left, node.right)
        if (
            isinstance(left, ast.BinaryOp)
            and left.op == "*"
            and self.annotations.type_of(left.left).is_scalar
            and self._is_matrix_type(self.annotations.type_of(left.right))
        ):
            return (left.left, left.right, node.right)
        return None

    def _match_scaled_vector(self, node: ast.Expr):
        """Match ``y`` or ``beta*y`` for a vector y; returns (beta, y)."""
        mtype = self.annotations.type_of(node)
        if self._is_vector_type(mtype):
            if (
                isinstance(node, ast.BinaryOp)
                and node.op == "*"
                and self.annotations.type_of(node.left).is_scalar
            ):
                return (node.left, node.right)
            return (None, node)
        return (None, None)

    @staticmethod
    def _is_vector_type(mtype: MType) -> bool:
        if mtype.is_scalar or not mtype.is_real_like and mtype.intrinsic is not Intrinsic.COMPLEX:
            return False
        return mtype.maxshape.cols == 1 and not mtype.is_scalar

    @staticmethod
    def _is_matrix_type(mtype: MType) -> bool:
        if mtype.is_scalar:
            return False
        return mtype.intrinsic.leq(Intrinsic.COMPLEX) and not mtype.is_bottom


#: Sentinel for a literal -1.0 beta in dgemv matches.
_NEG_ONE = ast.Number(value=-1.0)


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------
#: Host operators for raw-scalar arithmetic, and for comparisons/logicals
#: (which always yield a raw real 1.0/0.0).
_NUMERIC_PY = {
    "+": "+", "-": "-", "*": "*", ".*": "*",
    "/": "/", "./": "/", "^": "**", ".^": "**",
}
_COMPARE_PY = {
    "==": "==", "~=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "&": "&", "|": "|",
}
#: Polymorphic (raw-or-boxed) library operators, used whenever an operand
#: is not a raw scalar.
_BINOP_HELPER = {
    "+": "g_add", "-": "g_sub", "*": "g_mul", ".*": "g_emul",
    "/": "g_div", "./": "g_ediv", "\\": "g_ldiv", ".\\": "g_eldiv",
    "^": "g_pow", ".^": "g_epow",
    "==": "g_eq", "~=": "g_ne", "<": "g_lt", "<=": "g_le",
    ">": "g_gt", ">=": "g_ge", "&": "g_and", "|": "g_or",
}
_UNARY_HELPER = {"-": "g_neg", "+": "box", "~": "g_not"}
_STORE_MODE = {
    SubscriptSafety.SAFE: "unchecked",
    SubscriptSafety.GROW_ONLY: "grow",
    SubscriptSafety.CHECKED: "checked",
}
_RAW_KINDS = (RAW_REAL, RAW_INT, RAW_COMPLEX)


class Walk:
    """The one code-selection walk over a function's typed AST.

    Every expression method returns ``(value, kind)``: ``value`` is
    whatever the target uses to name a result (a virtual register, a source
    expression) and is opaque here; ``kind`` is its representation.
    Representation discipline: every MATLAB variable has exactly one
    representation for the whole compiled function, chosen from its
    inferred type summary — a raw host float (real scalar), raw complex, or
    a boxed MxArray; ``coerce`` mediates at the few boundaries.

    Output is reached only through the emission primitives a target
    implements:

    * values — ``var(name)``, ``const(value, kind)``, ``call(helper, args,
      kind)`` (``kind=None``: called for effect), ``unpack(values,
      position)``, ``unary``/``binary(op, ..., kind)`` on raw scalars,
      ``bind(value, base, reused=False)`` (evaluate here, exactly once);
    * memory — ``load``/``store(name, indices, ..., mode)`` for scalar
      subscripts with their safety mode, ``element``/``set_element`` at
      constant positions of unrolled operands, ``site_buffer(rows, cols)``,
      ``assign(name, value)``, ``param(name, position, copy)``;
    * control — ``if_``, ``while_``, ``for_each``, ``counted_for``,
      ``jump`` (break/continue/return) and ``short_circuit``, which call
      back into ``condition`` and ``stmts`` for the pieces they nest.

    Two hooks are empty unless a target fills them: ``try_fuse`` (collapse
    an elementwise tree into one kernel call, recording the kernel in
    ``kernel_sources``/``kernel_keys``) and the loop hook's state —
    ``hoisted`` (loop-invariant expressions already named) and
    ``forced_safe`` (subscripts a loop-entry guard has proven in range).
    """

    def __init__(
        self,
        fn: ast.FunctionDef,
        annotations: Annotations,
        disambiguation: DisambiguationResult,
        unroll_enabled: bool = True,
        dgemv_enabled: bool = True,
    ):
        self.fn = fn
        self.ann = annotations
        self.dis = disambiguation
        self.selector = Selector(fn, annotations, unroll_enabled, dgemv_enabled)
        self.var_kinds: dict[str, str] = {}
        self.param_reprs: list[str] = []
        self.output_reprs: list[str] = []
        self.hoisted: dict[int, object] = {}
        self.forced_safe: set[int] = set()
        self.kernel_sources: dict[str, str] = {}
        self.kernel_keys: dict[str, str] = {}
        self._int_counters = self._find_int_loop_counters()

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------
    def var_kind(self, name: str) -> str:
        kind = self.var_kinds.get(name)
        if kind is None:
            if name in self._int_counters:
                kind = RAW_INT
            else:
                kind = self.selector.var_repr(name)
                info = self.dis.symbols.lookup(name)
                if info is not None and info.is_ambiguous:
                    kind = BOXED
            self.var_kinds[name] = kind
        return kind

    def _find_int_loop_counters(self) -> set[str]:
        """Names used only as for-loop counters over integer ranges: they
        stay host ints, so subscripts built from them need no conversion."""
        loop_names: set[str] = set()
        other_defs: set[str] = set()
        for stmt in ast.walk_stmts(self.fn.body):
            if isinstance(stmt, ast.For):
                var_type = self.ann.var_type(stmt.var)
                simple_range = isinstance(stmt.iterable, ast.Range) and (
                    stmt.iterable.step is None
                    or self.const_int_step(stmt.iterable.step) is not None
                )
                if (
                    simple_range
                    and var_type.is_scalar
                    and var_type.is_integer_like
                    and self.ann.type_of(stmt.iterable).is_integer_like
                ):
                    loop_names.add(stmt.var)
                else:
                    other_defs.add(stmt.var)
            elif isinstance(stmt, ast.Assign):
                other_defs.add(stmt.target.name)
            elif isinstance(stmt, ast.MultiAssign):
                other_defs.update(t.name for t in stmt.targets)
        return loop_names - other_defs - set(self.fn.params)

    def const_int_step(self, step_expr) -> int | None:
        """The value of a constant integral nonzero loop step, else None."""
        if step_expr is None:
            return None
        step_type = self.ann.type_of(step_expr)
        if (
            step_type.is_constant
            and step_type.constant_value == int(step_type.constant_value)
            and step_type.constant_value != 0
        ):
            return int(step_type.constant_value)
        return None

    def coerce(self, value, src: str, dst: str):
        if src == dst or (src in "if" and dst in "if"):
            return value
        if dst == BOXED:
            return self.call("box", [value], BOXED)
        if dst == RAW_COMPLEX:
            if src == BOXED:
                return self.call("unbox", [value], RAW_COMPLEX)
            return value  # raw real usable wherever complex is expected
        # Boxed or raw complex where the annotation said real: enforce it
        # dynamically.  unbox_real yields a host float; never claim RAW_INT
        # for it (the 'i' kind promises a value range() and .item() accept).
        return self.call("unbox_real", [value], RAW_REAL)

    def annotated(self, value, kind: str, node: ast.Expr):
        """A library result, coerced to its node's inferred representation."""
        target = repr_of_type(self.ann.type_of(node))
        if target != kind:
            return self.coerce(value, kind, target), target
        return value, kind

    def boxed(self, node: ast.Expr):
        return self.coerce(*self.expr(node), BOXED)

    def real(self, node: ast.Expr, end_array=None, end_dim=0):
        return self.coerce(*self.expr(node, end_array, end_dim), RAW_REAL)

    def colon_operand(self, node: ast.Expr, end_array=None, end_dim=0):
        """A ``:`` operand as a raw real.  MATLAB reads the real part of
        its first element (``mlf_colon``), so a complex or boxed operand is
        not an error here, as it is under :meth:`real`."""
        value, kind = self.expr(node, end_array, end_dim)
        if kind in (RAW_REAL, RAW_INT):
            return value
        return self.call("colon_real", [value], RAW_REAL)

    # ------------------------------------------------------------------
    # Function entry
    # ------------------------------------------------------------------
    def entry(self) -> None:
        for position, name in enumerate(self.fn.params):
            kind = self.var_kind(name)
            self.param_reprs.append(kind)
            # Call-by-value: copy boxed parameters that may be mutated
            # (read-only formals are not copied — Section 2.6.1).
            self.param(
                name, position,
                copy=kind == BOXED and not self.selector.is_read_only(name),
            )
        self.output_reprs = [self.var_kind(name) for name in self.fn.outputs]
        # rt.ambiguous_lookup(name, current) takes "no assignment has
        # executed yet" as None: an ambiguous symbol's variable starts so.
        for info in self.dis.symbols:
            if info.is_ambiguous and info.assigned and not info.is_param:
                self.assign(info.name, self.const(None, BOXED))

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def stmts(self, body: list[ast.Stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.assign_stmt(stmt)
        elif isinstance(stmt, ast.MultiAssign):
            self.multi_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            value, kind = self.expr(stmt.value)
            if "ans" in self.ann.var_types or stmt.display:
                self.assign("ans", self.coerce(value, kind, self.var_kind("ans")))
                if stmt.display:
                    self.display("ans")
            else:
                self.bind(value, "t")  # evaluated for its effects only
        elif isinstance(stmt, ast.If):
            self.if_(stmt)
        elif isinstance(stmt, ast.While):
            self.while_(stmt)
        elif isinstance(stmt, ast.For):
            self.for_stmt(stmt)
        elif isinstance(stmt, (ast.Break, ast.Continue, ast.Return)):
            self.jump(stmt)
        elif isinstance(stmt, ast.Clear):
            for name in stmt.names or list(self.var_kinds):
                self.assign(name, self.const(None, self.var_kind(name)))
        elif isinstance(stmt, ast.Global):
            raise CodegenError(
                "global variables are not supported in compiled code"
            )
        else:
            raise CodegenError(f"cannot compile {type(stmt).__name__}")

    def display(self, name: str) -> None:
        boxed = self.coerce(self.var(name), self.var_kind(name), BOXED)
        self.call("display_value", [self.const(name, BOXED), boxed], None)

    def assign_stmt(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if target.is_indexed:
            self.indexed_store(target, stmt.value)
            return
        kind = self.var_kind(target.name)
        value = self.coerce(*self.expr(stmt.value), kind)
        if (
            kind == BOXED
            and isinstance(stmt.value, ast.Ident)
            and (
                target.name in self.selector.mutated_names
                or stmt.value.name in self.selector.mutated_names
            )
        ):
            # Aliasing a name that is (or will be) written in place.
            value = self.call("copy_value", [value], BOXED)
        self.assign(target.name, value)
        if stmt.display:
            self.display(target.name)

    def indexed_store(self, target: ast.LValue, value_expr: ast.Expr) -> None:
        value, value_kind = self.expr(value_expr)
        name, indices = target.name, target.indices
        if (
            self.var_kind(name) == BOXED
            and value_kind in _RAW_KINDS
            and self._scalar_subscripts(indices)
        ):
            # Subscript inlining: a scalar store goes straight to the
            # buffer, guarded only as far as inference could not prove.
            safety = (
                SubscriptSafety.SAFE if id(target) in self.forced_safe
                else self.ann.safety_of_store(target)
            )
            mode = _STORE_MODE[safety]
            if value_kind == RAW_COMPLEX and mode == "unchecked":
                # Complex stores may need to widen the buffer; the checked
                # and grow helpers handle that, the direct path cannot.
                mode = "checked"
            if mode == "unchecked" and len(indices) == 1:
                # Orientation lets the target index without divmod.
                shape = self.ann.var_type(name).maxshape
                if shape.rows == 1:
                    mode = "unchecked_row"
                elif shape.cols == 1:
                    mode = "unchecked_col"
            self.store(name, self._scalar_indices(name, indices), value, mode)
            return
        # Generic store: returns the (possibly reallocated/new) array.
        subscripts = self._store_subscripts(target)
        self._generic_store(
            name, subscripts, self.coerce(value, value_kind, BOXED)
        )

    def _generic_store(self, name: str, subscripts: list, boxed_value) -> None:
        helper = "g_store1" if len(subscripts) == 1 else "g_store2"
        self.assign(
            name,
            self.call(helper, [self.var(name), *subscripts, boxed_value], BOXED),
        )

    def multi_assign(self, stmt: ast.MultiAssign) -> None:
        call = stmt.call
        if not isinstance(call, ast.Apply) or call.kind is ast.ApplyKind.INDEX:
            raise CodegenError("multi-assignment requires a function call")
        args = [self.boxed(arg) for arg in call.args]
        helper = (
            "builtin" if call.kind is ast.ApplyKind.BUILTIN else "call_user"
        )
        head = [
            self.const(call.name, BOXED),
            self.const(len(stmt.targets), RAW_INT),
        ]
        values = self.bind(self.call(helper, head + args, BOXED), "m")
        for position, target in enumerate(stmt.targets):
            element = self.unpack(values, position)
            if target.is_indexed:
                # Route through the generic store with the boxed element.
                self._generic_store(
                    target.name, self._store_subscripts(target), element
                )
            else:
                self.assign(
                    target.name,
                    self.coerce(element, BOXED, self.var_kind(target.name)),
                )

    def for_stmt(self, stmt: ast.For) -> None:
        rng = stmt.iterable
        if not isinstance(rng, ast.Range) or self.var_kind(stmt.var) not in (
            RAW_REAL, RAW_INT
        ):
            # Generic column iteration over a boxed iterable.
            self.for_each(stmt, self.boxed(rng))
            return
        # A numeric loop over raw scalars; bounds are evaluated once, in
        # source order (start, step, stop).
        start = self.bind(self.colon_operand(rng.start), "lo")
        step, direction = None, 1
        if rng.step is not None:
            step = self.bind(self.colon_operand(rng.step), "st")
            step_type = self.ann.type_of(rng.step)
            if not step_type.is_constant or step_type.constant_value == 0:
                direction = 0  # unknown sign: the target iterates frange()
            elif step_type.constant_value < 0:
                direction = -1
        stop = self.bind(self.colon_operand(rng.stop), "hi")
        self.counted_for(stmt, start, stop, step, direction)

    def condition(self, cond: ast.Expr):
        value, kind = self.expr(cond)
        if kind == BOXED:
            return self.call("truth", [value], RAW_REAL)
        return value

    # ------------------------------------------------------------------
    # Expressions: returns (value, kind)
    # ------------------------------------------------------------------
    def expr(self, node: ast.Expr, end_array: str | None = None, end_dim: int = 0):
        named = self.hoisted.get(id(node))
        if named is not None:
            return named, RAW_REAL
        if isinstance(node, ast.Number):
            value = node.value
            if value == int(value) and abs(value) < 2**53:
                # Integral literals stay host ints: index arithmetic on
                # them avoids the int() conversion at every access.
                return self.const(int(value), RAW_INT), RAW_INT
            return self.const(value, RAW_REAL), RAW_REAL
        if isinstance(node, ast.ImagNumber):
            return self.const(complex(0.0, node.value), RAW_COMPLEX), RAW_COMPLEX
        if isinstance(node, ast.StringLit):
            text = self.const(node.text, BOXED)
            return self.call("make_string", [text], BOXED), BOXED
        if isinstance(node, ast.Ident):
            return self.ident(node)
        if isinstance(node, ast.UnaryOp):
            return self.unary_op(node, end_array, end_dim)
        if isinstance(node, ast.BinaryOp):
            return self.binary_op(node, end_array, end_dim)
        if isinstance(node, ast.Transpose):
            value, kind = self.expr(node.operand)
            if kind in (RAW_REAL, RAW_INT):
                return value, kind
            helper = "g_ctranspose" if node.conjugate else "g_transpose"
            return self.call(helper, [value], kind), kind
        if isinstance(node, ast.Range):
            parts = [node.start] + (
                [node.step] if node.step is not None else []
            ) + [node.stop]
            values = [self.colon_operand(p, end_array, end_dim) for p in parts]
            helper = "colon3" if len(values) == 3 else "colon2"
            return self.call(helper, values, BOXED), BOXED
        if isinstance(node, ast.MatrixLit):
            return self.matrix(node)
        if isinstance(node, ast.EndMarker):
            arr = self.var(end_array) if end_array else self.const(None, BOXED)
            dim = self.const(end_dim, RAW_INT)
            return self.call("end_dim", [arr, dim], RAW_INT), RAW_INT
        if isinstance(node, ast.Apply):
            if node.kind is ast.ApplyKind.INDEX:
                return self.index_load(node)
            if node.kind is ast.ApplyKind.BUILTIN:
                return self.builtin_call(node)
            # User function (or ambiguous call — resolved as late-bound user).
            return self.user_call(node, [self.boxed(arg) for arg in node.args])
        if isinstance(node, ast.ColonAll):
            raise CodegenError("':' subscript outside an index expression")
        raise CodegenError(f"cannot compile {type(node).__name__}")

    def user_call(self, node: ast.Expr, args: list):
        head = [self.const(node.name, BOXED), self.const(1, RAW_INT)]
        values = self.call("call_user", head + args, BOXED)
        return self.annotated(self.unpack(values, 0), BOXED, node)

    def ident(self, node: ast.Ident):
        kind = self.dis.kind_of(node)
        if kind is SymbolKind.VARIABLE:
            return self.var(node.name), self.var_kind(node.name)
        if kind is SymbolKind.BUILTIN:
            mtype = self.ann.type_of(node)
            if mtype.is_constant:
                return self.const(mtype.constant_value, RAW_REAL), RAW_REAL
            if node.name in ("i", "j"):
                return self.const(1j, RAW_COMPLEX), RAW_COMPLEX
            name = self.const(node.name, BOXED)
            return self.annotated(
                self.call("builtin1", [name], BOXED), BOXED, node
            )
        if kind is SymbolKind.USER_FUNCTION:
            return self.user_call(node, [])
        # Ambiguous: resolved at runtime from the variable if it was
        # assigned on the executed path, else by dynamic lookup.  The
        # symbol table does not see the implicit ``ans`` of an expression
        # statement; the walk has (its kind is on record).
        info = self.dis.symbols.lookup(node.name)
        name = self.const(node.name, BOXED)
        if node.name in self.var_kinds or (info is not None and info.assigned):
            current = self.coerce(
                self.var(node.name), self.var_kind(node.name), BOXED
            )
        else:
            current = self.const(None, BOXED)
        return self.call("ambiguous_lookup", [name, current], BOXED), BOXED

    # ------------------------------------------------------------------
    def try_fuse(self, node: ast.Expr, end_array=None, end_dim=0):
        """Hook: ``(value, kind)`` if the target collapsed the whole
        elementwise tree rooted at ``node`` into one call, else None."""
        return None

    def unary_op(self, node: ast.UnaryOp, end_array, end_dim):
        fused = self.try_fuse(node, end_array, end_dim)
        if fused is not None:
            return fused
        shape = self.selector.unroll_shape(node)
        if shape is not None and node.op is ast.UnaryKind.NEG:
            return self.unrolled(node, shape)
        value, kind = self.expr(node.operand, end_array, end_dim)
        if kind == BOXED:
            return self.call(_UNARY_HELPER[node.op.value], [value], BOXED), BOXED
        if node.op is ast.UnaryKind.NOT:
            kind = RAW_REAL
        return self.unary(node.op.value, value, kind), kind

    def binary_op(self, node: ast.BinaryOp, end_array, end_dim):
        if node.op in ("&&", "||"):
            return self.short_circuit(node)
        match = self.selector.match_dgemv(node)
        if match is not None:
            return self.dgemv(match)
        fused = self.try_fuse(node, end_array, end_dim)
        if fused is not None:
            return fused
        shape = self.selector.unroll_shape(node)
        if shape is not None:
            return self.unrolled(node, shape)
        left, lkind = self.expr(node.left, end_array, end_dim)
        right, rkind = self.expr(node.right, end_array, end_dim)
        if lkind != BOXED and rkind != BOXED:
            # Scalar arithmetic inlined on raw host scalars.
            complex_kind = (
                RAW_COMPLEX if RAW_COMPLEX in (lkind, rkind) else RAW_REAL
            )
            if node.op in _NUMERIC_PY:
                kind = complex_kind
                if (
                    lkind == RAW_INT
                    and rkind == RAW_INT
                    and node.op in ("+", "-", "*", ".*")
                ):
                    kind = RAW_INT  # host int arithmetic stays int
                if self.ann.type_of(node).is_complex:
                    kind = RAW_COMPLEX
                if kind == RAW_COMPLEX and node.op in ("^", ".^"):
                    # Not inlined: the host's complex ``**`` is 1 ulp off
                    # np.power; the helper keeps raw operands raw.
                    helper = _BINOP_HELPER[node.op]
                    return self.call(helper, [left, right], kind), kind
                return self.binary(_NUMERIC_PY[node.op], left, right, kind), kind
            if node.op in _COMPARE_PY:
                value = self.binary(_COMPARE_PY[node.op], left, right, RAW_REAL)
                return value, RAW_REAL
            if node.op in ("\\", ".\\"):
                return self.binary("/", right, left, complex_kind), complex_kind
        value = self.call(_BINOP_HELPER[node.op], [left, right], BOXED)
        return self.annotated(value, BOXED, node)

    def matrix(self, node: ast.MatrixLit):
        shape = self.selector.unroll_shape(node)
        if shape is not None:
            return self.unrolled(node, shape)
        if not node.rows:
            return self.call("empty_matrix", [], BOXED), BOXED
        rows = [
            self.call("hcat", [self.expr(item)[0] for item in row], BOXED)
            for row in node.rows
        ]
        if len(rows) == 1:
            return rows[0], BOXED
        return self.call("vcat", rows, BOXED), BOXED

    def dgemv(self, match: DgemvMatch):
        """``alpha*A*x + beta*y`` as a single BLAS-style call."""
        alpha = (
            self.const(1.0, RAW_REAL) if match.alpha is None
            else self.real(match.alpha)
        )
        matrix = self.boxed(match.matrix)
        vector = self.boxed(match.vector)
        if match.addend is None:
            beta = self.const(0.0, RAW_REAL)
            addend = self.const(None, BOXED)
        else:
            beta = (
                self.const(1.0, RAW_REAL) if match.beta is None
                else self.real(match.beta)
            )
            addend = self.boxed(match.addend)
        args = [alpha, matrix, vector, beta, addend]
        return self.call("dgemv", args, BOXED), BOXED

    # ------------------------------------------------------------------
    # Unrolled small-vector operations with pre-allocated site buffers
    # ------------------------------------------------------------------
    def unrolled(self, node: ast.Expr, shape: tuple[int, int]):
        rows, cols = shape
        buffer = self.site_buffer(rows, cols)
        if isinstance(node, ast.MatrixLit):
            # Every element is evaluated before the first is stored: the
            # buffer may be what an element reads.
            cells = [
                (r, c, self.real(item))
                for r, row in enumerate(node.rows)
                for c, item in enumerate(row)
            ]
            cells = [(r, c, self.bind(value, "e")) for r, c, value in cells]
            for r, c, value in cells:
                self.set_element(buffer, r, c, value)
            return buffer, BOXED
        if isinstance(node, ast.UnaryOp):
            operands = [self._unroll_operand(node.operand)]
        else:
            operands = [
                self._unroll_operand(node.left),
                self._unroll_operand(node.right),
            ]
        for r in range(rows):
            for c in range(cols):
                elems = [
                    value if scalar else self.element(value, r, c)
                    for scalar, value in operands
                ]
                if isinstance(node, ast.UnaryOp):
                    result = self.unary("-", elems[0], RAW_REAL)
                else:
                    result = self.binary(
                        _NUMERIC_PY[node.op], elems[0], elems[1], RAW_REAL
                    )
                self.set_element(buffer, r, c, result)
        return buffer, BOXED

    def _unroll_operand(self, node: ast.Expr):
        """``(is_scalar, value)`` of an operand read once per element."""
        if self.ann.type_of(node).is_scalar:
            return True, self.bind(self.real(node), "s", reused=True)
        return False, self.bind(self.boxed(node), "a", reused=True)

    # ------------------------------------------------------------------
    # Subscripts
    # ------------------------------------------------------------------
    def _scalar_subscripts(self, indices) -> bool:
        return all(
            not isinstance(i, (ast.ColonAll, ast.Range))
            and self.ann.type_of(i).is_scalar
            for i in indices
        )

    def _subscript(self, index, name: str, position: int, arity: int):
        """One subscript of ``name``, with ``end`` bound to its extent."""
        return self.expr(
            index, end_array=name, end_dim=(0 if arity == 1 else position + 1)
        )

    def _scalar_indices(self, name: str, indices) -> list:
        """``(value, kind)`` per scalar subscript, raw for the inlined
        load/store paths (a boxed one is a variable whose *summary* type is
        not scalar although this use is)."""
        out = []
        for position, index in enumerate(indices):
            value, kind = self._subscript(index, name, position, len(indices))
            if kind == BOXED:
                value, kind = self.call("unbox_real", [value], RAW_REAL), RAW_REAL
            out.append((value, kind))
        return out

    def _store_subscripts(self, target: ast.LValue) -> list:
        """Subscripts for the generic store helpers (raw, boxed or ':')."""
        indices = target.indices
        return [
            self.call("colon_marker", [], BOXED)
            if isinstance(index, ast.ColonAll)
            else self._subscript(index, target.name, position, len(indices))[0]
            for position, index in enumerate(indices)
        ]

    def index_load(self, node: ast.Apply):
        name, indices = node.name, node.args
        arr_kind = self.var_kind(name)
        kind = repr_of_type(self.ann.type_of(node))
        if (
            arr_kind == BOXED
            and kind in (RAW_REAL, RAW_COMPLEX)
            and self._scalar_subscripts(indices)
        ):
            # Subscript inlining: proven-safe scalar loads are direct
            # buffer accesses, the rest keep their bounds check.
            safe = (
                id(node) in self.forced_safe
                or self.ann.safety_of_load(node) is SubscriptSafety.SAFE
            )
            mode = "unchecked" if safe else "checked"
            return self.load(
                name, self._scalar_indices(name, indices), mode, kind
            ), kind
        # Generic indexing through helpers (handles ':' and vector
        # indices; a raw scalar "array" is boxed for full semantics).
        arr = self.coerce(self.var(name), arr_kind, BOXED)
        colons = [
            position for position, index in enumerate(indices)
            if isinstance(index, ast.ColonAll)
        ]
        subs = [
            None if isinstance(index, ast.ColonAll)
            else self._subscript(index, name, position, len(indices))[0]
            for position, index in enumerate(indices)
        ]
        if len(indices) == 1:
            if colons:
                value = self.call("index_all", [arr], BOXED)
            else:
                value = self.call("g_index1", [arr, subs[0]], BOXED)
        elif colons == [0]:
            value = self.call("index_col", [arr, subs[1]], BOXED)
        elif colons == [1]:
            value = self.call("index_row", [arr, subs[0]], BOXED)
        elif colons == [0, 1]:
            value = self.call("index_whole", [arr], BOXED)
        else:
            value = self.call("g_index2", [arr, subs[0], subs[1]], BOXED)
        return self.annotated(value, BOXED, node)

    # ------------------------------------------------------------------
    def builtin_call(self, node: ast.Apply):
        mtype = self.ann.type_of(node)
        # Constant folding via range propagation: a builtin call whose
        # result is a known constant compiles to an immediate.
        from repro.runtime.builtins import BUILTINS

        entry = BUILTINS.get(node.name)
        if (
            mtype.is_constant
            and entry is not None
            and entry.pure
            and not node.args
        ):
            return self.const(mtype.constant_value, RAW_REAL), RAW_REAL
        # Builtin-rooted fused trees (e.g. ``exp(a .* b)``).
        fused = self.try_fuse(node)
        if fused is not None:
            return fused
        # Elementary math on a raw scalar: one host call, no boxing.
        fast = SCALAR_MATH.get(node.name)
        if fast is not None and len(node.args) == 1:
            real_helper, complex_helper = fast
            arg_type = self.ann.type_of(node.args[0])
            if arg_type.is_scalar and arg_type.is_real_like and mtype.is_scalar:
                if mtype.is_real_like:
                    value = self.real(node.args[0])
                    if real_helper == "abs":
                        return self.unary("abs", value, RAW_REAL), RAW_REAL
                    return self.call(real_helper, [value], RAW_REAL), RAW_REAL
                if complex_helper is not None:
                    # e.g. sqrt of a possibly negative real.
                    value = self.real(node.args[0])
                    return (
                        self.call(complex_helper, [value], RAW_COMPLEX),
                        RAW_COMPLEX,
                    )
            elif (
                arg_type.is_scalar
                and arg_type.intrinsic is Intrinsic.COMPLEX
                and complex_helper is not None
            ):
                value = self.coerce(*self.expr(node.args[0]), RAW_COMPLEX)
                kind = RAW_REAL if node.name == "abs" else RAW_COMPLEX
                return self.call(complex_helper, [value], kind), kind
        if node.name in ("mod", "rem") and len(node.args) == 2:
            types = [self.ann.type_of(a) for a in node.args]
            if all(t.is_scalar and t.is_real_like for t in types):
                values = [self.real(a) for a in node.args]
                helper = "m_mod" if node.name == "mod" else "m_rem"
                return self.call(helper, values, RAW_REAL), RAW_REAL
        # Generic builtin dispatch.
        args = [self.boxed(arg) for arg in node.args]
        name = self.const(node.name, BOXED)
        value = self.call("builtin1", [name, *args], BOXED)
        return self.annotated(value, BOXED, node)
