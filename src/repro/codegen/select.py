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
* **unrolling and scalar replacement** — elementary vector operations
  with exactly known small real shapes (≤ 3×3) are completely unrolled,
  and a local variable that only ever holds such a shape lives as one raw
  host scalar per element; a fresh array is built only where a value
  escapes (a call, a display, a non-constant subscript); a matrix product
  of such shapes is one library call that returns host floats;
* **dgemv fusion** — expression trees of the form ``a*X + b*C*Y`` collapse
  into a single BLAS call;
* **elementwise fusion** — a whole array-typed elementwise tree becomes
  one generated kernel (:mod:`repro.kernels`), unless the unroller takes
  it;
* **read-only parameters** — call-by-value copies are elided for
  parameters (and variables) that are never mutated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.analysis.disambiguate import DisambiguationResult
from repro.analysis.symtab import SymbolKind
from repro.codegen.runtime_support import SCALAR_MATH, SITE_ARITY
from repro.errors import CodegenError
from repro.frontend import ast_nodes as ast
from repro.inference.annotations import Annotations, SubscriptSafety
from repro.obs.trace import NULL_TRACER
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
#: A scalar-replaced variable: one raw real per element, never one value.
ELEMENTS = "e"

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
    """``A*x + beta*y`` pieces extracted from an expression tree."""

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
        #: Names whose storage may be written in place.
        self.mutated_names = ast.stored(fn.body)

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
    @staticmethod
    def small_shape(mtype: MType):
        """(rows, cols) of an exact INT / REAL shape of 2..UNROLL_LIMIT
        elements, else None.  BOOL stays boxed: its class is its tag."""
        if not mtype.has_exact_shape or mtype.intrinsic not in _UNROLLED:
            return None
        shape = mtype.exact_shape
        if shape.numel < 2 or shape.numel > UNROLL_LIMIT:
            return None
        return (shape.rows, shape.cols)

    def unroll_shape(self, node: ast.Expr):
        """(rows, cols) if the node's result should be built unrolled."""
        if not self.unroll_enabled:
            return None
        shape = self.small_shape(self.annotations.type_of(node))
        if shape is None:
            return None
        if isinstance(node, ast.MatrixLit):
            flat = [item for row in node.rows for item in row]
            if all(
                repr_of_type(self.annotations.type_of(e)) in (RAW_REAL, RAW_INT)
                for e in flat
            ):
                return shape
            return None
        if isinstance(node, ast.BinaryOp):
            shapes = self.product_shapes(node)
            if shapes is not None and (shapes[0][0], shapes[1][1]) == shape:
                return shape
        if isinstance(node, ast.BinaryOp) and (
            node.op in _ELEMENTWISE_OPS
            or (node.op in ("*", "/") and self._one_side_scalar(node))
        ):
            if self._unrollable_operand(
                node.left, shape
            ) and self._unrollable_operand(node.right, shape):
                return shape
        if isinstance(node, ast.UnaryOp) and node.op is ast.UnaryKind.NEG:
            if self._unrollable_operand(node.operand, shape):
                return shape
        return None

    def product_shapes(self, node: ast.BinaryOp):
        """``((rows, inner), (inner, cols))`` if ``node`` is a matrix
        product of two INT / REAL operands of exact shapes, neither a
        scalar and neither past UNROLL_LIMIT elements, else None.  Its
        result is unrolled when it has 2..UNROLL_LIMIT elements too."""
        if node.op != "*":
            return None
        shapes = []
        for operand in (node.left, node.right):
            mtype = self.annotations.type_of(operand)
            if (
                mtype.is_scalar
                or not mtype.has_exact_shape
                or mtype.intrinsic not in _UNROLLED
                or mtype.exact_shape.numel > UNROLL_LIMIT
            ):
                return None
            shapes.append((mtype.exact_shape.rows, mtype.exact_shape.cols))
        if shapes[0][1] != shapes[1][0]:
            return None
        return tuple(shapes)

    def _one_side_scalar(self, node: ast.BinaryOp) -> bool:
        left = self.annotations.type_of(node.left)
        right = self.annotations.type_of(node.right)
        if node.op == "*":
            return left.is_scalar or right.is_scalar
        return right.is_scalar  # '/' by a scalar only

    def _unrollable_operand(self, node: ast.Expr, shape) -> bool:
        """Operand readable element-by-element without a library call:
        a real scalar, or a real array of the result's exact shape
        (unrolled itself, scalar-replaced, or a boxed value whose
        elements are read at constant positions)."""
        mtype = self.annotations.type_of(node)
        if not mtype.is_real_like:
            return False
        if mtype.is_scalar:
            return True
        exact = mtype.exact_shape
        return exact is not None and (exact.rows, exact.cols) == shape

    # ------------------------------------------------------------------
    # Scalar replacement
    # ------------------------------------------------------------------
    def scalar_replaced(self, dis: DisambiguationResult) -> dict:
        """``name -> (rows, cols)`` for the variables that live as one raw
        real per element: locals (no formal, output or ``ans``)
        whose every definition is INT / REAL with the same
        :meth:`small_shape`, that are
        definitely assigned wherever read or stored into, and that are
        stored into only one element at a time, at constant subscripts in
        range.  A ``for`` variable, a multi-assignment target, a
        ``global`` and a ``clear``ed name never qualify: an atom that
        defines or kills a name other than by assignment drops it."""
        if not self.unroll_enabled:
            return {}
        shapes = {}
        for info in dis.symbols:
            if (
                info.is_param or info.is_output
                or info.name == "ans"
                or info.kinds != {SymbolKind.VARIABLE}
            ):
                continue
            shape = self.small_shape(self.annotations.var_type(info.name))
            if shape is not None:
                shapes[info.name] = shape
        if not shapes:
            return shapes
        for atom in dis.cfg.atoms():
            if atom.kills is None:
                return {}
            stmt = atom.stmt
            if not isinstance(stmt, ast.Assign):
                for name in atom.defs + atom.kills:
                    shapes.pop(name, None)
                continue
            target = stmt.target
            shape = shapes.get(target.name)
            if shape is None:
                continue
            if target.is_indexed:
                # An element store into a name assigned on every path to it.
                if (
                    target.name not in dis.assignments.must_before(atom)
                    or self.element_position(target.indices, shape, dis)
                    is None
                    or not self._real_scalar(stmt.value)
                ):
                    del shapes[target.name]
            elif (
                self.annotations.type_of(stmt.value).intrinsic
                not in _UNROLLED
            ):
                # The join hides a logical definition (BOOL ⊔ INT is
                # INT), and a logical value's class is its tag.
                del shapes[target.name]
        return shapes

    def _real_scalar(self, node: ast.Expr) -> bool:
        mtype = self.annotations.type_of(node)
        return mtype.is_scalar and mtype.is_real_like

    def element_position(self, indices, shape, dis: DisambiguationResult):
        """The column-major position that constant, in-range ``indices``
        name in an array of ``shape``, else None."""
        rows, cols = shape
        values = [self.constant_index(index, dis) for index in indices]
        if None in values:
            return None
        if len(values) == 1:
            return values[0] - 1 if 1 <= values[0] <= rows * cols else None
        if len(values) == 2:
            row, col = values
            if 1 <= row <= rows and 1 <= col <= cols:
                return (row - 1) + (col - 1) * rows
        return None

    def constant_index(self, node: ast.Expr, dis: DisambiguationResult):
        """An integral constant subscript whose reading has no effect."""
        mtype = self.annotations.type_of(node)
        if not mtype.is_constant or not _pure(node, dis):
            return None
        value = mtype.constant_value
        return int(value) if value == int(value) else None

    # ------------------------------------------------------------------
    # dgemv fusion
    # ------------------------------------------------------------------
    def match_dgemv(self, node: ast.Expr) -> DgemvMatch | None:
        """Match ``A*x [+ beta*y]`` patterns (Section 2.6.1).  A scaled
        matrix ``(a*A)*x`` matches as the matrix ``a*A``: the interpreter
        scales ``A`` before the product, and so does this."""
        if not self.dgemv_enabled or not isinstance(node, ast.BinaryOp):
            return None
        if node.op in ("+", "-"):
            sides = [(node.left, node.right)]
            if node.op == "+":
                sides.append((node.right, node.left))
            for product, other in sides:
                matched = self._match_ax(product)
                if matched is None:
                    continue
                beta, addend = self._match_scaled_vector(other)
                if addend is None:
                    continue
                if node.op == "-":
                    if beta is not None:
                        return None
                    beta = _NEG_ONE  # A*x - y  =>  dgemv(1, A, x, -1, y)
                return DgemvMatch(*matched, beta=beta, addend=addend)
            return None
        matched = self._match_ax(node)
        if matched is not None:
            return DgemvMatch(*matched, beta=None, addend=None)
        return None

    def _match_ax(self, node: ast.Expr):
        """Match ``A*x`` where A is a matrix, x a vector: ``(A, x)``."""
        if not isinstance(node, ast.BinaryOp) or node.op != "*":
            return None
        if self._is_vector_type(
            self.annotations.type_of(node.right)
        ) and self._is_matrix_type(self.annotations.type_of(node.left)):
            return (node.left, node.right)
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

#: Element classes of unrolled values and scalar-replaced variables.
_UNROLLED = (Intrinsic.INT, Intrinsic.REAL)


def _row_major(values: list, shape) -> list:
    """Column-major element ``values`` of ``shape`` in row-major order."""
    rows, cols = shape
    return [values[r + c * rows] for r in range(rows) for c in range(cols)]


def _pure(node: ast.Expr, dis: DisambiguationResult) -> bool:
    """Evaluating ``node`` has no effect and cannot fail: literals,
    ``end``, variables, and operators over them."""
    if isinstance(node, (ast.Number, ast.EndMarker)):
        return True
    if isinstance(node, ast.Ident):
        return dis.kind_of(node) is SymbolKind.VARIABLE
    if isinstance(node, ast.UnaryOp):
        return _pure(node.operand, dis)
    if isinstance(node, ast.BinaryOp):
        return _pure(node.left, dis) and _pure(node.right, dis)
    return False


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
_RAW_KINDS = (RAW_REAL, RAW_INT, RAW_COMPLEX)


class Walk:
    """The one code-selection walk over a function's typed AST.

    Every expression method returns ``(value, kind)``: ``value`` is
    whatever the target uses to name a result (a virtual register, a source
    expression) and is opaque here; ``kind`` is its representation.
    Representation discipline: every MATLAB variable has exactly one
    representation for the whole compiled function, chosen from its
    inferred type summary — a raw host float (real scalar), raw complex, a
    boxed MxArray, or, for a scalar-replaced variable
    (:meth:`Selector.scalar_replaced`), one raw host float per element;
    ``coerce`` mediates at the few boundaries.  :meth:`elements` is the
    unrolled view of an expression (its element values, column-major);
    ``expr`` never returns it, but boxes it into a fresh array (``pack``).

    Output is reached only through the emission primitives a target
    implements:

    * values — ``var(name)``, ``const(value, kind)``, ``call(helper, args,
      kind)`` (``kind=None``: called for effect), ``call_own(args)`` (the
      function's own emitted function, for its tuple of results),
      ``unpack(values, position, kind)``, ``unary``/``binary(op, ...,
      kind)`` on raw scalars,
      ``bind(value, base, reused=False)`` (evaluate here, exactly once);
    * memory — ``load``/``store(name, indices, ..., mode)`` for scalar
      subscripts with their safety mode, ``element(array, r, c)`` at a
      constant position of a boxed operand, ``elem(name, position)`` (an
      element of a scalar-replaced variable) and ``assign_elements(name,
      values)``, ``assign(name, value)``, ``param(name, position, copy)``;
    * control — ``if_``, ``while_``, ``for_each``, ``counted_for``,
      ``jump`` (break/continue/return) and ``short_circuit``, which call
      back into ``condition`` and ``stmts`` for the pieces they nest.

    Elementwise fusion is part of the walk, for both targets: with
    ``fusion`` on, :meth:`try_fuse` collapses an elementwise tree into one
    kernel call and records the kernel's key in ``kernel_keys``.  The loop
    hook's state is empty unless a target fills it: ``hoisted``
    (loop-invariant expressions already named) and ``forced_safe``
    (subscripts a loop-entry guard has proven in range; ``forcing_used``
    records whether that proof changed a selected mode).
    """

    def __init__(
        self,
        fn: ast.FunctionDef,
        annotations: Annotations,
        disambiguation: DisambiguationResult,
        unroll_enabled: bool = True,
        dgemv_enabled: bool = True,
        fusion: bool = False,
        fault_plan=None,
        tracer=NULL_TRACER,
    ):
        self.fn = fn
        self.ann = annotations
        self.dis = disambiguation
        self.selector = Selector(fn, annotations, unroll_enabled, dgemv_enabled)
        self.fusion = fusion
        self.fault_plan = fault_plan
        self.tracer = tracer
        self.var_kinds: dict[str, str] = {}
        self.param_reprs: list[str] = []
        self.output_reprs: list[str] = []
        self.hoisted: dict[int, object] = {}
        self.forced_safe: set[int] = set()
        self.forcing_used = False
        self.kernel_keys: dict[str, str] = {}
        self._int_counters = self._find_int_loop_counters()
        #: Element stores that a path reaches with their array unset: they
        #: grow it from empty, as the interpreter does (target id -> name).
        self.unset_stores = {
            id(target): target.name
            for atom in disambiguation.cfg.atoms()
            for target in ast.targets(atom.stmt)
            if target.is_indexed
            and target.name not in disambiguation.assignments.must_before(atom)
        }
        #: Scalar-replaced variables: name -> (rows, cols).
        self.replaced = self.selector.scalar_replaced(disambiguation)

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------
    def var_kind(self, name: str) -> str:
        kind = self.var_kinds.get(name)
        if kind is None:
            if name in self.replaced:
                kind = ELEMENTS
            elif name in self._int_counters:
                kind = RAW_INT
            else:
                kind = self.selector.var_repr(name)
                info = self.dis.symbols.lookup(name)
                if name in self.unset_stores.values() or (
                    info is not None and info.is_ambiguous
                ):
                    kind = BOXED  # it may hold None: no value yet
            self.var_kinds[name] = kind
        return kind

    def _find_int_loop_counters(self) -> set[str]:
        """Names used only as for-loop counters over integer ranges: they
        stay host ints, so subscripts built from them need no conversion."""
        loop_names: set[str] = set()
        other_defs: set[str] = set()
        for atom in self.dis.cfg.atoms():
            stmt = atom.stmt
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
                    continue
            other_defs.update(atom.defs)
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

    def boxed_var(self, name: str):
        """Variable ``name`` as an MxArray (a scalar-replaced one in a
        fresh array)."""
        shape = self.replaced.get(name)
        if shape is not None:
            return self.pack(self._var_elements(name), shape)
        return self.coerce(self.var(name), self.var_kind(name), BOXED)

    def real(self, node: ast.Expr, end_array=None, end_dim=0):
        return self.coerce(*self.expr(node, end_array, end_dim), RAW_REAL)

    def colon_operand(self, node: ast.Expr, end_array=None, end_dim=0):
        """A ``:`` operand as a raw real, ``(value, kind)``.  MATLAB reads
        the real part of its first element (``mlf_colon``), so a complex or
        boxed operand is not an error here, as it is under :meth:`real`."""
        value, kind = self.expr(node, end_array, end_dim)
        if kind in (RAW_REAL, RAW_INT):
            return value, kind
        return self.call("colon_real", [value], RAW_REAL), RAW_REAL

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
        # rt.ambiguous_lookup(name, current) and g_store* take "no
        # assignment has executed yet" as None: an ambiguous symbol's
        # variable, and an array a store may grow from empty, start so.
        unset = set(self.unset_stores.values())
        for info in self.dis.symbols:
            if info.name in unset or (
                info.is_ambiguous and info.assigned and not info.is_param
            ):
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
        boxed = self.boxed_var(name)
        self.call("display_value", [self.const(name, BOXED), boxed], None)

    def assign_stmt(self, stmt: ast.Assign) -> None:
        target = stmt.target
        shape = self.replaced.get(target.name)
        if shape is not None and target.is_indexed:
            # A constant in-range subscript (scalar_replaced saw to it).
            values = self._var_elements(target.name)
            position = self.selector.element_position(
                target.indices, shape, self.dis
            )
            values[position] = self.element_real(stmt.value)
            self.assign_elements(target.name, values)
        elif shape is not None:
            self.assign_elements(
                target.name, self._operand_elements(stmt.value, shape)
            )
        elif target.is_indexed:
            self.indexed_store(target, stmt.value)
        else:
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
            and id(target) not in self.unset_stores
        ):
            # Subscript inlining: a scalar store goes straight to the
            # buffer where inference proved it in range, and is MxArray's
            # checked, growing store everywhere else.  A complex store may
            # need to widen the buffer, which only the checked store does.
            mode = self.subscript_mode(
                target, name, len(indices), self.ann.safety_of_store(target),
                direct=value_kind != RAW_COMPLEX,
            )
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
        kind = self.dis.kind_of(call)
        if not isinstance(call, ast.Apply) or kind is SymbolKind.VARIABLE:
            raise CodegenError("multi-assignment requires a function call")
        if kind is SymbolKind.AMBIGUOUS:
            # `[r] = v(1)`: indexes the variable if a path assigned it.
            if len(stmt.targets) > 1:
                raise CodegenError(
                    f"multi-assignment from maybe-assigned '{call.name}'"
                )
            elements = [self.ambiguous(call, call.args)]
        elif kind is SymbolKind.BUILTIN:
            args = [self.boxed(arg) for arg in call.args]
            head = [
                self.const(call.name, BOXED),
                self.const(len(stmt.targets), RAW_INT),
            ]
            values = self.bind(self.call("builtin", head + args, BOXED), "m")
            elements = (
                (self.unpack(values, position, BOXED), BOXED)
                for position in range(len(stmt.targets))
            )
        else:
            values, kinds = self.call_user_function(call, len(stmt.targets))
            values = self.bind(values, "m")
            elements = (
                self.result(values, position, kinds[position])
                for position in range(len(stmt.targets))
            )
        for target, (element, element_kind) in zip(stmt.targets, elements):
            if target.is_indexed:
                # Route through the generic store with the boxed element.
                self._generic_store(
                    target.name, self._store_subscripts(target),
                    self.coerce(element, element_kind, BOXED),
                )
            else:
                self.assign(
                    target.name,
                    self.coerce(
                        element, element_kind, self.var_kind(target.name)
                    ),
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
        # source order (start, step, stop), each a ``(value, kind)``.
        def bound(node, base):
            value, kind = self.colon_operand(node)
            return self.bind(value, base), kind

        start = bound(rng.start, "lo")
        step, direction = None, 1
        if rng.step is not None:
            step = bound(rng.step, "st")
            step_type = self.ann.type_of(rng.step)
            if not step_type.is_constant or step_type.constant_value == 0:
                direction = 0  # unknown sign: the target iterates frange()
            elif step_type.constant_value < 0:
                direction = -1
        stop = bound(rng.stop, "hi")
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
            values = [
                self.colon_operand(p, end_array, end_dim)[0] for p in parts
            ]
            helper = "colon3" if len(values) == 3 else "colon2"
            return self.call(helper, values, BOXED), BOXED
        if isinstance(node, ast.MatrixLit):
            return self.matrix(node)
        if isinstance(node, ast.EndMarker):
            shape = self.replaced.get(end_array)
            if shape is not None:
                rows, cols = shape
                extent = {1: rows, 2: cols}.get(end_dim, rows * cols)
                return self.const(extent, RAW_INT), RAW_INT
            if end_array is None:
                # No subscript encloses it: the interpreter's error, raised
                # where the interpreter raises it.
                return self.call("end_outside", [], RAW_INT), RAW_INT
            dim = self.const(end_dim, RAW_INT)
            return self.call(
                "end_dim", [self.var(end_array), dim], RAW_INT
            ), RAW_INT
        if isinstance(node, ast.Apply):
            kind = self.dis.kind_of(node)
            if kind is SymbolKind.VARIABLE:
                return self.index_load(node)
            if kind is SymbolKind.BUILTIN:
                return self.builtin_call(node)
            if kind is SymbolKind.AMBIGUOUS:
                return self.ambiguous(node, node.args)
            return self.user_call(node)
        if isinstance(node, ast.ColonAll):
            raise CodegenError("':' subscript outside an index expression")
        raise CodegenError(f"cannot compile {type(node).__name__}")

    def user_call(self, node: ast.Expr):
        values, kinds = self.call_user_function(node, 0)
        return self.annotated(*self.result(values, 0, kinds[0]), node)

    def call_user_function(self, call: ast.Expr, nargout: int):
        """Call user function ``call`` for ``nargout`` results: ``(values,
        kinds)``, a tuple of results and each one's representation
        (``nargout == 0``: a call in an expression, which has one result,
        ``[]`` from a function with no outputs).

        A call of the function being compiled that inference bound to
        the signature being compiled (``Annotations.binding_of``), for
        one result and with at most ``SITE_ARITY`` arguments, is a plain
        call of this version's own emitted function (:meth:`call_own`):
        its arguments in this version's parameter representations, its
        result in its first output's; the version that runs is the one
        being compiled, so nothing is located or checked per call.  Any
        other user call re-enters the repository, which locates or
        compiles its callee, through ``rt.call_user`` with boxed
        arguments, or — a name that was no function when this one was
        disambiguated — through ``rt.call_unknown``, which raises the
        interpreter's error at the call's location."""
        args = call.args if isinstance(call, ast.Apply) else []
        if (
            self.ann.binding_of(call) is None or nargout > 1
            or len(args) > SITE_ARITY or not self.fn.outputs
        ):
            head = [self.const(call.name, BOXED), self.const(nargout, RAW_INT)]
            helper = "call_user"
            if call.name in self.dis.unknown:
                helper = "call_unknown"
                head.insert(1, self.const(str(call.location), BOXED))
            boxed = [self.boxed(arg) for arg in args]
            values = self.call(helper, head + boxed, BOXED)
            return values, [BOXED] * max(nargout, 1)
        values = self.call_own([
            self.call_arg(arg, kind) for arg, kind in zip(args, self.param_reprs)
        ])
        if not self._first_output_assigned:
            values = self.call("own_result", [
                values, self.const(self.fn.name, BOXED),
                self.const(self.fn.outputs[0], BOXED),
            ], BOXED)
        return values, self.output_reprs[:1]

    @functools.cached_property
    def _first_output_assigned(self) -> bool:
        """Whether every path to the function's exit assigns its first
        output (the converged must-assignment state at the CFG's exit), so
        a run of this version never returns it unset."""
        must = self.dis.assignments.must
        state = must.block_in.get(self.dis.cfg.exit.index)
        return must.converged and state is not None and self.fn.outputs[0] in state

    def call_arg(self, node: ast.Expr, kind: str):
        """An argument of an own call, in its parameter's representation
        and as the version's boxed entry would receive it: ``invoke``
        unboxes a boxed scalar to a host float, or a complex one whose
        imaginary part is nonzero."""
        if kind == RAW_REAL:
            return self.element_real(node)
        if kind == RAW_COMPLEX:
            value, value_kind = self.expr(node)
            if value_kind == BOXED:
                return self.coerce(value, BOXED, RAW_COMPLEX)
            return self.call("scalar_value", [value], RAW_COMPLEX)
        return self.boxed(node)

    def result(self, values, position: int, kind: str):
        """Result ``position`` of a call, ``(value, kind)``: a raw one as
        the boxed entry would hand it over (a host float, or a complex
        whose imaginary part is nonzero)."""
        value = self.unpack(values, position, kind)
        if kind in (RAW_REAL, RAW_INT):
            return self.host_float(value), RAW_REAL
        if kind == RAW_COMPLEX:
            return self.call("scalar_value", [value], RAW_COMPLEX), kind
        return value, kind

    def ident(self, node: ast.Ident):
        kind = self.dis.kind_of(node)
        if node.name in self.replaced:
            # Every reached read resolves VARIABLE (scalar_replaced); one
            # that does not is in code no path reaches.
            return self.boxed_var(node.name), BOXED
        if kind is SymbolKind.VARIABLE:
            return self.var(node.name), self.var_kind(node.name)
        if kind is SymbolKind.BUILTIN:
            mtype = self.ann.type_of(node)
            if mtype.is_constant:
                return self.const(mtype.constant_value, RAW_REAL), RAW_REAL
            if node.name in ("i", "j"):
                return self.const(1j, RAW_COMPLEX), RAW_COMPLEX
            if node.name == "rand" and repr_of_type(mtype) == RAW_REAL:
                return self.call("rand_scalar", [], RAW_REAL), RAW_REAL
            name = self.const(node.name, BOXED)
            return self.annotated(
                self.call("builtin1", [name], BOXED), BOXED, node
            )
        if kind is SymbolKind.USER_FUNCTION:
            return self.user_call(node)
        return self.ambiguous(node, [])

    def ambiguous(self, node: ast.Ident | ast.Apply, args: list[ast.Expr]):
        """A name assigned on some paths only, read bare or in call form:
        resolved at run time from the variable if it was assigned on the
        executed path (indexed by the call form's arguments), else by
        dynamic lookup.  The symbol table does not see the implicit
        ``ans`` of an expression statement; the walk has (its kind is on
        record)."""
        if any(isinstance(sub, (ast.EndMarker, ast.ColonAll))
               for arg in args for sub in ast.walk_expr(arg)):
            # Only a subscript of a known variable gives them a meaning.
            raise CodegenError(f"'end' or ':' in ambiguous '{node.name}(...)'")
        info = self.dis.symbols.lookup(node.name)
        name = self.const(node.name, BOXED)
        if node.name in self.var_kinds or (info is not None and info.assigned):
            current = self.coerce(
                self.var(node.name), self.var_kind(node.name), BOXED
            )
        else:
            current = self.const(None, BOXED)
        where = self.const(str(node.location), BOXED)
        args = [self.boxed(arg) for arg in args]
        return self.call(
            "ambiguous_lookup", [name, current, where, *args], BOXED
        ), BOXED

    # ------------------------------------------------------------------
    # Elementwise fusion: collapse a whole array-typed operator tree into
    # one content-addressed kernel call (repro.kernels).  A tree of an
    # exact small real shape never gets here: the unroller takes it first.
    def try_fuse(self, node: ast.Expr, end_array=None, end_dim=0):
        """``(value, kind)`` if the whole elementwise tree rooted at
        ``node`` became one kernel call, else None."""
        if not self.fusion:
            return None
        # Imported here: the matcher itself reads this module.
        from repro.kernels import KERNEL_CACHE, match_typed

        plan = match_typed(node, self.ann, self.dis)
        if plan is None:
            return None
        with self.tracer.span(
            "fusion", "fusion",
            function=self.fn.name, ops=plan.op_count,
        ):
            leaves = []
            descs = []
            for leaf in plan.leaves:
                value, kind = self.expr(leaf, end_array, end_dim)
                descs.append("b" if kind == BOXED else "s")
                leaves.append(value)
            kernel = KERNEL_CACHE.get_or_compile(
                plan.root, tuple(descs),
                fault_plan=self.fault_plan,
            )
        self.kernel_keys[kernel.name] = kernel.key
        return self.annotated(self.call(kernel.name, leaves, BOXED), BOXED, node)

    def unary_op(self, node: ast.UnaryOp, end_array, end_dim):
        shape = self.selector.unroll_shape(node)
        if shape is not None:
            return self.pack(self.elements(node), shape), BOXED
        fused = self.try_fuse(node, end_array, end_dim)
        if fused is not None:
            return fused
        value, kind = self.expr(node.operand, end_array, end_dim)
        if kind == BOXED:
            return self.call(_UNARY_HELPER[node.op.value], [value], BOXED), BOXED
        if node.op is ast.UnaryKind.NOT:
            kind = RAW_REAL
        return self.unary(node.op.value, value, kind), kind

    def binary_op(self, node: ast.BinaryOp, end_array, end_dim):
        if node.op in ("&&", "||"):
            return self.short_circuit(node)
        shape = self.selector.unroll_shape(node)
        if shape is not None:
            return self.pack(self.elements(node), shape), BOXED
        match = self.selector.match_dgemv(node)
        if match is not None:
            return self.dgemv(match)
        fused = self.try_fuse(node, end_array, end_dim)
        if fused is not None:
            return fused
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
                if complex_kind == RAW_COMPLEX and node.op[0] in "<>":
                    # MATLAB orders complex operands by their real parts;
                    # the host refuses to order them at all.
                    helper = _BINOP_HELPER[node.op]
                    return self.call(helper, [left, right], RAW_REAL), RAW_REAL
                value = self.binary(_COMPARE_PY[node.op], left, right, RAW_REAL)
                return value, RAW_REAL
            if node.op in ("\\", ".\\"):
                return self.binary("/", right, left, complex_kind), complex_kind
        value = self.call(_BINOP_HELPER[node.op], [left, right], BOXED)
        return self.annotated(value, BOXED, node)

    def matrix(self, node: ast.MatrixLit):
        shape = self.selector.unroll_shape(node)
        if shape is not None:
            return self.pack(self.elements(node), shape), BOXED
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
        """``A*x + beta*y`` as a single BLAS-style call."""
        alpha = self.const(1.0, RAW_REAL)
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
    # Unrolled small-vector operations and scalar-replaced variables
    # ------------------------------------------------------------------
    def elements(self, node: ast.Expr):
        """The element values of ``node``, column-major raw reals, if it
        is a scalar-replaced variable or an unrollable operation, else
        None.  Operands are evaluated in source order; a value with an
        effect is ``settle``d where MATLAB evaluates it."""
        if isinstance(node, ast.Ident) and node.name in self.replaced:
            return self._var_elements(node.name)
        shape = self.selector.unroll_shape(node)
        if shape is None:
            return None
        if isinstance(node, ast.MatrixLit):
            rows, cols = shape
            cells = [
                [self.settle(self.element_real(item)) for item in row]
                for row in node.rows
            ]
            return [cells[r][c] for c in range(cols) for r in range(rows)]
        if isinstance(node, ast.UnaryOp):
            return [
                self.unary("-", value, RAW_REAL)
                for value in self._operand_elements(node.operand, shape)
            ]
        shapes = self.selector.product_shapes(node)
        if shapes is not None:
            return self._product_elements(node, shapes)
        left = self._operand_elements(node.left, shape)
        right = self._operand_elements(node.right, shape)
        op = _NUMERIC_PY[node.op]
        return [self.binary(op, a, b, RAW_REAL) for a, b in zip(left, right)]

    def _operand_elements(self, node: ast.Expr, shape) -> list:
        """``node`` read once per element of ``shape``: a scalar is
        evaluated once and repeated, an array is unrolled or, when boxed,
        read at each position."""
        if self.ann.type_of(node).is_scalar:
            value = self.bind(self.real(node), "s", reused=True)
            return [value] * (shape[0] * shape[1])
        values = self.elements(node)
        if values is not None:
            return values
        array = self.bind(self.boxed(node), "a", reused=True)
        rows, cols = shape
        return [
            self.element(array, r, c) for c in range(cols) for r in range(rows)
        ]

    def _product_elements(self, node: ast.BinaryOp, shapes) -> list:
        """A small matrix product: one helper runs the interpreter's ``@``
        and returns the result's elements as host floats.  BLAS results
        depend on the operands' layout, so each operand is what the
        interpreter multiplies: an unrolled one goes in as its elements
        (a fresh C-ordered array, as :meth:`pack` builds), a boxed one as
        its own array, never repacked.  The helper has no effect, so
        naming its result here moves none."""
        (rows, inner), (_, cols) = shapes
        args = [self.const(n, RAW_INT) for n in (rows, inner, cols)]
        for operand, shape in zip((node.left, node.right), shapes):
            values = self.elements(operand)
            if values is None:
                args.append(self.boxed(operand))
            else:
                args.extend(_row_major(values, shape))
        product = self.bind(self.call("mtimes_elements", args, BOXED), "p")
        return [
            self.unpack(product, position, RAW_REAL)
            for position in range(rows * cols)
        ]

    def element_real(self, node: ast.Expr):
        """Scalar ``node`` as an element value: always a host float, as
        an element read from a boxed array is.  A host int has no −0.0,
        Inf or NaN (``-[0 1]``, ``v .* v`` growing past the largest
        double); an operation with one element operand yields a float
        already, so only values that become elements as they are need
        this."""
        if isinstance(node, ast.Number):
            return self.const(float(node.value), RAW_REAL)
        if (
            isinstance(node, ast.UnaryOp)
            and node.op is ast.UnaryKind.NEG
            and isinstance(node.operand, ast.Number)
        ):
            return self.const(-float(node.operand.value), RAW_REAL)
        value, kind = self.expr(node)
        if kind in (RAW_REAL, RAW_INT) and not self._is_host_float(node):
            return self.host_float(value)
        return self.coerce(value, kind, RAW_REAL)  # unbox_real: a float

    def host_float(self, value):
        """``value`` as a host float, bits kept (−0.0 and NaN included)."""
        return self.binary("*", value, self.const(1.0, RAW_REAL), RAW_REAL)

    def _is_host_float(self, node: ast.Expr) -> bool:
        """The raw value of scalar ``node`` is a host float for certain:
        a non-integral literal, an element of a scalar-replaced variable,
        an own call's result (:meth:`result`), a quotient, or
        arithmetic with such an operand."""
        if isinstance(node, ast.Number):
            return node.value != int(node.value)
        if (
            isinstance(node, ast.Apply)
            and self.ann.binding_of(node) is not None
        ):
            return True
        if (
            isinstance(node, ast.Apply)
            and self.dis.kind_of(node) is SymbolKind.VARIABLE
        ):
            shape = self.replaced.get(node.name)
            return shape is not None and self.selector.element_position(
                node.args, shape, self.dis
            ) is not None
        if isinstance(node, ast.UnaryOp):
            return node.op is ast.UnaryKind.NEG and self._is_host_float(
                node.operand
            )
        if isinstance(node, ast.BinaryOp) and node.op in _NUMERIC_PY:
            return node.op in ("/", "./") or (
                node.op not in ("^", ".^")
                and (
                    self._is_host_float(node.left)
                    or self._is_host_float(node.right)
                )
            )
        return False

    def _var_elements(self, name: str) -> list:
        rows, cols = self.replaced[name]
        return [self.elem(name, position) for position in range(rows * cols)]

    def pack(self, values: list, shape):
        """A fresh array of column-major ``values`` (where an unrolled
        value escapes)."""
        rows, cols = shape
        head = [self.const(rows, RAW_INT), self.const(cols, RAW_INT)]
        return self.call("pack", head + _row_major(values, shape), BOXED)

    def settle(self, value):
        """``value``, evaluated here if evaluating it later could move an
        effect (a target whose values are evaluated where they are
        emitted returns it as it is)."""
        return value

    # ------------------------------------------------------------------
    # Subscripts
    # ------------------------------------------------------------------
    def subscript_mode(
        self, node, name: str, arity: int, safety: SubscriptSafety,
        direct: bool = True,
    ) -> str:
        """The access mode of the ``arity`` scalar subscripts of ``name``
        at ``node`` (``vcode.emit`` spells each): unchecked where
        inference proved them in range or a loop-entry guard put them in
        ``forced_safe`` (``forcing_used`` records that the guard changed
        the selection), in the form that needs no ``divmod`` for a linear
        subscript of an array inferred a row or a column; checked
        everywhere else, and always when not ``direct`` (a complex store,
        which may have to widen the buffer)."""
        safe = direct and safety is SubscriptSafety.SAFE
        if direct and not safe and id(node) in self.forced_safe:
            self.forcing_used = safe = True
        if not safe:
            return "checked"
        if arity == 1:
            shape = self.ann.var_type(name).maxshape
            if shape.rows == 1:
                return "unchecked_row"
            if shape.cols == 1:
                return "unchecked_col"
        return "unchecked"

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
        shape = self.replaced.get(name)
        if shape is not None:
            position = self.selector.element_position(indices, shape, self.dis)
            if position is not None:
                return self.elem(name, position), RAW_REAL
        arr_kind = self.var_kind(name)
        kind = repr_of_type(self.ann.type_of(node))
        if (
            arr_kind == BOXED
            and kind in (RAW_REAL, RAW_COMPLEX)
            and self._scalar_subscripts(indices)
        ):
            # Subscript inlining: proven-safe scalar loads are direct
            # buffer accesses, the rest keep their bounds check.
            mode = self.subscript_mode(
                node, name, len(indices), self.ann.safety_of_load(node)
            )
            return self.load(
                name, self._scalar_indices(name, indices), mode, kind
            ), kind
        # Generic indexing through helpers (handles ':' and vector
        # indices; a raw scalar "array" is boxed for full semantics).
        arr = self.boxed_var(name)
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
        if (
            node.name == "rand"
            and repr_of_type(mtype) == RAW_REAL
            and all(
                self.selector.constant_index(arg, self.dis) == 1
                for arg in node.args
            )
        ):
            # One draw as a host float (``rand(1)``, ``rand(1, 1)``).
            return self.call("rand_scalar", [], RAW_REAL), RAW_REAL
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
        # A typed entry on host numbers, for arguments inference typed
        # exact real scalars (``zeros(1, n)``: no boxes, no name lookup).
        if (
            entry is not None and entry.host is not None
            and 1 <= len(node.args) <= 2
            and all(
                t.is_scalar and t.is_real_like
                for t in map(self.ann.type_of, node.args)
            )
        ):
            values = [self.real(arg) for arg in node.args]
            value = self.call(entry.host.__name__, values, BOXED)
            return self.annotated(value, BOXED, node)
        # Generic builtin dispatch.
        args = [self.boxed(arg) for arg in node.args]
        name = self.const(node.name, BOXED)
        value = self.call("builtin1", [name, *args], BOXED)
        return self.annotated(value, BOXED, node)
