"""Elementwise fusion tree matchers.

A *fusion tree* is a maximal expression subtree built from elementwise
operators whose interior nodes are all array-valued numbers: evaluating it
through the generic runtime costs one boxed library call (dispatch +
conformance check + result classification + an ``astype`` copy) per
operator — exactly the per-operation overhead of the paper's Figure 3.
The matchers here find such trees; :mod:`repro.kernels.codegen` collapses
each into a single NumPy kernel.

Two matchers share the tree representation:

* :func:`match_typed` runs inside the JIT lowerer over a type-annotated
  body.  Interior nodes must be proven numeric non-scalars; ``*`` and
  ``/`` participate only when inference proves the relevant operand
  scalar (``mlf_mtimes``/``mlf_mrdivide`` delegate to their elementwise
  forms in that case, so the rewrite is exact).  Leaves must be pure
  (variables, literals, indexing, pure builtins) so that evaluating all
  of them before any operator — which fusion does — cannot reorder an
  observable side effect around a legitimate MATLAB error.
* :func:`match_dynamic` is the interpreter's structural matcher: no type
  information, so leaves are restricted to variables and numeric
  literals, every leaf descriptor is a boxed array, and scalarness
  requirements of ``*``/``/`` nodes are revalidated against live values
  by :meth:`DynamicPlan.runtime_ok` on every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.symtab import SymbolKind
from repro.codegen.select import BOXED, repr_of_type
from repro.frontend import ast_nodes as ast
from repro.runtime.builtins import BUILTINS

#: Leaf descriptors: a boxed MxArray operand vs a raw host scalar.
DESC_BOXED = "b"
DESC_SCALAR = "s"

#: Tree-size guardrails: a fused kernel needs at least two collapsed
#: operators to beat a helper call, and very wide trees would generate
#: functions with unwieldy argument lists.
MIN_OPS = 2
MAX_OPS = 24
MAX_LEAVES = 12


@dataclass(frozen=True)
class Leaf:
    """Reference to the ``index``-th kernel operand."""

    index: int


@dataclass(frozen=True)
class Node:
    """One fused operator application.

    ``op`` keeps the MATLAB spelling (``"*"`` and ``"/"`` stay distinct
    from ``".*"``/``"./"`` even though they lower identically, because
    the dynamic matcher revalidates their scalarness requirement from
    live values).  Unary minus/not are ``"u-"``/``"u~"``; unary builtins
    use their name.
    """

    op: str
    children: tuple


@dataclass(frozen=True)
class Op:
    """One fused operator: what the matchers and both kernel emitters
    know about it.

    ``numpy`` and ``c`` are statement templates over ``{out}``, ``{x}``
    and, for a binary op, ``{y}`` (``{t}``: a fresh temporary).  Each
    NumPy statement mirrors the op's unfused ``mlf_*`` helper or
    ``_unary_math`` builtin bit for bit; a C statement is an IEEE-754
    exact match for that ufunc over ``double``, and ``None`` where C has
    none (libm and NumPy disagree in the last ulp on ``.^``, ``exp``,
    ``log`` and trig), so a tree holding the op is not native-eligible.
    """

    #: The op's name in the conformance error text; ``None``: a unary op.
    opname: str | None
    numpy: str
    c: str | None = None
    #: The result is logical (boxed with ``klass = BOOL``); the NumPy
    #: statement yields it as ``float64``, where the unfused chain boxes.
    logical: bool = False
    #: The unfused helper runs under ``np.errstate``: the kernel body is
    #: wrapped once (values are unaffected, only FP warnings).
    errstate: bool = False
    #: The ufunc that may write the result into a dead temporary operand.
    ufunc: str | None = None
    #: ``Builtin.domain``: below it a real operand widens to complex in
    #: NumPy and makes the C kernel return nonzero.
    domain: float | None = None


def _logical(opname, numpy, c) -> Op:
    return Op(opname, f"{{out}} = {numpy}.astype(np.float64)",
              f"double {{out}} = ({c}) ? 1.0 : 0.0;", logical=True)


def _math(name, c=None) -> Op:
    """A shape-preserving builtin that is one ``np`` call under
    ``_unary_math``."""
    return Op(None, f"{{out}} = np.{name}({{x}})",
              c and f"double {{out}} = {c};", errstate=True,
              domain=BUILTINS[name].domain)


_TIMES = Op("times", "{out} = {x} * {y}", "double {out} = {x} * {y};",
            ufunc="np.multiply")
_RDIVIDE = Op("rdivide", "{out} = np.true_divide({x}, {y})",
              "double {out} = {x} / {y};", errstate=True,
              ufunc="np.true_divide")

#: Every fusible operator, keyed by its ``Node.op`` spelling.  ``*`` and
#: ``/`` fuse only with a scalar operand (their ``mlf_*`` helpers then
#: delegate to ``.*`` and ``./``); ``.^`` replays ``mlf_power``'s
#: value-dependent complex widening.
OPS: dict[str, Op] = {
    "+": Op("plus", "{out} = {x} + {y}", "double {out} = {x} + {y};",
            ufunc="np.add"),
    "-": Op("minus", "{out} = {x} - {y}", "double {out} = {x} - {y};",
            ufunc="np.subtract"),
    ".*": _TIMES,
    "*": _TIMES,
    "./": _RDIVIDE,
    "/": _RDIVIDE,
    ".^": Op("power", "{t} = {x}\n"
             "if (np.any(np.real({t}) < 0) and not np.iscomplexobj({t})"
             " and np.any({y} != np.floor(np.real({y})))):\n"
             "    {t} = ({t}.astype(np.complex128)"
             " if isinstance({t}, np.ndarray) else complex({t}))\n"
             "{out} = np.power({t}, {y})", errstate=True),
    "<": _logical("lt", "np.less(np.real({x}), np.real({y}))", "{x} < {y}"),
    "<=": _logical("le", "np.less_equal(np.real({x}), np.real({y}))",
                   "{x} <= {y}"),
    ">": _logical("gt", "np.greater(np.real({x}), np.real({y}))",
                  "{x} > {y}"),
    ">=": _logical("ge", "np.greater_equal(np.real({x}), np.real({y}))",
                   "{x} >= {y}"),
    "==": _logical("eq", "np.equal({x}, {y})", "{x} == {y}"),
    "~=": _logical("ne", "np.not_equal({x}, {y})", "{x} != {y}"),
    # NaN is nonzero for ``&`` / ``|``, in NumPy and in C.
    "&": _logical("and", "np.logical_and({x} != 0, {y} != 0)",
                  "{x} != 0.0 && {y} != 0.0"),
    "|": _logical("or", "np.logical_or({x} != 0, {y} != 0)",
                  "{x} != 0.0 || {y} != 0.0"),
    "u-": Op(None, "{out} = -({x})", "double {out} = -({x});"),
    "u~": _logical(None, "np.equal({x}, 0)", "{x} == 0.0"),
    "abs": _math("abs", "fabs({x})"),
    "sqrt": _math("sqrt", "sqrt({x})"),
    "exp": _math("exp"),
    "log": _math("log"),
    "sin": _math("sin"),
    "cos": _math("cos"),
    "tan": _math("tan"),
    "floor": _math("floor", "floor({x})"),
    "ceil": _math("ceil", "ceil({x})"),
    # Real data only in C: the native dispatch guard rejects complex.
    "conj": _math("conj", "{x}"),
}


def encode(node, descs) -> str:
    """Canonical text form of a tree — the content-address input."""
    if isinstance(node, Leaf):
        return f"%{node.index}{descs[node.index]}"
    parts = " ".join(encode(child, descs) for child in node.children)
    return f"({node.op} {parts})"


def decode(key: str) -> tuple:
    """Inverse of :func:`encode`: rebuild ``(root, descs)`` from a key.

    The native tier revives kernels across sessions from their canonical
    key alone (the disk cache persists keys, not trees), so the encoding
    must round-trip.  Raises :class:`ValueError` on malformed input.
    """
    pos = 0
    descs: dict[int, str] = {}

    def parse():
        nonlocal pos
        if pos >= len(key):
            raise ValueError("truncated kernel key")
        if key[pos] == "(":
            pos += 1
            end = key.find(" ", pos)
            if end < 0:
                raise ValueError("malformed kernel key (operator)")
            op = key[pos:end]
            pos = end
            children = []
            while pos < len(key) and key[pos] == " ":
                pos += 1
                children.append(parse())
            if pos >= len(key) or key[pos] != ")" or not children:
                raise ValueError("malformed kernel key (node)")
            pos += 1
            return Node(op, tuple(children))
        if key[pos] != "%":
            raise ValueError("malformed kernel key (leaf)")
        pos += 1
        start = pos
        while pos < len(key) and key[pos].isdigit():
            pos += 1
        if pos == start or pos >= len(key):
            raise ValueError("malformed kernel key (leaf index)")
        index = int(key[start:pos])
        desc = key[pos]
        if desc not in (DESC_BOXED, DESC_SCALAR):
            raise ValueError(f"unknown leaf descriptor {desc!r}")
        pos += 1
        existing = descs.get(index)
        if existing is not None and existing != desc:
            raise ValueError("conflicting leaf descriptors")
        descs[index] = desc
        return Leaf(index)

    root = parse()
    if pos != len(key):
        raise ValueError("trailing garbage in kernel key")
    if not isinstance(root, Node):
        raise ValueError("kernel key must encode at least one operator")
    try:
        desc_tuple = tuple(descs[i] for i in range(len(descs)))
    except KeyError:
        raise ValueError("non-contiguous leaf indices in kernel key") from None
    return root, desc_tuple


class _NoFusion(Exception):
    """Internal abort signal: some subexpression disqualifies the tree."""


# ======================================================================
# Typed matcher (JIT)
# ======================================================================
@dataclass
class TypedPlan:
    """A fusion tree matched against inference annotations."""

    root: Node
    leaves: list[ast.Expr]
    op_count: int


def match_typed(expr, ann, dis) -> TypedPlan | None:
    """Match a fused tree rooted at ``expr`` using type annotations.

    Returns ``None`` when the root is not an array-typed elementwise
    operator, the tree collapses fewer than :data:`MIN_OPS` operators, or
    any leaf is impure / possibly non-numeric.
    """
    leaves: list[ast.Expr] = []
    leaf_index: dict = {}
    ops = 0

    def numeric_array(node) -> bool:
        mtype = ann.type_of(node)
        return repr_of_type(mtype) == BOXED and mtype.intrinsic.is_numeric

    def scalar_typed(node) -> bool:
        return ann.type_of(node).is_scalar

    def leaf_of(node) -> Leaf:
        mtype = ann.type_of(node)
        if not mtype.intrinsic.is_numeric:
            raise _NoFusion          # possible string/unknown operand
        if not _leaf_pure(node, dis):
            raise _NoFusion
        if isinstance(node, ast.Ident) and dis.kind_of(node) is SymbolKind.VARIABLE:
            key = ("var", node.name)
        else:
            key = ("expr", id(node))
        index = leaf_index.get(key)
        if index is None:
            if len(leaves) >= MAX_LEAVES:
                raise _NoFusion
            index = len(leaves)
            leaf_index[key] = index
            leaves.append(node)
        return Leaf(index)

    def build(node, is_root: bool):
        nonlocal ops
        if isinstance(node, ast.UnaryOp) and node.op is ast.UnaryKind.POS:
            # mlf_uplus is a plain copy; transparent inside a fresh tree.
            return build(node.operand, is_root)
        op = _typed_op(node, scalar_typed, dis)
        if op is not None and numeric_array(node):
            ops += 1
            if ops > MAX_OPS:
                raise _NoFusion
            return Node(
                op, tuple(build(child, False) for child in ast.children(node))
            )
        if is_root:
            raise _NoFusion
        return leaf_of(node)

    try:
        root = build(expr, True)
    except _NoFusion:
        return None
    if ops < MIN_OPS:
        return None
    return TypedPlan(root=root, leaves=leaves, op_count=ops)


def _typed_op(node, scalar_typed, dis) -> str | None:
    """The fused-op spelling for ``node``, or ``None`` if not fusible."""
    if isinstance(node, ast.BinaryOp):
        if node.op == "*":
            fusible = scalar_typed(node.left) or scalar_typed(node.right)
        elif node.op == "/":
            fusible = scalar_typed(node.right)
        else:
            fusible = node.op in OPS
        return node.op if fusible else None
    if isinstance(node, ast.UnaryOp):
        if node.op is ast.UnaryKind.NEG:
            return "u-"
        if node.op is ast.UnaryKind.NOT:
            return "u~"
        return None
    if (
        isinstance(node, ast.Apply)
        and dis.kind_of(node) is SymbolKind.BUILTIN
        and node.name in OPS
        and len(node.args) == 1
    ):
        return node.name
    return None


def _leaf_pure(node, dis) -> bool:
    """True when evaluating ``node`` cannot produce an observable side
    effect (output, RNG draw, user-function re-entry)."""
    for sub in ast.walk_expr(node):
        if isinstance(sub, (ast.Ident, ast.Apply)):
            kind = dis.kind_of(sub)
            if kind is SymbolKind.VARIABLE:
                continue
            if kind is SymbolKind.BUILTIN:
                entry = BUILTINS.get(sub.name)
                if entry is not None and entry.pure:
                    continue
            return False
    return True


# ======================================================================
# Dynamic matcher (interpreter fast path)
# ======================================================================
@dataclass
class DynamicPlan:
    """A structurally matched tree for the interpreter.

    All descriptors are boxed (the interpreter works on ``MxArray``
    values throughout), so one kernel serves every dtype/shape the tree
    meets; ``kernel`` memoizes the compiled function after first use.
    """

    root: Node
    leaves: list[ast.Expr]
    op_count: int
    has_matmul: bool = False
    kernel: object = field(default=None, compare=False)

    def runtime_ok(self, values) -> bool:
        """Revalidate ``*``/``/`` scalarness against live operands."""
        return _scalarness(self.root, values) is not None


def _scalarness(node, values):
    """Bottom-up scalarness: True/False, or ``None`` when a ``*``/``/``
    node would need true matrix semantics (fusion invalid)."""
    if isinstance(node, Leaf):
        return values[node.index].is_scalar
    kinds = [_scalarness(child, values) for child in node.children]
    if None in kinds:
        return None
    if node.op == "*" and not (kinds[0] or kinds[1]):
        return None
    if node.op == "/" and not kinds[1]:
        return None
    return all(kinds)


def match_dynamic(expr) -> DynamicPlan | None:
    """Structural match with no type information (interpreter side).

    Leaves are variables, numeric literals and ``end`` only — anything
    else (calls, indexing, strings) bails to the generic path, keeping
    evaluation order and dynamic resolution observably identical.
    """
    leaves: list[ast.Expr] = []
    leaf_index: dict = {}
    ops = 0
    has_matmul = False

    def leaf_of(node) -> Leaf:
        if isinstance(node, ast.Ident):
            key = ("var", node.name)
        elif isinstance(node, (ast.Number, ast.ImagNumber, ast.EndMarker)):
            key = ("expr", id(node))
        else:
            raise _NoFusion
        index = leaf_index.get(key)
        if index is None:
            if len(leaves) >= MAX_LEAVES:
                raise _NoFusion
            index = len(leaves)
            leaf_index[key] = index
            leaves.append(node)
        return Leaf(index)

    def build(node, is_root: bool):
        nonlocal ops, has_matmul
        if isinstance(node, ast.UnaryOp) and node.op is ast.UnaryKind.POS:
            return build(node.operand, is_root)
        op = None
        if isinstance(node, ast.BinaryOp):
            if node.op in OPS:
                op = node.op
                has_matmul = has_matmul or node.op in ("*", "/")
        elif isinstance(node, ast.UnaryOp):
            op = "u-" if node.op is ast.UnaryKind.NEG else "u~"
        if op is not None:
            ops += 1
            if ops > MAX_OPS:
                raise _NoFusion
            return Node(op, tuple(build(c, False) for c in ast.children(node)))
        if is_root:
            raise _NoFusion
        return leaf_of(node)

    try:
        root = build(expr, True)
    except _NoFusion:
        return None
    if ops < MIN_OPS:
        return None
    return DynamicPlan(
        root=root, leaves=leaves, op_count=ops, has_matmul=has_matmul
    )
