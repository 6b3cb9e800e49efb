"""Kernel source generation.

Turns a matched fusion tree into one Python function that evaluates the
whole tree over raw ``ndarray`` views — no intermediate ``MxArray``
boxing, one output allocation at the end.  The generated code must be
**bit-identical** to the unfused chain through
:mod:`repro.runtime.elementwise`, so every statement mirrors the
corresponding ``mlf_*`` helper exactly:

* conformance checks raise the same :class:`DimensionError` message, in
  the same (postorder) position the unfused chain would raise it;
* relational/logical results pass through ``astype(np.float64)`` at each
  node, exactly where the unfused chain boxes them;
* ``.^`` replays ``mlf_power``'s value-dependent complex widening, and
  ``sqrt``/``log`` replay ``_unary_math``'s negative-domain widening;
* raw scalar operands are normalized the way ``make_scalar`` would
  normalize them before boxing (so NumPy dtype promotion is unchanged).

Intermediate relational/logical ``float64`` temporaries carry the same
payloads the unfused chain's boxed intermediates would (``from_ndarray``
preserves ``float64``/``complex128`` data verbatim), so skipping the box
is value-transparent.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.kernels.fusion import DESC_SCALAR, Leaf, Node
from repro.runtime.mxarray import IntrinsicClass
from repro.runtime.values import box_result, scalar_payload as _scal

#: Operators whose result is logical (boxed with ``klass = BOOL``).
_BOOL_OPS = {"==", "~=", "<", "<=", ">", ">=", "&", "|", "u~"}

#: Operators whose unfused helper runs under ``np.errstate`` — the whole
#: kernel body is wrapped once when any of these appears (values are
#: unaffected; only FP warnings are suppressed, as the helpers do).
_ERRSTATE_OPS = {"./", "/", ".^"}

#: ``opname`` used in the unfused conformance error message, per op.
_OPNAME = {
    "+": "plus", "-": "minus",
    ".*": "times", "*": "times",
    "./": "rdivide", "/": "rdivide",
    ".^": "power",
    "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
    "==": "eq", "~=": "ne", "&": "and", "|": "or",
}

_CMP_FN = {
    "<": "np.less", "<=": "np.less_equal",
    ">": "np.greater", ">=": "np.greater_equal",
}

_UNARY_NP = {
    "abs": "np.abs", "sqrt": "np.sqrt", "exp": "np.exp", "log": "np.log",
    "sin": "np.sin", "cos": "np.cos", "tan": "np.tan",
    "floor": "np.floor", "ceil": "np.ceil", "conj": "np.conj",
}

#: Builtins that widen to complex on negative input (``_NEGATIVE_DOMAIN``).
_WIDEN_BUILTINS = {"sqrt": 0.0, "log": 0.0}


def _cc(a, b, opname: str) -> None:
    """The ``_binary_views`` conformance rule, over views/raw scalars."""
    sa = a.shape if isinstance(a, np.ndarray) else (1, 1)
    sb = b.shape if isinstance(b, np.ndarray) else (1, 1)
    if sa == (1, 1) or sb == (1, 1) or sa == sb:
        return
    raise DimensionError(
        f"matrix dimensions must agree in '{opname}' "
        f"({sa[0]}x{sa[1]} vs {sb[0]}x{sb[1]})"
    )


#: Globals namespace shared by all generated kernels.  A kernel's root is
#: always an operator, so what its epilogue boxes is a fresh ufunc result:
#: the ``from_ndarray`` it names is the adopting ``box_result`` (bound here,
#: so kernel source text, names and cache keys are what they always were).
KERNEL_GLOBALS = {
    "np": np,
    "from_ndarray": box_result,
    "IntrinsicClass": IntrinsicClass,
    "DimensionError": DimensionError,
    "_cc": _cc,
    "_scal": _scal,
}


class _Emitter:
    def __init__(self, descs):
        self.descs = descs
        self.lines: list[str] = []
        self.counter = 0

    def fresh(self) -> str:
        name = f"t{self.counter}"
        self.counter += 1
        return name

    def static_scalar(self, node) -> bool:
        if isinstance(node, Leaf):
            return self.descs[node.index] == DESC_SCALAR
        return all(self.static_scalar(child) for child in node.children)

    def emit(self, node) -> str:
        if isinstance(node, Leaf):
            return f"v{node.index}"
        refs = [self.emit(child) for child in node.children]
        out = self.fresh()
        op = node.op
        if len(refs) == 2:
            x, y = refs
            if not (
                self.static_scalar(node.children[0])
                or self.static_scalar(node.children[1])
            ):
                self.lines.append(f"_cc({x}, {y}, {_OPNAME[op]!r})")
            self._emit_binary(op, out, x, y)
        else:
            self._emit_unary(op, out, refs[0])
        return out

    def _emit_binary(self, op, out, x, y) -> None:
        lines = self.lines
        if op == "+":
            lines.append(f"{out} = {x} + {y}")
        elif op == "-":
            lines.append(f"{out} = {x} - {y}")
        elif op in (".*", "*"):
            lines.append(f"{out} = {x} * {y}")
        elif op in ("./", "/"):
            lines.append(f"{out} = np.true_divide({x}, {y})")
        elif op == ".^":
            base = self.fresh()
            lines.append(f"{base} = {x}")
            lines.append(
                f"if (np.any(np.real({base}) < 0)"
                f" and not np.iscomplexobj({base})"
                f" and np.any({y} != np.floor(np.real({y})))):\n"
                f"    {base} = ({base}.astype(np.complex128)"
                f" if isinstance({base}, np.ndarray) else complex({base}))"
            )
            lines.append(f"{out} = np.power({base}, {y})")
        elif op in _CMP_FN:
            lines.append(
                f"{out} = {_CMP_FN[op]}(np.real({x}), np.real({y}))"
                f".astype(np.float64)"
            )
        elif op == "==":
            lines.append(f"{out} = np.equal({x}, {y}).astype(np.float64)")
        elif op == "~=":
            lines.append(f"{out} = np.not_equal({x}, {y}).astype(np.float64)")
        elif op == "&":
            lines.append(
                f"{out} = np.logical_and({x} != 0, {y} != 0)"
                f".astype(np.float64)"
            )
        elif op == "|":
            lines.append(
                f"{out} = np.logical_or({x} != 0, {y} != 0)"
                f".astype(np.float64)"
            )
        else:
            raise ValueError(f"unknown fused binary op {op!r}")

    def _emit_unary(self, op, out, x) -> None:
        lines = self.lines
        if op == "u-":
            lines.append(f"{out} = -({x})")
        elif op == "u~":
            lines.append(f"{out} = np.equal({x}, 0).astype(np.float64)")
        elif op in _WIDEN_BUILTINS:
            arg = self.fresh()
            domain = _WIDEN_BUILTINS[op]
            lines.append(f"{arg} = {x}")
            lines.append(
                f"if (not np.iscomplexobj({arg}) and {arg}.size"
                f" and np.any({arg} < {domain!r})):\n"
                f"    {arg} = {arg}.astype(np.complex128)"
            )
            lines.append(f"{out} = {_UNARY_NP[op]}({arg})")
        elif op in _UNARY_NP:
            lines.append(f"{out} = {_UNARY_NP[op]}({x})")
        else:
            raise ValueError(f"unknown fused unary op {op!r}")


def _needs_errstate(node) -> bool:
    if isinstance(node, Leaf):
        return False
    if node.op in _ERRSTATE_OPS or node.op in _UNARY_NP:
        return True
    return any(_needs_errstate(child) for child in node.children)


def generate_source(name: str, root: Node, descs) -> str:
    """Python source for one fused kernel named ``name``."""
    emitter = _Emitter(descs)
    result = emitter.emit(root)
    params = ", ".join(f"a{i}" for i in range(len(descs)))
    out: list[str] = [f"def {name}({params}):"]
    for i, desc in enumerate(descs):
        if desc == DESC_SCALAR:
            out.append(f"    v{i} = _scal(a{i})")
        else:
            out.append(f"    v{i} = a{i}.view()")
    indent = "    "
    if _needs_errstate(root):
        out.append('    with np.errstate(divide="ignore", invalid="ignore"):')
        indent = "        "
    for stmt in emitter.lines:
        for line in stmt.split("\n"):
            out.append(indent + line)
    out.append(f"    out = from_ndarray({result})")
    if root.op in _BOOL_OPS:
        out.append("    out.klass = IntrinsicClass.BOOL")
    out.append("    return out")
    return "\n".join(out) + "\n"


def compile_kernel(name: str, source: str):
    """Exec ``source`` against the shared kernel globals; return the
    function object."""
    namespace: dict = {}
    exec(compile(source, f"<kernel {name}>", "exec"), KERNEL_GLOBALS, namespace)
    return namespace[name]
