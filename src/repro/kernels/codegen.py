"""Kernel source generation.

Turns a matched fusion tree into one Python function that evaluates the
whole tree over raw ``ndarray`` views — no intermediate ``MxArray``
boxing, and one box at the end.  Each node's statement is its row of the
operator table, :data:`repro.kernels.fusion.OPS`; this module adds what
the table does not hold: the conformance checks, the complex widening
guard of a row with a ``domain``, and buffer reuse.  Each operator still
allocates its result, except where a large temporary dies at it: a node
whose row names an ``out=`` ufunc, with an operand that is an earlier
node's fresh result of at least :data:`REUSE_MIN_ELEMENTS` elements, of
the result's dtype, writes into that operand's buffer.  Every temporary
is read once, by its parent, so it is dead there; those ufuncs are
correctly rounded, so the bits are the same either way.
``crnich_step``'s ``0.5 .* (u + uold) + c .* (uold - u)`` holds two
buffers, not five.  The generated code must be **bit-identical** to the
unfused chain through :mod:`repro.runtime.elementwise`:

* conformance checks raise the same :class:`DimensionError` message, in
  the same (postorder) position the unfused chain would raise it;
* a logical row's result passes through ``astype(np.float64)`` at each
  node, exactly where the unfused chain boxes it;
* a row's value-dependent complex widening (``.^``'s, and a builtin's
  below its ``Builtin.domain``) replays the unfused one;
* raw scalar operands are normalized the way ``make_scalar`` would
  normalize them before boxing (so NumPy dtype promotion is unchanged).

Intermediate logical ``float64`` temporaries carry the same payloads the
unfused chain's boxed intermediates would (``from_ndarray`` preserves
``float64``/``complex128`` data verbatim), so skipping the box is
value-transparent.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.kernels.fusion import DESC_SCALAR, OPS, Leaf, Node
from repro.runtime.mxarray import IntrinsicClass
from repro.runtime.values import box_result, scalar_payload as _scal

#: A temporary this large (256 KiB of ``float64``, NumPy's own
#: temporary-elision size) takes its parent's result; a smaller one is
#: left to the allocator, which serves it faster than the test costs.
REUSE_MIN_ELEMENTS = 32768


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
    "_f8": np.dtype(np.float64),
    "_c16": np.dtype(np.complex128),
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
        row = OPS[node.op]
        if len(refs) == 2:
            x, y = refs
            scalar = [self.static_scalar(child) for child in node.children]
            if not any(scalar):
                self.lines.append(f"_cc({x}, {y}, {row.opname!r})")
            # A temporary is an earlier node's fresh ufunc result: an
            # array unless its whole subtree is raw scalars.
            temps = [
                (ref, other)
                for ref, other, child, static in zip(
                    refs, refs[::-1], node.children, scalar)
                if isinstance(child, Node) and not static
            ]
            if row.ufunc and temps:
                self._emit_reusing(row, out, x, y, temps)
            else:
                self._emit(row, out, x, y)
        elif row.domain is not None:
            # ``_unary_math``'s widening of a real operand below the
            # builtin's domain.
            arg = self.fresh()
            self.lines.append(
                f"{arg} = {refs[0]}\n"
                f"if (not np.iscomplexobj({arg}) and {arg}.size"
                f" and np.any({arg} < {row.domain!r})):\n"
                f"    {arg} = {arg}.astype(np.complex128)"
            )
            self._emit(row, out, arg)
        else:
            self._emit(row, out, refs[0])
        return out

    def _emit(self, row, out, x, y=None) -> None:
        fields = {"out": out, "x": x, "y": y}
        if "{t}" in row.numpy:
            fields["t"] = self.fresh()
        self.lines.append(row.numpy.format(**fields))

    def _emit_reusing(self, row, out, x, y, temps) -> None:
        """``out = x op y``, written into the first temporary in ``temps``
        that is large enough and whose dtype is the result's; the plain
        statement when none is."""
        branches = []
        for keyword, (temp, other) in zip(("if", "elif"), temps):
            branches.append(
                f"{keyword} {temp}.size >= {REUSE_MIN_ELEMENTS} and"
                f" ({temp}.dtype is _c16 or {temp}.dtype is _f8"
                f" and not np.iscomplexobj({other})):\n"
                f"    {out} = {row.ufunc}({x}, {y}, out={temp})"
            )
        self._emit(row, out, x, y)
        branches.append("else:\n    " + self.lines.pop())
        self.lines.append("\n".join(branches))


def _needs_errstate(node) -> bool:
    if isinstance(node, Leaf):
        return False
    if OPS[node.op].errstate:
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
    if OPS[root.op].logical:
        out.append("    out.klass = IntrinsicClass.BOOL")
    out.append("    return out")
    return "\n".join(out) + "\n"


def compile_kernel(name: str, source: str):
    """The module code of one kernel's ``source``."""
    return compile(source, f"<kernel {name}>", "exec")


def bind_kernel(name: str, code):
    """Exec kernel module ``code`` against the shared kernel globals;
    return the function object."""
    namespace: dict = {}
    exec(code, KERNEL_GLOBALS, namespace)
    return namespace[name]
