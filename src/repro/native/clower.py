"""Fused-tree → C lowering.

The C kernels are the fourth execution tier; the Python fused kernels of
:mod:`repro.kernels.codegen` are their bit-identity reference, so the
lowering only admits operations whose C semantics over ``double`` are
IEEE-754-exact matches for the NumPy ufunc the Python kernel calls.
Each node's statement is the ``c`` column of its row of the operator
table, :data:`repro.kernels.fusion.OPS`; a tree with a row whose ``c``
is ``None`` is **ineligible** (libm and NumPy disagree in the last ulp
there, and "fast but off by one bit" is exactly what the bit-identity
contract forbids).  The kernels are compiled with reassociation and FMA
contraction disabled.  A row with a ``domain`` (``Builtin.domain``)
widens to complex below it in MATLAB semantics, which C cannot replay:
the kernel tests each element against it (false for NaN) and returns a
nonzero status, and the dispatcher re-runs the Python kernel.

Operands arrive as ``(const double*, stride)`` pairs — stride 0 for a
scalar broadcast, 1 for a conforming contiguous array — plus plain
``double`` parameters for raw-scalar leaves, so one compiled kernel
serves every conforming shape.
"""

from __future__ import annotations

from repro.kernels.fusion import DESC_BOXED, DESC_SCALAR, OPS, Leaf, Node


def native_eligible(node) -> bool:
    """True when every node's row of the operator table has a C
    statement."""
    if isinstance(node, Leaf):
        return True
    row = OPS.get(node.op)
    return (row is not None and row.c is not None
            and all(native_eligible(child) for child in node.children))


class _CEmitter:
    """Statement-per-node body emitter (mirrors the Python ``_Emitter``)."""

    def __init__(self, descs):
        self.descs = descs
        self.lines: list[str] = []
        self.counter = 0

    def emit(self, node) -> str:
        if isinstance(node, Leaf):
            if self.descs[node.index] == DESC_SCALAR:
                return f"c{node.index}"
            return f"x{node.index}"
        refs = [self.emit(child) for child in node.children]
        out = f"t{self.counter}"
        self.counter += 1
        row = OPS[node.op]
        if row.domain is not None:
            # Below the domain MATLAB widens the whole array to complex,
            # which C cannot replay: the kernel abandons the run.  NaN is
            # not below it and passes through.
            self.lines.append(f"if ({refs[0]} < {row.domain!r}) return 1;")
        self.lines.append(row.c.format(out=out, x=refs[0], y=refs[-1]))
        return out


def c_signature(name: str, descs) -> str:
    """The kernel's C prototype (mirrored by the ctypes binding)."""
    params = ["long n"]
    for index, desc in enumerate(descs):
        if desc == DESC_BOXED:
            params.append(f"const double* v{index}")
            params.append(f"long s{index}")
        else:
            params.append(f"double c{index}")
    params.append("double* out")
    return f"int {name}({', '.join(params)})"


def generate_c(name: str, root: Node, descs) -> str:
    """C source for one fused kernel: one loop, one statement per node.

    The kernel returns 0 on success, nonzero when the run must be
    abandoned to the Python kernel (an element below a row's domain).
    """
    if not native_eligible(root):
        raise ValueError("tree contains natively ineligible operators")
    emitter = _CEmitter(descs)
    result = emitter.emit(root)
    out = [
        "#include <math.h>",
        "",
        c_signature(name, descs) + " {",
        "    for (long j = 0; j < n; ++j) {",
    ]
    for index, desc in enumerate(descs):
        if desc == DESC_BOXED:
            out.append(f"        double x{index} = v{index}[j * s{index}];")
    out.extend("        " + line for line in emitter.lines)
    out.append(f"        out[j] = {result};")
    out.append("    }")
    out.append("    return 0;")
    out.append("}")
    return "\n".join(out) + "\n"
