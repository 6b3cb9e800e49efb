"""Fused-tree → C lowering.

The C kernels are the fourth execution tier; the Python fused kernels of
:mod:`repro.kernels.codegen` are their bit-identity reference, so the
lowering only admits operations whose C semantics over ``double`` are
IEEE-754-exact matches for the NumPy ufunc the Python kernel calls:

* ``+ - .* ./`` (and the scalar forms ``* /``) — plain IEEE arithmetic,
  compiled with reassociation and FMA contraction disabled;
* comparisons / logicals — branchless ``1.0``/``0.0`` doubles, exactly
  what ``astype(np.float64)`` produces (NaN compares false, counts as
  nonzero for ``&``/``|``, just like NumPy);
* ``u-  u~  abs  floor  ceil  conj`` — sign-bit / correctly-rounded ops;
* ``sqrt`` — correctly rounded by IEEE 754.  The *negative-domain* case
  widens to complex in MATLAB semantics, which C cannot replay: the
  kernel detects it (``x < 0.0``, false for NaN) and returns a nonzero
  status, and the dispatcher re-runs the Python kernel.

Everything else — ``.^``, ``exp``/``log``/trig — is **ineligible**: libm
and NumPy disagree in the last ulp on those, and "fast but off by one
bit" is exactly what the bit-identity contract forbids.

Operands arrive as ``(const double*, stride)`` pairs — stride 0 for a
scalar broadcast, 1 for a conforming contiguous array — plus plain
``double`` parameters for raw-scalar leaves, so one compiled kernel
serves every conforming shape.
"""

from __future__ import annotations

from repro.kernels.fusion import DESC_BOXED, DESC_SCALAR, Leaf, Node

#: Operators the native tier may lower (see module docstring for why the
#: transcendental tail of the fusible set is excluded).
NATIVE_BINOPS = {
    "+", "-", ".*", "./", "*", "/",
    "==", "~=", "<", "<=", ">", ">=", "&", "|",
}
NATIVE_UNARY = {"u-", "u~", "abs", "sqrt", "floor", "ceil", "conj"}

_CMP_C = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "==", "~=": "!="}


def native_eligible(node) -> bool:
    """True when every operator in the tree has an exact C lowering."""
    if isinstance(node, Leaf):
        return True
    if len(node.children) == 2:
        if node.op not in NATIVE_BINOPS:
            return False
    elif node.op not in NATIVE_UNARY:
        return False
    return all(native_eligible(child) for child in node.children)


class _CEmitter:
    """Statement-per-node body emitter (mirrors the Python ``_Emitter``)."""

    def __init__(self, descs):
        self.descs = descs
        self.lines: list[str] = []
        self.counter = 0

    def fresh(self) -> str:
        name = f"t{self.counter}"
        self.counter += 1
        return name

    def emit(self, node) -> str:
        if isinstance(node, Leaf):
            if self.descs[node.index] == DESC_SCALAR:
                return f"c{node.index}"
            return f"x{node.index}"
        refs = [self.emit(child) for child in node.children]
        out = self.fresh()
        op = node.op
        lines = self.lines
        if len(refs) == 2:
            x, y = refs
            if op in ("+", "-"):
                lines.append(f"double {out} = {x} {op} {y};")
            elif op in (".*", "*"):
                lines.append(f"double {out} = {x} * {y};")
            elif op in ("./", "/"):
                lines.append(f"double {out} = {x} / {y};")
            elif op in _CMP_C:
                lines.append(
                    f"double {out} = ({x} {_CMP_C[op]} {y}) ? 1.0 : 0.0;"
                )
            elif op == "&":
                lines.append(
                    f"double {out} = ({x} != 0.0 && {y} != 0.0) ? 1.0 : 0.0;"
                )
            elif op == "|":
                lines.append(
                    f"double {out} = ({x} != 0.0 || {y} != 0.0) ? 1.0 : 0.0;"
                )
            else:
                raise ValueError(f"op {op!r} has no native lowering")
        else:
            x = refs[0]
            if op == "u-":
                lines.append(f"double {out} = -({x});")
            elif op == "u~":
                lines.append(f"double {out} = ({x} == 0.0) ? 1.0 : 0.0;")
            elif op == "abs":
                lines.append(f"double {out} = fabs({x});")
            elif op == "sqrt":
                # MATLAB widens to complex for any negative element; the
                # whole array changes dtype, so the kernel must abandon
                # the run entirely.  NaN is not < 0 and passes through.
                lines.append(f"if ({x} < 0.0) return 1;")
                lines.append(f"double {out} = sqrt({x});")
            elif op == "floor":
                lines.append(f"double {out} = floor({x});")
            elif op == "ceil":
                lines.append(f"double {out} = ceil({x});")
            elif op == "conj":
                # Real data only (the dispatch guard rejects complex).
                lines.append(f"double {out} = {x};")
            else:
                raise ValueError(f"op {op!r} has no native lowering")
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
    abandoned to the Python kernel (sqrt negative-domain).
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
