"""Runtime support linked into generated code.

Generated functions receive a :class:`RuntimeSupport` instance (``rt``) and
hoist the helpers they use into locals.  Most helpers are module-level
functions (no per-call state); the instance itself only carries the pieces
that depend on the execution context — the user-function dispatcher (which
re-enters the code repository) and the output sink.

The generic ``g_*`` operators accept raw host scalars *or* boxed MxArrays:
they are the compiled-code analogue of the MATLAB C library calls in the
paper's Figure 3 and are exactly what the mcc baseline emits for every
operation.
"""

from __future__ import annotations

import cmath
import math
import time

from repro.errors import (
    RecursionLimitError,
    RuntimeMatlabError,
    UndefinedSymbolError,
)
from repro.runtime import builtins as rt_builtins
from repro.runtime import display, elementwise as ew, linalg
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import (
    box_result,
    from_ndarray,
    make_scalar,
    scalar_payload,
)

import numpy as np

Raw = (int, float, complex, bool)


def box(value) -> MxArray:
    """Box a raw scalar (identity on MxArrays)."""
    if isinstance(value, MxArray):
        return value
    return make_scalar(value)


def unbox(value):
    """Unbox a scalar MxArray into a host scalar (identity on raw)."""
    if isinstance(value, MxArray):
        if value.is_string:
            return value
        return value.scalar()
    return value


def unbox_real(value) -> float:
    """Unbox expecting a real scalar; complex raises (guard for
    annotation-driven raw-float paths fed by dynamic library results)."""
    if isinstance(value, MxArray):
        value = value.scalar()
    if isinstance(value, complex):
        if value.imag == 0.0:
            return value.real
        raise RuntimeMatlabError("expected a real value, got complex")
    return float(value)


def truth(value) -> bool:
    """MATLAB truth: non-empty and all-nonzero."""
    if isinstance(value, MxArray):
        return value.bool_value()
    return value != 0


def copy_value(value):
    """Call-by-value copy (raw scalars are immutable already)."""
    if isinstance(value, MxArray):
        return value.copy()
    return value


# ----------------------------------------------------------------------
# Generic operators (raw-or-boxed polymorphic)
# ----------------------------------------------------------------------
def _generic(op_raw, op_boxed):
    def op(a, b):
        if isinstance(a, Raw) and isinstance(b, Raw):
            return op_raw(a, b)
        return op_boxed(box(a), box(b))

    return op


g_add = _generic(lambda a, b: a + b, ew.mlf_plus)
g_sub = _generic(lambda a, b: a - b, ew.mlf_minus)
g_mul = _generic(lambda a, b: a * b, ew.mlf_mtimes)
g_emul = _generic(lambda a, b: a * b, ew.mlf_times)
g_div = _generic(lambda a, b: a / b, ew.mlf_mrdivide)
g_ediv = _generic(lambda a, b: a / b, ew.mlf_rdivide)
g_ldiv = _generic(lambda a, b: b / a, ew.mlf_mldivide)
g_eldiv = _generic(lambda a, b: b / a, ew.mlf_ldivide)


def _raw_pow(a, b):
    """Raw scalar power.  The host's complex ``**`` is 1 ulp off
    ``np.power``, so a complex operand — or a negative base, which a
    fractional exponent turns complex — takes the boxed operator."""
    if isinstance(a, complex) or isinstance(b, complex) or a < 0:
        return unbox(ew.mlf_power(box(a), box(b)))
    return a ** b


g_pow = _generic(_raw_pow, ew.mlf_mpower)
g_epow = _generic(_raw_pow, ew.mlf_power)
g_lt = _generic(lambda a, b: 1.0 if a.real < b.real else 0.0, ew.mlf_lt)
g_le = _generic(lambda a, b: 1.0 if a.real <= b.real else 0.0, ew.mlf_le)
g_gt = _generic(lambda a, b: 1.0 if a.real > b.real else 0.0, ew.mlf_gt)
g_ge = _generic(lambda a, b: 1.0 if a.real >= b.real else 0.0, ew.mlf_ge)
g_eq = _generic(lambda a, b: 1.0 if a == b else 0.0, ew.mlf_eq)
g_ne = _generic(lambda a, b: 1.0 if a != b else 0.0, ew.mlf_ne)
g_and = _generic(
    lambda a, b: 1.0 if (a != 0 and b != 0) else 0.0, ew.mlf_and
)
g_or = _generic(lambda a, b: 1.0 if (a != 0 or b != 0) else 0.0, ew.mlf_or)


def g_neg(a):
    if isinstance(a, Raw):
        return -a
    return ew.mlf_uminus(a)


def g_not(a):
    if isinstance(a, Raw):
        return 0.0 if a != 0 else 1.0
    return ew.mlf_not(a)


def g_transpose(a):
    if isinstance(a, Raw):
        return a
    return ew.mlf_transpose(a)


def g_ctranspose(a):
    if isinstance(a, Raw):
        return a.conjugate() if isinstance(a, complex) else a
    return ew.mlf_ctranspose(a)


# ----------------------------------------------------------------------
# Indexing
# ----------------------------------------------------------------------
COLON = object()  # marker for a bare ':' subscript in generic index paths


def _real(index):
    """A raw subscript's real part, which MATLAB indexes by."""
    return index.real if isinstance(index, complex) else index


def g_index1(a, idx):
    """Generic ``A(idx)`` where idx may be raw or boxed (``A(:)`` is
    ``index_all``)."""
    a = box(a)
    if isinstance(idx, Raw):
        return a.get_linear(_real(idx))
    return ew.mlf_index(a, idx)


def g_index2(a, i, j):
    """Generic ``A(i, j)`` where each may be raw or boxed (a ``:`` is
    ``index_row`` / ``index_col`` / ``index_whole``)."""
    a = box(a)
    if isinstance(i, Raw) and isinstance(j, Raw):
        return a.get2(_real(i), _real(j))
    return ew.mlf_index(a, box(i), box(j))


def g_store1(a, idx, value) -> MxArray:
    """Generic ``A(idx) = value``; returns the (possibly new) array."""
    if a is None:
        a = empty_matrix()  # store into an undefined name creates the array
    a = box(a)
    if idx is COLON:
        return ew.mlf_store(a, box(value), _full_range(a.numel))
    if isinstance(idx, Raw):
        if isinstance(value, MxArray) and value.is_scalar \
                and not value.is_string:
            value = value.data[0, 0]
        if isinstance(value, Raw):
            a.set_linear(_real(idx), value)
            return a
    return ew.mlf_store(a, box(value), box(idx))


def g_store2(a, i, j, value) -> MxArray:
    if a is None:
        a = empty_matrix()
    a = box(a)
    if isinstance(i, Raw) and isinstance(j, Raw) and isinstance(value, Raw):
        a.set2(_real(i), _real(j), value)
        return a
    if i is COLON:
        i = _full_range(a.rows)
    if j is COLON:
        j = _full_range(a.cols)
    return ew.mlf_store(a, box(value), box(i), box(j))


def _full_range(count: int) -> MxArray:
    return ew.mlf_colon(make_scalar(1), make_scalar(count))


# ----------------------------------------------------------------------
# Ranges, iteration, construction
# ----------------------------------------------------------------------
def colon2(a, b) -> MxArray:
    return ew.mlf_colon(box(a), box(b))


def colon3(a, step, b) -> MxArray:
    return ew.mlf_colon(box(a), box(step), box(b))


def colon_real(value) -> float:
    """What ``mlf_colon`` reads of a ``:`` operand: the real part of its
    first element."""
    if isinstance(value, MxArray):
        value = ew.colon_operand(value)
    return float(value.real)


def frange(start: float, step: float, stop: float):
    """The values of a real-stepped ``for`` — the interpreter's own
    arithmetic (``mlf_colon``: a count, then ``start + step * i``, never
    repeated addition), as a generator so that no host ``continue`` can
    skip the advance."""
    if step == 0:
        return
    count = int(math.floor((stop - start) / step + 1e-10)) + 1
    for i in range(count):
        yield start + step * i


def columns(value):
    """Iterate the columns of a boxed iterable (``for v = M``)."""
    boxed = box(value)
    if boxed.is_string:
        for ch in boxed.text:
            yield MxArray(IntrinsicClass.STRING, text=ch)
        return
    view = boxed.view()
    if boxed.rows == 1:
        for k in range(boxed.cols):
            yield view[0, k]  # scalar fast path for row vectors
        return
    for k in range(boxed.cols):
        yield from_ndarray(view[:, k: k + 1].copy())


def build_matrix(rows) -> MxArray:
    """Bracket operator over evaluated (raw or boxed) elements."""
    boxed_rows = [hcat(*row) for row in rows]
    if len(boxed_rows) == 1:
        return boxed_rows[0]
    return ew.mlf_vertcat(boxed_rows)


def pack(rows: int, cols: int, *elements) -> MxArray:
    """A fresh ``rows x cols`` array of raw real ``elements``, row-major:
    an unrolled value where it escapes (Section 2.6.1)."""
    return MxArray(None, np.array(elements, dtype=np.float64).reshape(rows, cols))


def mtimes_elements(rows: int, inner: int, cols: int, *operands) -> list:
    """The column-major elements of a small matrix product, as host
    floats (an unrolled ``A * B``, Section 2.6.1).  Each operand is one
    boxed MxArray, multiplied as its own array, or its raw elements in
    row-major order, which become a fresh array as :func:`pack` builds
    one: BLAS results depend on the layout of what it multiplies."""
    left = operands[0]
    if isinstance(left, MxArray):
        a, rest = left.view(), operands[1:]
    else:
        split = rows * inner
        a = np.array(operands[:split], dtype=np.float64).reshape(rows, inner)
        rest = operands[split:]
    if len(rest) == 1:
        b = rest[0].view()
    else:
        b = np.array(rest, dtype=np.float64).reshape(inner, cols)
    return (a @ b).ravel("F").tolist()


def dgemv(alpha, a, x, beta, y) -> MxArray:
    """Fused ``alpha*A*x + beta*y`` (code-selection rule of Section 2.6.1);
    ``y`` is None when the expression has no addend.

    Code selection fires this on the *likely* dgemv shape; when the actual
    operands do not conform as matrix × column-vector plus a conforming
    column (annotations are conservative guesses, and the Figure 7
    ablations weaken them), the kernel falls back to the generic operator
    chain, preserving MATLAB semantics exactly.
    """
    a_boxed, x_boxed = box(a), box(x)
    y_boxed = box(y) if y is not None else None
    if (
        (not isinstance(alpha, MxArray) or alpha.is_scalar)
        and (not isinstance(beta, MxArray) or beta.is_scalar)
        and a_boxed.cols == x_boxed.rows
        and x_boxed.cols == 1
        and not a_boxed.is_scalar
        and (y_boxed is None or y_boxed.shape == (a_boxed.rows, 1))
    ):
        return linalg.dgemv(
            unbox_real(alpha), a_boxed, x_boxed, unbox_real(beta), y_boxed
        )
    # Generic fallback.
    product = g_mul(alpha, g_mul(a, x))
    if y is None:
        return box(product)
    return g_add(product, g_mul(beta, y))


# ----------------------------------------------------------------------
# Raw scalar math (inlined elementary functions)
# ----------------------------------------------------------------------
m_sqrt = math.sqrt
m_exp = math.exp
m_log = math.log
m_sin = math.sin
m_cos = math.cos
m_tan = math.tan
m_atan = math.atan
c_exp = cmath.exp
c_abs = abs


def _real_nan(x) -> bool:
    """A real NaN must stay real under the complex-widening helpers: the
    interpreter widens on ``view < 0``, which is false for NaN, where
    ``cmath`` alone would answer ``nan+nanj``."""
    return x != x and not isinstance(x, complex)


def c_sqrt(x):
    return x if _real_nan(x) else cmath.sqrt(x)


def c_log(x):
    return x if _real_nan(x) else cmath.log(x)


# The four integer roundings answer NumPy's bits (the interpreter's):
# a float, the argument's sign on a zero result (``ceil(-0.4)`` is -0),
# and ``Inf`` / ``NaN`` unchanged where ``math`` would raise.
def m_floor(x: float) -> float:
    return math.copysign(math.floor(x), x) if math.isfinite(x) else x


def m_ceil(x: float) -> float:
    return math.copysign(math.ceil(x), x) if math.isfinite(x) else x


def m_fix(x: float) -> float:
    return math.copysign(math.trunc(x), x) if math.isfinite(x) else x


def m_round(x: float) -> float:
    """MATLAB rounding: halves away from zero, as the interpreter's
    ``sign(x) * floor(abs(x) + 0.5)`` (so ``round(-0.0)`` is +0)."""
    if not math.isfinite(x):
        return x
    return math.copysign(math.floor(abs(x) + 0.5), x) if x else 0.0


def m_sign(x: float) -> float:
    return 0.0 if x == 0 else math.copysign(1.0, x)


def m_mod(x: float, m: float) -> float:
    return math.fmod(math.fmod(x, m) + m, m) if m != 0 else x


def m_rem(x: float, m: float) -> float:
    return math.fmod(x, m) if m != 0 else float("nan")


#: Raw-math fast paths for scalar builtin calls: name -> (real, complex).
SCALAR_MATH = {
    "abs": ("abs", "c_abs"),
    "sqrt": ("m_sqrt", "c_sqrt"),
    "exp": ("m_exp", "c_exp"),
    "log": ("m_log", "c_log"),
    "sin": ("m_sin", None),
    "cos": ("m_cos", None),
    "tan": ("m_tan", None),
    "atan": ("m_atan", None),
    "floor": ("m_floor", None),
    "ceil": ("m_ceil", None),
    "round": ("m_round", None),
    "fix": ("m_fix", None),
    "sign": ("m_sign", None),
}


def rand_scalar() -> float:
    """``rand`` / ``rand(1)`` / ``rand(1, 1)`` in a raw-real position: the
    draw the builtin makes, without its boxes."""
    return rt_builtins.GLOBAL_RANDOM.draw()


def make_string_value(text: str) -> MxArray:
    return MxArray(IntrinsicClass.STRING, text=text)


def end_outside() -> int:
    """``end`` where no subscript encloses it: the interpreter's error."""
    raise RuntimeMatlabError("'end' is only valid inside a subscript")


def scalar_value(value):
    """A raw scalar as boxing and unboxing it leaves it (what a compiled
    version's boxed entry hands its formals and its caller its results):
    a complex whose imaginary part is zero is its real part, every other
    non-complex a host float."""
    if isinstance(value, complex):
        return value.real if value.imag == 0.0 else value
    return float(value)


def end_dim(a, dim: int) -> int:
    """Value of the ``end`` keyword inside a subscript of ``a``."""
    a = box(a)
    if dim == 1:
        return a.rows
    if dim == 2:
        return a.cols
    return a.numel


def colon_marker() -> object:
    return COLON


def index_all(a) -> MxArray:
    return ew.mlf_index_all(box(a))


def index_col(a, j) -> MxArray:
    """``A(:, j)``"""
    a = box(a)
    return ew.mlf_index(a, _full_range(a.rows), box(j))


def index_row(a, i) -> MxArray:
    """``A(i, :)``"""
    a = box(a)
    return ew.mlf_index(a, box(i), _full_range(a.cols))


def index_whole(a) -> MxArray:
    return box(a).copy()


def hcat(*items) -> MxArray:
    """Bracket row ``[a b c]``.  A row of raw scalars is built directly:
    the array ``hstack`` would make of their boxes, without the boxes."""
    row = []
    for item in items:
        if not isinstance(item, Raw):
            break
        row.append(scalar_payload(item))
    else:
        if row:
            return box_result(np.array([row]))
    return ew.mlf_horzcat([box(item) for item in items])


def vcat(*rows) -> MxArray:
    return ew.mlf_vertcat([box(row) for row in rows])


def empty_matrix() -> MxArray:
    return MxArray(IntrinsicClass.REAL, np.zeros((0, 0)))


#: The most arguments a version's call of itself passes as a plain
#: positional call (``select.Walk.call_own``); a call with more goes
#: through ``rt.call_user``.  The emitted function takes them as plain
#: parameters, never ``*args``: the host runs such a call without a
#: C-level frame, so a deep recursion ends at the host's recursion
#: limit, not in a C stack overflow.
SITE_ARITY = 4


def own_result(results, function: str, output: str):
    """The results of a version's call of itself, whose first output no
    analysis proved assigned: the interpreter's error if it is unset."""
    if results[0] is None:
        raise RuntimeMatlabError(
            f"output argument '{output}' of {function} not assigned"
        )
    return results


class RuntimeSupport:
    """Per-execution ``rt`` namespace.

    All stateless helpers are class attributes (plain functions); the
    constructor only wires the user-function dispatcher and output sink.
    """

    # Stateless helpers
    box = staticmethod(box)
    unbox = staticmethod(unbox)
    unbox_real = staticmethod(unbox_real)
    truth = staticmethod(truth)
    copy_value = staticmethod(copy_value)
    g_add = staticmethod(g_add)
    g_sub = staticmethod(g_sub)
    g_mul = staticmethod(g_mul)
    g_emul = staticmethod(g_emul)
    g_div = staticmethod(g_div)
    g_ediv = staticmethod(g_ediv)
    g_ldiv = staticmethod(g_ldiv)
    g_eldiv = staticmethod(g_eldiv)
    g_pow = staticmethod(g_pow)
    g_epow = staticmethod(g_epow)
    g_lt = staticmethod(g_lt)
    g_le = staticmethod(g_le)
    g_gt = staticmethod(g_gt)
    g_ge = staticmethod(g_ge)
    g_eq = staticmethod(g_eq)
    g_ne = staticmethod(g_ne)
    g_and = staticmethod(g_and)
    g_or = staticmethod(g_or)
    g_neg = staticmethod(g_neg)
    g_not = staticmethod(g_not)
    g_transpose = staticmethod(g_transpose)
    g_ctranspose = staticmethod(g_ctranspose)
    g_index1 = staticmethod(g_index1)
    g_index2 = staticmethod(g_index2)
    g_store1 = staticmethod(g_store1)
    g_store2 = staticmethod(g_store2)
    # The checked element accesses are MxArray's own (1-based,
    # column-major, growing on a store as MATLAB does).
    checked_load1 = staticmethod(MxArray.get_linear)
    checked_load2 = staticmethod(MxArray.get2)
    checked_store1 = staticmethod(MxArray.set_linear)
    checked_store2 = staticmethod(MxArray.set2)
    colon2 = staticmethod(colon2)
    colon3 = staticmethod(colon3)
    colon_real = staticmethod(colon_real)
    frange = staticmethod(frange)
    columns = staticmethod(columns)
    build_matrix = staticmethod(build_matrix)
    pack = staticmethod(pack)
    mtimes_elements = staticmethod(mtimes_elements)
    dgemv = staticmethod(dgemv)
    COLON = COLON
    m_sqrt = staticmethod(m_sqrt)
    m_exp = staticmethod(m_exp)
    m_log = staticmethod(m_log)
    m_sin = staticmethod(m_sin)
    m_cos = staticmethod(m_cos)
    m_tan = staticmethod(m_tan)
    m_atan = staticmethod(m_atan)
    m_floor = staticmethod(m_floor)
    m_ceil = staticmethod(m_ceil)
    m_round = staticmethod(m_round)
    m_fix = staticmethod(m_fix)
    m_sign = staticmethod(m_sign)
    m_mod = staticmethod(m_mod)
    m_rem = staticmethod(m_rem)
    c_sqrt = staticmethod(c_sqrt)
    c_exp = staticmethod(c_exp)
    c_log = staticmethod(c_log)
    c_abs = staticmethod(c_abs)
    make_string = staticmethod(make_string_value)
    scalar_value = staticmethod(scalar_value)
    end_outside = staticmethod(end_outside)
    own_result = staticmethod(own_result)
    rand_scalar = staticmethod(rand_scalar)
    end_dim = staticmethod(end_dim)
    colon_marker = staticmethod(colon_marker)
    index_all = staticmethod(index_all)
    index_col = staticmethod(index_col)
    index_row = staticmethod(index_row)
    index_whole = staticmethod(index_whole)
    hcat = staticmethod(hcat)
    vcat = staticmethod(vcat)
    empty_matrix = staticmethod(empty_matrix)

    def __init__(
        self,
        *,
        knows,
        call_user=None,
        sink: display.OutputSink | None = None,
        fault_plan=None,
        obs=None,
        native=None,
    ):
        self.sink = sink if sink is not None else display.OutputSink()
        self._call_user = call_user
        # Whether a user function of this name exists.
        self._knows = knows
        self.fault_plan = fault_plan
        self.obs = obs
        # The native tier (repro.native): when armed, every fused-kernel
        # dispatch is offered to it first; None keeps the Python kernels.
        self.native = native
        if fault_plan is not None:
            self._arm_faults(fault_plan)

    # ------------------------------------------------------------------
    # Fused-kernel dispatch (repro.kernels): emitted code hoists
    # ``rt.kernel_<hash>`` like any helper; the first lookup resolves it
    # against the process-wide kernel cache and caches the binding on the
    # instance.  An unknown kernel (e.g. a stale disk-cached object whose
    # sources failed to revive) raises AttributeError — a host-level
    # fault the guarded repository absorbs by deoptimizing.
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        if name.startswith("kernel_"):
            fn = self._bind_kernel(name)
            setattr(self, name, fn)
            return fn
        raise AttributeError(
            f"'{type(self).__name__}' object has no attribute '{name}'"
        )

    def _bind_kernel(self, name: str):
        from repro.faults.plan import SITE_KERNEL_RUN
        from repro.kernels.cache import KERNEL_CACHE

        kernel = KERNEL_CACHE.lookup(name)
        if kernel is None:
            raise AttributeError(f"unknown fused kernel '{name}'")
        fn = kernel.fn
        observe = None if self.obs is None else self.obs.push(
            "majic_kernel_run_seconds", kernel=name
        )
        if observe is not None:
            def timed(*args, _fn=fn, _observe=observe):
                start = time.perf_counter()
                result = _fn(*args)
                _observe(time.perf_counter() - start)
                return result

            fn = timed
        native = self.native
        if native is not None and native.enabled:
            # Native-first dispatch (outside the Python-kernel timer, so
            # majic_kernel_run_seconds stays pure): the engine serves the
            # call from its compiled ``.so`` or returns None, in which
            # case the Python kernel runs — the guarded fallback that
            # keeps this tier bit-identical under every failure mode.
            def native_first(*args, _native=native, _kernel=kernel, _fn=fn):
                result = _native.dispatch(_kernel, args)
                if result is not None:
                    return result
                return _fn(*args)

            fn = native_first
        plan = self.fault_plan
        if plan is not None and any(
            spec.site == SITE_KERNEL_RUN for spec in plan.specs
        ):
            def shim(*args, _fn=fn, _plan=plan, _name=name):
                _plan.check(SITE_KERNEL_RUN, _name)
                return _fn(*args)

            fn = shim
        return fn

    # ------------------------------------------------------------------
    # Fault injection (repro.faults): instance attributes shadow the class
    # helpers, so only sessions that carry a plan pay for the wrapping —
    # emitted code hoists ``rt.<helper>`` per call and picks up the shim.
    # ------------------------------------------------------------------
    def _arm_faults(self, plan) -> None:
        for helper in plan.runtime_helpers():
            if helper == "*":
                for name in _faultable_helpers():
                    self._wrap_helper(name, plan, "rt.*")
            elif hasattr(self, helper):
                self._wrap_helper(helper, plan, f"rt.{helper}")

    def _wrap_helper(self, name: str, plan, site: str) -> None:
        original = getattr(self, name)

        def shim(*args, _original=original, _site=site, **kwargs):
            plan.check(_site)
            return _original(*args, **kwargs)

        setattr(self, name, shim)

    # ------------------------------------------------------------------
    def display_value(self, name, value) -> None:
        """Echo an unsuppressed assignment (the front end's job in
        interpreted code; compiled code calls back here)."""
        label = name.text if isinstance(name, MxArray) else str(name)
        self.sink.write(display.format_value(box(value), label))

    def ambiguous_lookup(self, name, current, where=None, *args):
        """Runtime resolution of an ambiguous symbol (Section 2.1), read
        bare or in call form with the (boxed) ``args``.

        If the variable register holds a value, the symbol is a variable
        on this execution path, indexed by ``args``; otherwise fall back
        to builtin, then user function — exactly the interpreter's dynamic
        rule, and its error (at source location ``where``) when there is
        neither.
        """
        if current is not None:
            return ew.mlf_index(current, *args) if args else current
        label = name.text if isinstance(name, MxArray) else str(name)
        if rt_builtins.is_builtin(label):
            return self.builtin1(label, *args)
        if not self._knows(label):
            raise UndefinedSymbolError(
                f"undefined function or variable '{label}'", where
            )
        return self.call_user(label, 0, *args)[0]

    # ------------------------------------------------------------------
    def builtin(self, name: str, nargout: int, *args):
        """Boxed builtin dispatch (slow generic path)."""
        boxed = [box(a) for a in args]
        return tuple(
            rt_builtins.call_builtin(name, boxed, nargout, sink=self.sink)
        )

    def builtin1(self, name: str, *args):
        """Single-output builtin dispatch."""
        boxed = [box(a) for a in args]
        result = rt_builtins.call_builtin(name, boxed, 1, sink=self.sink)
        return result[0] if result else empty_matrix()

    def call_unknown(self, name: str, where, nargout: int, *args):
        """A call of a name that was no function when the code was
        compiled: the interpreter's error at source location ``where``,
        unless one is defined by now."""
        if not self._knows(name):
            raise UndefinedSymbolError(
                f"undefined function or variable '{name}'", where
            )
        return self.call_user(name, nargout, *args)

    def call_user(self, name: str, nargout: int, *args):
        """Re-enter the execution engine for a user-function call, for
        its first ``nargout`` results.  ``nargout == 0`` is a call in an
        expression: one result, which is the interpreter's ``[]`` when
        the callee has no outputs."""
        if self._call_user is None:
            raise RuntimeMatlabError(
                f"undefined function or variable '{name}'"
            )
        try:
            results = self._call_user(
                name, [box(a) for a in args], max(nargout, 1)
            )
        except RecursionError:
            raise RecursionLimitError() from None
        if len(results) < nargout:
            # The caller's multi-assignment asks for more outputs than
            # the callee has: the interpreter's error, after the call.
            raise RuntimeMatlabError(f"{name}: not enough output arguments")
        return results or (empty_matrix(),)


# The builtins' typed entries (``Builtin.host``) are helpers under their
# own names; the registry is the one list of them.
for _builtin in rt_builtins.BUILTINS.values():
    if _builtin.host is not None:
        setattr(RuntimeSupport, _builtin.host.__name__,
                staticmethod(_builtin.host))


def _faultable_helpers() -> list[str]:
    """Every public helper emitted code can reach through ``rt.``."""
    names = []
    for name, value in vars(RuntimeSupport).items():
        if name.startswith("_") or name == "COLON":
            continue
        if isinstance(value, staticmethod) or callable(value):
            names.append(name)
    return names
