"""The backend matrix, and proof that its oracle bites.

Every Table-1 program runs on every row of
:data:`repro.backends.BACKENDS` (plus MIPS-platform runs of the MaJIC
tiers and a two-register JIT run) and its whole :class:`~repro.backends.Observation` — output bytes,
display transcript, error text, random-stream post-state — must equal
the interpreter's :func:`~repro.backends.reference`.  Any unsound type
annotation, removed subscript check, miscompiled selection or
thread-unsafe repository mutation shows up here — and so does a compiled
tier that stopped serving: these runs inject no fault, so a deopt or a
failed compile (which the interpreter rescues, keeping the answer right)
fails the cell with its cause.

A new backend is one row in ``repro.backends.BACKENDS``; this file needs
no change.  ``PROBES`` holds hand-written programs for divergences no
Table-1 program reaches; they run through the same ``check`` on the same
rows.
"""

from __future__ import annotations

import signal
from dataclasses import replace

import numpy as np
import pytest

from repro.backends import (
    BACKENDS, Program, check, observation, observe, reference,
)
from repro.backends import open as open_backend
from repro.faults.plan import SITE_OOM, FaultPlan, FaultSpec
from repro.repository.diagnostics import DEOPT
from repro.benchsuite.registry import benchmark_names
from repro.core.platformcfg import MIPS, SPARC
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.values import from_ndarray, from_python

#: Benchmarks exercised in the fast (-m "not slow") lane; the rest of the
#: matrix runs in the slow lane.
FAST_NAMES = ("fibonacci", "dirich", "fractal", "cgopt")

#: (backend label, overrides, id suffix).  The MIPS platform changes code
#: quality (fewer registers, no unrolling, a stronger native backend),
#: never results.  Two registers starve the linear scan, so its spill and
#: steal-the-furthest paths serve code that twelve registers never reach
#: (the ``spill`` row is the other extreme: every register spilled).
ROWS = [
    (label, {}, "") for label in sorted(BACKENDS) if label != "interpreter"
] + [
    (label, {"platform": MIPS}, "-mips") for label in ("jit", "fused", "spec")
] + [
    ("jit", {"platform": replace(SPARC, jit_num_registers=2)}, "-2regs"),
]


def _matrix():
    for name in benchmark_names():
        marks = () if name in FAST_NAMES else (pytest.mark.slow,)
        for backend, overrides, suffix in ROWS:
            yield pytest.param(
                name, backend, overrides, marks=marks,
                id=f"{name}-{backend}{suffix}",
            )


@pytest.mark.parametrize(("name", "backend", "overrides"), list(_matrix()))
def test_backend_bit_identical_to_interpreter(name, backend, overrides):
    problems = check(Program.benchmark(name), backend, **overrides)
    fields = [field for field, _, _ in problems]
    causes = [
        line for field, _, got in problems if field == "fallbacks"
        for line in got
    ]
    assert not problems, "\n  ".join([
        f"{backend} run of {name} diverged from the interpreter on {fields}",
        *causes,
    ])


# ----------------------------------------------------------------------
# Probes: one program per divergence found by hand
# ----------------------------------------------------------------------
AMBIGUOUS = "function r = amb(c)\nif c, pi = 2; end\nr = pi + 1;\n"
CONTINUE = (
    "function s = cont(x)\ns = 0;\n"
    "for k = 1:0.5:x, if k == 2, continue; end, s = s + k; end\n"
)
STEPPED = "function s = stepped(x)\ns = 0;\nfor k = 0:0.1:x, s = s + k; end\n"
TOO_MANY = (
    "function r = outer(x)\ndisp(x);\nr = inner(x, 2, 3);\n"
    "function y = inner(a, b)\ny = a + b;\n"
)
COMPLEX_POWER = "function r = cpw(a, b, c)\nr = (a - b) .^ c;\n"
BARE_DISP = "function r = shown(s)\ndisp(s)\nr = 1;\n"
COMPLEX_BOUND = (
    "function s = cfor(n)\ns = 0;\nfor k = 1i:n, s = s + 1; end\n"
    "x = 2i:0.5:n;\ns = s + x(2);\n"
)
RESULT_CLASS = (
    "function s = classy(v)\nw = v * 2;\nu = w / 2;\n"
    "s = inner(u) + 10 * inner(w);\n"
    "function t = inner(w)\nt = 0;\n"
    "for k = w(1):w(2), t = t + k; if t > 99, return; end, end\n"
)
COLON_ORDER = (
    "function r = colord(n)\nv = lo(n):st(n):hi(n);\nr = sum(v);\n"
    "for k = lo(n):st(n):hi(n), r = r + k; end\n"
    "function a = lo(n)\ndisp(1);\na = n;\n"
    "function s = st(n)\ndisp(2);\ns = n + 1;\n"
    "function b = hi(n)\ndisp(3);\nb = 4 * n + 5;\n"
)
HOT_RANGES = (
    "function r = hot(x)\nr = 0;\n"
    "for k = 1:3, r = r + spec(5); end\n"
    "r = r + spec(6) + spec(5) + spec(7) + spec(5);\n"
    "v = [1 2 3] * x;\nr = r + sum(spec(v)) + sum(spec(v));\n"
    "w = [1 2 9] * x;\nr = r + sum(spec(w)) + sum(spec(v));\n"
    "r = r + spec(x > 0) + spec(1) + spec(x > 0);\ndisp(r);\nr = spec(0);\n"
    "function y = spec(a)\nif a == -1, y = a; return; end\n"
    "t = [10 20 30 40 50 60 70 80 90];\ny = a .* 2 + t(a(1));\n"
)
HIT_THEN_TOO_MANY = (
    "function r = hits(x)\nr = inner(x, 2) + inner(x, 2);\ndisp(r);\n"
    "r = inner(x, 2, 3);\n"
    "function y = inner(a, b)\nif a == -1, y = a; return; end\ny = a + b;\n"
)
COMPLEX_ORDER = (
    "function r = ccmp(a)\nz = sqrt(a);\nw = sqrt(4 * a);\nr = 0;\n"
    "if z < 2, r = r + 1; end\nif z >= 0, r = r + 2; end\n"
    "if z > w, r = r + 4; end\nif w <= z, r = r + 8; end\n"
    "if z == 1i, r = r + 16; end\nif z ~= w, r = r + 32; end\n"
)
FEWER = "function y = short(a, b)\nif a > 5, y = b; else y = a * 2; end\n"
SHORT_FIRST = (
    "function r = promo(x)\nr = short(x);\n"
    "for k = 1:4, r = r + short(x, k); end\n"
    "function y = short(a, b)\nif a == -1, y = a; return; end\n"
    "if a > 5, y = b; else y = a * 2; end\n"
)
SHORT_CIRCUIT = (
    "function r = sc(v)\nr = 0;\nfor k = 1:5\n"
    "  if k <= 3 && v(k) > 1, r = r + k; end\n"
    "  if k > 3 || g(k) > 1, r = r + 10 * k; end\nend\n"
    "function y = g(k)\ndisp(k);\nif k < 0, y = 0; return; end\ny = k;\n"
)
FOR_COLUMNS = (
    "function s = cols(M, v)\ns = 0;\n"
    "for c = M, s = s * 10 + c(1) * 3 + c(2); end\n"
    "for x = v, s = s * 2 + x; end\n"
)
LINEAR_STORES = (
    "function r = lin(n)\n"
    "c = zeros(n, 1);\nM = zeros(n, n);\nw = zeros(1, n);\n"
    "for k = 1:n, c(k) = k; w(k) = 2 * k; end\n"
    "for k = 1:n*n, M(k) = k * 3; end\n"
    "r = [c' w M(1, :) M(:, 2)'];\n"
)
EAGER_AND_OR = (
    "function r = eo(x)\nr = 0;\n"
    "for k = 0:1\n"
    "  if (x * k > 0) & (rand > 0.5), r = r + 1; end\n"
    "  if (x * k > 0) | (shown(k) > 0), r = r + 10; end\n"
    "end\nn = 0;\n"
    "while (n < 2) & (rand < 2), n = n + 1; end\n"
    "while (n < 4) | (shown(n) > 5), n = n + 1; end\n"
    "r = r + n + rand;\n"
    "function y = shown(k)\ndisp(k);\nif k < 0, y = 0; return; end\ny = k;\n"
)
DEEP_SUM = "function r = deep(x)\nr = {};\n".format(
    " + ".join(f"x*{k}" for k in range(1, 301))
)
STORE_ORDER = (
    "function r = so(n)\nr = zeros(1, n);\nM = zeros(n, n);\n"
    "for k = 1:n\n  r(k + (rand > 2)) = rand;\n"
    "  M(k, k + (rand > 2)) = rand;\nend\n"
    "r = [r M(1, :) M(2, :) M(3, :)];\n"
)
COLON_ALL = (
    "function r = ca(n)\nM = zeros(n, n);\n"
    "for k = 1:n*n, M(k) = k; end\n"
    "v = 1:n;\nc = v(:);\n"
    "r = [size(M(:)) size(c) sum(M(:))];\n"
    "r = [r M(:)' c'];\n"
)
ALIAS_LITERAL = (
    "function B = al(n)\nB = 0;\n"
    "for k = 1:n\n  A = [k, k + 1];\n  if k == 1, B = A; end\nend\n"
)
ALIAS_OP = (
    "function W = ao(n)\nv = [1, 2];\nW = 0;\n"
    "for k = 1:n\n  w = v + k;\n  if k == 1, W = w; end\nend\n"
)
SWAP = (
    "function r = sw(x)\nv = [x, 2 * x];\nu = [x, x + 1, x + 2];\n"
    "for k = 1:3\n  v = [v(2), v(1)];\n  u = [u(3), u(1), u(2) + k];\nend\n"
    "r = [v, u];\n"
)
ESCAPES = (
    "function r = esc(x)\nv = [x, x + 1, x + 2];\nv = v * 2\nv(1) = v(3) - 1\n"
    "t = inner(v);\nc = v(:);\nk = 1 + (x > 100);\ne = v(k + 1);\n"
    "g = [x, 2 * x];\ng = g + 1;\ng(4) = 7;\n"
    "r = [t, c', g, e, ret(x)];\n"
    "function y = inner(a)\nif a(1) < -1e9, y = 0; return; end\n"
    "disp(a);\ny = sum(a) + a(2);\n"
    "function y = ret(x)\nw = [x, 1];\nw = w + 1;\n"
    "if x < -1e9, y = 0; return; end\ny = w;\n"
)
UNROLLED_MATRIX = (
    "function r = mx(x, F)\nA = [1 2 3; 4 5 6; 7 8 10];\nB = A * x;\n"
    "A(2, 3) = B(3, 2);\nC = A .* B - A ./ 2 + (-A) .^ 2;\n"
    "D = [C(3, 3), C(1, 1); C(2, 1), x];\nk = 0;\n"
    "while k < 5\n  k = k + 1;\n"
    "  D = [D(2, 2), D(1, 2); D(2, 1) + k, D(1, 1)];\n"
    "  if D(1, 1) > 1e6, break; end\nend\n"
    "G = F + D;\nH = G .* F;\n"
    "r = [A(:)', C(:)', D(:)', G(:)', H(:)', k];\n"
)
MAYBE_UNDEFINED = "function r = mu(x)\nif x > 0, v = [x, 1]; end\nr = v + 1;\n"
MAYBE_UNDEFINED_CALL = "function r = mc(x)\nif x > 0, v = [x, 1]; end\nr = v(1);\n"
MAYBE_UNDEFINED_MULTI = (
    "function r = mm(x)\nif x > 0, v = [x, 1]; end\n[r] = v(1);\n"
)
MAYBE_UNSET_STORE = (
    "function r = ms(x)\nif x > 0, v = [x, 1, 2]; end\nv(2) = 3;\n"
    "r = [v(end), v + 1];\n"
)
ZERO_NAN = (
    "function r = zn(x, y)\nv = [x, y, 1];\nw = v * 2;\nu = -v;\n"
    "s = v .* v;\nz = [w(1), u(2), s(1)];\nz(2) = u(1);\n"
    "r = [v, w, u, s, z];\n"
)
LOGICAL_DEF = (
    "function r = ld(x)\nm = [0, 0];\nm = [x, x] > 0;\nv = [10, 20];\n"
    "r = v(m);\n"
)
INT_ELEMENTS = (
    "function r = ie(x)\nv = [0, 1];\nu = -v;\nk = 0;\nq = -[k, 1];\n"
    "w = [2, 3];\nfor j = 1:12\n  w = w .* w;\nend\n"
    "r = [u(1), q(1), w(1) - w(1)];\n"
)
SIGN_COMPLEX = "function r = sc(x)\nz = x * 1i;\nr = sqrt(z * z);\n"
SIGN_NAN = "function r = sn(x)\nt = x * x;\nr = [sqrt(t), sqrt(x .* x)];\n"
SIGN_STORE = (
    "function s = ss(x)\nr = [x, 3];\nt = r(1);\nr(1) = -2;\n"
    "s = sqrt(t * r(1));\n"
)
SIGN_SUBSCRIPT = "function r = sx(x)\nv = [10, 20, 30];\nr = v(x * x);\n"
RAND_DRAWS = (
    "function r = rd(n)\nr = 0;\n"
    "for k = 1:n\n  a = rand;\n  b = rand(1);\n  c = rand(1, 1);\n"
    "  if (a > 2) & (rand(1) > 0.5), r = r + 1; end\n"
    "  v = [rand, rand(1, 1)] + rand;\n"
    "  r = r * 10 + a + 2 * b + 3 * c + v(1) - v(2) - rand(1) * rand;\n"
    "end\n"
)

SMALL_PRODUCT = (
    "function [r, d] = sp(F, x)\nA = [x, 2; -1, x + 1];\nv = [1; x];\n"
    "t = [0.5; -0.25];\nfor k = 1:3\n  v = A * v + t;\nend\n"
    "B = [1, 2, 3] * [x, 0; 1, x; -x, 2]\nw = [x; 1; 2];\nu = F * w;\n"
    "s = [x, 1, 2] * w;\nG = reshape(F(:)' - x, 3, 3);\n"
    "g = [reshape(F(:)', 3, 3) * w; G * w];\nd = twice(A, v);\n"
    "r = [v', B, u', s, g'];\n"
    "function y = twice(A, v)\nif A(1) < -1e9, y = v; return; end\n"
    "y = A * v;\n"
)
DGEMV_ZERO_BETA = "function r = zb(A, x, y)\nr = A * x + 0 * y;\n"
NESTED_END = (
    "function [a, b, c] = nend(n)\nx = [10 20 30 40 50] * n;\ny = [1 2];\n"
    "a = x(y(end));\nb = x(1, y(end));\nc = x(y(end) + end - 5);\n"
)


END_OUTSIDE = "function y = eo(n)\nx = [1 2 3] * n;\ny = sin(end);\n"
#: Recursion whose every level prints and draws, called from a loop: the
#: calls of ``step`` from ``step`` are plain host calls in compiled code
#: (``drw`` embeds ``step`` once; its calls of ``step`` re-enter).
DIRECT_EFFECTS = (
    "function r = drw(n)\nr = 0;\nfor k = 1:2\n  r = r + step(n);\nend\n"
    "function s = step(n)\ndisp(n);\ns = rand(1, 1);\n"
    "if n > 0\n  s = s + step(n - 1);\nend\n"
)
#: A callee that prints and draws, called by compiled code: each callee
#: returns early, so neither is inlined, and every call of ``leg`` and
#: ``step`` re-enters the repository through ``rt.call_user``.
SITE_EFFECTS = (
    "function r = relay(n)\nr = step(n) + step(n + 1);\n"
    "for k = 1:5\n  r = r + leg(n);\nend\n"
    "function y = leg(x)\nif x < 0, y = 0; return; end\ny = step(x) + 1;\n"
    "function s = step(n)\ndisp(n);\ns = rand(1, 1);\n"
    "if n < 0, return; end\ns = s + n;\n"
)
#: A call of ``mp`` by ``mp`` whose actual is a scalar on most paths and
#: a 1x2 matrix or a complex on others: its type is no scalar's, so the
#: site is not bound to the scalar version the call runs on.
OUTSIDE_SIGNATURE = (
    "function r = mp(x, n)\nif n == 0, r = sum(x); return; end\n"
    "if n == 2, y = [x 1]; elseif n == 3, y = x + 2i; else y = x; end\n"
    "r = mp(y, n - 1) + n;\n"
)
DEEP = "function r = deep(n)\nif n == 0, r = 0; else r = 1 + deep(n - 1); end\n"
UNASSIGNED = "function y = un(x)\nif x > 0, y = 1; end\n"
#: Recursion that prints and draws at every level and, at the deepest,
#: divides by an integer zero: a host ``ZeroDivisionError`` in compiled
#: code (the interpreter gives Inf), which no tier prevents yet.
OWN_FAULT = (
    "function r = fz(n)\ndisp(n);\nr = rand(1, 1);\n"
    "if n > 0\n  r = r + fz(n - 1);\nelse\n  k = 0;\n  r = r + 1 / k;\nend\n"
)
MUTUAL = (
    "function r = iseven(n)\nif n == 0, r = 1; else r = isodd(n - 1); end\n"
    "function r = isodd(n)\nif n == 0, r = 0; else r = iseven(n - 1); end\n"
)
#: Mutual recursion that stays two functions: each returns early, so
#: neither is inlined into the other, and every call of one by the other
#: re-enters the repository.
MUTUAL_CALLS = (
    "function r = pa(n)\nif n <= 0, r = 0; return; end\nr = pb(n - 1) + 1;\n"
    "function r = pb(n)\nif n <= 0, r = 1; return; end\nr = pa(n - 1) + 2;\n"
)
UNDEFINED = "function y = ud(x)\ndisp(x);\ny = x + nosuchfn(x, 0.7);\n"
EAGER_OWN = (
    "function r = chain(n)\ndisp(n);\nif n <= 0, r = 1; return; end\n"
    "r = (n > 100) & chain(n - 1);\n"
)
#: A multi-assignment that asks ``one`` for more outputs than it has; the
#: callee displays, so its run before the error shows in the transcript.
FEWER_OUTPUTS = (
    "function r = mo(a)\ndisp(a);\n[p, q] = one(a);\nr = p + q;\n"
    "function y = one(x)\ndisp(x + 1);\ny = x + 1;\n"
)
#: ``diag`` of a vector holds zeros off the diagonal, outside the vector's
#: own range: ``sqrt(0 - 1)`` is imaginary.
DIAG_ZEROS = "function r = dg(a)\nD = diag([a 3]);\nr = sqrt(D(1,2) - 1);\n"
#: The integer roundings answer NumPy's bits: a zero keeps the argument's
#: sign (``round`` excepted: ``round(-0.0)`` is +0), and ``Inf`` / ``NaN``
#: pass through where Python's ``math`` raises.
ROUNDINGS = (
    "function r = fc(a, b, c)\n"
    "r = [floor(a) + ceil(a .* 0.5), ceil(a - 0.4), fix(a - 0.4), "
    "round(a - 0.4), round(a), floor(b) + ceil(b .* 0.5), fix(b), "
    "round(b), floor(c) + ceil(c .* 0.5), fix(c), round(c)];\n"
)

#: The typed constructor entries on host sizes: a fraction truncates, a
#: negative size is 0 and a NaN or Inf one raises the interpreter's error.
TYPED_CONSTRUCTORS = (
    "function [a, b, c, d] = tc(n)\na = zeros(1, n);\nb = ones(n, 2);\n"
    "c = eye(n);\nd = zeros(n, n - 1);\n"
)
#: ``g`` has no outputs, and an early return keeps it a call.
ZERO_OUTPUT = (
    "function r = zo(a)\nr = g(a);\ndisp(size(r));\ng(a)\nr = 1;\n"
    "function g(x)\nif x < -1e9, return; end\ndisp(x);\n"
)
ZERO_OUTPUT_MULTI = (
    "function r = zm(a)\n[r] = g(a);\n"
    "function g(x)\nif x < -1e9, return; end\ndisp(x);\n"
)
ZERO_OUTPUT_OWN = (
    "function zw(a)\nif a > 0, y = zw(a - 1); disp(size(y)); end\ndisp(a);\n"
)
#: A linear subscript of a matrix is column-major: read from a formal and
#: from a local built by 2-D stores, and a store past ``numel`` of a
#: matrix is the interpreter's resize error.
LINEAR_LOAD = (
    "function r = llm(A)\nr = zeros(1, numel(A));\n"
    "for k = 1:numel(A), r(k) = A(k); end\n"
)
LINEAR_LOAD_LOCAL = (
    "function r = lll(x)\nA = zeros(2, 3);\n"
    "for i = 1:2, for j = 1:3, A(i, j) = 3 * (i - 1) + j + x; end, end\n"
    "r = zeros(1, 6);\nfor k = 1:6, r(k) = A(k); end\n"
)
LINEAR_GROW = (
    "function A = lgm(n)\nA = zeros(2, 2);\nfor k = 1:n, A(k) = k; end\n"
)
#: A one-character string stored into a numeric array stores its code
#: (compiled code read the string box's empty buffer and fell back).
CHAR_STORE = "function r = st(x)\nA = zeros(1, 3);\nA(2) = 'x';\nr = A + x;\n"
#: A complex store into a real array widens its buffer, so the source
#: target (MIPS: data pointers hoisted) must not read it through an alias
#: of the old one (``spec-mips`` answered 0).
COMPLEX_STORE = (
    "function r = cz(n)\nA = zeros(1, 4);\nr = 0;\n"
    "for k = 1:4, A(k) = k + sqrt(-n); r = r + A(k); end\n"
)
#: ``asin`` / ``acos`` of a real operand outside [-1, 1] are a real NaN
#: (``Builtin.domain`` is ``None``), so no compiled row may type them
#: complex: scalar and vector operands, literal and formal.
ASIN_ACOS = (
    "function [a, b, c, d] = ad(x)\na = asin(x) + acos(-x);\n"
    "b = [asin(2), acos(-2)];\nc = asin([x, 0.5, -x]) + acos([-x, 1, x]);\n"
    "v = zeros(1, 20) - x;\nd = acos(v) .* 2 + asin(-v) ./ 2;\n"
    "disp(asin(-x)); disp(acos(x));\n"
    "for k = 1:3, d(k) = acos(-x * k); end\n"
)
#: Scalar math through the builtins' typed entries (NumPy's functions, as
#: the interpreter computes them), at the edges where the hand-written
#: host helpers they replaced answered other bits or raised.  Each
#: ``(source, entry, arguments, nargout)``.
SCALAR_MATH_EDGES = {
    # ``sign`` of a NaN is NaN (the helper answered ±1).
    "sign-nan": (
        "function [a, b] = sgn(x)\na = sign(x);\nb = sign(-x);\n",
        "sgn", (float("nan"),), 2,
    ),
    # ``mod`` rounds a tiny negative dividend up to the divisor.
    "mod-tiny": ("function r = mt(x)\nr = mod(x, 3);\n", "mt", (-1e-20,), 1),
    # ``rem(a, 0)`` is NaN, with NumPy's sign bit.
    "rem-zero": (
        "function r = rz(x, y)\nr = rem(x, y);\n", "rz", (5.0, 0.0), 1,
    ),
    # ``mod(a, 0)`` is ``a`` (the interpreter answered NaN).
    "mod-zero": (
        "function r = mz(x, y)\nr = mod(x, y);\n", "mz", (5.0, 0.0), 1,
    ),
    # ``sqrt(-0)`` is −0 (the complex helper answered +0).
    "sqrt-negative-zero": ("function r = sz(x)\nr = sqrt(x);\n", "sz", (-0.0,), 1),
    # Arguments on which Python's ``math`` / ``cmath`` round otherwise.
    "last-bit": (
        "function r = lb(a, b, c, d, e, z)\n"
        "r = [exp(a), log(b), log(c), tan(d), atan(e), real(log(z)), "
        "imag(log(z))];\n",
        "lb", (-0.13953962536514908, 0.7855794916373942, 1.2666589564869462,
               -6.726116787994954, -0.6168868858561858,
               complex(-1.060846195795964, -1.1222327233199518)), 1,
    ),
    # Inf / −Inf where ``math`` raised (deopts and rescues).
    "overflow-pole": (
        "function r = op(x, y)\nr = [exp(x), log(y), log(-y)];\n",
        "op", (1000.0, 0.0), 1,
    ),
    "trig-inf": (
        "function r = ti(x)\n"
        "r = [sin(x), cos(x), tan(x), sin(-x), cos(-x), tan(-x)];\n",
        "ti", (float("inf"),), 1,
    ),
    "inf-divisor": (
        "function r = id(x, y)\n"
        "r = [mod(x, y), mod(x, -y), rem(y, 3), rem(-y, 3)];\n",
        "id", (5.0, float("inf")), 1,
    ),
}
#: ``rem`` has its dividend's sign, so ``sqrt(rem(x, 3))`` of a negative
#: ``x`` is imaginary (inference typed ``rem`` like ``mod``, [0, 3]).
REM_NEGATIVE = "function r = rn(x)\nr = sqrt(rem(x, 3));\n"
#: Size arguments of the other size-taking builtins: what each reference
#: page says (cited in ``runtime/builtins.py``), then a NaN, which raises.
SIZE_ARGS = {
    "reshape": ("rs", (
        "function r = rs(n)\ndisp(size(reshape([], n, 0)));\n"
        "r = reshape([1 2 3 4], n, n);\n"
    )),
    "repmat": ("rp", (
        "function r = rp(n)\ndisp(size(repmat([1 2], n, 1)));\n"
        "disp(repmat([1 2], 1, -n));\nr = repmat([1 2], n * NaN, 1);\n"
    )),
    "linspace": ("ls", (
        "function r = ls(n)\ndisp(size(linspace(0, 1, n)));\n"
        "disp(linspace(0, 1, n + 3));\ndisp(linspace(0, 1, n + 5.5));\n"
        "r = linspace(0, 1, n * NaN);\n"
    )),
    "size": ("sz", (
        "function r = sz(n)\ndisp(size([1 2], -n));\n"
        "disp(size([1 2], -n + 1));\nr = size([1 2], n * NaN);\n"
    )),
    "rand-seed": ("sd", (
        "function r = sd(n)\nrand('seed', -n);\nr = rand;\ndisp(r);\n"
        "rand('seed', n * NaN);\n"
    )),
}


def _scalar(value):
    return lambda: [from_python(value)]


def _fortran_3x3():
    """A caller's column-major 3x3 array, boxed."""
    data = np.random.default_rng(1).standard_normal((3, 3))
    return from_ndarray(np.asfortranarray(data))


def _dgemv_zero_beta():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((12, 1))
    y[3], y[7] = np.inf, np.nan
    return [from_ndarray(rng.standard_normal((12, 12))),
            from_ndarray(rng.standard_normal((12, 1))), from_ndarray(y)]


#: name -> program.  What each must do is whatever the interpreter does:
#: ``pi`` is the builtin when the branch did not run (JIT code answered
#: 1.0, spec code deoptimized); a ``continue`` in a real-stepped ``for``
#: still advances it (compiled code hung), through the interpreter's
#: values ``lo + st * i`` (compiled code added ``st`` repeatedly: other
#: bits, and a different count at some bounds); too many actuals raise ``inner: too many input arguments``
#: after the caller's display (compiled code answered 3); a raw complex
#: ``.^`` is NumPy's power, not the host's (1 ulp apart in both parts); a
#: statement call with no output echoes ``ans = []`` (compiled code
#: echoed 0); a ``:`` operand contributes the real part of its first
#: element, in a ``for`` header as elsewhere (compiled code raised
#: "expected a real value").  ``result-class`` is the net under the lazily
#: answered INT-vs-REAL class, which an observation does not show: ``w``
#: (ten elements: past the unroller, so a boxed result) is an all-integer
#: product of non-integer factors and ``u`` = ``w / 2`` is not, so the two
#: calls of ``inner`` need two signatures.  A ``u`` wrongly answered INT
#: gets ``range(0, 2)`` and sums 0 + 1 where the answer is 0.5 + 1.5 (the
#: ``return`` in the loop blocks inlining, keeping ``inner`` a call).
#: ``result-class-int-first`` calls ``inner`` with the INT vector first: a
#: one-version batch compiler must not serve the REAL call from the object
#: it compiled for INT (FALCON did, and summed ``range(0, 2)``).
#: ``a:s:b`` evaluates its operands in source order, as an expression and
#: as a ``for`` header; the three operands ``disp`` so the transcript
#: shows it (the interpreter and the inliner went start, stop, step, and
#: so did a compiled ``for`` header — while a compiled expression and mcc
#: went start, step, stop).  ``-called`` gives each callee a mid-body
#: ``return``, which blocks inlining and keeps the operands real calls.
#: ``hot-call-ranges``: since PR 24 the hot-call cache holds versions
#: compiled for the observed value *ranges* (``spec(5)`` loads ``t(5)``
#: unchecked), so a version kept for a value outside them answers wrong —
#: ``spec(0)`` would read ``t(end)`` where the interpreter raises: the
#: constant, the widened, the array whose maximum leaves the compiled
#: range and the BOOL / INT pair each have to come back to their own
#: version.
#: ``hit-then-too-many``: the arity error must be the interpreter's even
#: when the callee's version sits in the hot-call cache.
#: ``complex-order``: ``<`` ``<=`` ``>`` ``>=`` order raw complex scalars by
#: their real parts, ``==`` / ``~=`` compare them whole (compiled code
#: used the host's operator, which refuses to order complex numbers).
#: ``fewer-actuals``: a call that leaves formals unset is the
#: interpreter's, value and error text (compiled code was built for the
#: short signature and then missed a positional).
#: ``short-call-promotes``: the first call of ``short`` is a short one and
#: reaches the adaptive row's JIT threshold; the full calls after it must
#: still be promoted (the controller asked once from the short call, got
#: "not now" and never asked again), with every value the interpreter's.
#: The last three reach emission paths no Table-1 program does:
#: ``short-circuit-operands`` — ``&&`` must not read ``v(4)`` past the end
#: and ``||`` must not call (and display from) ``g`` once ``k > 3``;
#: ``for-over-columns`` — a ``for`` over a matrix takes its columns, over
#: a row its elements; ``linear-store-shapes`` — safe linear stores into
#: a column, a row and a matrix (the matrix's needs the column-major
#: divide).
#: The next three guard emission as expression trees (a single-use
#: temporary folded into its one use): ``eager-and-or`` — ``&`` / ``|``
#: evaluate their right operand (a ``rand`` draw, a displaying call)
#: whatever the left one is, in ``if`` and ``while`` conditions (a fold
#: into the host's lazy ``and`` / ``or`` skips the draw, and optimized
#: code did skip it); ``deep-expression`` — a 300-term sum is served
#: compiled, with no fallback (a tree deeper than the host tokenizer's
#: 200 nested parentheses is a ``SyntaxError``, which the interpreter
#: quietly rescues: optimized code raised it); ``store-operand-order`` —
#: a store's value is drawn before its subscript, as the interpreter
#: does (optimized code passed both to its store helper and drew the
#: subscript first).
#: ``colon-all-column``: ``A(:)`` with one subscript is a column, of a
#: matrix and of a row vector alike (the interpreter gave a row).
#: Scalar replacement (small vectors held as one raw real per element):
#: ``unrolled-alias-literal`` / ``unrolled-alias-op`` — a small vector
#: copied out of a loop keeps the value it had (unrolled results went
#: into one buffer per site, so ``B`` read ``[3 4]`` where the
#: interpreter gives ``[1 2]``); ``unrolled-swap`` — ``v = [v(2), v(1)]``
#: reads both elements before writing either; ``unrolled-escapes`` — a
#: replaced vector passed to a function, displayed (after an assignment
#: and after an element store: compiled code echoed no indexed store),
#: read as ``v(:)`` and at a non-constant subscript, returned, and one
#: grown by an out-of-range store; ``unrolled-matrix`` — 3x3 and 2x2
#: values (column-major elements, row-major boxes), a 2-D element store,
#: a rotation of all four elements of a matrix in a loop, and an
#: elementwise op with a boxed formal of the same shape; ``unrolled-maybe-undefined`` — a vector assigned on
#: one path only stays a variable that may be unset, and reading it
#: unset raises the interpreter's error, location and all (compiled code
#: said ``unknown function 'v'``); ``maybe-undefined-call`` /
#: ``maybe-undefined-call-unset`` — the same vector read in call form,
#: ``v(1)``, is indexed when set and raises that error when unset
#: (compiled code called a user function ``v``: ``unknown function 'v'``,
#: or ``KeyError`` on ``falcon`` / ``mcc``), and in multi-assignment form,
#: ``[r] = v(1)``, likewise (``maybe-undefined-multi``);
#: ``maybe-unset-store`` — an element store into that vector, unset,
#: grows it from empty as the interpreter does (compiled code stored into
#: the unset variable and deopted, and its type kept the assigned path's
#: three elements); ``unrolled-zero-nan`` — −0.0 and NaN
#: elements keep their bits; ``unrolled-logical-def`` — a variable with a
#: logical and a numeric definition of one shape stays boxed, so ``v(m)``
#: is a logical subscript (the joined type said INT, and the replaced
#: ``m`` indexed with doubles: ``[10 10]`` for ``[10 20]``);
#: ``unrolled-int-elements`` — elements from integral literals and a
#: host-int counter are host floats, so ``-[0 1]`` gives −0.0 and a
#: squared ``[2 3]`` overflows to Inf (and Inf − Inf to NaN) as the
#: interpreter's doubles do (host ints gave 0.0 and exact big ints).
#: Sign facts (a real value times itself is
#: ≥ 0): ``sign-complex`` — ``z*z`` of a complex ``z`` may be negative;
#: ``sign-nan`` — a NaN square stays NaN; ``sign-store`` — ``t * r(1)``
#: after a store to ``r(1)`` is not a square; ``sign-subscript`` — a NaN
#: square as a subscript raises the interpreter's error (compiled code
#: failed converting NaN to an integer).  ``rand-draws``: ``rand``,
#: ``rand(1)`` and ``rand(1, 1)`` drawn as host floats, in order, none
#: skipped (``&`` draws its right operand whatever the left one is).
#: ``small-product``: a matrix product of exact small real shapes is one
#: helper call returning host floats (``v = A * v + t`` over replaced
#: operands, a 1x3 · 3x2 product displayed, a boxed formal times a
#: replaced vector, a product returned from a callee; a row · column
#: product, a scalar, stays out), bit for bit the interpreter's ``@``.
#: BLAS sums depend on the operands' layout, and the interpreter copies
#: every value it binds in C order: a formal the caller passed
#: column-major and ``reshape``'s column-major result gave other last
#: bits on every compiled row, which elide those copies, until
#: ``from_ndarray`` boxed in C order.
#: ``dgemv-zero-beta``: ``A*x + 0*y`` with an Inf and a NaN in ``y`` is
#: NaN where they are (dgemv dropped a zero-scaled addend, and answered
#: finite values).
#: ``nested-end``: ``end`` is the extent of the innermost array being
#: indexed, so ``x(y(end))`` reads ``x(2)`` (the interpreter gave every
#: ``end`` in a subscript the outer array's extent and raised).
#: ``end-outside-subscript``: an ``end`` no subscript encloses raises the
#: interpreter's error where the interpreter does (compiled code called
#: ``end_dim(None, …)``: a host ``TypeError``, a deopt on jit and spec,
#: a crash on falcon and mcc).
#: ``direct-call-effects``: a recursion that prints and draws at every
#: level, through host calls of itself.  ``direct-call-site-effects``: a
#: callee that prints and draws, called by compiled code through the
#: repository.
#: ``direct-call-outside-signature``: an actual a maybe-path makes a
#: matrix or a complex leaves its call site unbound.  ``recursion-past-limit``: past the host's recursion limit
#: every tier raises the interpreter's error (every tier raised a host
#: ``RecursionError``, and compiled code deoptimized at every level on
#: the way out).  ``output-unassigned``: an output a path leaves unset
#: is the interpreter's error, text included.
#: ``own-call-fault-at-depth``: compiled code calls itself as a plain host
#: call, so a host fault at the deepest level (an integer division by
#: zero) unwinds to the outermost compiled call, which deopts once; the
#: interpreter re-runs all of it, draws and transcript included.
#: ``mutual-recursion``: ``iseven`` embeds ``isodd`` once, whose call of
#: ``iseven`` is then a call of itself.  ``mutual-recursion-through-calls``:
#: ``pa`` and ``pb`` call each other through the repository at every
#: level, whichever compiled first, and ``-past-limit`` recurses past the
#: host's limit that way (positional calls: no C stack overflow).  ``own-call-eager-and``: ``&``
#: evaluates a right operand that is a call of the function itself (and
#: displays) whatever the left one is; optimized code must not take the
#: call for a plain value and fold it into the host's lazy ``and``.
#: ``undefined-function``: a call of a name no function has raises the
#: interpreter's error at its location (``jit`` / ``spec`` said
#: ``unknown function``, ``falcon`` / ``mcc`` raised a host ``KeyError``).
#: ``diag-zeros``: ``diag`` of a vector is zero off its diagonal, so a
#: ``sqrt`` of an off-diagonal element less one is imaginary (inference
#: gave ``diag([a 3])`` the range of ``[a 3]``: the real ``sqrt`` raised
#: a domain error, a deopt on ``jit`` / ``fused``, a rescue on ``falcon``).
#: ``fewer-outputs``: ``[p, q] = one(a)`` where ``one`` has one output
#: raises the interpreter's "one: not enough output arguments" after the
#: callee ran, whether ``one`` would be inlined or, with an early return,
#: stays a call (``jit`` / ``spec`` deopted on a host ``IndexError``,
#: ``falcon`` / ``mcc`` rescued one).
#: ``typed-constructors-*``: ``zeros`` / ``ones`` / ``eye`` of sizes typed
#: exact real scalars call the builtins' typed entries on host numbers;
#: each run must be the boxed builtins' (the interpreter raised a host
#: ``ValueError`` / ``OverflowError`` on a NaN / Inf size, and inference
#: raised on an Inf one).
#: ``zero-output-*``: a function with no outputs, called in an expression,
#: answers ``[]`` (and echoes ``ans = []`` as a statement), called for one
#: output by ``[r] = g(a)`` raises "g: not enough output arguments", and
#: called by itself in an expression answers ``[]`` too (``jit`` /
#: ``spec`` deopted on a host ``IndexError``, ``falcon`` / ``mcc``
#: rescued one).
PROBES = {
    "ambiguous-builtin": Program((AMBIGUOUS,), "amb", _scalar(0.0)),
    "ambiguous-variable": Program((AMBIGUOUS,), "amb", _scalar(1.0)),
    "continue-real-step": Program((CONTINUE,), "cont", _scalar(3.0)),
    "real-step-values": Program((STEPPED,), "stepped", _scalar(1.0)),
    "too-many-actuals": Program((TOO_MANY,), "outer", _scalar(1.0)),
    "complex-scalar-power": Program(
        (COMPLEX_POWER,), "cpw",
        lambda: [from_python(1j), from_python(1.0), from_python(2.5)],
    ),
    "bare-disp-echo": Program((BARE_DISP,), "shown", _scalar(3.0)),
    "complex-colon-bound": Program((COMPLEX_BOUND,), "cfor", _scalar(3.0)),
    "result-class": Program(
        (RESULT_CLASS,), "classy",
        lambda: [from_python(np.arange(0.5, 10.0))],
    ),
    "result-class-int-first": Program(
        (RESULT_CLASS.replace(
            "inner(u) + 10 * inner(w)", "10 * inner(w) + inner(u)"),),
        "classy",
        lambda: [from_python(np.arange(0.5, 10.0))],
    ),
    "colon-operand-order": Program((COLON_ORDER,), "colord", _scalar(1.0)),
    "colon-operand-order-called": Program(
        (COLON_ORDER.replace(");\n", ");\nif n < 0, return; end\n"),),
        "colord", _scalar(1.0),
    ),
    "hot-call-ranges": Program((HOT_RANGES,), "hot", _scalar(2.0)),
    "hit-then-too-many": Program((HIT_THEN_TOO_MANY,), "hits", _scalar(1.0)),
    "complex-order": Program((COMPLEX_ORDER,), "ccmp", _scalar(-1.0)),
    "fewer-actuals": Program((FEWER,), "short", _scalar(2.0)),
    "fewer-actuals-error": Program((FEWER,), "short", _scalar(7.0)),
    "short-call-promotes": Program((SHORT_FIRST,), "promo", _scalar(2.0)),
    "short-circuit-operands": Program(
        (SHORT_CIRCUIT,), "sc",
        lambda: [from_ndarray(np.array([[1.0, 2.0, 3.0]]))],
    ),
    "for-over-columns": Program(
        (FOR_COLUMNS,), "cols",
        lambda: [from_ndarray(np.array([[1.0, 2.0], [3.0, 4.0]])),
                 from_ndarray(np.array([[5.0, 6.0, 7.0]]))],
    ),
    "linear-store-shapes": Program((LINEAR_STORES,), "lin", _scalar(3.0)),
    "eager-and-or": Program((EAGER_AND_OR,), "eo", _scalar(1.0)),
    "deep-expression": Program((DEEP_SUM,), "deep", _scalar(2.0)),
    "store-operand-order": Program((STORE_ORDER,), "so", _scalar(3.0)),
    "colon-all-column": Program((COLON_ALL,), "ca", _scalar(3.0)),
    "unrolled-alias-literal": Program((ALIAS_LITERAL,), "al", _scalar(3.0)),
    "unrolled-alias-op": Program((ALIAS_OP,), "ao", _scalar(3.0)),
    "unrolled-swap": Program((SWAP,), "sw", _scalar(1.5)),
    "unrolled-escapes": Program((ESCAPES,), "esc", _scalar(2.0)),
    "unrolled-matrix": Program(
        (UNROLLED_MATRIX,), "mx",
        lambda: [from_python(1.5),
                 from_ndarray(np.array([[1.0, -2.0], [0.5, 4.0]]))],
    ),
    "unrolled-maybe-undefined": Program(
        (MAYBE_UNDEFINED,), "mu", _scalar(-1.0)
    ),
    "maybe-undefined-call": Program((MAYBE_UNDEFINED_CALL,), "mc", _scalar(1.0)),
    "maybe-undefined-call-unset": Program(
        (MAYBE_UNDEFINED_CALL,), "mc", _scalar(-1.0)
    ),
    "maybe-undefined-multi": Program(
        (MAYBE_UNDEFINED_MULTI,), "mm", _scalar(1.0)
    ),
    "maybe-unset-store": Program((MAYBE_UNSET_STORE,), "ms", _scalar(-1.0)),
    "unrolled-zero-nan": Program(
        (ZERO_NAN,), "zn",
        lambda: [from_python(-0.0), from_python(float("nan"))],
    ),
    "unrolled-logical-def": Program((LOGICAL_DEF,), "ld", _scalar(1.0)),
    "unrolled-int-elements": Program((INT_ELEMENTS,), "ie", _scalar(0.0)),
    "sign-complex": Program((SIGN_COMPLEX,), "sc", _scalar(2.0)),
    "sign-nan": Program((SIGN_NAN,), "sn", _scalar(float("nan"))),
    "sign-store": Program((SIGN_STORE,), "ss", _scalar(5.0)),
    "sign-subscript": Program(
        (SIGN_SUBSCRIPT,), "sx", _scalar(float("nan"))
    ),
    "rand-draws": Program((RAND_DRAWS,), "rd", _scalar(3.0)),
    "small-product": Program(
        (SMALL_PRODUCT,), "sp",
        lambda: [_fortran_3x3(), from_python(0.7)], nargout=2,
    ),
    "dgemv-zero-beta": Program((DGEMV_ZERO_BETA,), "zb", _dgemv_zero_beta),
    "nested-end": Program((NESTED_END,), "nend", _scalar(1.0), nargout=3),
    "end-outside-subscript": Program((END_OUTSIDE,), "eo", _scalar(2.0)),
    "direct-call-effects": Program((DIRECT_EFFECTS,), "drw", _scalar(12.0)),
    "direct-call-site-effects": Program(
        (SITE_EFFECTS,), "relay", _scalar(2.0)
    ),
    "direct-call-outside-signature": Program(
        (OUTSIDE_SIGNATURE,), "mp",
        lambda: [from_python(1.5), from_python(5.0)],
    ),
    "recursion-past-limit": Program((DEEP,), "deep", _scalar(1e6)),
    "output-unassigned": Program((UNASSIGNED,), "un", _scalar(-1.0)),
    "own-call-fault-at-depth": Program((OWN_FAULT,), "fz", _scalar(6.0)),
    "mutual-recursion": Program((MUTUAL,), "iseven", _scalar(7.0)),
    "mutual-recursion-through-calls": Program(
        (MUTUAL_CALLS,), "pa", _scalar(50.0)
    ),
    "mutual-recursion-through-calls-past-limit": Program(
        (MUTUAL_CALLS,), "pa", _scalar(1e6)
    ),
    "own-call-eager-and": Program((EAGER_OWN,), "chain", _scalar(4.0)),
    "undefined-function": Program((UNDEFINED,), "ud", _scalar(2.0)),
    "diag-zeros": Program((DIAG_ZEROS,), "dg", _scalar(2.0)),
    "fewer-outputs": Program((FEWER_OUTPUTS,), "mo", _scalar(2.0)),
    "fewer-outputs-called": Program(
        (FEWER_OUTPUTS.replace(
            "disp(x + 1);", "if x < -1e9, y = 0; return; end\ndisp(x + 1);"),),
        "mo", _scalar(2.0),
    ),
    **{
        f"typed-constructors-{label}": Program(
            (TYPED_CONSTRUCTORS,), "tc", _scalar(n), nargout=4
        )
        for label, n in (
            ("3", 3.0), ("0", 0.0), ("negative", -2.0), ("fraction", 2.5),
            ("nan", float("nan")), ("inf", float("inf")),
        )
    },
    "zero-output-call": Program((ZERO_OUTPUT,), "zo", _scalar(2.0)),
    "zero-output-multi": Program((ZERO_OUTPUT_MULTI,), "zm", _scalar(2.0)),
    "zero-output-own-call": Program(
        (ZERO_OUTPUT_OWN,), "zw", _scalar(2.0), nargout=0
    ),
    "rounding-zero-inf-nan": Program(
        (ROUNDINGS,), "fc",
        lambda: [from_python(-0.0), from_python(float("inf")),
                 from_python(float("nan"))],
    ),
    "linear-load-matrix": Program(
        (LINEAR_LOAD,), "llm",
        lambda: [from_ndarray(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))],
    ),
    "linear-load-matrix-local": Program(
        (LINEAR_LOAD_LOCAL,), "lll", _scalar(1.0)
    ),
    "linear-grow-matrix": Program((LINEAR_GROW,), "lgm", _scalar(7.0)),
    "char-store": Program((CHAR_STORE,), "st", _scalar(1.0)),
    "complex-store-widens": Program((COMPLEX_STORE,), "cz", _scalar(4.0)),
    "asin-acos-outside-domain": Program(
        (ASIN_ACOS,), "ad", _scalar(2.0), nargout=4
    ),
    **{
        f"size-args-{label}": Program((source,), entry, _scalar(-2.0))
        for label, (entry, source) in SIZE_ARGS.items()
    },
    **{
        f"scalar-math-edges-{label}": Program(
            (source,), entry,
            lambda values=values: [from_python(v) for v in values],
            nargout=nargout,
        )
        for label, (source, entry, values, nargout)
        in SCALAR_MATH_EDGES.items()
    },
    "rem-negative-range": Program((REM_NEGATIVE,), "rn", _scalar(-1.0)),
}

#: Probes that fault in compiled code by design, with the one cause each
#: run may fall back on: the run deopts (a batch compiler rescues) once,
#: at the outermost compiled call, and the interpreter re-runs all of it.
FAULTING_PROBES = {"own-call-fault-at-depth": "ZeroDivisionError"}

#: The probes whose compiled code calls itself as a plain host call, and
#: the probes whose compiled calls of other functions go through the
#: repository at every level.
OWN_CALL_PROBES = (
    "direct-call-effects", "direct-call-site-effects",
    "direct-call-outside-signature", "recursion-past-limit",
    "own-call-fault-at-depth", "mutual-recursion-through-calls",
    "mutual-recursion-through-calls-past-limit",
)


def _unexpected(probe: str, problems: list) -> list:
    """``problems`` less the one fallback a faulting probe may leave."""
    cause = FAULTING_PROBES.get(probe)
    return [
        (field, want, got) for field, want, got in problems
        if not (field == "fallbacks" and cause is not None
                and len(got) == 1 and cause in got[0])
    ]


def _relapse(signum, frame):
    raise TimeoutError("probe still running after 60 s (a hang relapsed)")


@pytest.mark.parametrize(
    ("backend", "overrides"),
    [pytest.param(label, kw, id=f"{label}{suffix}") for label, kw, suffix in ROWS],
)
@pytest.mark.parametrize("probe", PROBES)
def test_probe_bit_identical_to_interpreter(probe, backend, overrides):
    # A hang must fail in seconds: sessions get the run watchdog (the
    # deopt it forces fails the cell as a fallback); the batch compilers
    # have none, so an alarm bounds them.
    if BACKENDS[backend].session is not None:
        overrides = {**overrides, "run_deadline": 5.0}
    previous = signal.signal(signal.SIGALRM, _relapse)
    signal.alarm(60)
    try:
        problems = _unexpected(probe, check(PROBES[probe], backend, **overrides))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not problems, f"{backend} run of {probe}: {problems}"


# ----------------------------------------------------------------------
# Compiled code calling compiled code: itself directly, others through
# the repository
# ----------------------------------------------------------------------
SESSION_ROWS = [
    pytest.param(label, kw, id=f"{label}{suffix}")
    for label, kw, suffix in ROWS if BACKENDS[label].session is not None
]


@pytest.mark.parametrize(("backend", "overrides"), SESSION_ROWS)
@pytest.mark.parametrize("probe", OWN_CALL_PROBES)
def test_own_call_probe_unsupervised(probe, backend, overrides):
    """The own-call probes through the unsupervised serve path, with no
    run watchdog (an alarm bounds a hang): the probe matrix runs every
    session row under one, so only this test serves them unwatched."""
    previous = signal.signal(signal.SIGALRM, _relapse)
    signal.alarm(60)
    try:
        problems = _unexpected(probe, check(PROBES[probe], backend, **overrides))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not problems, f"{backend} run of {probe}: {problems}"


def _diff(program: Program, handle) -> tuple[str, ...]:
    """The fields on which one call on ``handle`` is not the interpreter's."""
    return reference(program).diff(handle.call())


@pytest.mark.parametrize("backend", ["jit", "spec"])
@pytest.mark.parametrize("name", ["fibonacci", "ackermann"])
def test_own_calls_are_plain_host_calls(name, backend):
    """The compiled recursive benchmarks call themselves by their own
    emitted function's name, once per call the source makes: no
    ``rt.call_user``, and no copy of the function inlined into itself."""
    program = Program.benchmark(name)
    calls = sum(text.count(f"{name}(") - 1 for text in program.sources)
    with open_backend(program, backend) as handle:
        assert not _diff(program, handle)
        versions = handle.session.repository.versions_of(name)
    assert {v.mode for v in versions} == {backend}
    for version in versions:
        source = version.source
        assert "call_user" not in source and "__il" not in source
        assert source.count(f"{version.emitted.name}(") == 1 + calls


@pytest.mark.parametrize(("backend", "overrides", "warmup"), [
    pytest.param("jit", {}, 0, id="jit"),
    pytest.param("fused", {}, 0, id="fused"),
    pytest.param("spec", {}, 0, id="spec"),
    pytest.param("jit", {"run_deadline": 5.0}, 0, id="jit-run_deadline"),
    # The controller interprets the first call and promotes from it.
    pytest.param("adaptive", {}, 1, id="adaptive"),
])
def test_a_fault_at_depth_deopts_the_outermost_call_once(
    backend, overrides, warmup
):
    """Every level of ``fz`` is a host call of one version, supervised or
    not: the fault at the deepest level deopts the outermost call, once,
    and the interpreter re-runs every level; a second call compiles again
    and deopts again, with the same observation."""
    program = PROBES["own-call-fault-at-depth"]
    with open_backend(program, backend, **overrides) as handle:
        for _ in range(warmup):
            assert not _diff(program, handle)
        assert not handle.session.diagnostics.events(DEOPT)
        for rounds in (1, 2):
            assert not _diff(program, handle)
            deopts = handle.session.diagnostics.events(DEOPT)
            assert [event.function for event in deopts] == ["fz"] * rounds


#: ``rc`` calls itself and ``leaf``; ``leaf``'s early return keeps it a
#: call (the inliner embeds no function that returns early).
REDEFINED = (
    "function r = rc(n)\nif n <= 0, r = leaf(n); return; end\n"
    "r = rc(n - 1) + leaf(n);\n",
    "function y = leaf(x)\nif x < 0, y = -x; return; end\ny = 2 * x;\n",
)
LEAF_V2 = "function y = leaf(x)\nif x < 0, y = x; return; end\ny = x * x + 1;\n"
RC_V2 = "function r = rc(n)\nif n <= 0, r = 7; return; end\nr = 3 * rc(n - 1);\n"


@pytest.mark.parametrize("backend", sorted(set(BACKENDS) - {"interpreter"}))
def test_redefinition_between_calls_of_a_compiled_caller(backend):
    """Call, redefine the callee, call, redefine the caller itself, call:
    every call sees the definitions of its moment."""
    program = Program(REDEFINED, "rc", _scalar(4.0))
    with open_backend(program, backend) as handle:
        target = handle.session or handle.engine
        sources = list(REDEFINED)
        for redefinition in (None, LEAF_V2, RC_V2, REDEFINED[1]):
            if redefinition is not None:
                target.add_source(redefinition)
                sources.append(redefinition)
            want = observe(Program(tuple(sources), "rc", _scalar(4.0)),
                           "interpreter")
            assert not want.diff(handle.call()), (backend, redefinition)
            assert not handle.fallbacks()


#: ``f`` calls ``g``, which the inliners embed (no early return): a
#: compiled ``f`` holds a copy of ``g``'s body.
INLINED = (
    "function y = f(x)\ny = g(x) + 1;\n",
    "function y = g(x)\ny = 2 * x;\n",
)
INLINED_G_V2 = "function y = g(x)\ny = 3 * x;\n"


@pytest.mark.parametrize("backend", ["falcon", "mcc", "fused"])
def test_redefinition_of_an_inlined_callee(backend):
    """Call, redefine the callee a compiled caller embedded, call: the
    caller answers with the new callee (FALCON kept serving ``f`` with the
    old ``g`` inlined, 5 where the interpreter answers 7)."""
    program = Program(INLINED, "f", _scalar(2.0))
    with open_backend(program, backend) as handle:
        target = handle.session or handle.engine
        sources = list(INLINED)
        for redefinition in (None, INLINED_G_V2, INLINED[1]):
            if redefinition is not None:
                target.add_source(redefinition)
                sources.append(redefinition)
            want = observe(Program(tuple(sources), "f", _scalar(2.0)),
                           "interpreter")
            assert not want.diff(handle.call()), (backend, redefinition)
            assert not handle.fallbacks()


#: ``direct-call-site-effects``'s compiled runs, in the order the
#: repository serves them: ``relay``, its two calls of ``step``, then
#: five times ``leg`` and the call of ``step`` it makes.  A function the
#: ``oom`` site is scoped to fires on the hits that are its own.
SERVED = ["relay", "step", "step"] + ["leg", "step"] * 5


@pytest.mark.parametrize("backend", ["jit", "fused", "spec", "background"])
def test_callee_fault_in_a_call_rolls_back_the_callee(backend):
    """A compiled callee of compiled code failing as it runs (an
    in-process ``oom`` scoped to ``leg`` or ``step``): the call re-entered
    the repository, so the callee is deoptimized and struck, its failed
    run rolled back and its prints and draws made once, by the
    interpreter, and its compiled caller goes on — the observation is the
    interpreter's.  Which run a hit is follows from the program alone."""
    program = PROBES["direct-call-site-effects"]
    want = observe(program, "interpreter")
    fired = 0
    for callee, hit in (("leg", 4), ("leg", 12), ("step", 3), ("step", 13),
                        ("leg", 5)):
        plan = FaultPlan([FaultSpec(SITE_OOM, hits=(hit,), function=callee)])
        with open_backend(program, backend, fault_plan=plan) as handle:
            assert not want.diff(handle.call()), (callee, hit)
            expected = [callee] if SERVED[hit - 1] == callee else []
            assert [f.function for f in plan.fired] == expected, (callee, hit)
            fired += len(plan.fired)
            repository = handle.session.repository
            deopts = handle.session.diagnostics.events(DEOPT)
            assert [event.function for event in deopts] == expected
            assert repository._strikes == dict.fromkeys(expected, 1)
            assert repository.versions_of("relay")
            assert not want.diff(handle.call()), (callee, hit)
    assert fired == 4


# ----------------------------------------------------------------------
# The oracle itself: one difference, one named field
# ----------------------------------------------------------------------
def _mat(data, dtype=np.float64):
    return from_ndarray(np.array(data, dtype=dtype))


def _seen(outputs=None, display="", error=None, draws=0):
    GLOBAL_RANDOM.seed(1)
    for _ in range(draws):
        GLOBAL_RANDOM.uniform(1, 1)
    return observation(outputs, display, error)


#: case -> (the one field that differs, kwargs of the two calls seen).
#: Every ``outputs`` pair is *equal* under the digest this oracle
#: replaced — a cosine-weighted (column-major) float sum of the first
#: output, non-finite entries zeroed — and the other three fields were
#: never looked at.
ONE_DIFFERENCE = {
    "signed zero": (
        "outputs", {"outputs": [_mat(0.0)]}, {"outputs": [_mat(-0.0)]}),
    "nan": (
        "outputs",
        {"outputs": [_mat([0.0, 1.0])]}, {"outputs": [_mat([np.nan, 1.0])]}),
    "inf": (
        "outputs",
        {"outputs": [_mat([0.0, 1.0])]}, {"outputs": [_mat([np.inf, 1.0])]}),
    "storage dtype": (
        "outputs",
        {"outputs": [_mat([1.5, 2.0])]},
        {"outputs": [_mat([1.5, 2.0], dtype=np.complex128)]},
    ),
    "shape": (
        "outputs",
        {"outputs": [_mat([1.0, 2.0, 3.0, 4.0])]},
        {"outputs": [_mat([[1.0, 3.0], [2.0, 4.0]])]},
    ),
    "second output": (
        "outputs",
        {"outputs": [_mat(1.0), _mat(2.0)]},
        {"outputs": [_mat(1.0), _mat(3.0)]},
    ),
    "trailing transcript character": (
        "display", {"display": "1\n"}, {"display": "1\n "}),
    "error text": (
        "error",
        {"error": "Index exceeds matrix dimensions."},
        {"error": "Index exceeds matrix dimensions"},
    ),
    "one extra rand draw": ("rng", {"draws": 1}, {"draws": 2}),
}


@pytest.mark.parametrize("case", ONE_DIFFERENCE)
def test_oracle_names_the_one_field_that_differs(case):
    field, left, right = ONE_DIFFERENCE[case]
    assert _seen(**left) == _seen(**left)
    assert _seen(**left) != _seen(**right)
    assert _seen(**left).diff(_seen(**right)) == (field,)
