"""Seeded random-program generation for the differential fuzzer.

The generator is a tiny attribute grammar driven by ``random.Random``:
the same seed always yields the same program text and argument list, so
every mismatch report is reproducible with ``python -m repro.fuzz --seed
N --count 1``.

The grammar deliberately stays inside the subset every backend supports
and keeps floating-point evaluation order deterministic — bit-identity
across backends is the *assertion*, so the generator must not introduce
legitimate divergence (e.g. reassociated reductions).  Within that
boundary it reaches for the constructs that historically break
compilers: matrices that change shape in loops, elementwise operator
chains (the fused-kernel path), slicing and linear stores (subscript
check elision), scalar/matrix overloads of the same variable, bool/char
values, guaranteed out-of-range reads (error-path identity), reads of the
shared random stream (scalar, matrix, inside an elementwise chain, inside
a callee), side effects *before* a failure — text already displayed, a
draw already taken — which a failing backend must neither lose nor repeat,
multi-value assignments into subscripted targets (``end`` included),
whose stores every compiler routes through its generic path, builtin
names assigned on one path only, read bare or in call form, which
compiled code must resolve at run time the way the interpreter does, and
linear subscripts of matrices in counted loops — reads over ``1:numel``
(column-major order) and stores running past ``numel`` (a matrix cannot
grow that way: the interpreter's resize error).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Scalar parameters every generated function receives.
SCALAR_PARAMS = ("x", "y")
#: The matrix parameter (shape randomized per program).
MATRIX_PARAM = "M"

#: Builtins applied to scalar expressions.
SCALAR_FUNCS = ("abs", "floor", "ceil", "round", "sign", "cos", "sin")
#: Builtins applied to matrix expressions (shape-preserving).
MATRIX_FUNCS = ("abs", "floor", "round", "cos", "sin", "sign")
#: Reductions folding a matrix into a scalar-ish value.
REDUCE_FUNCS = ("sum", "numel", "length", "min", "max")

#: Constructors of the row ``v`` (each has a typed entry).
CONSTRUCTORS = ("zeros", "ones", "eye")

#: Builtins reading the shared random stream.
RAND_FUNCS = ("rand", "randn")

SCALAR_VARS = ("s", "t", "u")
#: Zero-argument builtins a program may shadow on one path only.
SHADOWED_BUILTINS = ("pi", "eps")
#: One-argument builtins shadowed the same way and read in call form,
#: ``name(1)``: an index if the branch ran, a builtin call if not.
SHADOWED_UNARY = ("exp", "sqrt")
MATRIX_VARS = ("A", "B")

#: Callee bodies (``{name}`` is the program's): a draw inside a callee,
#: a subscript violation inside a callee, and a two-output callee.
HELPERS = {
    "draw": "function r = {name}_draw(k)\nr = rand * k + randn;\n",
    "fail": "function r = {name}_fail(M)\nr = M(numel(M) + 7);\n",
    "pair": "function [a, b] = {name}_pair(k)\na = k + 1;\nb = k * 2;\n",
}


@dataclass(frozen=True)
class GeneratedProgram:
    """One reproducible fuzz case: source text + concrete arguments."""

    seed: int
    name: str
    source: str
    args: tuple
    expects_error: bool = False
    features: tuple[str, ...] = field(default=())


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        #: The linear-subscript loops draw from a stream of their own, so
        #: the rest of every program is drawn as before they existed.
        self.linear_rng = random.Random(f"linear{seed}")
        self.seed = seed
        self.name = f"fuzz{seed}"
        self.features: list[str] = []
        #: :data:`HELPERS` the program calls, appended to its source.
        self.helpers: set[str] = set()
        #: ``"rows, cols"`` of the matrix parameter (set by ``program``).
        self.shape = ""

    def draw(self, shape: str = "") -> str:
        """A read of the random stream: a matrix of ``shape``, else a
        scalar drawn here or inside a callee."""
        self.features.append("rand")
        fn = self.rng.choice(RAND_FUNCS)
        if shape:
            return f"{fn}({shape})"
        if self.rng.random() < 0.3:
            self.helpers.add("draw")
            return f"{self.name}_draw({self.rng.randrange(1, 4)})"
        return fn

    # -- scalar expressions -------------------------------------------
    def scalar_atom(self) -> str:
        r = self.rng
        choice = r.randrange(7)
        if choice == 6:
            return self.draw()
        if choice == 0:
            return r.choice(SCALAR_PARAMS)
        if choice == 1:
            return r.choice(SCALAR_VARS)
        if choice == 2:
            return str(r.randrange(-9, 10))
        if choice == 3:
            return f"{r.randrange(1, 20) / 4}"
        if choice == 4:
            self.features.append("reduce")
            fn = r.choice(REDUCE_FUNCS)
            if fn in ("min", "max"):
                # min/max of a matrix returns a row vector; reduce twice.
                return f"{fn}({fn}({self.matrix_atom()}))"
            if fn == "sum":
                return f"sum(sum({self.matrix_atom()}))"
            return f"{fn}({self.matrix_atom()})"
        return f"{r.choice(SCALAR_VARS)}"

    def scalar_expr(self, depth: int = 2) -> str:
        r = self.rng
        if depth <= 0 or r.random() < 0.35:
            return self.scalar_atom()
        if r.random() < 0.2:
            fn = r.choice(SCALAR_FUNCS)
            return f"{fn}({self.scalar_expr(depth - 1)})"
        op = r.choice(("+", "-", "*", "/"))
        left = self.scalar_expr(depth - 1)
        right = self.scalar_expr(depth - 1)
        if op == "/":
            right = f"(abs({right}) + 3)"  # keep divisors away from zero
        return f"({left} {op} {right})"

    # -- matrix expressions -------------------------------------------
    def matrix_atom(self) -> str:
        r = self.rng
        choice = r.randrange(5)
        if choice == 4:
            return self.draw(self.shape)
        if choice == 0:
            return MATRIX_PARAM
        if choice in (1, 2):
            return r.choice(MATRIX_VARS)
        self.features.append("slice")
        return f"{MATRIX_PARAM}(1:2, :)" if r.random() < 0.5 else \
            f"{MATRIX_PARAM}(:, 1:2)"

    def matrix_expr(self, depth: int = 2) -> str:
        r = self.rng
        if depth <= 0 or r.random() < 0.3:
            return self.matrix_atom()
        roll = r.random()
        if roll < 0.2:
            fn = r.choice(MATRIX_FUNCS)
            return f"{fn}({self.matrix_expr(depth - 1)})"
        if roll < 0.45:
            self.features.append("elementwise")
            op = r.choice((".*", "+", "-"))
            return (
                f"({self.matrix_expr(depth - 1)} {op} "
                f"{self.matrix_expr(depth - 1)})"
            )
        self.features.append("broadcast")
        op = r.choice(("*", "+", "-", ".*"))
        return f"({self.matrix_expr(depth - 1)} {op} {self.scalar_expr(1)})"

    # -- statements ----------------------------------------------------
    def multi_assign(self) -> str:
        """``[t1, t2] = call(...)`` with a subscripted target (never ``w``,
        the ``while`` counter)."""
        r = self.rng
        self.features.append("multi-assign-indexed")
        matrix = r.choice(MATRIX_VARS)
        indexed = r.choice((
            "v(end)", "v(end - 1)", f"v({r.randrange(1, 6)})",
            f"{matrix}(end, 1)", f"{matrix}(1, end)", f"{matrix}(end)",
            f"{matrix}({r.randrange(1, 4)}, {r.randrange(1, 4)})",
        ))
        other = r.choice(SCALAR_VARS + (f"v({r.randrange(1, 6)})",))
        targets = [indexed, other] if r.random() < 0.7 else [other, indexed]
        call = r.randrange(3)
        if call == 0:
            source = f"size({r.choice(MATRIX_VARS + (MATRIX_PARAM,))})"
        elif call == 1:
            source = f"{r.choice(('max', 'min'))}(v)"
        else:
            self.helpers.add("pair")
            source = f"{self.name}_pair({self.scalar_expr(1)})"
        return f"[{', '.join(targets)}] = {source};"

    def statement(self, depth: int = 1) -> str:
        r = self.rng
        kinds = ["sassign", "sassign", "massign", "store", "slice_assign",
                 "multi"]
        if depth > 0:
            kinds += ["if", "for", "while", "disp", "ambiguous"]
        kind = r.choice(kinds)
        if kind == "ambiguous":
            # Variable if the branch ran, builtin if not: decided per run.
            self.features.append("ambiguous-builtin")
            name, var = r.choice(SHADOWED_BUILTINS), r.choice(SCALAR_VARS)
            cond = f"{self.scalar_expr(1)} > {self.scalar_expr(0)}"
            value, read = self.scalar_expr(0), name
            if r.random() < 0.5:
                self.features.append("ambiguous-call")
                name = r.choice(SHADOWED_UNARY)
                read = f"{name}(1)"
            return (
                f"if {cond},\n  {name} = {value};\nend\n"
                f"{var} = {var} + {read};"
            )
        if kind == "multi":
            return self.multi_assign()
        if kind == "sassign":
            return f"{r.choice(SCALAR_VARS)} = {self.scalar_expr()};"
        if kind == "massign":
            return f"{r.choice(MATRIX_VARS)} = {self.matrix_expr()};"
        if kind == "store":
            self.features.append("store")
            target = r.choice(MATRIX_VARS)
            i, j = r.randrange(1, 4), r.randrange(1, 4)
            if r.random() < 0.4:
                return f"v({r.randrange(1, 6)}) = {self.scalar_expr(1)};"
            return f"{target}({i}, {j}) = {self.scalar_expr(1)};"
        if kind == "slice_assign":
            self.features.append("slice")
            target = r.choice(MATRIX_VARS)
            row = r.randrange(1, 3)
            return f"{target}({row}, :) = {MATRIX_PARAM}({row}, :);"
        if kind == "if":
            cond = f"{self.scalar_expr(1)} > {self.scalar_expr(0)}"
            then = self.statement(0)
            orelse = self.statement(0)
            return f"if {cond},\n  {then}\nelse\n  {orelse}\nend"
        if kind == "while":
            self.features.append("while")
            var = r.choice(SCALAR_VARS)
            bound = r.randrange(2, 6)
            body = self.statement(0)
            return (
                f"w = 0;\nwhile w < {bound},\n  {body}\n"
                f"  w = w + 1;\n  {var} = {var} + w;\nend"
            )
        if kind == "disp":
            self.features.append("display")
            return f"disp({self.scalar_expr(1)});"
        stop = r.randrange(2, 6)
        body = self.statement(0)
        return f"for k = 1:{stop},\n  {body}\n  s = s + k;\nend"

    def linear_loop(self) -> str:
        """A loop over linear subscripts of a matrix, or nothing: reads
        for ``k = 1:numel(M)``, or stores running past ``numel(M)``."""
        r = self.linear_rng
        roll, matrix = r.random(), r.choice((MATRIX_PARAM,) + MATRIX_VARS)
        if roll < 0.12:
            self.features.append("linear-load")
            var = r.choice(SCALAR_VARS)
            body = f"{var} = {var} * 0.5 + {matrix}(k) * k;"
            return f"for k = 1:numel({matrix}),\n  {body}\nend"
        if roll < 0.2:
            self.features.append("linear-grow")
            stop = f"numel({matrix}) + {r.randrange(1, 3)}"
            return f"for k = 1:{stop},\n  {matrix}(k) = k / 4;\nend"
        return ""

    def failure(self, oob: str) -> str:
        """A guaranteed MATLAB error — the bare out-of-range read ``oob``,
        or one raised after a side effect."""
        kind = self.rng.randrange(4)
        if kind == 0:
            return oob
        self.features.append("effects-then-error")
        if kind == 1:
            return f"disp({self.scalar_expr(1)});\nerror('fuzz: gave up');"
        if kind == 2:
            self.features.append("rand")
            return f"t = rand;\n{oob}"
        self.helpers.add("fail")
        return f"disp(t);\ns = {self.name}_fail(M);"

    # ------------------------------------------------------------------
    def program(self) -> GeneratedProgram:
        r = self.rng
        name = self.name
        rows = r.randrange(2, 5)
        cols = r.randrange(2, 5)
        lines = [
            f"function [r1, r2] = {name}(x, y, M)",
            "s = x + 1; t = y - 1; u = x * y;",
            "A = M; B = M';" if r.random() < 0.3 else "A = M; B = M .* 2;",
            # A row of 5..10 elements (``v(1)`` .. ``v(5)`` stay in
            # range), its size computed from a scalar input: the
            # constructors' typed entries on host numbers.  The seed picks
            # the constructor, so the rest of the program is drawn as
            # before.
            f"v = {CONSTRUCTORS[self.seed % len(CONSTRUCTORS)]}"
            "(1, floor(abs(x)) + 5);",
        ]
        if "'" in lines[2]:
            self.features.append("transpose")
            # transpose only squares cleanly; force square matrices
            cols = rows
        self.shape = f"{rows}, {cols}"
        for _ in range(r.randrange(2, 7)):
            lines.append(self.statement())
        linear = self.linear_loop()
        if linear:
            lines.append(linear)
        expects_error = r.random() < 0.2 or "linear-grow" in self.features
        if expects_error:
            self.features.append("error")
            # Every backend must raise the same MATLAB error text, having
            # shown and drawn exactly what the interpreter did first.
            lines.append(self.failure(f"s = M({rows + 7}, {cols + 7});"))
        lines.append("r1 = s + t + u + sum(v);")
        lines.append("r2 = A + B .* 0 + sum(sum(A));")
        source = "\n".join(lines) + "\n" + "".join(
            HELPERS[h].format(name=name) for h in sorted(self.helpers)
        )
        # Concrete arguments: quarter-integer scalars and matrix entries
        # keep intermediate values exactly representable, so differences
        # can only come from diverging operation order — the thing the
        # fuzzer is hunting.
        x = r.randrange(-20, 21) / 4
        y = r.randrange(-20, 21) / 4
        matrix = [
            [r.randrange(-12, 13) / 4 for _ in range(cols)]
            for _ in range(rows)
        ]
        return GeneratedProgram(
            seed=self.seed,
            name=name,
            source=source,
            args=(x, y, matrix),
            expects_error=expects_error,
            features=tuple(sorted(set(self.features))),
        )


def generate_program(seed: int) -> GeneratedProgram:
    """The deterministic fuzz case for one seed."""
    return _Gen(seed).program()
