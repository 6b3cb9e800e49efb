"""The type-inference engine (Sections 2.3 and 2.4).

An iterative join-of-all-paths monotone dataflow analysis over the CFG.
States map variable names to :class:`~repro.typesys.mtype.MType`.  The
engine avoids symbolic computation and caps the number of iterations
(applying interval/shape widening once a block has been revisited a few
times), which is what keeps it fast enough for JIT use.

In JIT mode the entry state comes from the invocation's type signature —
exact intrinsic classes, exact shapes and tight ranges — which is why JIT
inference, although simple, is very precise (Section 2.4).  The same engine
run with a speculated signature implements the forward half of speculative
inference.

The solver sweeps the blocks round-robin in reverse postorder, but only
re-evaluates a block whose input state differs from the one it was last
evaluated with.  Every evaluation records per-expression types and
classifies every subscript as SAFE / GROW_ONLY / CHECKED (Section 2.4,
"Subscript check removal"); a block's last record was made on its final
input state, so the records of all blocks together are the annotations.
Within a re-evaluated block, an atom whose read names kept their types
is not transferred again: its last outputs are replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.cfg import Atom, BasicBlock, CondAtom, ForIterAtom, StmtAtom
from repro.analysis.disambiguate import DisambiguationResult, Disambiguator
from repro.analysis.symtab import SymbolKind
from repro.frontend import ast_nodes as ast
from repro.inference.annotations import Annotations, SubscriptSafety
from repro.inference.calculator import RuleContext, TypeCalculator, default_calculator
from repro.inference.rules_indexing import COLON_MARKER
from repro.typesys.intrinsic import Intrinsic
from repro.typesys.mtype import MType
from repro.typesys.ranges import Interval
from repro.typesys.shape import Shape
from repro.typesys.signature import Signature

Env = dict[str, MType]

_NONNEGATIVE = Interval.of(0.0, math.inf)


@dataclass
class InferenceOptions:
    """Engine switches; the Figure 7 ablations toggle the first two."""

    range_propagation: bool = True
    min_shape_propagation: bool = True
    max_iterations: int = 40
    widen_after: int = 3


class TypeInferenceEngine:
    """Runs forward type inference over one function body."""

    def __init__(
        self,
        calculator: TypeCalculator | None = None,
        options: InferenceOptions | None = None,
    ):
        self.calculator = calculator or default_calculator()
        self.options = options or InferenceOptions()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def infer(
        self,
        fn: ast.FunctionDef,
        signature: Signature,
        disambiguation: DisambiguationResult | None = None,
    ) -> Annotations:
        """Infer types for ``fn`` under the given parameter signature."""
        if disambiguation is None:
            disambiguation = Disambiguator(lambda name: False).run_function(fn)
        entry: Env = {}
        for name, mtype in zip(fn.params, signature):
            entry[name] = self._sanitize(mtype)
        annotations = self._solve(disambiguation, entry)
        for name, mtype in entry.items():
            annotations.note_var(name, mtype)
        exit_env = self._exit_env
        for output in fn.outputs:
            annotations.output_types[output] = exit_env.get(output, MType.top())
        return annotations

    def _sanitize(self, mtype: MType) -> MType:
        if not self.options.range_propagation:
            mtype = mtype.widen_range()
        # The min-shape ablation acts where minimum bounds are *derived*
        # (store-driven growth, elementwise combination — handled in the
        # transfer rules), not on shapes that arrive exactly determined.
        return mtype

    # ------------------------------------------------------------------
    # Fixpoint solver
    # ------------------------------------------------------------------
    def _solve(
        self, disambiguation: DisambiguationResult, entry: Env
    ) -> Annotations:
        cfg = disambiguation.cfg
        self._dis = disambiguation
        order = cfg.reverse_postorder()
        block_in: dict[int, Env] = {}
        block_out: dict[int, Env] = {}
        visits: dict[int, int] = {}
        # What each block's latest evaluation recorded.  A block is only
        # evaluated again when its input changed, so once the sweeps
        # stop this is what a walk over the final states would record.
        records: dict[int, Annotations] = {}
        # Per block that may be evaluated twice, per atom: what it reads
        # and writes, and what its last transfer read and wrote.
        revisitable = _revisitable(order)
        memos: dict[int, list] = {}
        converged = True
        iterations = 0

        changed = True
        while changed:
            iterations += 1
            if iterations > self.options.max_iterations:
                converged = False
                break
            changed = False
            for block in order:
                widen = visits.get(block.index, 0) >= self.options.widen_after
                # No state is changed once made: the input may be the
                # entry state or a predecessor's output itself.
                if block is cfg.entry:
                    incoming = entry
                else:
                    incoming = None
                    for pred in block.predecessors:
                        out = block_out.get(pred.index)
                        if out is None:
                            continue
                        incoming = (
                            out
                            if incoming is None
                            else self._join_env(incoming, out)
                        )
                    if incoming is None:
                        continue  # unreachable so far
                old_in = block_in.get(block.index)
                if old_in is not None:
                    if widen:
                        incoming = self._widen_env(old_in, incoming)
                    if incoming == old_in:
                        # A transfer is a pure function of the input
                        # state: the output it would compute is the one
                        # already in ``block_out``.
                        continue
                block_in[block.index] = incoming
                env = dict(incoming)
                if block.index not in revisitable:
                    record = records[block.index] = Annotations()
                    for atom in block.atoms:
                        self._transfer(atom, env, record)
                else:
                    memo = memos.get(block.index)
                    if memo is None:
                        memo = memos[block.index] = [
                            _memo_slot(atom) for atom in block.atoms
                        ]
                        record = records[block.index] = Annotations()
                    else:
                        record = records[block.index]
                        record.var_types = {}
                    self._evaluate(block, env, record, memo)
                if env != block_out.get(block.index):
                    block_out[block.index] = env
                    visits[block.index] = visits.get(block.index, 0) + 1
                    changed = True

        # ------------------------------------------------------------------
        # Merge the per-block records, in block order.
        # ------------------------------------------------------------------
        annotations = Annotations(converged=converged, iterations=iterations)
        if not converged:
            # Fall back to safe-but-useless: everything top.  The default
            # rule keeps generated code correct, just generic.
            top_env = self._top_env(block_in)
            block_in = {b.index: top_env for b in cfg.blocks}
            records.clear()
        for block in cfg.blocks:
            record = records.get(block.index)
            if record is None:
                # Never transferred (unreachable: empty state) or not to
                # be trusted (not converged: the ⊤ state): walk it now.
                record = Annotations()
                env = dict(block_in.get(block.index, {}))
                for atom in block.atoms:
                    self._transfer(atom, env, record)
            annotations.expr_types.update(record.expr_types)
            annotations.load_safety.update(record.load_safety)
            annotations.store_safety.update(record.store_safety)
            for name, mtype in record.var_types.items():
                annotations.note_var(name, mtype)
        self._exit_env = block_in.get(cfg.exit.index, {})
        return annotations

    def _evaluate(
        self, block: BasicBlock, env: Env, record: Annotations, memo: list
    ) -> None:
        """Evaluate a block that may be evaluated again, into the record
        of its previous evaluation (if any).

        An atom whose read names have the types its last transfer saw
        would compute what that transfer computed: its expression types
        and subscript safety are still in ``record`` (every transfer of
        an atom writes the same keys), and its writes are replayed from
        the memo.  Every other atom is transferred and memoised.
        """
        get = env.get
        for atom, slot in zip(block.atoms, memo):
            if slot is None:
                self._transfer(atom, env, record)
                continue
            reads, writes, seen, wrote = slot
            now = tuple([get(name) for name in reads])
            if now == seen:
                for name, mtype in zip(writes, wrote):
                    env[name] = mtype
                    record.note_var(name, mtype)
                continue
            self._transfer(atom, env, record)
            slot[2] = now
            slot[3] = [env[name] for name in writes]

    def _top_env(self, block_in: dict[int, Env]) -> Env:
        names: set[str] = set()
        for env in block_in.values():
            names.update(env)
        return {name: MType.top() for name in names}

    def _join_env(self, a: Env, b: Env) -> Env:
        """``a ⊔ b``; ``a`` itself when ``b`` adds nothing to it."""
        result = a
        for name, mtype in b.items():
            existing = a.get(name)
            if existing is None:
                joined = mtype
            elif existing is mtype or existing == mtype:
                continue
            else:
                joined = existing.join(mtype)
                if joined is existing:
                    continue
            if result is a:
                result = dict(a)
            result[name] = joined
        return result

    def _widen_env(self, old: Env, new: Env) -> Env:
        """``new`` widened against ``old``; ``new`` itself when widening
        changes none of its entries."""
        result = new
        for name, mtype in new.items():
            previous = old.get(name)
            if previous is None or (
                # Widening a type by itself only rewrites an unbounded
                # minimum extent (``shrink_dim`` maps ∞ to 0).
                (previous is mtype or previous == mtype)
                and mtype.minshape.is_finite
            ):
                continue
            widened = self._widen_type(previous, mtype)
            # Equal means bit for bit here: the widened bounds are
            # ``mtype``'s own floats or infinities.
            if widened != mtype:
                if result is new:
                    result = dict(new)
                result[name] = widened
        return result

    def _widen_type(self, old: MType, new: MType) -> MType:
        rng = new.range
        if not old.range.is_bottom and not new.range.is_bottom:
            lo = new.range.lo if new.range.lo >= old.range.lo else -math.inf
            hi = new.range.hi if new.range.hi <= old.range.hi else math.inf
            rng = Interval.of(lo, hi)

        def widen_dim(o, n):
            if o is None or n is None:
                return None
            return n if n <= o else None

        mx = Shape(
            widen_dim(old.maxshape.rows, new.maxshape.rows),
            widen_dim(old.maxshape.cols, new.maxshape.cols),
        )

        def shrink_dim(o, n):
            o = o if o is not None else 0
            n = n if n is not None else 0
            return n if n >= o else 0

        mn = Shape(
            shrink_dim(old.minshape.rows, new.minshape.rows),
            shrink_dim(old.minshape.cols, new.minshape.cols),
        )
        return MType(old.intrinsic.join(new.intrinsic), mn, mx, rng)

    # ------------------------------------------------------------------
    # Transfer functions
    # ------------------------------------------------------------------
    def _transfer(self, atom: Atom, env: Env, record: Annotations) -> None:
        if isinstance(atom, StmtAtom):
            stmt = atom.stmt
            if isinstance(stmt, ast.Assign):
                value = self._type_expr(stmt.value, env, record)
                self._assign(stmt.target, value, env, record)
            elif isinstance(stmt, ast.MultiAssign):
                results = self._type_call(
                    stmt.call, env, record, nargout=len(stmt.targets)
                )
                for target, mtype in zip(stmt.targets, results):
                    self._assign(target, mtype, env, record)
            elif isinstance(stmt, ast.ExprStmt):
                value = self._type_expr(stmt.value, env, record)
                env["ans"] = value
                record.note_var("ans", value)
            elif isinstance(stmt, ast.Clear):
                if stmt.names:
                    for name in stmt.names:
                        env.pop(name, None)
                else:
                    env.clear()
            elif isinstance(stmt, ast.Global):
                for name in stmt.names:
                    env.setdefault(name, MType.top())
        elif isinstance(atom, CondAtom):
            self._type_expr(atom.cond, env, record)
        elif isinstance(atom, ForIterAtom):
            iterable = self._type_expr(atom.stmt.iterable, env, record)
            var_type = self._sanitize(self._loop_var_type(iterable))
            env[atom.stmt.var] = var_type
            record.note_var(atom.stmt.var, var_type)

    def _loop_var_type(self, iterable: MType) -> MType:
        """Type of a ``for`` variable: one column of the iterable."""
        rows_max = iterable.maxshape.rows
        if rows_max == 1:
            # Row vector (the common `for i = 1:n` case): scalar element.
            return MType.scalar(
                iterable.intrinsic
                if iterable.intrinsic.leq(Intrinsic.COMPLEX)
                and not iterable.is_bottom
                else Intrinsic.TOP,
                iterable.range
                if self.options.range_propagation and iterable.is_real_like
                else Interval.top(),
            )
        intrinsic = (
            iterable.intrinsic
            if iterable.intrinsic.leq(Intrinsic.COMPLEX) and not iterable.is_bottom
            else Intrinsic.TOP
        )
        return MType(
            intrinsic,
            Shape(iterable.minshape.rows, 1),
            Shape(iterable.maxshape.rows, 1),
            iterable.range if iterable.is_real_like else Interval.top(),
        )

    # ------------------------------------------------------------------
    # Assignments
    # ------------------------------------------------------------------
    def _assign(
        self,
        target: ast.LValue,
        value: MType,
        env: Env,
        record: Annotations,
    ) -> None:
        if not target.is_indexed:
            env[target.name] = value
            record.note_var(target.name, value)
            return

        array = env.get(target.name)
        creating = array is None
        if creating:
            # Store into an undefined name creates a zero-filled array.
            array = MType(
                value.intrinsic.join(Intrinsic.INT),
                Shape.bottom(),
                Shape.bottom(),
                value.range.join(Interval.constant(0.0))
                if value.is_real_like
                else Interval.top(),
            )
        index_types = [
            self._type_index_arg(arg, array, position, len(target.indices), env, record)
            for position, arg in enumerate(target.indices)
        ]
        record.store_safety[id(target)] = self._classify_store(array, index_types)

        new_type = self._array_after_store(array, value, index_types, creating)
        env[target.name] = new_type
        record.note_var(target.name, new_type)

    def _array_after_store(
        self,
        array: MType,
        value: MType,
        index_types: list[MType],
        creating: bool,
    ) -> MType:
        intrinsic = array.intrinsic.join(value.intrinsic)
        if not intrinsic.leq(Intrinsic.COMPLEX):
            intrinsic = Intrinsic.TOP
        rng = (
            array.range.join(value.range)
            if self.options.range_propagation
            and array.is_real_like
            and value.is_real_like
            else Interval.top()
        )

        def index_bounds(t: MType) -> tuple[int, int | None]:
            if t.intrinsic is Intrinsic.BOTTOM and t.maxshape.is_top:
                return 0, None  # colon store: shape preserved
            if self.options.range_propagation and not t.range.is_top and not t.range.is_bottom:
                lo = max(int(math.floor(t.range.lo)), 0)
                hi = (
                    int(math.ceil(t.range.hi))
                    if math.isfinite(t.range.hi)
                    else None
                )
                return lo, hi
            return 0, None

        if len(index_types) == 2:
            (rlo, rhi), (clo, chi) = (
                index_bounds(index_types[0]),
                index_bounds(index_types[1]),
            )
            min_rows = max(array.minshape.rows or 0, rlo)
            min_cols = max(array.minshape.cols or 0, clo)

            def grow_dim(old, hi):
                if old is None or hi is None:
                    return None
                return max(old, hi)

            max_rows = grow_dim(array.maxshape.rows, rhi)
            max_cols = grow_dim(array.maxshape.cols, chi)
            mn = Shape(min_rows, min_cols)
            mx = Shape(max_rows, max_cols)
        else:
            lo, hi = index_bounds(index_types[0])
            # Linear store into a vector grows its long dimension.
            mn = array.minshape
            if (array.minshape.rows or 0) <= 1:
                mn = Shape(max(array.minshape.rows or 0, 1 if lo else 0),
                           max(array.minshape.cols or 0, lo))
                mx = Shape(
                    max(array.maxshape.rows or 1, 1)
                    if array.maxshape.rows is not None
                    else None,
                    None
                    if (hi is None or array.maxshape.cols is None)
                    else max(array.maxshape.cols, hi),
                )
            elif (array.minshape.cols or 0) > 1:
                # A matrix keeps its shape: a linear subscript addresses
                # an existing element or the store is an error.
                mx = array.maxshape
            else:
                mx = array.maxshape.join(Shape(hi, 1) if hi else Shape.bottom())
                mn = Shape(max(array.minshape.rows or 0, lo), array.minshape.cols)
        if not self.options.min_shape_propagation:
            # Ablated: the store no longer raises the array's minimum
            # extent (index-driven shape growth is min-shape information);
            # the creation-time minimum is all that remains.
            mn = array.minshape
        return MType(intrinsic, mn, mx, rng)

    # ------------------------------------------------------------------
    # Subscript safety (Section 2.4)
    # ------------------------------------------------------------------
    def _index_is_integral(self, t: MType) -> bool:
        return t.is_integer_like or (
            self.options.range_propagation and t.range.is_integral_constant
        )

    def _classify_load(self, array: MType, index_types: list[MType]) -> SubscriptSafety:
        if any(
            t.intrinsic is Intrinsic.BOTTOM and t.maxshape.is_top
            for t in index_types
        ):
            return SubscriptSafety.SAFE  # bare ':' is safe by construction
        if not all(self._index_is_integral(t) for t in index_types):
            return SubscriptSafety.CHECKED
        if not self.options.range_propagation:
            return SubscriptSafety.CHECKED
        if not all(
            not t.range.is_bottom and t.range.lo >= 1.0 for t in index_types
        ):
            return SubscriptSafety.CHECKED
        if len(index_types) == 1:
            limit = array.minshape.numel
            hi = index_types[0].range.hi
            if limit and math.isfinite(hi) and hi <= limit:
                return SubscriptSafety.SAFE
            return SubscriptSafety.CHECKED
        row_limit = array.minshape.rows or 0
        col_limit = array.minshape.cols or 0
        if (
            math.isfinite(index_types[0].range.hi)
            and index_types[0].range.hi <= row_limit
            and math.isfinite(index_types[1].range.hi)
            and index_types[1].range.hi <= col_limit
        ):
            return SubscriptSafety.SAFE
        return SubscriptSafety.CHECKED

    def _classify_store(self, array: MType, index_types: list[MType]) -> SubscriptSafety:
        load_class = self._classify_load(array, index_types)
        if load_class is SubscriptSafety.SAFE:
            return SubscriptSafety.SAFE
        if not all(self._index_is_integral(t) for t in index_types):
            return SubscriptSafety.CHECKED
        if not self.options.range_propagation:
            return SubscriptSafety.CHECKED
        if all(not t.range.is_bottom and t.range.lo >= 1.0 for t in index_types):
            return SubscriptSafety.GROW_ONLY
        return SubscriptSafety.CHECKED

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _ctx(self, args: list[MType], nargout: int = 1) -> RuleContext:
        return RuleContext(
            args=args,
            nargout=nargout,
            range_propagation=self.options.range_propagation,
            min_shape_propagation=self.options.min_shape_propagation,
        )

    def _type_expr(
        self,
        expr: ast.Expr,
        env: Env,
        record: Annotations,
        end_context: tuple[MType, int] | None = None,
    ) -> MType:
        if expr.__class__ is ast.Apply:
            return self._type_call(expr, env, record, nargout=1)[0]
        typer = _EXPR_TYPERS.get(expr.__class__)
        mtype = (
            MType.top() if typer is None
            else self._sanitize(typer(self, expr, env, record, end_context))
        )
        record.set_type(expr, mtype)
        return mtype

    # One typer per node class, called as ``typer(self, expr, env, record,
    # end_context)`` from ``_EXPR_TYPERS``.
    def _type_unary(self, expr, env, record, end_context) -> MType:
        operand = self._type_expr(expr.operand, env, record, end_context)
        return self.calculator.forward(
            ("unary", expr.op.value), self._ctx([operand])
        )[0]

    def _type_binary(self, expr, env, record, end_context) -> MType:
        left = self._type_expr(expr.left, env, record, end_context)
        right = self._type_expr(expr.right, env, record, end_context)
        result = self.calculator.forward(
            ("binop", expr.op), self._ctx([left, right])
        )[0]
        if (
            (expr.op == ".*" or expr.op == "*" and left.is_scalar)
            and left.is_real_like
            and result.is_real_like
            and self._same_value(expr.left, expr.right, record)
        ):
            # A real value times itself is never negative.  (Ranges do not
            # bound NaN, here as in ``Interval.mul``.)
            result = result.with_range(result.range.meet(_NONNEGATIVE))
        return result

    def _same_value(self, a: ast.Expr, b: ast.Expr, record: Annotations) -> bool:
        """Do ``a`` and ``b``, the operands of one operator, read the same
        value: the same variable, or the same variable at identical
        constant subscripts?  Nothing can store between the two reads."""
        if a.__class__ is ast.Ident:
            return (
                b.__class__ is ast.Ident
                and a.name == b.name
                and self._dis is not None
                and self._dis.kind_of(a) is SymbolKind.VARIABLE
                and self._dis.kind_of(b) is SymbolKind.VARIABLE
            )
        if (
            a.__class__ is not ast.Apply
            or b.__class__ is not ast.Apply
            or a.kind is not ast.ApplyKind.INDEX
            or b.kind is not ast.ApplyKind.INDEX
            or a.name != b.name
            or len(a.args) != len(b.args)
        ):
            return False
        for x, y in zip(a.args, b.args):
            tx, ty = record.type_of(x), record.type_of(y)
            if not (
                tx.is_constant and ty.is_constant
                and tx.constant_value == ty.constant_value
            ):
                return False
        return True

    def _type_transpose(self, expr, env, record, end_context) -> MType:
        operand = self._type_expr(expr.operand, env, record, end_context)
        mark = "'" if expr.conjugate else ".'"
        return self.calculator.forward(("transpose", mark), self._ctx([operand]))[0]

    def _type_range(self, expr, env, record, end_context) -> MType:
        parts = [self._type_expr(expr.start, env, record, end_context)]
        if expr.step is not None:
            parts.append(self._type_expr(expr.step, env, record, end_context))
        parts.append(self._type_expr(expr.stop, env, record, end_context))
        return self.calculator.forward(("colon", ":"), self._ctx(parts))[0]

    def _type_matrix(self, expr, env, record, end_context) -> MType:
        flat = [
            self._type_expr(item, env, record, end_context)
            for row in expr.rows
            for item in row
        ]
        if not flat:
            return self.calculator.forward(
                ("matrix", "[]"), self._ctx([], nargout=1)
            )[0]
        return self.calculator.forward(
            ("matrix", "[]"), self._ctx(flat, nargout=len(expr.rows))
        )[0]

    def _type_end(self, expr, env, record, end_context) -> MType:
        if end_context is None:
            return MType.scalar(Intrinsic.INT, Interval.of(0.0, math.inf))
        array, dim = end_context
        return self.calculator.forward(
            ("index", "end"), self._ctx([array], nargout=dim)
        )[0]

    def _type_ident(self, expr, env, record, end_context) -> MType:
        kind = self._dis.kind_of(expr) if self._dis else None
        if kind is SymbolKind.VARIABLE or expr.name in env:
            return env.get(expr.name, MType.top())
        if kind is SymbolKind.BUILTIN:
            return self.calculator.forward(
                ("builtin", expr.name), self._ctx([])
            )[0]
        return MType.top()

    def _type_index_arg(
        self,
        arg: ast.Expr,
        array: MType,
        position: int,
        arity: int,
        env: Env,
        record: Annotations,
    ) -> MType:
        dim = 0 if arity == 1 else position + 1
        return self._type_expr(arg, env, record, end_context=(array, dim))

    def _type_call(
        self,
        expr: ast.Expr,
        env: Env,
        record: Annotations,
        nargout: int,
    ) -> list[MType]:
        if not isinstance(expr, ast.Apply):
            return [self._type_expr(expr, env, record)] + [
                MType.top() for _ in range(nargout - 1)
            ]
        kind = expr.kind
        if kind is ast.ApplyKind.INDEX:
            array = env.get(expr.name, MType.top())
            index_types = [
                self._type_index_arg(arg, array, i, len(expr.args), env, record)
                for i, arg in enumerate(expr.args)
            ]
            record.load_safety[id(expr)] = self._classify_load(array, index_types)
            key = ("index", "linear" if len(expr.args) == 1 else "2d")
            result = self.calculator.forward(
                key, self._ctx([array] + index_types)
            )
            out = [result[0]]
        elif kind is ast.ApplyKind.BUILTIN:
            arg_types = [
                self._type_expr(arg, env, record) for arg in expr.args
            ]
            out = self.calculator.forward(
                ("builtin", expr.name), self._ctx(arg_types, nargout=nargout)
            )
        else:
            for arg in expr.args:
                self._type_expr(arg, env, record)  # annotates the arguments
            out = [MType.top() for _ in range(nargout)]
        while len(out) < nargout:
            out.append(MType.top())
        out = [self._sanitize(t) for t in out]
        record.set_type(expr, out[0])
        return out


#: ``_type_expr`` by node class (``Apply`` is ``_type_call``'s).  The
#: typers of literals ignore the state; the rest recurse.
_EXPR_TYPERS = {
    ast.Number: lambda self, expr, *_: MType.constant(expr.value),
    ast.ImagNumber: lambda self, expr, *_: MType.scalar(Intrinsic.COMPLEX),
    ast.StringLit: lambda self, expr, *_: MType.exact(
        Intrinsic.STRING, 1, len(expr.text)
    ),
    ast.ColonAll: lambda *_: COLON_MARKER,
    ast.Ident: TypeInferenceEngine._type_ident,
    ast.UnaryOp: TypeInferenceEngine._type_unary,
    ast.BinaryOp: TypeInferenceEngine._type_binary,
    ast.Transpose: TypeInferenceEngine._type_transpose,
    ast.Range: TypeInferenceEngine._type_range,
    ast.MatrixLit: TypeInferenceEngine._type_matrix,
    ast.EndMarker: TypeInferenceEngine._type_end,
}


def _revisitable(order: list[BasicBlock]) -> set[int]:
    """The blocks the solver may evaluate more than once.

    Swept in reverse postorder, a block whose reachable predecessors all
    come before it and are themselves evaluated once has its final input
    the first time it is reached, so it is evaluated once.  The rest — a
    loop and every block a loop reaches — are worth a memo.
    """
    reachable = {block.index for block in order}
    once: set[int] = set()
    for block in order:
        if all(
            pred.index in once or pred.index not in reachable
            for pred in block.predecessors
        ):
            once.add(block.index)
    return reachable - once


def _memo_slot(atom: Atom) -> list | None:
    """``[reads, writes, None, None]`` for an atom whose transfer reads
    the state only at ``reads`` and writes (and notes) each of ``writes``
    once, in order; ``None`` for an atom to transfer every time."""
    targets: list[ast.LValue] = []
    if isinstance(atom, CondAtom):
        exprs, writes = [atom.cond], []
    elif isinstance(atom, ForIterAtom):
        exprs, writes = [atom.stmt.iterable], [atom.stmt.var]
    elif isinstance(atom.stmt, ast.ExprStmt):
        exprs, writes = [atom.stmt.value], ["ans"]
    elif isinstance(atom.stmt, ast.Assign):
        exprs, targets = [atom.stmt.value], [atom.stmt.target]
    elif isinstance(atom.stmt, ast.MultiAssign):
        exprs, targets = [atom.stmt.call], atom.stmt.targets
    else:
        return None  # clear / global: the whole state is read and written
    reads: dict[str, None] = {}
    for target in targets:
        if target.is_indexed:  # a store reads the array it grows
            reads[target.name] = None
            exprs.extend(target.indices)
    if targets:
        writes = [target.name for target in targets]
        if len(set(writes)) < len(writes):
            return None  # `[a, a] = f()` notes two types for one name
    for expr in exprs:
        for node in ast.walk_expr(expr):
            if node.__class__ is ast.Ident or node.__class__ is ast.Apply:
                reads[node.name] = None
    return [tuple(reads), tuple(writes), None, None]


def infer_function(
    fn: ast.FunctionDef,
    signature: Signature,
    options: InferenceOptions | None = None,
    disambiguation: DisambiguationResult | None = None,
) -> Annotations:
    """Convenience wrapper: JIT-style forward inference for one function."""
    return TypeInferenceEngine(options=options).infer(fn, signature, disambiguation)
