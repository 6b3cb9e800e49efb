"""The type speculator (Section 2.5).

Speculative type inference assumes nothing about the calling context.  It
*guesses* likely argument types by back-propagating hints from syntactic
constructs in the body to the input parameters, alternating backward and
forward passes until the speculated signature converges:

1. a forward pass types the body under the current guessed signature;
2. a backward pass visits every hint site (colon operands, relational
   operands, bracket arguments, Fortran-77-style subscripts, builtin
   arguments with integer-scalar affinity) and, wherever a hinted operand
   traces back to a formal parameter, *meets* the hint into that
   parameter's guessed type;
3. repeat until nothing changes (or a pass cap is hit).

A parameter whose hints conflict (meet = bottom), or that receives no
hints at all, stays at ⊤ — the generated code for it falls back to the
generic complex-matrix path, which is exactly the paper's documented
failure mode for ``qmr`` and ``mei``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import CondAtom
from repro.analysis.disambiguate import DisambiguationResult, Disambiguator
from repro.analysis.symtab import SymbolKind
from repro.analysis.usedef import UseDefChains, build_use_def
from repro.frontend import ast_nodes as ast
from repro.inference.annotations import Annotations
from repro.inference.calculator import RuleContext, TypeCalculator, default_calculator
from repro.inference.engine import InferenceOptions, TypeInferenceEngine
from repro.typesys.mtype import MType
from repro.typesys.signature import Signature


@dataclass
class SpeculationResult:
    """Outcome of speculative inference for one function."""

    signature: Signature
    annotations: Annotations
    # parameters that received at least one usable hint
    narrowed: dict[str, bool] = field(default_factory=dict)
    passes: int = 0


class Speculator:
    """Alternating backward/forward speculative type inference."""

    def __init__(
        self,
        calculator: TypeCalculator | None = None,
        options: InferenceOptions | None = None,
        max_passes: int = 4,
    ):
        self.calculator = calculator or default_calculator()
        self.options = options or InferenceOptions()
        self.max_passes = max_passes

    # ------------------------------------------------------------------
    def speculate(
        self,
        fn: ast.FunctionDef,
        disambiguation: DisambiguationResult | None = None,
    ) -> SpeculationResult:
        if disambiguation is None:
            disambiguation = Disambiguator(lambda name: False).run_function(fn)
        chains = build_use_def(disambiguation.cfg, fn.params)
        engine = TypeInferenceEngine(self.calculator, self.options)

        param_types: dict[str, MType] = {p: MType.top() for p in fn.params}
        annotations = Annotations()
        passes = 0
        for _ in range(self.max_passes):
            passes += 1
            signature = Signature.of(param_types[p] for p in fn.params)
            annotations = engine.infer(fn, signature, disambiguation)
            updated = self._backward_pass(
                fn, disambiguation, chains, annotations, param_types
            )
            if not updated:
                break

        # Conflicting hints (bottom) mean the guess failed: fall back to ⊤.
        # A parameter no hint touched is guessed from global likelihood
        # ("the compiler guesses the run-time context most likely to occur
        # in practice"): with no evidence it is ever an array, the most
        # likely context is a real scalar; with array evidence but no type
        # evidence it stays ⊤ — the generic complex-matrix default, which
        # is exactly the paper's mei/qmr failure mode.
        array_evidence = self._array_evidence(fn, disambiguation, annotations)
        narrowed: dict[str, bool] = {}
        for name, mtype in param_types.items():
            if mtype.is_bottom:
                param_types[name] = MType.top()
                narrowed[name] = False
            elif mtype.is_top_like:
                if name in array_evidence:
                    narrowed[name] = False
                else:
                    param_types[name] = MType.scalar()
                    narrowed[name] = True
            else:
                narrowed[name] = True

        signature = Signature.of(param_types[p] for p in fn.params)
        annotations = engine.infer(fn, signature, disambiguation)
        return SpeculationResult(
            signature=signature,
            annotations=annotations,
            narrowed=narrowed,
            passes=passes,
        )

    #: Builtins whose argument is characteristically an array.
    _ARRAY_BUILTINS = frozenset(
        {
            "eig", "norm", "diag", "tril", "triu", "inv", "chol", "det",
            "size", "length", "numel", "find", "sort", "reshape", "sum",
            "prod", "mean", "cumsum", "isempty",
        }
    )

    def _array_evidence(
        self, fn: ast.FunctionDef, dis: DisambiguationResult, annotations
    ) -> set[str]:
        """Parameters the body treats as arrays (matrix ops, transposes,
        array-oriented builtins, loop iterables)."""
        params = set(fn.params)
        evidence: set[str] = set()

        def param_of(expr) -> str | None:
            if isinstance(expr, ast.Ident) and expr.name in params:
                return expr.name
            return None

        for atom in dis.cfg.atoms():
            if isinstance(atom.stmt, ast.For):
                name = param_of(atom.stmt.iterable)
                if name:
                    evidence.add(name)
            for top in atom.exprs:
                for node in ast.walk_expr(top):
                    if isinstance(node, ast.Transpose):
                        name = param_of(node.operand)
                        if name:
                            evidence.add(name)
                    elif isinstance(node, ast.Apply):
                        if (
                            dis.kind_of(node) is SymbolKind.BUILTIN
                            and node.name in self._ARRAY_BUILTINS
                            and node.args
                        ):
                            name = param_of(node.args[0])
                            if name:
                                evidence.add(name)
                    elif isinstance(node, ast.BinaryOp) and node.op in (
                        "*", "/", "\\",
                    ):
                        left_t = annotations.type_of(node.left)
                        right_t = annotations.type_of(node.right)
                        name = param_of(node.left)
                        if name and not right_t.could_be_scalar:
                            evidence.add(name)
                        name = param_of(node.right)
                        if name and not left_t.could_be_scalar:
                            evidence.add(name)
        return evidence

    # ------------------------------------------------------------------
    def _backward_pass(
        self,
        fn: ast.FunctionDef,
        disambiguation: DisambiguationResult,
        chains: UseDefChains,
        annotations: Annotations,
        param_types: dict[str, MType],
    ) -> bool:
        """Visit every hint site; returns True if any parameter narrowed."""
        self._changed = False
        self._dis = disambiguation
        self._params = set(fn.params)
        self._chains = chains
        self._annotations = annotations
        self._param_types = param_types

        for atom in disambiguation.cfg.atoms():
            if isinstance(atom, CondAtom):
                kind = "while" if isinstance(atom.stmt, ast.While) else "if"
                self._apply_hints(("cond", kind), [atom.cond])
            for expr in atom.exprs:
                self._visit(expr)
        return self._changed

    def _visit(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Range):
            operands = [expr.start] + (
                [expr.step] if expr.step is not None else []
            ) + [expr.stop]
            self._apply_hints(("colon", ":"), operands)
        elif isinstance(expr, ast.BinaryOp):
            self._apply_hints(("binop", expr.op), [expr.left, expr.right])
        elif isinstance(expr, ast.MatrixLit):
            flat = [item for row in expr.rows for item in row]
            self._apply_hints(("matrix", "[]"), flat)
        elif isinstance(expr, ast.Apply):
            kind = self._dis.kind_of(expr)
            if kind is SymbolKind.VARIABLE:
                key = ("index", "linear" if len(expr.args) == 1 else "2d")
                self._apply_hints(key, [expr] + list(expr.args), base_is_array=True)
            elif kind is SymbolKind.BUILTIN:
                self._apply_hints(("builtin", expr.name), list(expr.args))
        for child in ast.children(expr):
            self._visit(child)

    def _apply_hints(
        self,
        key: tuple[str, str],
        operands: list[ast.Expr],
        base_is_array: bool = False,
    ) -> None:
        arg_types = []
        for i, op in enumerate(operands):
            if isinstance(op, ast.ColonAll):
                from repro.inference.rules_indexing import COLON_MARKER

                arg_types.append(COLON_MARKER)
            else:
                arg_types.append(self._annotations.type_of(op))
        ctx = RuleContext(
            args=arg_types,
            range_propagation=self.options.range_propagation,
            min_shape_propagation=self.options.min_shape_propagation,
        )
        hints = self.calculator.backward(key, ctx)
        if hints is None:
            return
        for operand, hint in zip(operands, hints):
            if hint is None:
                continue
            self._hint_operand(operand, hint)

    def _hint_operand(self, operand: ast.Expr, hint: MType) -> None:
        """Fold a hint into the parameter the operand traces back to."""
        name = None
        if isinstance(operand, (ast.Ident, ast.Apply)):
            name = operand.name
        if name is None or name not in self._params:
            return
        if not self._chains.is_param_only(operand):
            # The occurrence may see a local redefinition; hinting the
            # parameter from it would be unsound speculation.
            return
        current = self._param_types[name]
        met = current.meet(hint)
        if met != current:
            self._param_types[name] = met
            self._changed = True


def speculate_signature(
    fn: ast.FunctionDef,
    options: InferenceOptions | None = None,
) -> SpeculationResult:
    """Convenience wrapper: speculate one function's signature."""
    return Speculator(options=options).speculate(fn)
