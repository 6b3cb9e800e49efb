"""Symbol disambiguation — the first pass of the MaJIC compiler (§2.1).

MATLAB symbols may denote variables, builtin primitives or user functions,
and the interpreter decides dynamically.  MaJIC must decide at compile time.
The rule implemented here is the paper's: *a symbol that has a reaching
definition as a variable on all paths leading to it must be a variable*;
a symbol assigned on only some paths is **ambiguous**, and its handling is
deferred to runtime (the engines fall back to dynamic resolution for it);
a symbol never assigned resolves to a builtin or user function by registry
lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.cfg import CFG, Atom, build_cfg
from repro.analysis.reaching import AssignmentSets, assignment_analysis
from repro.analysis.symtab import SymbolInfo, SymbolKind, SymbolTable
from repro.frontend import ast_nodes as ast
from repro.runtime.builtins import is_builtin


@dataclass
class DisambiguationResult:
    """Everything later passes need from the disambiguator."""

    cfg: CFG
    symbols: SymbolTable
    assignments: AssignmentSets
    # id(Ident or Apply node) -> resolution of that occurrence
    resolution: dict[int, SymbolKind] = field(default_factory=dict)
    # Names called that were no function at resolution (bound late, as
    # USER_FUNCTION: compiled code asks again when the call runs)
    unknown: set[str] = field(default_factory=set)

    def kind_of(self, node: ast.Expr) -> SymbolKind | None:
        return self.resolution.get(id(node))

    @property
    def has_ambiguous(self) -> bool:
        return any(info.is_ambiguous for info in self.symbols)


class Disambiguator:
    """Resolves every symbol occurrence in one function or script body."""

    def __init__(self, is_user_function: Callable[[str], bool]):
        self.is_user_function = is_user_function

    # ------------------------------------------------------------------
    def run(
        self,
        body: list[ast.Stmt],
        params: list[str] | None = None,
        outputs: list[str] | None = None,
        predefined: list[str] | None = None,
    ) -> DisambiguationResult:
        """Disambiguate ``body``.

        ``predefined`` lists names known to be variables on entry beyond the
        formal parameters (used for scripts running in a workspace).
        """
        params = list(params or [])
        outputs = list(outputs or [])
        entry_vars = params + [n for n in (predefined or []) if n not in params]
        cfg = build_cfg(body)
        assignments = assignment_analysis(cfg, entry_vars)
        result = DisambiguationResult(
            cfg=cfg, symbols=SymbolTable(), assignments=assignments
        )
        for name in params:
            info = result.symbols.ensure(name)
            info.is_param = True
            info.assigned = True
            info.kinds.add(SymbolKind.VARIABLE)
        for name in outputs:
            result.symbols.ensure(name).is_output = True

        for atom in cfg.atoms():
            self._process_atom(atom, result)
        return result

    def run_function(self, fn: ast.FunctionDef) -> DisambiguationResult:
        return self.run(fn.body, params=fn.params, outputs=fn.outputs)

    # ------------------------------------------------------------------
    def _process_atom(self, atom: Atom, result: DisambiguationResult) -> None:
        must = result.assignments.must_before(atom)
        may = result.assignments.may_before(atom)
        symbols = result.symbols
        for node in atom.uses:
            kind = self._resolve(
                node.name, must, may, is_apply=isinstance(node, ast.Apply),
                unknown=result.unknown,
            )
            result.resolution[id(node)] = kind
            info = symbols.ensure(node.name)
            info.kinds.add(kind)
            info.read = True
        for name in atom.defs:
            info = symbols.ensure(name)
            info.assigned = True
            info.kinds.add(SymbolKind.VARIABLE)

    # ------------------------------------------------------------------
    def _resolve(
        self,
        name: str,
        must: frozenset[str],
        may,
        is_apply: bool,
        unknown: set[str],
    ) -> SymbolKind:
        if name in must:
            return SymbolKind.VARIABLE
        if name in may:
            # Defined on some paths only: Figure 2's deferred case.
            return SymbolKind.AMBIGUOUS
        if is_builtin(name):
            return SymbolKind.BUILTIN
        if self.is_user_function(name):
            return SymbolKind.USER_FUNCTION
        if is_apply:
            # Unknown call target: bind late; the repository may learn about
            # the function before execution reaches this site.
            unknown.add(name)
            return SymbolKind.USER_FUNCTION
        return SymbolKind.AMBIGUOUS


def disambiguate_function(
    fn: ast.FunctionDef,
    is_user_function: Callable[[str], bool] = lambda name: False,
) -> DisambiguationResult:
    """Convenience wrapper: disambiguate one function definition."""
    return Disambiguator(is_user_function).run_function(fn)
