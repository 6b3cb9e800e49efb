"""Use-definition chains (the "U/D chain" box of Figure 1).

For every variable *use* the chain records the set of definition atoms that
may reach it.  The optimizing code generator consults the chains for
loop-invariant detection and the inliner for read-only-parameter analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import CFG, Atom
from repro.analysis.reaching import reaching_definitions
from repro.frontend import ast_nodes as ast

PARAM_SITE = 0  # pseudo def-site id for formal parameters


@dataclass
class UseDefChains:
    """Maps each use occurrence (id of Ident/Apply node) to def atoms."""

    # id(use node) -> frozenset of def atom ids (0 = parameter)
    chains: dict[int, frozenset[int]] = field(default_factory=dict)
    # atom id -> atom, to let clients look the definitions back up
    atoms: dict[int, Atom] = field(default_factory=dict)

    def definitions_for(self, node: ast.Expr) -> frozenset[int]:
        return self.chains.get(id(node), frozenset())

    def single_definition(self, node: ast.Expr) -> Atom | None:
        """The unique reaching definition of a use, if there is exactly one."""
        sites = self.chains.get(id(node))
        if sites is None or len(sites) != 1:
            return None
        (site,) = sites
        return self.atoms.get(site)

    def is_param_only(self, node: ast.Expr) -> bool:
        """True when the only reaching definition is the formal parameter."""
        sites = self.chains.get(id(node))
        return sites is not None and sites == frozenset({PARAM_SITE})


def build_use_def(cfg: CFG, params: list[str]) -> UseDefChains:
    """Construct U/D chains from reaching definitions over ``cfg``."""
    reaching = reaching_definitions(cfg, params)
    chains = UseDefChains()

    for atom in cfg.atoms():
        chains.atoms[id(atom)] = atom
        by_name: dict[str, set[int]] = {}
        for name, site in reaching.state_before(atom):
            by_name.setdefault(name, set()).add(site)
        for node in atom.uses:
            sites = by_name.get(node.name)
            if sites:
                chains.chains[id(node)] = frozenset(sites)
    return chains
