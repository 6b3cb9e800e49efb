"""Static symbol table built by the disambiguator (Figure 1, pass 2)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class SymbolKind(enum.Enum):
    """Resolution of one symbol *occurrence* (Section 2.1)."""

    VARIABLE = "variable"
    BUILTIN = "builtin"
    USER_FUNCTION = "user_function"
    AMBIGUOUS = "ambiguous"   # deferred to runtime


@dataclass
class SymbolInfo:
    """Aggregate information about one name within a function."""

    name: str
    is_param: bool = False
    is_output: bool = False
    # Kinds observed across all occurrences of the name.
    kinds: set[SymbolKind] = field(default_factory=set)
    # True if the symbol is ever assigned (incl. for-loop variables).
    assigned: bool = False
    read: bool = False

    @property
    def is_variable(self) -> bool:
        return SymbolKind.VARIABLE in self.kinds or self.assigned

    @property
    def is_ambiguous(self) -> bool:
        return SymbolKind.AMBIGUOUS in self.kinds


class SymbolTable:
    """Name → :class:`SymbolInfo` for one function or script."""

    def __init__(self):
        self._symbols: dict[str, SymbolInfo] = {}

    def lookup(self, name: str) -> SymbolInfo | None:
        return self._symbols.get(name)

    def ensure(self, name: str) -> SymbolInfo:
        info = self._symbols.get(name)
        if info is None:
            info = SymbolInfo(name=name)
            self._symbols[name] = info
        return info

    def names(self) -> list[str]:
        return sorted(self._symbols)

    def variables(self) -> list[str]:
        return sorted(
            name for name, info in self._symbols.items() if info.is_variable
        )

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def __iter__(self):
        return iter(self._symbols.values())

    def __len__(self) -> int:
        return len(self._symbols)
