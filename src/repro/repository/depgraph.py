"""Dependency tracking between source files and compiled objects.

The repository "maintains dependency information between source code and
object code and triggers recompilations when the source code changes".
Dependencies arise two ways: a compiled object depends on its own source,
and — because of inlining — on the sources of every function inlined into
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DependencyGraph:
    """function name -> set of function names whose source it embeds."""

    _deps: dict[str, set[str]] = field(default_factory=dict)
    _reverse: dict[str, set[str]] = field(default_factory=dict)

    def set_dependencies(self, name: str, depends_on: set[str]) -> None:
        old = self._deps.get(name, set())
        for dep in old - depends_on:
            self._reverse.get(dep, set()).discard(name)
        for dep in depends_on - old:
            self._reverse.setdefault(dep, set()).add(name)
        self._deps[name] = set(depends_on)

    def dependents_of(self, name: str) -> set[str]:
        """Everything that must be invalidated when ``name`` changes
        (transitive closure including ``name`` itself)."""
        result: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            frontier.extend(self._reverse.get(current, ()))
        return result

    def drop(self, name: str) -> None:
        self.set_dependencies(name, set())
        self._deps.pop(name, None)
