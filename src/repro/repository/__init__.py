"""The code repository (Section 2).

A database of compiled code.  It compiles ahead of time by snooping source
directories, maintains dependency information between source and object
code, triggers recompilation when sources change, and answers the front
end's requests for compiled code through the function locator's
type-signature matching (Section 2.2.1).
"""

from repro.repository.repo import CodeRepository, RepositoryStats
from repro.repository.background import SpeculationEngine
from repro.repository.cache import RepositoryCache
from repro.repository.diagnostics import DiagnosticEvent, DiagnosticsLog
from repro.repository.snoop import DirectorySnoop
from repro.repository.depgraph import DependencyGraph

__all__ = [
    "CodeRepository",
    "RepositoryStats",
    "SpeculationEngine",
    "RepositoryCache",
    "DiagnosticEvent",
    "DiagnosticsLog",
    "DirectorySnoop",
    "DependencyGraph",
]
