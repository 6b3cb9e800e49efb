"""Process-wide content-addressed kernel cache.

Kernels are addressed by a SHA-256 digest of the canonical tree encoding
plus the operand descriptor vector (see :func:`repro.kernels.fusion.encode`)
and a format version, so two textually different expressions with the same
fused structure share one compiled function — across functions, sessions
and both consumers (JIT and interpreter).

Persistence: both code generators record every kernel a compiled object
references in ``CompiledObject.kernel_sources``; the disk-backed
:class:`~repro.repository.cache.RepositoryCache` re-registers those
sources through :meth:`KernelCache.register_source` when it revives an
object in a fresh process, so ``rt.kernel_<hash>`` dispatch never misses
for disk-cached code.

Fault injection: the ``kernel.compile`` site fires inside
:meth:`get_or_compile` (a miss during code generation then aborts that
whole compile, and the next version down serves the call); the
``kernel.run`` site is checked by the ``rt`` dispatch shim in
:mod:`repro.codegen.runtime_support`, where the guarded-deopt machinery
absorbs it.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass

from repro.faults.plan import SITE_KERNEL_COMPILE
from repro.kernels.codegen import compile_kernel, generate_source
from repro.kernels.fusion import Node, encode

#: Bumped whenever generated kernel code changes shape — keys (and thus
#: the names embedded in persisted compiled objects) change with it.
KERNEL_FORMAT_VERSION = 1

#: Default bound on live kernels per cache.  Long fuzz runs mint an
#: unbounded stream of distinct trees; past this the least recently used
#: kernel is dropped (consumers memoize their own bindings, so an evicted
#: kernel keeps serving existing plans and simply recompiles on the next
#: cold lookup).  Overridable per process via
#: ``MAJIC_KERNEL_CACHE_CAPACITY``.
DEFAULT_KERNEL_CACHE_CAPACITY = 256


def _default_capacity() -> int:
    raw = os.environ.get("MAJIC_KERNEL_CACHE_CAPACITY", "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_KERNEL_CACHE_CAPACITY
    return value if value > 0 else DEFAULT_KERNEL_CACHE_CAPACITY


@dataclass
class CompiledKernel:
    """One cached kernel: content key, source text, live function."""

    name: str
    key: str
    source: str
    fn: object


def kernel_name(key: str) -> str:
    digest = hashlib.sha256(
        f"v{KERNEL_FORMAT_VERSION}:{key}".encode()
    ).hexdigest()
    return f"kernel_{digest[:16]}"


class KernelCache:
    """Thread-safe name → :class:`CompiledKernel` map with hit counters.

    Bounded: at most ``capacity`` kernels stay live, in LRU order (a hit
    or lookup refreshes recency).  Eviction only drops the cache's own
    reference — live ``DynamicPlan.kernel`` memos and ``RuntimeSupport``
    instance bindings keep working, and the next cold lookup of the same
    tree simply recompiles (``evictions`` counts how often that tax was
    paid).  ``hits`` / ``misses`` / ``evictions`` are the only count of
    these facts: ``stats()`` and every session's
    ``majic_kernel_cache_*_total`` read them, process-wide like the cache.
    """

    def __init__(self, capacity: int | None = None):
        self._lock = threading.Lock()
        self._kernels: dict[str, CompiledKernel] = {}
        self.capacity = capacity if capacity else _default_capacity()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _touch(self, name: str, kernel: CompiledKernel) -> None:
        """Refresh LRU recency (dict preserves insertion order)."""
        del self._kernels[name]
        self._kernels[name] = kernel

    def _insert(self, name: str, kernel: CompiledKernel) -> CompiledKernel:
        """Insert under the lock; returns the winner."""
        existing = self._kernels.get(name)
        if existing is not None:
            # A racing compile of the same tree is harmless: both
            # functions are identical, first one in wins.
            self._touch(name, existing)
            return existing
        self._kernels[name] = kernel
        while len(self._kernels) > self.capacity:
            oldest = next(iter(self._kernels))
            del self._kernels[oldest]
            self.evictions += 1
        return kernel

    # ------------------------------------------------------------------
    def get_or_compile(
        self,
        root: Node,
        descs: tuple,
        fault_plan=None,
    ) -> CompiledKernel:
        """Return the kernel for ``(root, descs)``, compiling on miss."""
        key = encode(root, descs)
        name = kernel_name(key)
        with self._lock:
            kernel = self._kernels.get(name)
            if kernel is not None:
                self.hits += 1
                self._touch(name, kernel)
                return kernel
            self.misses += 1
        if fault_plan is not None:
            fault_plan.check(SITE_KERNEL_COMPILE, name)
        source = generate_source(name, root, descs)
        kernel = CompiledKernel(
            name=name, key=key, source=source, fn=compile_kernel(name, source)
        )
        with self._lock:
            return self._insert(name, kernel)

    # ------------------------------------------------------------------
    def lookup(self, name: str) -> CompiledKernel | None:
        with self._lock:
            kernel = self._kernels.get(name)
            if kernel is not None:
                self._touch(name, kernel)
            return kernel

    def register_source(self, name: str, source: str, key: str = "") -> None:
        """Revive a kernel from persisted source (disk-cache load path).

        ``key`` carries the canonical tree encoding when the persisting
        session recorded it (``CompiledObject.kernel_keys``); the native
        tier needs it to rebuild the tree, but revival works without it.
        """
        with self._lock:
            existing = self._kernels.get(name)
            if existing is not None:
                if key and not existing.key:
                    existing.key = key
                return
        kernel = CompiledKernel(
            name=name, key=key, source=source, fn=compile_kernel(name, source)
        )
        with self._lock:
            self._insert(name, kernel)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "kernels": len(self._kernels),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Testing hook: drop every kernel and reset counters."""
        with self._lock:
            self._kernels.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


#: The process-wide cache both consumers share.
KERNEL_CACHE = KernelCache()
