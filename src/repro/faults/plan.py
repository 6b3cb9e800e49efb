"""Deterministic fault injection for the execution tier.

A :class:`FaultPlan` describes *where* and *when* artificial failures fire:
each spec names a site (``"jit"``, ``"spec"``, a runtime helper such as
``"rt.g_add"``, or the wildcard ``"rt.*"``) and either an explicit set of
hit numbers or a seeded probability.  The same plan replayed against the
same call sequence fires the same faults — crash reports from the
differential harness are therefore reproducible bit-for-bit.

Injected faults deliberately do **not** derive from
:class:`~repro.errors.MatlabError`: they model host-level defects
(miscompiles, inference bugs, ``TypeError`` inside generated source) that
the guarded execution tier must absorb by deoptimizing to the interpreter,
not legitimate MATLAB errors that must surface to the user.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

#: Compile-time sites (checked at compiler entry).
SITE_JIT = "jit"
SITE_SPEC = "spec"
#: Background-speculation sites: inside a worker thread, before the compile.
SITE_WORKER = "worker"
#: Persistent-cache sites: (de)serialization of compiled objects.
SITE_CACHE_STORE = "cache.store"
SITE_CACHE_LOAD = "cache.load"
#: Fused-kernel sites: compilation of a fused elementwise kernel (inside
#: code selection, for either code generator) and its dispatch from
#: generated code (``rt.kernel_*``).
SITE_KERNEL_COMPILE = "kernel.compile"
SITE_KERNEL_RUN = "kernel.run"
#: Resilience (chaos) sites — see :mod:`repro.resilience`.  ``hang`` and
#: ``oom`` are checked on the guarded run path of compiled objects and
#: inside the sandbox trial child; ``crash`` only fires where a real
#: process/thread death is survivable (the sandbox child and the
#: background worker loop).
SITE_HANG = "hang"
SITE_CRASH = "crash"
SITE_OOM = "oom"
#: Self-healing cache sites: a corrupted entry read back from disk, and a
#: torn (partial) write that bypasses the atomic-rename protocol.
SITE_CACHE_CORRUPT = "cache.corrupt"
SITE_CACHE_PARTIAL = "cache.partial_write"
#: Native-tier sites (:mod:`repro.native`): the out-of-band C compile of a
#: fused kernel, the dlopen/ctypes load of a cached ``.so``, and the
#: in-process dispatch through the loaded function.  All three are behind
#: the guarded fallback chain: a fault at any of them leaves the Python
#: fused kernel serving the call bit-identically.
SITE_NATIVE_COMPILE = "native.compile"
SITE_NATIVE_LOAD = "native.load"
SITE_NATIVE_RUN = "native.run"
#: Parallel-backend sites (:mod:`repro.parallel`): a message handed to the
#: transport that is silently dropped, a receive that fails on the
#: driver side, and a task picked up by a parallel worker process (where
#: ``hang``/``crash`` behaviours model a wedged or dying rank).
SITE_PARALLEL_SEND = "parallel.send"
SITE_PARALLEL_RECV = "parallel.recv"
SITE_PARALLEL_WORKER = "parallel.worker"
#: Adaptive-tiering site (:mod:`repro.tiering`): the promotion decision /
#: background promotion compile.  A fault here aborts that one promotion
#: attempt — the function keeps serving from its current tier, so results
#: stay bit-identical to the interpreter.
SITE_TIERING_PROMOTE = "tiering.promote"
#: Prefix for runtime-helper sites; ``rt.*`` wraps every helper.
RT_PREFIX = "rt."
RT_ANY = "rt.*"

#: FaultSpec behaviours (what happens when a spec fires).
BEHAVIOR_RAISE = "raise"    # raise InjectedFault (the classic model)
BEHAVIOR_HANG = "hang"      # busy-hang until cancelled by a watchdog
BEHAVIOR_CRASH = "crash"    # raise SimulatedCrash (a BaseException)
BEHAVIOR_OOM = "oom"        # raise MemoryError
BEHAVIOR_IO = "io_error"    # raise OSError (a transient IO fault)
BEHAVIOR_CORRUPT = "corrupt"  # mangle bytes passing through filter_bytes

#: Upper bound on an injected hang: even with no watchdog armed, a hang
#: degrades into a plain InjectedFault after this long, so an unguarded
#: test run recovers instead of wedging forever.
HANG_LIMIT_SECONDS = 15.0


class InjectedFault(RuntimeError):
    """An artificial host-level failure (never a MatlabError)."""


class SimulatedCrash(BaseException):
    """An artificial process/thread death.

    Deliberately a :class:`BaseException`: it must escape the ``except
    Exception`` safety nets the way a real segfault or ``os._exit`` would,
    so only supervised failure domains (the sandbox trial child, the
    background worker loop) can absorb it.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault source.

    ``hits`` selects explicit 1-based hit numbers of the site; when absent,
    ``probability`` draws a seeded coin per hit.  ``function`` restricts
    compile-time sites to a single function name (runtime helpers do not
    know their caller, so the filter is ignored there).  ``behavior``
    selects the failure mode: raise (default), hang, crash, oom, io_error
    or corrupt — see the ``BEHAVIOR_*`` constants.
    """

    site: str
    hits: tuple[int, ...] | None = None
    probability: float | None = None
    function: str | None = None
    behavior: str = BEHAVIOR_RAISE

    def __post_init__(self):
        if self.hits is None and self.probability is None:
            object.__setattr__(self, "hits", (1,))


@dataclass(frozen=True)
class FiredFault:
    """A record of one injected failure, for assertions and replay."""

    site: str
    function: str
    hit: int
    behavior: str = BEHAVIOR_RAISE


class FaultPlan:
    """A seeded, addressable schedule of injected failures."""

    def __init__(self, specs: list[FaultSpec] | None = None, seed: int = 0):
        self.specs = list(specs or ())
        self.seed = seed
        self._rng = random.Random(seed)
        self._hits: dict[str, int] = {}
        self.fired: list[FiredFault] = []
        # Sites are hit from speculation worker threads as well as the
        # foreground session; counters and the seeded stream share a lock
        # so replays stay deterministic under any single-site schedule.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def compile_fault(
        cls, site: str = SITE_JIT, hit: int = 1,
        function: str | None = None, seed: int = 0,
    ) -> "FaultPlan":
        """Fail the Nth entry into one compiler."""
        return cls([FaultSpec(site=site, hits=(hit,), function=function)], seed=seed)

    @classmethod
    def runtime_fault(
        cls, helper: str = "*", hit: int = 1, seed: int = 0,
    ) -> "FaultPlan":
        """Fail the Nth call of one runtime helper (``"*"`` = any helper)."""
        return cls([FaultSpec(site=RT_PREFIX + helper, hits=(hit,))], seed=seed)

    @classmethod
    def worker_fault(
        cls, hit: int = 1, function: str | None = None, seed: int = 0,
    ) -> "FaultPlan":
        """Fail the Nth task a background speculation worker picks up."""
        return cls(
            [FaultSpec(site=SITE_WORKER, hits=(hit,), function=function)],
            seed=seed,
        )

    @classmethod
    def cache_fault(
        cls, site: str = SITE_CACHE_STORE, hit: int = 1, seed: int = 0,
    ) -> "FaultPlan":
        """Fail the Nth cache (de)serialization."""
        return cls([FaultSpec(site=site, hits=(hit,))], seed=seed)

    @classmethod
    def kernel_fault(
        cls, site: str = SITE_KERNEL_RUN, hit: int = 1, seed: int = 0,
    ) -> "FaultPlan":
        """Fail the Nth fused-kernel compile or dispatch."""
        return cls([FaultSpec(site=site, hits=(hit,))], seed=seed)

    @classmethod
    def native_fault(
        cls, site: str = SITE_NATIVE_RUN, hit: int = 1, seed: int = 0,
    ) -> "FaultPlan":
        """Fail the Nth native-tier compile, ``.so`` load or dispatch."""
        return cls([FaultSpec(site=site, hits=(hit,))], seed=seed)

    @classmethod
    def parallel_fault(
        cls,
        site: str = SITE_PARALLEL_WORKER,
        behavior: str = BEHAVIOR_RAISE,
        hit: int = 1,
        seed: int = 0,
    ) -> "FaultPlan":
        """Fail the Nth parallel-backend send/recv/worker task."""
        return cls(
            [FaultSpec(site=site, hits=(hit,), behavior=behavior)], seed=seed
        )

    @classmethod
    def tiering_fault(
        cls, hit: int = 1, function: str | None = None, seed: int = 0,
    ) -> "FaultPlan":
        """Fail the Nth adaptive-tiering promotion attempt."""
        return cls(
            [FaultSpec(site=SITE_TIERING_PROMOTE, hits=(hit,),
                       function=function)],
            seed=seed,
        )

    @classmethod
    def chaos_fault(
        cls,
        site: str,
        behavior: str | None = None,
        hit: int = 1,
        function: str | None = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """One resilience fault: site + failure mode.  The behaviour
        defaults to the site's natural mode (``hang`` hangs, ``crash``
        crashes, ``oom`` raises MemoryError, cache sites corrupt/tear)."""
        if behavior is None:
            behavior = {
                SITE_HANG: BEHAVIOR_HANG,
                SITE_CRASH: BEHAVIOR_CRASH,
                SITE_OOM: BEHAVIOR_OOM,
                SITE_CACHE_CORRUPT: BEHAVIOR_CORRUPT,
                SITE_CACHE_PARTIAL: BEHAVIOR_RAISE,
            }.get(site, BEHAVIOR_RAISE)
        return cls(
            [FaultSpec(site=site, hits=(hit,), function=function,
                       behavior=behavior)],
            seed=seed,
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Rewind hit counters and the seeded stream for exact replay."""
        with self._lock:
            self._rng = random.Random(self.seed)
            self._hits.clear()
            self.fired.clear()

    def runtime_helpers(self) -> list[str]:
        """Helper names addressed by runtime specs ("*" for the wildcard)."""
        return [
            spec.site[len(RT_PREFIX):]
            for spec in self.specs
            if spec.site.startswith(RT_PREFIX)
        ]

    # ------------------------------------------------------------------
    def _tally(self, site: str, function: str) -> FiredFault | None:
        """Count one hit of ``site`` and return the fired record, if any.
        Must run under the lock; the behaviour itself executes outside it
        (a hang must not wedge every other thread's fault checks)."""
        hit = self._hits.get(site, 0) + 1
        self._hits[site] = hit
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.function is not None and function and spec.function != function:
                continue
            if spec.hits is not None:
                fire = hit in spec.hits
            else:
                fire = self._rng.random() < (spec.probability or 0.0)
            if fire:
                record = FiredFault(
                    site=site, function=function, hit=hit,
                    behavior=spec.behavior,
                )
                self.fired.append(record)
                return record
        return None

    def check(self, site: str, function: str = "") -> None:
        """Count one hit of ``site``; execute the scheduled failure
        behaviour (raise/hang/crash/oom/io_error) if any spec fires."""
        with self._lock:
            record = self._tally(site, function)
        if record is None:
            return
        message = (
            f"injected fault at {site}"
            + (f" in '{function}'" if function else "")
            + f" (hit {record.hit})"
        )
        behavior = record.behavior
        if behavior == BEHAVIOR_HANG:
            # Busy loop with short sleeps: every iteration is a bytecode
            # boundary, so a watchdog's asynchronous DeadlineExceeded
            # lands within ~1ms.  Bounded so an unguarded run eventually
            # degrades into a plain absorbable fault.
            end = time.monotonic() + HANG_LIMIT_SECONDS
            while time.monotonic() < end:
                time.sleep(0.0005)
            raise InjectedFault(message + " [hang expired unguarded]")
        if behavior == BEHAVIOR_CRASH:
            raise SimulatedCrash(message)
        if behavior == BEHAVIOR_OOM:
            raise MemoryError(message)
        if behavior == BEHAVIOR_IO:
            raise OSError(message)
        raise InjectedFault(message)

    def fires(self, site: str, function: str = "") -> bool:
        """Count one hit of ``site``; report (not raise) whether a spec
        fired.  Sites whose failure mode is enacted by the caller — e.g.
        a torn cache write — use this instead of :meth:`check`."""
        with self._lock:
            return self._tally(site, function) is not None

    def filter_bytes(self, site: str, function: str, payload: bytes) -> bytes:
        """Count one hit of ``site``; return ``payload`` mangled if a spec
        fired (the ``cache.corrupt`` model: bytes read back from disk are
        not the bytes written)."""
        with self._lock:
            record = self._tally(site, function)
        if record is None:
            return payload
        mutated = bytearray(payload)
        mid = len(mutated) // 2
        for index in range(mid, min(mid + 16, len(mutated))):
            mutated[index] ^= 0xFF
        if not mutated:
            mutated = bytearray(b"\xff")
        return bytes(mutated)

    def absorb_fired(self, records) -> None:
        """Merge fired-fault records reported by another process (the
        sandbox trial child) into this plan's tally."""
        with self._lock:
            self.fired.extend(records)

    def hit_count(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)
