"""The native execution tier: compile, autotune, cache, dispatch, fall back.

A :class:`NativeEngine` sits *in front of* the Python fused kernels: both
consumers (the interpreter's fused fast path and the ``rt.kernel_<hash>``
dispatch in generated code) offer it every fused-kernel call, and it
either serves the call from a loaded ``.so`` or returns ``None`` — in
which case the caller runs the Python kernel exactly as before.  Every
possible native failure (no toolchain, ineligible tree, compile error,
corrupt artifact, load fault, guard mismatch, sqrt domain widening, a
fault injected at any ``native.*`` site) lands on that same ``None``
path, which is what makes the tier safe: the fallback *is* the
bit-identity reference.

Lifecycle of one kernel:

1. Dispatches count hotness; at ``hot_threshold`` the kernel is queued
   for an out-of-band compile (the session wires ``submit`` to the
   ``SpeculationEngine`` worker pool so the foreground never blocks;
   ``sync=True`` compiles inline for deterministic tests).
2. The compile decodes the canonical key back into a tree, checks
   eligibility, and probes the content-addressed artifact store — a warm
   session loads the previously autotuned ``.so`` and compiles nothing.
3. On a cold miss the autotuner builds the 2–3 variants of
   :data:`~repro.native.clower.VARIANTS` (all bit-identical by
   construction), times them on synthetic data, persists the winner's
   ``.so`` and flags, and loads it.
4. Before first in-process use the fresh ``.so`` runs once in a forked
   trial child (where ``os.fork`` exists): a crashing artifact kills the
   fork, is evicted from the store, and the kernel is marked failed.
5. Ready dispatches revalidate operands per call (float64, conforming
   shapes, real scalars) and fall back on any mismatch — a shape error
   must surface from the Python kernel with its exact message.
"""

from __future__ import annotations

import ctypes
import os
import signal
import tempfile
import threading
import time
from collections import Counter

import numpy as np

from repro.faults.plan import (
    SITE_NATIVE_COMPILE,
    SITE_NATIVE_LOAD,
    SITE_NATIVE_RUN,
)
from repro.kernels.codegen import _scal
from repro.kernels.fusion import DESC_BOXED, decode
from repro.native.artifacts import NativeArtifactStore, artifact_key
from repro.native.clower import VARIANTS, generate_c, native_eligible
from repro.native.toolchain import Toolchain, detect_toolchain
from repro.obs import DISABLED as DISABLED_OBS
from repro.repository.background import run_out_of_band
from repro.runtime.mxarray import IntrinsicClass, MxArray

#: Operators whose result is logical (mirrors the Python codegen).
from repro.kernels.codegen import _BOOL_OPS

#: How many consecutive run failures demote a ready kernel to failed.
MAX_RUN_STRIKES = 3

#: Hard subprocess timeout (seconds) on one out-of-band C compile: the
#: watchdog for work that happens in a child process.
COMPILE_DEADLINE = 60.0

#: Element count and repetitions for the autotune timing loop.
AUTOTUNE_N = 4096
AUTOTUNE_REPS = 5

#: Default size cutoff for native dispatch.  Measured on the qmr-style
#: AXPY chain: below ~8k elements the per-call overhead (operand guard,
#: ctypes marshalling, result boxing) exceeds what the single-pass loop
#: saves over numpy, and the Python kernel wins; by 16k the native
#: kernel is ~3x faster (no temporaries, one traversal).
DEFAULT_MIN_ELEMS = 8192


class _ReadyKernel:
    """One loaded native kernel, ready to dispatch."""

    __slots__ = (
        "name", "key", "descs", "bool_root", "cfn", "lib",
        "variant", "flags", "artifact", "strikes", "observe",
    )

    def __init__(self, name, key, descs, bool_root, cfn, lib,
                 variant, flags, artifact, observe=None):
        self.name = name
        self.key = key
        self.descs = descs
        self.bool_root = bool_root
        self.cfn = cfn
        self.lib = lib          # keep the CDLL alive with the binding
        self.variant = variant
        self.flags = flags
        self.artifact = artifact
        self.strikes = 0
        self.observe = observe  # run-latency push; None with metrics off


class NativeEngine:
    """Per-session native tier: state machine + dispatcher."""

    def __init__(
        self,
        toolchain: Toolchain | None = None,
        store: NativeArtifactStore | None = None,
        fault_plan=None,
        obs=None,
        policy=None,
        submit=None,
        sync: bool = False,
        hot_threshold: int = 2,
        min_elems: int | None = None,
        probe: bool = True,
        hotness=None,
    ):
        if toolchain is None and probe:
            toolchain = detect_toolchain()
        if policy is None:
            from repro.resilience import DEFAULT_POLICY

            policy = DEFAULT_POLICY
        self.toolchain = toolchain
        self.store = store
        self.fault_plan = fault_plan
        self.obs = obs if obs is not None else DISABLED_OBS
        self.policy = policy
        self.submit = submit
        self.sync = sync
        self.hot_threshold = max(1, int(hot_threshold))
        # Below this element count the per-call dispatch overhead (guard
        # + ctypes marshal + boxing) outweighs the single-pass loop and
        # the Python kernel is simply faster; such calls opt out early.
        self.min_elems = max(
            1, int(DEFAULT_MIN_ELEMS if min_elems is None else min_elems)
        )
        self.enabled = toolchain is not None
        self._lock = threading.Lock()
        #: kernel name -> "queued" | "ready" | "failed" | "ineligible"
        self._state: dict[str, str] = {}
        self._ready: dict[str, _ReadyKernel] = {}
        # Per-kernel dispatch hotness.  The session passes the adaptive
        # controller's shared kernel counter here (repro.tiering); a
        # standalone engine builds a private one with no decay horizon
        # worth tuning (the old ad-hoc dict behaved the same way).
        if hotness is None:
            from repro.tiering.hotness import HotnessCounter

            hotness = HotnessCounter()
        self.hotness = hotness
        # Outcome tallies, the one count of each fact: ``stats()`` and
        # the session's ``majic_native_*`` / watchdog views read them
        # ("cached" loads in a warm session must be > 0 with zero
        # "compiled" for the warm-start acceptance gate).
        self.compiles = Counter()          # by result
        self.fallbacks = Counter()         # by reason
        self.compile_timeouts = Counter()  # by watchdog kind
        self.runs = 0
        self.obs.attach(native=self)
        self.errors: list[tuple[str, str]] = []
        # Hot-path switch: only check the native.run site when a spec
        # actually addresses it (plan.check takes a lock).
        self._run_fault = fault_plan is not None and any(
            spec.site == SITE_NATIVE_RUN for spec in fault_plan.specs
        )

    # ------------------------------------------------------------------
    # Dispatch (both consumers call this per fused-kernel invocation)
    # ------------------------------------------------------------------
    def dispatch(self, kernel, args):
        """Serve one fused-kernel call natively, or return ``None``.

        ``kernel`` is the :class:`~repro.kernels.cache.CompiledKernel`
        the Python tier would run; ``args`` its operands (boxed MxArrays
        and raw scalars, per the kernel's descriptor vector).
        """
        if not self.enabled:
            return None
        name = kernel.name
        record = self._ready.get(name)
        if record is not None:
            return self._run(record, args)
        if self._first_size(args) < self.min_elems:
            # Too small to ever pay off — don't even heat the counter,
            # so perpetually-tiny kernels cost no compile.
            return None
        with self._lock:
            state = self._state.get(name)
            if state is not None:
                return None
        count = self.hotness.record(name)
        with self._lock:
            if self._state.get(name) is not None:
                return None
            if count < self.hot_threshold or not kernel.key:
                return None
            self._state[name] = "queued"
        key = kernel.key
        run_out_of_band(
            self.submit, self.sync,
            lambda: self.compile_now(name, key), f"native:{name}",
        )
        return None

    # ------------------------------------------------------------------
    # Compilation (out-of-band; only ``sync`` sessions run it inline)
    # ------------------------------------------------------------------
    def compile_now(self, name: str, key: str) -> bool:
        """Build-or-revive one kernel; returns True when it went ready."""
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._compile_raw(name, key)
        with tracer.span(name, "native-compile", function=name):
            return self._compile_raw(name, key)

    def _compile_raw(self, name: str, key: str) -> bool:
        try:
            if self.fault_plan is not None:
                self.fault_plan.check(SITE_NATIVE_COMPILE, name)
            root, descs = decode(key)
            if not native_eligible(root):
                self._finish(name, "ineligible")
                return False
            akey = artifact_key(key, self.toolchain.ident)
            bool_root = root.op in _BOOL_OPS
            cached = self.store.load(akey) if self.store is not None else None
            if cached is not None:
                so_path, meta = cached
                record = self._load(
                    name, key, descs, bool_root, os.fspath(so_path),
                    meta.get("variant", "?"),
                    tuple(meta.get("flags", ())), akey, fresh=False,
                )
                self._go_ready(name, record, "cached")
                return True
            so_path, variant, flags = self._autotune(name, key, root, descs, akey)
            record = self._load(
                name, key, descs, bool_root, so_path, variant, flags, akey,
                fresh=True,
            )
            self._go_ready(name, record, "compiled")
            return True
        except Exception as exc:  # noqa: BLE001 - every failure is a fallback
            self._finish(name, "failed")
            self.errors.append((name, repr(exc)))
            return False

    def _go_ready(self, name: str, record: _ReadyKernel, result: str) -> None:
        with self._lock:
            self._ready[name] = record
            self._state[name] = "ready"
            self.compiles[result] += 1

    def _finish(self, name: str, state: str) -> None:
        with self._lock:
            self._state[name] = state
            self.compiles[state] += 1

    # ------------------------------------------------------------------
    def _autotune(self, name, key, root, descs, akey):
        """Build every variant, time them, persist and return the winner.

        All variants are bit-identical by construction (shared IEEE
        safety flags), so the tuner is free to pick purely on speed.
        """
        with tempfile.TemporaryDirectory(prefix="majic-native-") as tmp:
            candidates = []
            for tag, unroll, flags in VARIANTS:
                c_path = os.path.join(tmp, f"{name}-{tag}.c")
                so_path = os.path.join(tmp, f"{name}-{tag}.so")
                with open(c_path, "w") as handle:
                    handle.write(generate_c(name, root, descs, unroll=unroll))
                try:
                    self.toolchain.compile_shared(
                        c_path, so_path, flags=flags, timeout=COMPILE_DEADLINE
                    )
                except Exception as exc:  # noqa: BLE001 - variant-local failure
                    from repro.native.toolchain import CompileTimeout

                    if isinstance(exc, CompileTimeout):
                        self.compile_timeouts["native-compile"] += 1
                    continue
                candidates.append((tag, flags, so_path))
            if not candidates:
                raise RuntimeError(f"all native variants failed for {name}")
            winner_tag, winner_flags, winner_so, timings = self._pick(
                name, descs, candidates
            )
            with open(winner_so, "rb") as handle:
                so_bytes = handle.read()
            stored = None
            if self.store is not None:
                stored = self.store.store(akey, so_bytes, {
                    "kernel": name,
                    "kernel_key": key,
                    "toolchain": self.toolchain.ident,
                    "variant": winner_tag,
                    "flags": list(winner_flags),
                    "timings": timings,
                })
            if stored is not None:
                return os.fspath(stored), winner_tag, winner_flags
            # No store (or store IO failure): load from a private copy
            # that outlives the temporary directory.
            fd, keep = tempfile.mkstemp(prefix=f"majic-{name}-", suffix=".so")
            with os.fdopen(fd, "wb") as handle:
                handle.write(so_bytes)
            return keep, winner_tag, winner_flags

    def _pick(self, name, descs, candidates):
        """Time each candidate ``.so`` on synthetic data; return the best."""
        args_np, out = self._synthetic_args(descs, AUTOTUNE_N)
        timings = {}
        best = None
        for tag, flags, so_path in candidates:
            try:
                lib = ctypes.CDLL(so_path)
                cfn = self._bind(lib, name, descs)
            except OSError:
                continue
            argv = self._argv(descs, args_np, AUTOTUNE_N, out)
            elapsed = float("inf")
            for _ in range(AUTOTUNE_REPS):
                start = time.perf_counter()
                status = cfn(*argv)
                elapsed = min(elapsed, time.perf_counter() - start)
                if status != 0:
                    elapsed = float("inf")
                    break
            timings[tag] = None if elapsed == float("inf") else elapsed
            if best is None or elapsed < best[0]:
                best = (elapsed, tag, flags, so_path)
        if best is None or best[0] == float("inf"):
            raise RuntimeError(f"no native variant of {name} survived tuning")
        return best[1], best[2], best[3], timings

    @staticmethod
    def _synthetic_args(descs, n):
        """Positive operand data (keeps sqrt in-domain during tuning)."""
        rng = np.random.default_rng(12345)
        args = []
        for desc in descs:
            if desc == DESC_BOXED:
                args.append(
                    np.ascontiguousarray(rng.uniform(0.5, 1.5, size=(1, n)))
                )
            else:
                args.append(1.25)
        return args, np.empty((1, n), dtype=np.float64)

    @staticmethod
    def _argv(descs, args_np, n, out):
        argv = [n]
        for desc, value in zip(descs, args_np):
            if desc == DESC_BOXED:
                argv.append(value.ctypes.data)
                argv.append(0 if value.size == 1 else 1)
            else:
                argv.append(value)
        argv.append(out.ctypes.data)
        return argv

    @staticmethod
    def _bind(lib, name, descs):
        """Bind with ``c_void_p`` pointer slots so the per-call argv is
        plain ints/floats (``ndarray.ctypes.data``) — building ctypes
        pointer objects per dispatch costs more than small kernels do."""
        cfn = getattr(lib, name)
        argtypes = [ctypes.c_long]
        for desc in descs:
            if desc == DESC_BOXED:
                argtypes.extend((ctypes.c_void_p, ctypes.c_long))
            else:
                argtypes.append(ctypes.c_double)
        argtypes.append(ctypes.c_void_p)
        cfn.argtypes = argtypes
        cfn.restype = ctypes.c_int
        return cfn

    # ------------------------------------------------------------------
    def _load(self, name, key, descs, bool_root, so_path, variant, flags,
              akey, fresh: bool) -> _ReadyKernel:
        """dlopen + bind + (for fresh artifacts) the forked trial run."""
        if self.fault_plan is not None:
            self.fault_plan.check(SITE_NATIVE_LOAD, name)
        try:
            lib = ctypes.CDLL(so_path)
            cfn = self._bind(lib, name, descs)
        except (OSError, AttributeError) as exc:
            # A cached artifact that no longer loads is quarantined so
            # the next session recompiles instead of tripping again.
            if self.store is not None:
                self.store.evict(akey)
            raise RuntimeError(f"native load of {name} failed: {exc}") from exc
        if fresh:
            self._trial(name, cfn, descs, akey)
        return _ReadyKernel(
            name, key, descs, bool_root, cfn, lib, variant, flags, akey,
            observe=self.obs.push("majic_native_run_seconds", kernel=name),
        )

    def _trial(self, name, cfn, descs, akey) -> None:
        """Sandbox the first run of a fresh ``.so`` in a forked child."""
        if not hasattr(os, "fork"):
            return
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                args_np, out = self._synthetic_args(descs, 8)
                status = cfn(*self._argv(descs, args_np, 8, out))
                if status in (0, 1) and np.all(np.isfinite(out) | np.isnan(out)):
                    code = 0
            except BaseException:
                code = 1
            os._exit(code)
        deadline = time.monotonic() + self.policy.sandbox_timeout
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:
                    pass
                if self.store is not None:
                    self.store.evict(akey)
                raise RuntimeError(f"native trial of {name} timed out")
            time.sleep(0.001)
        if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0):
            if self.store is not None:
                self.store.evict(akey)
            raise RuntimeError(
                f"native trial of {name} died (wait status {status})"
            )

    # ------------------------------------------------------------------
    # The ready-path run: guard, call, box — or fall back
    # ------------------------------------------------------------------
    def _run(self, record, args):
        try:
            if self._run_fault:
                self.fault_plan.check(SITE_NATIVE_RUN, record.name)
            if self._first_size(args) < self.min_elems:
                self.fallbacks["small"] += 1
                return None
            prepared = self._prepare(record.descs, args)
            if prepared is None:
                self.fallbacks["guard"] += 1
                return None
            buffers, shape = prepared
            n = shape[0] * shape[1]
            out = np.empty(shape, dtype=np.float64)
            argv = [n]
            for kind, value, stride in buffers:
                if kind == "b":
                    argv.append(value.ctypes.data)
                    argv.append(stride)
                else:
                    argv.append(value)
            argv.append(out.ctypes.data)
            observe = record.observe
            if observe is not None:
                start = time.perf_counter()
                status = record.cfn(*argv)
                observe(time.perf_counter() - start)
            else:
                status = record.cfn(*argv)
            if status != 0:
                # sqrt negative-domain: MATLAB widens the whole result to
                # complex; only the Python kernel replays that.
                self.fallbacks["domain"] += 1
                return None
            record.strikes = 0
            self.runs += 1
            return MxArray(
                IntrinsicClass.BOOL if record.bool_root else None, out
            )
        except Exception:  # noqa: BLE001 - any native defect is a fallback
            self.fallbacks["run_fault"] += 1
            record.strikes += 1
            if record.strikes >= MAX_RUN_STRIKES:
                with self._lock:
                    self._ready.pop(record.name, None)
                    self._state[record.name] = "failed"
                if self.store is not None:
                    self.store.evict(record.artifact)
            return None

    @staticmethod
    def _first_size(args):
        """Element count of the first array operand (the result size for
        conforming calls) — the cheap pre-guard for the size cutoff."""
        for value in args:
            if isinstance(value, MxArray) and not value.is_scalar:
                return value.view().size
        return 0

    @staticmethod
    def _prepare(descs, args):
        """Per-call operand validation; ``None`` falls back to Python.

        Native kernels only handle real float64 data with conforming
        (equal or scalar-broadcast) shapes; anything else — complex,
        strings, shape mismatches (which must raise the Python kernel's
        exact DimensionError), all-scalar trees — is not served natively.
        """
        if len(args) != len(descs):
            return None
        shape = None
        buffers = []
        for desc, value in zip(descs, args):
            if desc == DESC_BOXED:
                if not isinstance(value, MxArray) or value.is_string:
                    return None
                view = value.view()
                if view.dtype != np.float64:
                    return None
                if not view.flags.c_contiguous:
                    view = np.ascontiguousarray(view)
                if value.is_scalar:
                    buffers.append(("b", view, 0))
                else:
                    if shape is None:
                        shape = view.shape
                    elif view.shape != shape:
                        return None
                    buffers.append(("b", view, 1))
            else:
                if isinstance(value, MxArray):
                    return None
                scal = _scal(value)
                if isinstance(scal, complex):
                    return None
                buffers.append(("s", scal, None))
        if shape is None:
            return None
        return buffers, shape

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            summary = {
                result: self.compiles[result]
                for result in ("compiled", "cached", "failed", "ineligible")
            }
            summary["runs"] = self.runs
            summary["fallbacks"] = sum(self.fallbacks.values())
        summary["enabled"] = self.enabled
        summary["toolchain"] = (
            self.toolchain.ident if self.toolchain is not None else None
        )
        summary["ready"] = len(self._ready)
        if self.store is not None:
            summary["store"] = self.store.stats()
        return summary
