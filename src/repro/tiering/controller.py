"""The online tier controller (profile-guided adaptive tiering).

MaJIC's thesis is that *when* to compile matters as much as *how*: the JIT
buys responsiveness, the speculative compiler buys speed, and the paper's
user chooses between them by hand (``speculate_all()`` up front vs. lazy
``jit_compile`` on first call).  The controller closes that loop.  It
watches every call the repository serves — which tier ran it and how long
it took — and drives functions up the tier ladder

    interpreter  →  JIT  →  optimizing srcgen (spec)

in the background, out-of-band on the :class:`SpeculationEngine` worker
pool, while the native C kernel tier rides the same hotness substrate
inside :class:`~repro.native.engine.NativeEngine`.  Demotion is measured,
not assumed: a compiled tier whose EWMA latency is worse than the
interpreter's is suppressed, and the PR 1 strike/deopt chain (quarantine
events) pins misbehaving functions to the interpreter outright.

Every switch stays behind the guarded-deopt chain — the controller only
decides *which* version the repository serves; correctness is still
enforced per call, so results remain bit-identical to the interpreter
mid-stream.

Learned profiles (hotness score + winning tier + the promoting signature)
persist as blobs in the content-addressed :class:`RepositoryCache`: a warm
session restores them at first *dispatch* of each function — inline, since
the re-launched winning-tier compile lands as a disk-cache hit — so even
the first call runs at the learned tier: no recompiles, no warmup ramp.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import MatlabError
from repro.faults.plan import SITE_TIERING_PROMOTE
from repro.obs import DISABLED as DISABLED_OBS
from repro.obs import TIER_INTERPRETER, TIER_JIT, TIER_SPEC
from repro.repository.background import run_out_of_band
from repro.repository.cache import cache_key, function_source_text
from repro.repository.diagnostics import (
    QUARANTINE,
    TIER_DEMOTE,
    TIER_PROMOTE,
)
from repro.tiering.hotness import HotnessCounter

#: Signature tag under which profiles are content-addressed in the cache.
PROFILE_TAG = "tiering-profile"

#: The function-tier ladder (native is a kernel tier, not a function tier:
#: it rides inside compiled objects via the NativeEngine and shares the
#: controller's kernel hotness counter).
LADDER = (TIER_INTERPRETER, TIER_JIT, TIER_SPEC)
_RANK = {tier: rank for rank, tier in enumerate(LADDER)}


@dataclass(frozen=True)
class TieringPolicy:
    """Thresholds and decay knobs for the adaptive controller.

    Hotness is a decayed call count (see :class:`HotnessCounter`), so the
    thresholds read as "roughly this many recent calls".  ``demote_margin``
    is the slowdown factor versus the interpreter's EWMA latency that
    triggers a measured demotion; each demotion backs the re-promotion
    threshold off by ``redemote_backoff``×, and after ``max_demotions``
    measured demotions the function is pinned to the interpreter.
    """

    jit_threshold: float = 3.0       # hotness before interpreter -> jit
    spec_threshold: float = 12.0     # hotness before jit -> spec
    native_hot_threshold: int = 2    # kernel dispatches before a C compile
    decay_interval: int = 512        # observations between decay sweeps
    decay_factor: float = 0.5        # score multiplier per sweep
    ewma_alpha: float = 0.3          # per-tier latency smoothing
    min_samples: int = 4             # samples per tier before demoting
    demote_margin: float = 1.5       # compiled slower than interp by this
    redemote_backoff: float = 2.0    # threshold growth per demotion
    max_demotions: int = 2           # measured demotions before pinning


class _FunctionState:
    """Controller-side view of one function (guarded by the controller
    lock; ``tier`` is the highest tier whose compile has *landed*, which
    can trail what the repository is already serving)."""

    __slots__ = (
        "tier", "inflight", "failed", "ewma", "samples", "demotions",
        "suppressed", "pinned", "profiled", "signature", "from_profile",
    )

    def __init__(self):
        self.tier = TIER_INTERPRETER
        self.inflight: set[str] = set()
        self.failed: set[str] = set()
        self.ewma: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.demotions = 0
        self.suppressed = False
        self.pinned = False
        self.profiled = False
        self.signature = None
        self.from_profile = False


class TierController:
    """Online promotion/demotion across the execution tiers.

    ``submit(fn, label, on_done)`` is the session's bridge to the
    supervised :class:`SpeculationEngine` pool; with ``sync=True`` (or no
    bridge) promotion compiles run inline at the decision point, which the
    deterministic fault-injection and differential harnesses rely on.
    """

    def __init__(
        self,
        policy: TieringPolicy | None = None,
        obs=None,
        fault_plan=None,
        sync: bool = False,
        submit=None,
    ):
        self.policy = policy if policy is not None else TieringPolicy()
        self.obs = obs if obs is not None else DISABLED_OBS
        self.fault_plan = fault_plan
        self.sync = sync
        self._submit = submit
        interval = self.policy.decay_interval
        factor = self.policy.decay_factor
        self.hotness = HotnessCounter(interval, factor)
        self.kernel_hotness = HotnessCounter(interval, factor)
        self.repo = None
        self.cache = None
        self._states: dict[str, _FunctionState] = {}
        self._lock = threading.RLock()
        self.promotions = 0
        self.demotions = 0
        self.profile_restores = 0
        self.profiles_saved = 0

    # ------------------------------------------------------------------
    def bind(self, repo) -> None:
        """Attach to a repository (done by the session after both exist,
        so neither module imports the other)."""
        self.repo = repo
        self.cache = repo.cache
        repo.tiering = self
        repo.diagnostics.add_listener(self._on_event)

    # ------------------------------------------------------------------
    # The per-call hooks (called by CodeRepository.execute)
    # ------------------------------------------------------------------
    def suppressed(self, name: str) -> bool:
        state = self._states.get(name)
        return state is not None and state.suppressed

    def prepare(self, name: str) -> None:
        """Warm-path hook, called by the repository on the first dispatch
        of ``name``: restore any persisted profile *inline* so the very
        first call is already served at the learned tier.  The restore's
        compiles are persistent-cache hits, so the foreground cost is a
        disk load, not a compile."""
        with self._lock:
            state = self._states.get(name)
            if state is None:
                state = self._states[name] = _FunctionState()
            if state.profiled:
                return
            state.profiled = True
        self._restore_profile(name, state, inline=True)

    def restore_all(self) -> int:
        """Eagerly restore persisted profiles for every known function —
        the warm-session analogue of ``speculate_all``, except every
        relaunched compile is a disk-cache hit.  Lazy first-dispatch
        restoration makes this optional; calling it up front just moves
        the (small) restore cost off the first call of each function.
        Returns the number of profiles restored."""
        if self.repo is None or self.cache is None:
            return 0
        before = self.profile_restores
        for name in self.repo.function_names():
            self.prepare(name)
        return self.profile_restores - before

    def observe(self, invocation, tier: str, seconds: float) -> None:
        """Record one served call: which tier ran it, and how long."""
        name = invocation.name
        alpha = self.policy.ewma_alpha
        with self._lock:
            state = self._states.get(name)
            if state is None:
                state = self._states[name] = _FunctionState()
            prev = state.ewma.get(tier)
            state.ewma[tier] = (
                seconds if prev is None else prev + alpha * (seconds - prev)
            )
            state.samples[tier] = state.samples.get(tier, 0) + 1
            probe = not state.profiled
            state.profiled = True
        score = self.hotness.record(name)
        if probe:
            self._restore_profile(name, state)
            score = self.hotness.score(name)
        self._consider(name, state, tier, score, invocation)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _consider(self, name, state, tier, score, invocation) -> None:
        policy = self.policy
        demote = None
        target = None
        with self._lock:
            if state.pinned:
                return
            backoff = policy.redemote_backoff ** state.demotions
            if state.suppressed:
                # A demoted function can earn its way back, but the bar
                # rises with every measured demotion.
                if score >= policy.jit_threshold * backoff:
                    state.suppressed = False
                return
            if tier in (TIER_JIT, TIER_SPEC):
                interp = state.ewma.get(TIER_INTERPRETER)
                compiled = state.ewma.get(tier)
                if (
                    interp is not None
                    and compiled is not None
                    and state.samples.get(TIER_INTERPRETER, 0)
                    >= policy.min_samples
                    and state.samples.get(tier, 0) >= policy.min_samples
                    and compiled > interp * policy.demote_margin
                ):
                    demote = (tier, compiled, interp)
            if demote is None:
                if (
                    state.tier == TIER_INTERPRETER
                    and TIER_JIT not in state.inflight
                    and TIER_JIT not in state.failed
                    and score >= policy.jit_threshold * backoff
                ):
                    target = TIER_JIT
                elif (
                    state.tier == TIER_JIT
                    and TIER_SPEC not in state.inflight
                    and TIER_SPEC not in state.failed
                    and score >= policy.spec_threshold * backoff
                ):
                    target = TIER_SPEC
        if demote is not None:
            self._demote(name, state, *demote)
            return
        if target is None:
            return
        repo = self.repo
        if repo is None or name in repo._uncompilable:
            return
        signature = invocation.signature if target == TIER_JIT else None
        self._begin(name, state, target, signature)

    def _begin(self, name, state, target, signature, inline=False) -> None:
        with self._lock:
            if target in state.inflight or target in state.failed:
                return
            state.inflight.add(target)
            if signature is not None:
                state.signature = signature

        def promote():
            self._landed(name, target,
                         self._run_promotion(name, target, signature))

        def abandoned(success: bool) -> None:
            # Fires when the pool dropped the task (cancel, poison, or a
            # crash that exhausted its retries) before it could land.
            if not success:
                self._landed(name, target, False)

        run_out_of_band(
            self._submit, inline or self.sync, promote,
            f"tier:{target}:{name}", abandoned,
        )

    # ------------------------------------------------------------------
    # Promotion execution (worker thread in async mode)
    # ------------------------------------------------------------------
    def _run_promotion(self, name, target, signature) -> bool:
        repo = self.repo
        try:
            with self.obs.tracer.span(
                name, "tiering", function=name, tier=target
            ):
                if self.fault_plan is not None:
                    self.fault_plan.check(SITE_TIERING_PROMOTE, name)
                if target == TIER_JIT:
                    obj = repo.jit_compile(name, signature)
                else:
                    obj = repo.speculate(name)
                if obj is None:
                    # Failed, or dropped because the source was redefined
                    # mid-compile: not landed.
                    return False
        except MatlabError as exc:
            # Expected compile rejection (unsupported construct): the
            # function can never hold a compiled version, so stop trying.
            with repo._lock:
                repo._uncompilable.add(name)
            repo._record_compile_failure(name, target, exc, signature)
            return False
        except Exception as exc:  # noqa: BLE001 - promotion is best-effort
            repo.diagnostics.record(
                TIER_PROMOTE, name,
                detail=f"promotion to {target} aborted; staying on the "
                "current tier",
                cause=exc,
            )
            return False
        return True

    def _landed(self, name, target, ok: bool) -> None:
        promoted = False
        with self._lock:
            state = self._states.get(name)
            if state is None or target not in state.inflight:
                return
            state.inflight.discard(target)
            if not ok:
                state.failed.add(target)
            else:
                if (
                    _RANK.get(target, 0) > _RANK.get(state.tier, 0)
                    and not state.suppressed
                ):
                    state.tier = target
                self.promotions += 1
                promoted = True
        if promoted:
            self.repo.diagnostics.record(
                TIER_PROMOTE, name,
                detail=f"promoted to {target} "
                f"(hotness {self.hotness.score(name):.1f})",
            )
            self.obs.record_promotion(target)

    def _demote(self, name, state, tier, compiled, interp) -> None:
        with self._lock:
            if state.suppressed or state.pinned:
                return
            state.demotions += 1
            state.suppressed = True
            state.tier = TIER_INTERPRETER
            state.ewma.pop(tier, None)
            state.samples[tier] = 0
            if state.demotions > self.policy.max_demotions:
                state.pinned = True
            pinned = state.pinned
            self.demotions += 1
        # The repository consults ``suppressed`` only when its hot-call
        # cache misses, so the demoted version must leave that cache.
        self.repo._fast_cache.pop(name, None)
        self.hotness.forget(name)
        self.repo.diagnostics.record(
            TIER_DEMOTE, name,
            detail=f"{tier} ewma {compiled * 1e3:.3f}ms vs interpreter "
            f"{interp * 1e3:.3f}ms; serving from the interpreter"
            + (" (pinned)" if pinned else ""),
        )
        self.obs.record_demotion("slower")

    # ------------------------------------------------------------------
    # Strike/deopt chain feedback
    # ------------------------------------------------------------------
    def _on_event(self, event) -> None:
        if event.kind != QUARANTINE:
            return
        with self._lock:
            state = self._states.get(event.function)
            if state is None or state.pinned:
                return
            state.tier = TIER_INTERPRETER
            state.suppressed = True
            state.pinned = True
            self.demotions += 1
        self.obs.record_demotion("quarantine")

    # ------------------------------------------------------------------
    # Persistent profiles
    # ------------------------------------------------------------------
    def _profile_key(self, name: str) -> str | None:
        repo, cache = self.repo, self.cache
        if repo is None or cache is None:
            return None
        try:
            fn = repo._prepared(name)
        except Exception:  # noqa: BLE001 - unparseable/unknown: no profile
            return None
        return cache_key(
            function_source_text(fn), PROFILE_TAG, repo._options_fingerprint()
        )

    def _restore_profile(self, name, state, inline=False) -> None:
        key = self._profile_key(name)
        if key is None:
            return
        blob = self.cache.get_blob(key)
        if not isinstance(blob, dict):
            return
        tier = blob.get("tier")
        score = float(blob.get("hotness", 0.0))
        signature = blob.get("signature")
        self.hotness.seed(name, score)
        with self._lock:
            state.from_profile = True
            self.profile_restores += 1
        self.obs.record_profile_restore()
        self.repo.diagnostics.record(
            TIER_PROMOTE, name,
            detail=f"warm profile restored (tier {tier}, "
            f"hotness {score:.1f}); re-launching the winning tier",
        )
        # Jump straight to the learned verdict: these compiles land as
        # persistent-cache hits, so the warm session pays no recompiles.
        # Only the *winning* tier is restored inline (it decides what the
        # next call serves); the jit fallback behind a spec winner can
        # land out-of-band — _landed is rank-monotonic, so a late jit
        # never downgrades the tier.
        if tier == TIER_SPEC:
            self._begin(name, state, TIER_SPEC, None, inline=inline)
            if signature is not None:
                self._begin(name, state, TIER_JIT, signature)
        elif tier == TIER_JIT and signature is not None:
            self._begin(name, state, TIER_JIT, signature, inline=inline)

    def save(self) -> int:
        """Persist hotness + winning-tier verdicts; returns blobs written."""
        if self.cache is None or self.repo is None:
            return 0
        with self._lock:
            items = list(self._states.items())
        saved = 0
        for name, state in items:
            if (
                state.suppressed
                or state.pinned
                or state.tier == TIER_INTERPRETER
            ):
                continue
            key = self._profile_key(name)
            if key is None:
                continue
            payload = {
                "tier": state.tier,
                "hotness": self.hotness.score(name),
                "signature": state.signature,
                "saved_at": time.time(),
            }
            if self.cache.put_blob(key, payload):
                saved += 1
        self.profiles_saved = saved
        return saved

    # ------------------------------------------------------------------
    # Introspection (MajicSession.summary())
    # ------------------------------------------------------------------
    def tier_of(self, name: str) -> str:
        with self._lock:
            state = self._states.get(name)
            if state is None or state.suppressed:
                return TIER_INTERPRETER
            return state.tier

    def report(self) -> dict:
        with self._lock:
            tiers = {
                name: (
                    TIER_INTERPRETER if state.suppressed else state.tier
                )
                for name, state in self._states.items()
            }
            restored = sum(
                1 for state in self._states.values() if state.from_profile
            )
        counts: dict[str, int] = {}
        for tier in tiers.values():
            counts[tier] = counts.get(tier, 0) + 1
        return {
            "functions": tiers,
            "counts": counts,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "profile_restores": restored,
            "kernels_tracked": len(self.kernel_hotness),
        }
