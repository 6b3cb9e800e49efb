"""The online tier controller (profile-guided adaptive tiering).

MaJIC's thesis is that *when* to compile matters as much as *how*: the JIT
buys responsiveness, the speculative compiler buys speed, and the paper's
user chooses between them by hand (``speculate_all()`` up front vs. lazy
``jit_compile`` on first call).  The controller closes that loop.  It
watches every call the repository serves — which tier ran it and how long
it took — and drives functions up the tier ladder

    interpreter  →  JIT  →  optimizing srcgen (spec)

in the background, out-of-band on the :class:`SpeculationEngine` worker
pool, while the native C kernel tier counts its own kernel dispatches
inside :class:`~repro.native.engine.NativeEngine`.  Demotion is measured,
not assumed: a compiled tier whose EWMA latency is worse than the
interpreter's is suppressed.

The controller keeps no copy of the repository's book: which versions a
function holds (:meth:`CodeRepository.held_mode`) and whether it may be
compiled (:meth:`CodeRepository.compile_verdict`) are asked per decision,
and what it does keep — latencies, measured demotions, the tiers it has
asked for — is discarded when the function's generation moves.  So a
redefinition, a deopt or a quarantine needs no notification.

Every switch stays behind the guarded-deopt chain — the controller only
decides *when to ask* for a version; correctness is still enforced per
call, so results remain bit-identical to the interpreter mid-stream.

Learned profiles (hotness score + winning tier + the promoting signature)
persist as blobs in the content-addressed :class:`RepositoryCache`: a warm
session restores them at first *dispatch* of each function — inline, since
the re-launched winning-tier compile lands as a disk-cache hit — so even
the first call runs at the learned tier: no recompiles, no warmup ramp.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass

from repro.faults.plan import SITE_TIERING_PROMOTE
from repro.obs import DISABLED as DISABLED_OBS
from repro.obs import TIER_INTERPRETER, TIER_JIT, TIER_SPEC
from repro.repository.background import run_out_of_band
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

#: Smoothing of the per-function, per-tier latency EWMA.
EWMA_ALPHA = 0.3


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
    decay_interval: int = 512        # observations between decay sweeps
    decay_factor: float = 0.5        # score multiplier per sweep
    min_samples: int = 4             # samples per tier before demoting
    demote_margin: float = 1.5       # compiled slower than interp by this
    redemote_backoff: float = 2.0    # threshold growth per demotion
    max_demotions: int = 2           # measured demotions before pinning


class _FunctionState:
    """What only the controller can know about one function, valid for
    one repository ``generation`` (guarded by the controller lock).

    ``asked`` holds the tiers requested that have not landed — in flight,
    or answered "not now": each is asked for once per generation.  A
    landing clears its entry, so a version later lost to a deopt is asked
    for again.
    """

    __slots__ = (
        "generation", "asked", "ewma", "samples", "demotions", "suppressed",
        "signature",
    )

    def __init__(self, generation: int = 0):
        self.generation = generation
        self.asked: set[str] = set()
        self.ewma: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.demotions = 0
        self.suppressed = False
        self.signature = None


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
        self.repo = None
        self._states: dict[str, _FunctionState] = {}
        self._lock = threading.RLock()
        # What the controller did, counted once: ``report()`` and the
        # session's ``majic_tier_*`` views read these.
        self.promoted = Counter()   # promotions landed, by destination tier
        self.demoted = Counter()    # demotions, by reason
        self.profile_restores = 0
        self.obs.attach(tiering=self)
        self.profiles_saved = 0

    # ------------------------------------------------------------------
    def bind(self, repo) -> None:
        """Attach to a repository (done by the session after both exist,
        so neither module imports the other)."""
        self.repo = repo
        repo.attach(self)
        repo.diagnostics.add_listener(self._count_quarantine)

    def _count_quarantine(self, event) -> None:
        """A quarantine counts as a demotion; what it *means* (nothing
        held, never compiled again) is read from the repository."""
        if event.kind == QUARANTINE:
            with self._lock:
                self.demoted["quarantine"] += 1

    def _state(self, name: str, create: bool = False):
        """The state learned under ``name``'s current generation; a moved
        generation discards it (measurements of dead source).  Hotness
        stays: it counts calls of the name, which keep coming."""
        generation = self.repo.generation_of(name)
        state = self._states.get(name)
        if state is None or state.generation != generation:
            if not create:
                return None
            with self._lock:
                state = self._states[name] = _FunctionState(generation)
        return state

    # ------------------------------------------------------------------
    # The per-call hooks (called by CodeRepository.execute)
    # ------------------------------------------------------------------
    def suppressed(self, name: str) -> bool:
        state = self._state(name)
        return state is not None and state.suppressed

    def prepare(self, name: str) -> None:
        """Warm-path hook, called by the repository when ``name`` misses
        the hot-call cache: on first sight of a generation, restore any
        persisted profile *inline* so the very first call is already
        served at the learned tier.  The restore's compiles are
        persistent-cache hits, so the foreground cost is a disk load, not
        a compile."""
        if self._state(name) is None:
            state = self._state(name, create=True)
            self._restore_profile(name, state, inline=True)

    def observe(self, invocation, tier: str, seconds: float) -> None:
        """Record one served call: which tier ran it, and how long."""
        name = invocation.name
        state = self._state(name, create=True)
        with self._lock:
            prev = state.ewma.get(tier)
            state.ewma[tier] = (
                seconds if prev is None else prev + EWMA_ALPHA * (seconds - prev)
            )
            state.samples[tier] = state.samples.get(tier, 0) + 1
        self._consider(name, state, tier, self.hotness.record(name), invocation)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _consider(self, name, state, tier, score, invocation) -> None:
        policy = self.policy
        repo = self.repo
        with self._lock:
            backoff = policy.redemote_backoff ** state.demotions
            if state.suppressed:
                # A demoted function can earn its way back, but the bar
                # rises with every measured demotion — and after
                # ``max_demotions`` of them it stays down.
                if (
                    state.demotions <= policy.max_demotions
                    and score >= policy.jit_threshold * backoff
                ):
                    state.suppressed = False
                return
            demote = None
            if tier != TIER_INTERPRETER:
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
        if demote is not None:
            self._demote(name, state, *demote)
            return
        # The next rung above what the repository holds *now*.
        rung = LADDER.index(repo.held_mode(name)) + 1
        if rung == len(LADDER):
            return
        target = LADDER[rung]
        threshold = (
            policy.jit_threshold if target == TIER_JIT
            else policy.spec_threshold
        )
        if (
            score >= threshold * backoff
            and target not in state.asked
            and repo.compile_verdict(name) != "uncompilable"
        ):
            signature = None
            if target == TIER_JIT:
                # Nothing is compiled for a call that leaves a formal
                # unset: leave the ask to the next full call.
                formals = repo.formal_count(name)
                if formals is not None and len(invocation.args) != formals:
                    return
                signature = invocation.signature
            self._begin(name, state, target, signature)

    def _begin(self, name, state, target, signature, inline=False) -> None:
        with self._lock:
            if target in state.asked:
                return
            state.asked.add(target)
            if signature is not None:
                state.signature = signature

        def promote():
            self._landed(name, state, target,
                         self._run_promotion(name, target, signature))

        def abandoned(success: bool) -> None:
            # Fires when the pool dropped the task (cancel, poison, or a
            # crash that exhausted its retries) before it could land.
            if not success:
                self._landed(name, state, target, False)

        run_out_of_band(
            self._submit, inline or self.sync, promote,
            f"tier:{target}:{name}", abandoned,
        )

    # ------------------------------------------------------------------
    # Promotion execution (worker thread in async mode)
    # ------------------------------------------------------------------
    def _run_promotion(self, name, target, signature) -> bool:
        """Ask the repository for one version; ``None`` means not now
        (its verdict is recorded there).  The only failure handled here
        is the promotion's own fault site."""
        repo = self.repo
        with self.obs.tracer.span(name, "tiering", function=name, tier=target):
            try:
                if self.fault_plan is not None:
                    self.fault_plan.check(SITE_TIERING_PROMOTE, name)
            except Exception as exc:  # noqa: BLE001 - promotion is best-effort
                repo.diagnostics.record(
                    TIER_PROMOTE, name,
                    detail=f"promotion to {target} aborted; staying on the "
                    "current tier",
                    cause=exc,
                )
                return False
            if target == TIER_JIT:
                return repo.jit_compile(name, signature) is not None
            return repo.speculate(name) is not None

    def _landed(self, name, state, target, ok: bool) -> None:
        with self._lock:
            if not ok or target not in state.asked:
                return
            state.asked.discard(target)
            self.promoted[target] += 1
        self.repo.diagnostics.record(
            TIER_PROMOTE, name,
            detail=f"promoted to {target} "
            f"(hotness {self.hotness.score(name):.1f})",
        )

    def _demote(self, name, state, tier, compiled, interp) -> None:
        with self._lock:
            if state.suppressed:
                return
            state.demotions += 1
            state.suppressed = True
            state.ewma.pop(tier, None)
            state.samples[tier] = 0
            pinned = state.demotions > self.policy.max_demotions
            self.demoted["slower"] += 1
        # The repository consults ``suppressed`` only when its hot-call
        # cache misses, so the demoted version must leave that cache.
        self.repo.unbind(name)
        self.hotness.forget(name)
        self.repo.diagnostics.record(
            TIER_DEMOTE, name,
            detail=f"{tier} ewma {compiled * 1e3:.3f}ms vs interpreter "
            f"{interp * 1e3:.3f}ms; serving from the interpreter"
            + (" (pinned)" if pinned else ""),
        )

    # ------------------------------------------------------------------
    # Persistent profiles
    # ------------------------------------------------------------------
    def _restore_profile(self, name, state, inline=False) -> None:
        key = self.repo.profile_key(name, PROFILE_TAG)
        if key is None:
            return
        blob = self.repo.cache.get_blob(key)
        if not isinstance(blob, dict):
            return
        tier = blob.get("tier")
        score = float(blob.get("hotness", 0.0))
        signature = blob.get("signature")
        self.hotness.seed(name, score)
        with self._lock:
            self.profile_restores += 1
        self.repo.diagnostics.record(
            TIER_PROMOTE, name,
            detail=f"warm profile restored (tier {tier}, "
            f"hotness {score:.1f}); re-launching the winning tier",
        )
        # Jump straight to the learned verdict: these compiles land as
        # persistent-cache hits, so the warm session pays no recompiles.
        # Only the *winning* tier is restored inline (it decides what the
        # next call serves); the jit fallback behind a spec winner can
        # land out-of-band.
        if tier == TIER_SPEC:
            self._begin(name, state, TIER_SPEC, None, inline=inline)
            if signature is not None:
                self._begin(name, state, TIER_JIT, signature)
        elif tier == TIER_JIT and signature is not None:
            self._begin(name, state, TIER_JIT, signature, inline=inline)

    def save(self) -> int:
        """Persist hotness + winning-tier verdicts; returns blobs written."""
        if self.repo is None or self.repo.cache is None:
            return 0
        with self._lock:
            names = list(self._states)
        saved = 0
        for name in names:
            state = self._state(name)
            tier = self.tier_of(name)
            if state is None or tier == TIER_INTERPRETER:
                continue
            key = self.repo.profile_key(name, PROFILE_TAG)
            if key is None:
                continue
            payload = {
                "tier": tier,
                "hotness": self.hotness.score(name),
                "signature": state.signature,
                "saved_at": time.time(),
            }
            if self.repo.cache.put_blob(key, payload):
                saved += 1
        self.profiles_saved = saved
        return saved

    # ------------------------------------------------------------------
    # Introspection (MajicSession.summary())
    # ------------------------------------------------------------------
    def tier_of(self, name: str) -> str:
        """The tier serving ``name``: the interpreter while a measured
        demotion suppresses it, else the best mode the repository holds."""
        if self.suppressed(name):
            return TIER_INTERPRETER
        return self.repo.held_mode(name)

    @property
    def promotions(self) -> int:
        return sum(self.promoted.values())

    @property
    def demotions(self) -> int:
        return sum(self.demoted.values())

    def report(self) -> dict:
        with self._lock:
            names = list(self._states)
        tiers = {name: self.tier_of(name) for name in names}
        return {
            "functions": tiers,
            "counts": dict(Counter(tiers.values())),
            "promotions": self.promotions,
            "demotions": self.demotions,
            "profile_restores": self.profile_restores,
        }
