"""The scatter/compute/gather driver behind ``MajicSession(parallel=N)``.

The :class:`ParallelExecutor` owns ``N`` forked worker ranks (ranks
``1..N``; the session is rank 0) connected by a MatlabMPI-style
transport, and routes function calls through a sharding plan
(:mod:`repro.parallel.plans`):

* **tile** calls scatter row ranges, gather the computed tiles and
  reassemble them bit-identically;
* **replicate** calls run inline in the parent (serial-identical
  displays/errors/RNG by construction) while the workers replicate the
  call and return distributed row blocks as a cross-check.

Every parallel failure mode — dropped message, hung rank, crashed rank,
worker-side error — degrades through the same guarded chain the
compiled tiers use: restore the RNG snapshot, truncate the display sink
back to the call mark, record a :data:`PARALLEL_FALLBACK` diagnostic and
re-execute serially.  The user sees bit-identical results, displays and
errors no matter what the ranks did.

Supervision mirrors the background-speculation engine: a rank that dies
or wedges is killed and respawned with exponential backoff, up to
``ResiliencePolicy.parallel_max_restarts``; past that budget the
executor degrades to serial-only for the rest of the session
(:data:`PARALLEL_DEGRADED`).

Worker ranks are forked *disarmed*: each child builds a fresh
``MajicSession`` whose policy has no compile deadline, with no
background pool and a platform that leaves the recursion limit alone
(``host_recursion_limit=0``), so it never touches the parent's watchdog
monitor inherited across ``fork()``; the
in-memory ``KERNEL_CACHE`` and any shared disk ``RepositoryCache``
directory *are* inherited, so children start with warm caches.  Ranks
record no spans and keep no metrics: a reply carries the result, the RNG
post-state, the faults fired and the task's new diagnostics, which the
parent's log records with ``rank=`` attached.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults.plan import (
    FaultPlan,
    SITE_PARALLEL_RECV,
    SITE_PARALLEL_WORKER,
)
from repro.obs import DISABLED
from repro.parallel.maps import Map, block_ranges
from repro.parallel.mpi import Communicator, RecvTimeout
from repro.parallel.plans import plan_for, tile_sources
from repro.parallel.transport import FileTransport
from repro.repository.diagnostics import (
    PARALLEL_DEGRADED,
    PARALLEL_FALLBACK,
    PARALLEL_RESTART,
)
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.mxarray import IntrinsicClass, MxArray
from repro.runtime.values import from_python

#: Parent -> worker task tag; replies use a fresh tag per call.
TAG_TASK = 1
TAG_REPLY_BASE = 10_000

#: How often the await loop wakes up to check worker liveness (s).
ALIVE_POLL = 0.05

#: Base of the dead-rank respawn backoff (s), doubled per restart, capped
#: at 1 s.
RESTART_BACKOFF = 0.02

#: Replicate cross-checks only fire for results at least this large;
#: smaller results are not worth a round trip per rank.
MIN_CROSSCHECK_ROWS = 2


class ParallelFault(RuntimeError):
    """A parallel call could not complete; the caller must fall back."""


@dataclass
class WorkerConfig:
    """Everything a forked rank needs to build its session (inherited
    through ``fork()``, never pickled)."""

    platform: object
    sources: list[str] = field(default_factory=list)
    paths: list[str] = field(default_factory=list)
    cache_dir: object = None
    fault_specs: tuple = ()
    fault_seed: int = 0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Worker-side main loop
# ----------------------------------------------------------------------
def _worker_main(rank: int, size: int, spool, config: WorkerConfig):
    """One rank's lifetime: build a disarmed, unobserved session, serve
    tasks.  A reply carries the result, the RNG post-state, the faults
    fired and the diagnostics the task logged — nothing else."""
    transport = FileTransport(spool)  # shared spool, own seq counter
    plan = None
    if config.fault_specs:
        plan = FaultPlan(list(config.fault_specs), seed=config.fault_seed)
    fired_sent = 0

    from repro.core.majic import MajicSession
    from repro.resilience import ResiliencePolicy

    session = MajicSession(
        platform=replace(config.platform, host_recursion_limit=0),
        seed=None,
        background=False,
        resilience=ResiliencePolicy(compile_deadline=None),
        cache_dir=config.cache_dir,
        trace=False,
        metrics=False,
    )
    log = session.repository.diagnostics
    shipped_seq = 0  # the last diagnostic already sent to rank 0
    comm = Communicator(rank, size, transport)
    seen = set()
    for text in config.sources:
        try:
            session.add_source(text)
            seen.add(_sha(text))
        except Exception:  # noqa: BLE001 - a bad source only hurts its calls
            pass
    for path in config.paths:
        try:
            session.add_path(path)
        except Exception:  # noqa: BLE001
            pass

    try:
        while True:
            task = comm.recv(0, TAG_TASK)
            if task.get("op") == "shutdown":
                break
            reply_tag = task["reply_tag"]
            mark = session.sink.mark()
            try:
                for text in task.get("sources", ()):
                    digest = _sha(text)
                    if digest not in seen:
                        session.add_source(text)
                        seen.add(digest)
                for path in task.get("paths", ()):
                    session.add_path(path)
                GLOBAL_RANDOM.restore(task["rng"])
                if plan is not None:
                    # May raise (error reply), hang (parent recv timeout)
                    # or crash (the process exit below).
                    plan.check(SITE_PARALLEL_WORKER, task["function"])
                outputs = session.call_boxed(
                    task["function"], task["args"], nargout=task["nargout"],
                )
                extract = task.get("extract")
                if extract is not None and outputs:
                    lo, hi = extract
                    full = outputs[0]
                    chunk = np.ascontiguousarray(full.view()[lo:hi, :])
                    outputs = [MxArray(full.part_tag, chunk)]
                reply = {
                    "status": "ok",
                    "value": outputs,
                    "rng": GLOBAL_RANDOM.snapshot(),
                }
            except Exception as exc:  # noqa: BLE001 - error reply
                reply = {"status": "error", "error": repr(exc)}
            finally:
                session.sink.truncate(mark)  # worker output discarded
            if plan is not None:
                reply["fired"] = list(plan.fired[fired_sent:])
                fired_sent = len(plan.fired)
            # Everything logged since the last reply rides on this one; a
            # rank logs nothing between tasks, so nothing waits for exit.
            fresh = [e for e in log.events() if e.seq > shipped_seq]
            if fresh:
                reply["diagnostics"] = fresh
                shipped_seq = fresh[-1].seq
            comm.send(0, reply_tag, reply)
    except BaseException:  # noqa: BLE001 - SimulatedCrash / torn spool
        os._exit(17)
    os._exit(0)


# ----------------------------------------------------------------------
# Parent-side executor
# ----------------------------------------------------------------------
class ParallelExecutor:
    """Rank 0: scatter/compute/gather with guarded serial fallback."""

    def __init__(
        self,
        session,
        workers: int,
        fault_plan=None,
        obs=None,
    ):
        if workers < 1:
            raise ValueError("parallel=N needs at least one worker")
        self.session = session
        self.workers = int(workers)
        self.size = self.workers + 1
        self.policy = session.resilience
        self.fault_plan = fault_plan
        self.obs = obs if obs is not None else DISABLED
        self.diagnostics = session.repository.diagnostics
        self.enabled = True
        self.restarts = 0
        self.calls = Counter()  # sharded calls completed, by plan kind
        self._tag = TAG_REPLY_BASE
        self._stale: list[tuple[int, int]] = []
        self._ctx = multiprocessing.get_context("fork")
        self._transport = FileTransport()
        self.comm = Communicator(
            0, self.size, self._transport, fault_plan=fault_plan,
        )
        self.obs.attach(parallel=self, comm=self.comm)
        worker_specs = tuple(
            spec for spec in getattr(fault_plan, "specs", ())
            if spec.site == SITE_PARALLEL_WORKER
        )
        self._config = WorkerConfig(
            platform=session.platform,
            sources=list(session.shipped_sources()) + tile_sources(),
            paths=list(session.shipped_paths()),
            cache_dir=session.cache_dir,
            fault_specs=worker_specs,
            fault_seed=getattr(fault_plan, "seed", 0),
        )
        self._baseline: dict[int, tuple[int, int]] = {}
        self.procs: dict[int, multiprocessing.Process] = {}
        for rank in range(1, self.size):
            self._spawn(rank)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, rank: int) -> None:
        self._config.sources = (
            list(self.session.shipped_sources()) + tile_sources()
        )
        self._config.paths = list(self.session.shipped_paths())
        self._baseline[rank] = (
            len(self.session.shipped_sources()),
            len(self.session.shipped_paths()),
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(rank, self.size, self._transport.directory, self._config),
            name=f"majic-parallel-{rank}",
            daemon=True,
        )
        proc.start()
        self.procs[rank] = proc

    def _retire(self, rank: int, cause: str) -> None:
        """Kill a dead/wedged rank and respawn it (budget permitting)."""
        proc = self.procs.get(rank)
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join(timeout=1.0)
        if self.restarts >= self.policy.parallel_max_restarts:
            self.enabled = False
            self.diagnostics.record(
                PARALLEL_DEGRADED, "parallel",
                detail=f"restart budget ({self.policy.parallel_max_restarts})"
                       f" spent; serial-only from here",
                cause=cause, rank=rank,
            )
            return
        delay = min(1.0, RESTART_BACKOFF * (2 ** self.restarts))
        self.restarts += 1
        time.sleep(delay)
        self._spawn(rank)
        self.diagnostics.record(
            PARALLEL_RESTART, "parallel",
            detail=f"rank {rank} respawned (restart {self.restarts})",
            cause=cause, rank=rank,
        )

    def shutdown(self) -> None:
        for rank, proc in list(self.procs.items()):
            if proc.is_alive():
                try:
                    self.comm.send(rank, TAG_TASK, {"op": "shutdown"})
                except Exception:  # noqa: BLE001 - dying transport
                    pass
        for proc in self.procs.values():
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self.procs.clear()
        self._transport.close()
        self.enabled = False

    # ------------------------------------------------------------------
    # Call routing
    # ------------------------------------------------------------------
    def _serial(self, name, args, nargout):
        return self.session.repository.execute(name, args, nargout)

    def call(self, name: str, args, nargout: int = 1):
        """Execute one function call, sharded when a plan applies."""
        args = list(args)
        if not self.enabled or not self.procs:
            return self._serial(name, args, nargout)
        self._purge_stale()
        plan = plan_for(name)
        if plan.kind == "tile" and nargout == 1:
            rows = plan.rows(args)
            if rows is not None and rows >= self.workers:
                return self._call_tile(plan, name, args, rows)
        return self._call_replicate(name, args, nargout)

    # ------------------------------------------------------------------
    def _call_tile(self, plan, name, args, rows):
        rng0 = GLOBAL_RANDOM.snapshot()
        mark = self.session.sink.mark()
        started = time.perf_counter()
        try:
            # The dispatch span times scatter/compute/gather as this
            # process sees it.  The serial fallback below runs *outside*
            # it, so its execution spans are the session's ordinary ones.
            with self.obs.tracer.span(
                "parallel_tile", "parallel", function=name, rows=rows,
            ):
                return self._tile_scatter_gather(
                    plan, name, args, rows, rng0, started
                )
        except Exception as exc:  # noqa: BLE001 - every fault -> serial
            GLOBAL_RANDOM.restore(rng0)
            self.session.sink.truncate(mark)
            self._note_fallback(name, exc)
            return self._serial(name, args, 1)

    def _tile_scatter_gather(self, plan, name, args, rows, rng0, started):
        cols = plan.cols(args)
        ranges = block_ranges(rows, self.workers)
        reply_tag = self._next_tag()
        sent = []
        for index, (lo, hi) in enumerate(ranges):
            if hi <= lo:
                continue
            rank = index + 1
            tile_args = args + [
                from_python(float(lo + 1)), from_python(float(hi)),
            ]
            self._send_task(rank, {
                "op": "call",
                "function": plan.tile_function,
                "args": tile_args,
                "nargout": 1,
                "rng": rng0,
                "reply_tag": reply_tag,
            })
            sent.append((rank, index))
        blocks: list[MxArray | None] = [None] * self.workers
        last_rng = None
        for rank, index in sent:
            reply = self._await_reply(rank, reply_tag, name)
            blocks[index] = reply["value"][0]
            last_rng = reply["rng"]
        for index, (lo, hi) in enumerate(ranges):
            if hi <= lo:
                blocks[index] = MxArray(
                    IntrinsicClass.REAL, np.zeros((0, cols))
                )
        result = Map(rows=rows, cols=cols, size=self.workers).reassemble(
            blocks
        )
        if plan.rng_from_last and last_rng is not None:
            GLOBAL_RANDOM.restore(last_rng)
        self.calls["tile"] += 1
        self.obs.record_parallel_seconds(
            name, time.perf_counter() - started
        )
        return [result]

    # ------------------------------------------------------------------
    def _call_replicate(self, name, args, nargout):
        # The parent's inline run is the authoritative result: displays,
        # errors and the RNG stream are serial-identical by construction.
        rng0 = GLOBAL_RANDOM.snapshot()
        started = time.perf_counter()
        outputs = self._serial(name, args, nargout)
        first = outputs[0] if outputs else None
        if not self._distributable(first):
            return outputs
        try:
            with self.obs.tracer.span(
                "parallel_replicate", "parallel", function=name,
            ):
                self._replicate_crosscheck(
                    name, args, nargout, first, rng0, started
                )
        except Exception as exc:  # noqa: BLE001 - the parent result stands
            self._note_fallback(name, exc)
        return outputs

    def _replicate_crosscheck(self, name, args, nargout, first, rng0,
                              started):
        dist_map = Map(rows=first.rows, cols=first.cols,
                       size=self.workers)
        reply_tag = self._next_tag()
        sent = []
        for index, (lo, hi) in enumerate(dist_map.ranges()):
            if hi <= lo:
                continue
            rank = index + 1
            self._send_task(rank, {
                "op": "call",
                "function": name,
                "args": args,
                "nargout": nargout,
                "rng": rng0,
                "reply_tag": reply_tag,
                "extract": (lo, hi),
            })
            sent.append((rank, (lo, hi)))
        mine = first.view()
        for rank, (lo, hi) in sent:
            reply = self._await_reply(rank, reply_tag, name)
            block = reply["value"][0]
            theirs = np.asarray(block.view())
            ours = np.asarray(mine[lo:hi, :])
            if theirs.shape != ours.shape or (
                theirs.tobytes() != ours.astype(theirs.dtype).tobytes()
            ):
                raise ParallelFault(
                    f"rank {rank} cross-check mismatch on rows "
                    f"{lo}:{hi} of '{name}'"
                )
        self.calls["replicate"] += 1
        self.obs.record_parallel_seconds(
            name, time.perf_counter() - started
        )

    @staticmethod
    def _distributable(value) -> bool:
        return (
            isinstance(value, MxArray)
            and not value.is_string
            and value.rows >= MIN_CROSSCHECK_ROWS
            and value.cols >= 1
        )

    # ------------------------------------------------------------------
    # Messaging plumbing
    # ------------------------------------------------------------------
    def _next_tag(self) -> int:
        self._tag += 1
        return self._tag

    def _send_task(self, rank: int, task: dict) -> None:
        base_sources, base_paths = self._baseline[rank]
        texts = self.session.shipped_sources()
        paths = self.session.shipped_paths()
        if len(texts) > base_sources:
            task["sources"] = list(texts[base_sources:])
        if len(paths) > base_paths:
            task["paths"] = list(paths[base_paths:])
        self.comm.send(rank, TAG_TASK, task)

    def _await_reply(self, rank: int, tag: int, name: str) -> dict:
        """One reply from ``rank``, with liveness supervision.

        The fault site ``parallel.recv`` is checked exactly once per
        awaited reply (never per poll chunk) so fault schedules replay
        deterministically regardless of timing.
        """
        if self.fault_plan is not None:
            self.fault_plan.check(SITE_PARALLEL_RECV, name)
        deadline = time.monotonic() + self.policy.parallel_recv_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._stale.append((rank, tag))
                self._retire(rank, cause=f"no reply for '{name}'")
                raise self._fault(
                    f"rank {rank} did not answer within "
                    f"{self.policy.parallel_recv_timeout:.3g}s",
                    rank=rank, site="parallel.recv",
                )
            proc = self.procs.get(rank)
            if proc is None or not proc.is_alive():
                self._stale.append((rank, tag))
                self._retire(rank, cause=f"rank {rank} died during '{name}'")
                raise self._fault(
                    f"rank {rank} died", rank=rank, site="parallel.worker",
                )
            try:
                reply = self.comm.recv(
                    rank, tag,
                    timeout=min(ALIVE_POLL, remaining),
                    fault_check=False,
                )
            except RecvTimeout:
                continue
            if reply.get("fired") and self.fault_plan is not None:
                self.fault_plan.absorb_fired(reply["fired"])
            # Surface the rank's diagnostics *before* judging the status:
            # an error reply's events are exactly the ones worth having
            # (``backends.Handle.fallbacks`` reads deopts from this log).
            if reply.get("diagnostics"):
                self.diagnostics.surface(reply["diagnostics"], rank)
            if reply["status"] != "ok":
                raise self._fault(
                    f"rank {rank} reported: {reply.get('error', 'unknown')}",
                    rank=rank, site="parallel.worker",
                )
            return reply

    @staticmethod
    def _fault(message: str, rank: int = 0,
               site: str = "") -> "ParallelFault":
        """A ParallelFault annotated with the failing rank and fault
        site, so the fallback diagnostic can say *which* rank failed and
        *where*."""
        fault = ParallelFault(message)
        fault.rank = rank
        fault.site = site
        return fault

    def _purge_stale(self) -> None:
        if not self._stale:
            return
        for rank, tag in self._stale:
            try:
                self.comm.drain(rank, tag)
            except Exception:  # noqa: BLE001 - best-effort hygiene
                pass
        self._stale.clear()

    def _note_fallback(self, name: str, exc: BaseException) -> None:
        rank = getattr(exc, "rank", 0)
        site = getattr(exc, "site", "")
        detail = f"site={site}: {exc}" if site else str(exc)
        self.diagnostics.record(
            PARALLEL_FALLBACK, name, detail=detail, cause=exc, rank=rank,
        )
