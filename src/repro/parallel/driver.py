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
``MajicSession`` with ``compile_deadline=None, sandbox=False,
background=False`` so it never touches the parent's watchdog monitor or
sandbox machinery inherited across ``fork()``; the in-memory
``KERNEL_CACHE`` and any shared disk ``RepositoryCache`` directory *are*
inherited, so children start with warm caches.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass, field

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
    # Observability wiring: ranks join the parent's distributed trace
    # (same trace_id), run their own metrics registry, and — when the
    # parent has a flight recorder — dump crash postmortems into the
    # same directory.
    trace: bool = False
    metrics: bool = False
    trace_id: str = ""
    flight_dir: object = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _ObsShipper:
    """Worker-side bookkeeping: what has already shipped to rank 0.

    Replies carry *deltas* — the spans recorded since the last reply, the
    metrics movement since the last snapshot, the diagnostics appended
    since the last send — so absorbing every reply in order reconstructs
    the rank's full story without double counting anything.
    """

    def __init__(self, session, rank: int):
        self.session = session
        self.rank = rank
        self._spans_sent = 0
        self._diag_sent = 0
        metrics = session.obs.metrics
        self._base = (
            metrics.snapshot(structured=True) if metrics.enabled else {}
        )

    def batch(self) -> dict | None:
        """The rank's observability delta, or None when nothing moved."""
        from repro.obs.trace import serialize_spans

        obs = self.session.obs
        batch: dict = {"rank": self.rank, "pid": os.getpid()}
        if obs.tracer.enabled:
            spans = obs.tracer.spans()
            fresh = spans[self._spans_sent:]
            self._spans_sent = len(spans)
            if fresh:
                batch["wall_epoch"] = obs.tracer.wall_epoch
                batch["spans"] = serialize_spans(fresh)
        if obs.metrics.enabled:
            current = obs.metrics.snapshot(structured=True)
            delta = obs.metrics.delta(self._base, current)
            self._base = current
            if delta:
                batch["metrics"] = delta
        events = self.session.repository.diagnostics.events()
        fresh_events = events[self._diag_sent:]
        self._diag_sent = len(events)
        if fresh_events:
            batch["diagnostics"] = [
                {
                    "kind": e.kind,
                    "function": e.function,
                    "detail": e.detail,
                    "cause": e.cause,
                    "signature": e.signature,
                    "wall_time": e.wall_time,
                }
                for e in fresh_events
            ]
        if len(batch) == 2:  # only rank + pid: nothing to ship
            return None
        return batch


# ----------------------------------------------------------------------
# Worker-side main loop
# ----------------------------------------------------------------------
def _worker_main(rank: int, size: int, spool, config: WorkerConfig):
    """One rank's lifetime: build a disarmed session, serve tasks."""
    boot_started = time.perf_counter()
    transport = FileTransport(spool)  # shared spool, own seq counter
    plan = None
    if config.fault_specs:
        plan = FaultPlan(list(config.fault_specs), seed=config.fault_seed)
    fired_sent = 0

    from repro.core.majic import MajicSession
    from repro.obs import FlightRecorder

    session = MajicSession(
        platform=config.platform,
        seed=None,
        background=False,
        sandbox=False,
        compile_deadline=None,
        cache_dir=config.cache_dir,
        recursion_limit=0,
        trace=config.trace,
        metrics=config.metrics,
    )
    tracer = session.obs.tracer
    if tracer.enabled and config.trace_id:
        # One distributed trace: the rank's spans carry the parent's id.
        tracer.trace_id = config.trace_id
    flight = None
    if config.flight_dir:
        flight = FlightRecorder(dump_dir=config.flight_dir, rank=rank)
        flight.attach(session.obs, session.repository.diagnostics)
    # The communicator traces its own MPI_Send/MPI_Recv spans into the
    # rank's tracer; the rank's metrics read its message tallies.
    comm = Communicator(rank, size, transport, obs=session.obs)
    session.obs.attach(comm=comm)
    shipper = _ObsShipper(session, rank)
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
    if tracer.enabled:
        # MatlabMPI's "launch" column: fork + session build + source load.
        tracer.complete(
            "rank_boot", "launch", 0.0,
            time.perf_counter() - boot_started, rank=rank,
        )

    try:
        while True:
            # The idle wait for the next task is deliberately *parentless*
            # MPI_Recv time: the per-rank profile attribution counts only
            # parented mpi spans as communication.
            task = comm.recv(0, TAG_TASK)
            if task.get("op") == "shutdown":
                flush_tag = task.get("reply_tag")
                if flush_tag:
                    # Final observability flush: ships the spans recorded
                    # since the last reply (including its MPI_Send, which
                    # closes the last send->recv flow pair).  The flush
                    # itself is untraced so it cannot dangle a new flow.
                    comm.obs = None
                    try:
                        comm.send(
                            0, flush_tag,
                            {"status": "obs", "obs": shipper.batch()},
                        )
                    except Exception:  # noqa: BLE001 - dying transport
                        pass
                break
            reply_tag = task["reply_tag"]
            mark = session.sink.mark()
            with tracer.span(
                "parallel_task", "parallel",
                function=task["function"], rank=rank,
            ):
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
                        # May raise (error reply), hang (parent recv
                        # timeout) or crash (the process exit below).
                        plan.check(SITE_PARALLEL_WORKER, task["function"])
                    outputs = session.call_boxed(
                        task["function"], task["args"],
                        nargout=task["nargout"],
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
            # The task span above is closed, so it ships with THIS reply;
            # the reply's own MPI_Send span ships with the next one (or
            # with the shutdown flush).
            batch = shipper.batch()
            if batch:
                reply["obs"] = batch
            comm.send(0, reply_tag, reply)
    except BaseException as exc:  # noqa: BLE001 - SimulatedCrash / torn spool
        # The dying rank's own postmortem: its last spans, breadcrumbs and
        # diagnostics land in the shared dump directory before the parent
        # even notices the death.
        if flight is not None:
            flight.dump(
                "worker_crash", fault_site="parallel.worker",
                rank=rank, error=repr(exc),
            )
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
            0, self.size, self._transport,
            fault_plan=fault_plan, obs=self.obs,
        )
        self.obs.attach(parallel=self, comm=self.comm)
        worker_specs = tuple(
            spec for spec in getattr(fault_plan, "specs", ())
            if spec.site == SITE_PARALLEL_WORKER
        )
        flight = getattr(self.obs, "flight", None)
        self._config = WorkerConfig(
            platform=session.platform,
            sources=list(session.shipped_sources()) + tile_sources(),
            paths=list(session.shipped_paths()),
            cache_dir=session.cache_dir,
            fault_specs=worker_specs,
            fault_seed=getattr(fault_plan, "seed", 0),
            trace=self.obs.tracer.enabled,
            metrics=self.obs.metrics.enabled,
            trace_id=getattr(self.obs.tracer, "trace_id", ""),
            flight_dir=(
                str(flight.dump_dir)
                if flight is not None and flight.enabled else None
            ),
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
        # When observability is on, the shutdown carries a reply tag: each
        # rank answers with a final span/metrics/diagnostics flush (which
        # includes its last reply's MPI_Send span, closing the final
        # send->recv flow pair) before exiting.
        flush_tag = self._next_tag() if self.obs.enabled else None
        flushing = []
        for rank, proc in list(self.procs.items()):
            if proc.is_alive():
                task = {"op": "shutdown"}
                if flush_tag is not None:
                    task["reply_tag"] = flush_tag
                try:
                    self.comm.send(rank, TAG_TASK, task)
                    if flush_tag is not None:
                        flushing.append(rank)
                except Exception:  # noqa: BLE001 - dying transport
                    pass
        for rank in flushing:
            try:
                reply = self.comm.recv(
                    rank, flush_tag, timeout=1.0, fault_check=False
                )
                if isinstance(reply, dict) and reply.get("obs"):
                    self.obs.absorb_rank(reply["obs"], self.diagnostics)
            except Exception:  # noqa: BLE001 - best-effort flush
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
        return self.session.frontend.call(name, list(args), nargout=nargout)

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
            # The dispatch span is the merge anchor: every rank's shipped
            # spans attach under it, turning N process timelines into one
            # scatter/compute/gather tree in the Chrome trace.  The
            # serial fallback below runs *outside* it — its execution
            # spans belong to rank 0's ordinary timeline.
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
            # Fold the rank's shipped observability in *before* judging
            # the status: an error reply's spans and diagnostics are
            # exactly the ones worth having.  The enclosing dispatch span
            # (still open on this thread) anchors the merged spans.
            batch = reply.pop("obs", None)
            if batch:
                self.obs.absorb_rank(
                    batch, self.diagnostics,
                    default_parent=self.obs.tracer.current_id(),
                )
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
        site, so the fallback diagnostic (and its postmortem bundle) can
        say *which* rank failed and *where*."""
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
