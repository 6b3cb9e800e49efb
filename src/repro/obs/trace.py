"""Thread-safe hierarchical tracing (the observability substrate).

The paper's evaluation is an argument about *where time goes*: Figure 6
splits every run into disambiguation / type inference / code generation /
execution, and the Section 2.2.1 contract ("compiled code is an
optimization, never a requirement") is only operable when degradations to
interpretation are visible.  A :class:`Tracer` records that story as a
tree of :class:`Span` objects — one per parse, compile phase, compiled
execution, interpreter fallback, cache probe — that a single session can
render as a text tree or export as Chrome-trace JSON
(:mod:`repro.obs.export_chrome`).

Design constraints
------------------
* **Thread safety.**  Background speculation workers and the foreground
  session record into one tracer; the finished-span list is guarded by a
  lock while the *current-span stack* is thread-local, so recording never
  contends between threads.
* **Cross-thread parentage.**  A worker has no call-stack relationship to
  the foreground thread, so the foreground captures a parent token
  (:meth:`Tracer.current_id`) at submit time and the worker restores it
  with :meth:`Tracer.adopt` — the worker's spans then hang off the
  foreground ``speculate_async`` span in the tree.
* **Near-zero cost when disabled.**  The default recorder is
  :data:`NULL_TRACER`, whose :meth:`~NullTracer.span` returns one shared
  no-op context manager: the disabled path allocates no spans (asserted
  by a tracemalloc guard test).  Hot call sites additionally check
  ``tracer.enabled`` so they do not even build the attribute dicts.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid


class Span:
    """One timed region: a node in the session's trace tree.

    Spans are context managers; entering assigns the id, parent (the top
    of the current thread's span stack) and start time, exiting records
    the duration and appends the span to the tracer's finished list.
    ``start`` is seconds relative to the tracer's epoch.
    """

    __slots__ = (
        "tracer", "name", "category", "args",
        "span_id", "parent_id", "start", "duration", "thread", "tid",
        "rank", "pid",
    )

    def __init__(self, tracer: "Tracer", name: str, category: str, args: dict):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.span_id = 0
        self.parent_id: int | None = None
        self.start = 0.0
        self.duration = 0.0
        self.thread = ""
        self.tid = 0
        # Process identity for merged cross-rank traces: rank 0 / pid 0
        # mean "this process" (the exporter substitutes os.getpid()).
        self.rank = 0
        self.pid = 0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.span_id = next(tracer._ids)
        stack = tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        current = threading.current_thread()
        self.thread = current.name
        self.tid = current.ident or 0
        self.start = time.perf_counter() - tracer.epoch
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self.tracer
        self.duration = (time.perf_counter() - tracer.epoch) - self.start
        stack = tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        with tracer._lock:
            tracer._spans.append(self)

    def __repr__(self) -> str:  # debugging aid, never on the hot path
        return (
            f"Span({self.name!r}, {self.category!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration * 1e3:.3f}ms)"
        )


class _Adopted:
    """Context manager pushing a foreign parent id onto this thread's
    span stack (cross-thread parent propagation for worker threads)."""

    __slots__ = ("tracer", "parent_id", "_pushed")

    def __init__(self, tracer: "Tracer", parent_id: int | None):
        self.tracer = tracer
        self.parent_id = parent_id
        self._pushed = False

    def __enter__(self) -> "_Adopted":
        if self.parent_id is not None:
            self.tracer._stack().append(self.parent_id)
            self._pushed = True
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pushed:
            stack = self.tracer._stack()
            if stack and stack[-1] == self.parent_id:
                stack.pop()


class Tracer:
    """Hierarchical span recorder shared by every layer of a session."""

    enabled = True

    def __init__(self, trace_id: str | None = None):
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # perf_counter epoch for span timestamps plus the wall-clock
        # instant it corresponds to (Chrome traces want absolute-ish ts).
        self.epoch = time.perf_counter()
        self.wall_epoch = time.time()
        # Distributed trace identity: propagated to parallel worker ranks
        # through the message envelope so every process's spans carry the
        # same id and can be correlated after the merge.
        self.trace_id = trace_id or uuid.uuid4().hex[:16]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, category: str, **args) -> Span:
        """Open a timed region (use as a context manager)."""
        return Span(self, name, category, args)

    def instant(self, name: str, category: str, **args) -> Span:
        """Record a zero-duration event (deopts, quarantines, ...)."""
        return self.complete(name, category, self.rel_now(), 0.0, **args)

    def complete(
        self, name: str, category: str, start: float, duration: float, **args
    ) -> Span:
        """Record an already-measured region (``start`` is an epoch-relative
        perf_counter value as produced by ``rel_now``).  Used where a
        context manager does not fit — e.g. the communicator records a
        receive only once a message was actually delivered."""
        span = Span(self, name, category, args)
        span.span_id = next(self._ids)
        stack = self._stack()
        span.parent_id = stack[-1] if stack else None
        current = threading.current_thread()
        span.thread = current.name
        span.tid = current.ident or 0
        span.start = start
        span.duration = duration
        with self._lock:
            self._spans.append(span)
        return span

    def rel_now(self) -> float:
        """The current instant on the tracer's epoch-relative clock."""
        return time.perf_counter() - self.epoch

    def current_id(self) -> int | None:
        """Token identifying the innermost open span on this thread
        (capture before handing work to another thread)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, parent_id: int | None) -> _Adopted:
        """Parent subsequent spans on *this* thread under ``parent_id``."""
        return _Adopted(self, parent_id)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def spans(self) -> tuple[Span, ...]:
        """Every finished span so far (open spans are not included)."""
        with self._lock:
            return tuple(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_tree(self) -> str:
        """The span forest as an indented text tree (roots in start
        order; spans whose parent never closed render as roots too)."""
        spans = self.spans()
        if not spans:
            return "(no spans recorded)"
        known = {span.span_id for span in spans}
        children: dict[int | None, list[Span]] = {}
        for span in spans:
            parent = span.parent_id if span.parent_id in known else None
            children.setdefault(parent, []).append(span)
        for bucket in children.values():
            bucket.sort(key=lambda s: s.start)
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            attrs = "".join(
                f" {key}={value}" for key, value in sorted(span.args.items())
            )
            lines.append(
                f"{'  ' * depth}- {span.name} [{span.category}] "
                f"{span.duration * 1e3:.3f}ms{attrs} ({span.thread})"
            )
            for child in children.get(span.span_id, ()):
                walk(child, depth + 1)

        for root in children.get(None, ()):
            walk(root, 0)
        return "\n".join(lines)


def serialize_spans(spans) -> list[dict]:
    """Spans as plain dicts: the wire format worker ranks ship back to the
    parent with every task reply (pickled inside the reply envelope)."""
    return [
        {
            "name": span.name,
            "category": span.category,
            "args": dict(span.args),
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start": span.start,
            "duration": span.duration,
            "thread": span.thread,
            "tid": span.tid,
        }
        for span in spans
    ]


def merge_remote_spans(
    tracer: Tracer,
    batch: dict,
    idmap: dict[int, int],
    default_parent: int | None = None,
) -> int:
    """Fold one rank's shipped span buffer into ``tracer``.

    ``batch`` carries ``rank``, ``pid``, ``wall_epoch`` and a ``spans``
    list from :func:`serialize_spans`.  Remote span ids are remapped into
    the parent tracer's id space through the per-rank ``idmap`` (persistent
    across batches, so a later batch can still reference an earlier
    parent); spans whose parent is unknown on this side are re-parented
    under ``default_parent`` — the parent-side span that dispatched the
    task — which is how a rank's tree hangs off the session's tree.
    Timestamps are rebased through the wall-clock epochs of the two
    tracers, so rank rows line up on one timeline.  Returns the number of
    spans merged.
    """
    rank = int(batch.get("rank", 0))
    pid = int(batch.get("pid", 0))
    offset = float(batch.get("wall_epoch", tracer.wall_epoch)) - tracer.wall_epoch
    records = batch.get("spans", ())
    if not records:
        return 0
    # Two passes: ids first (children close before their parents, so a
    # child's parent may appear later in the same batch), then links.
    for record in records:
        remote_id = record["span_id"]
        if remote_id not in idmap:
            idmap[remote_id] = next(tracer._ids)
    merged: list[Span] = []
    for record in records:
        span = Span(tracer, record["name"], record["category"],
                    dict(record["args"]))
        span.span_id = idmap[record["span_id"]]
        remote_parent = record["parent_id"]
        if remote_parent is not None and remote_parent in idmap:
            span.parent_id = idmap[remote_parent]
        else:
            span.parent_id = default_parent
        span.start = record["start"] + offset
        span.duration = record["duration"]
        span.thread = f"rank{rank}:{record['thread']}"
        span.tid = record["tid"]
        span.rank = rank
        span.pid = pid or os.getpid()
        merged.append(span)
    with tracer._lock:
        tracer._spans.extend(merged)
    return len(merged)


class _NullSpan:
    """The shared do-nothing context manager of the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled recorder: every operation is a no-op and :meth:`span`
    returns one preallocated context manager, so instrumented code pays a
    method call and nothing else (and allocates no spans)."""

    enabled = False
    trace_id = ""
    wall_epoch = 0.0
    epoch = 0.0

    def span(self, name: str, category: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str, **args) -> None:
        return None

    def complete(self, name, category, start, duration, **args) -> None:
        return None

    def rel_now(self) -> float:
        return 0.0

    def current_id(self) -> None:
        return None

    def adopt(self, parent_id) -> _NullSpan:
        return _NULL_SPAN

    def spans(self) -> tuple:
        return ()

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def render_tree(self) -> str:
        return "(tracing disabled)"


NULL_TRACER = NullTracer()


def self_times(spans) -> dict[int, float]:
    """Per-span self time: duration minus the duration of direct children.

    This is the one timing substrate shared by the profiler and the
    Figure 6 :class:`~repro.core.timing.ExecutionBreakdown`: both consume
    the same subtraction, so their totals agree by construction.
    """
    known = {span.span_id for span in spans}
    child_dur: dict[int, float] = {}
    for span in spans:
        if span.parent_id in known:
            child_dur[span.parent_id] = (
                child_dur.get(span.parent_id, 0.0) + span.duration
            )
    return {
        span.span_id: max(span.duration - child_dur.get(span.span_id, 0.0), 0.0)
        for span in spans
    }
