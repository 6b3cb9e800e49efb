"""Counters, gauges and histograms for session-level aggregates.

Where :mod:`repro.obs.trace` answers "what happened, in what order, on
which thread", the metrics registry answers the steady-state questions:
what fraction of calls is still interpreted, what the cache hit ratio is,
how deep the speculation queue runs, how long each compile phase takes.
MatlabMPI's experience (Kepner & Ahalt, 2002) is the motivating precedent:
once a MATLAB system goes concurrent, per-worker aggregate counters are
the prerequisite for every scaling claim.

The model is deliberately the Prometheus one (see
:mod:`repro.obs.export_prom` for the text exposition):

* a **Counter** only goes up (``inc``);
* a **Gauge** is a set/inc/dec value (queue depth);
* a **Histogram** observes values into cumulative buckets plus a running
  sum/count (compile latency per phase).

Every instrument supports label dimensions (``labels(tier="jit")``),
children are created on first use, and all mutation is lock-protected so
background speculation workers and the foreground session can share one
registry.  The disabled counterpart (:data:`NULL_METRICS`) hands out one
shared no-op instrument, keeping the metrics-off path allocation-free.
"""

from __future__ import annotations

import threading

#: Default histogram buckets, tuned for compile/execute latencies in
#: seconds (sub-millisecond JIT phases up to multi-second source builds).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _Instrument:
    """Common label plumbing: a parent instrument owns one child per
    label-value combination; an unlabelled instrument has the ``()`` child."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: tuple = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}

    def labels(self, **labelvalues):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _make_child(self):
        raise NotImplementedError

    def samples(self) -> list[tuple[tuple, object]]:
        """(label-values, child) pairs in creation order."""
        with self._lock:
            return list(self._children.items())


class _CounterChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Counter(_Instrument):
    kind = "counter"

    def _make_child(self):
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0, **labelvalues) -> None:
        self.labels(**labelvalues).inc(amount)


class _GaugeChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Gauge(_Instrument):
    kind = "gauge"

    def _make_child(self):
        return _GaugeChild(self._lock)


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, lock, buckets):
        self._lock = lock
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper-bound, cumulative count) pairs, ``+Inf`` last."""
        with self._lock:
            return [*zip(self.buckets, self.counts), (float("inf"), self.count)]


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))

    def _make_child(self):
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float, **labelvalues) -> None:
        self.labels(**labelvalues).observe(value)


class _Reading:
    """One sample of a :class:`View`: a value read, not stored."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class View(_Instrument):
    """A counter nobody increments.

    ``read()`` returns the owning components' plain tallies — each a
    number (an unlabelled series, exposed once it has moved), a mapping
    of label value to number (every key is a series) or ``None`` (no
    such component in this session) — and :meth:`samples` adds them up
    per series.  Nothing is stored here, so a view cannot drift from its
    source.
    """

    def __init__(self, name, kind, help="", labelnames=(), read=tuple):
        super().__init__(name, help, labelnames)
        self.kind = kind
        self._read = read

    def samples(self) -> list[tuple[tuple, object]]:
        values: dict[tuple, float] = {}
        for tally in self._read():
            if tally is None:
                continue
            if not isinstance(tally, dict):
                tally = {(): tally} if tally else {}
            # dict() of a dict is one atomic copy: writers never block.
            for key, value in dict(tally).items():
                if not isinstance(key, tuple):
                    key = (str(key),)
                values[key] = values.get(key, 0.0) + value
        return [(key, _Reading(value)) for key, value in values.items()]


class MetricsRegistry:
    """Name → instrument table; get-or-create semantics per name."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name, help, labelnames, **extra):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(
                    name, help=help, labelnames=labelnames, **extra
                )
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name, help="", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def view(self, name, kind, help="", labelnames=(), read=tuple) -> View:
        return self._get_or_create(
            View, name, help, labelnames, kind=kind, read=read
        )

    def collect(self) -> list[_Instrument]:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> dict:
        """Plain numbers for assertions: counters/gauges map label tuples
        to values, histograms to their running sums."""
        return {
            metric.name: {
                key: child.sum if metric.kind == "histogram" else child.value
                for key, child in metric.samples()
            }
            for metric in self.collect()
        }


class _Null:
    """The disabled instrument, and its own child: absorbs everything."""

    __slots__ = ()
    kind = "null"
    value = sum = 0.0
    count = 0

    def labels(self, **labelvalues):
        return self

    def inc(self, *args, **labelvalues) -> None:
        return None

    dec = set = observe = inc

    def samples(self) -> list:
        return []


_NULL = _Null()


class NullMetrics:
    """Disabled registry: one shared instrument absorbs everything."""

    enabled = False

    def counter(self, *args, **kwargs) -> _Null:
        return _NULL

    gauge = histogram = view = counter

    def collect(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {}


NULL_METRICS = NullMetrics()
