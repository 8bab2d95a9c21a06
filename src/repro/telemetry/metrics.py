"""Thread-safe counters, latency histograms, and the metrics registry.

Counters and histograms are the two primitives the serving path needs:
monotone event counts (pool hits, tables streamed, retries) and latency
distributions with percentile readout (request latency, garbling time,
OT time).  A :class:`MetricsRegistry` owns both by name, plus a span
recorder, and takes an injectable ``clock`` so exporter snapshots are
bit-deterministic under a fixed clock in tests.  Memory stays bounded
however long a process serves: histograms keep their percentiles over a
window of recent values and the span recorder keeps a ring of recent
spans.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from contextlib import contextmanager

from repro.errors import ConfigurationError
from repro.telemetry.spans import SpanRecorder

#: Percentiles included in every histogram snapshot.
SNAPSHOT_PERCENTILES = (50.0, 90.0, 99.0)

#: Recent observations a histogram keeps for percentiles and windowed
#: readout; the SLO controller reads a few dozen per tick.
HISTOGRAM_WINDOW = 1024


def percentile_of(values, p: float) -> float:
    """Exact percentile ``p`` of ``values`` (linear interpolation over
    the sorted samples — numpy's default definition).  The module-level
    form lets callers take percentiles over *windows* of samples (e.g.
    the SLO controller's since-last-tick latency slice) without going
    through a :class:`Histogram`."""
    if not 0.0 <= p <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if not ordered:
        raise ConfigurationError("empty sample set has no percentiles")
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0 or lo + 1 == len(ordered):
        return ordered[lo]
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


class Counter:
    """A monotone, thread-safe event counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ConfigurationError("counters are monotone; cannot add a negative")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Histogram:
    """A thread-safe value distribution with percentile readout.

    Memory is bounded for a process that serves for days: ``count``,
    ``total``, ``min`` and ``max`` are kept exactly over every
    observation, while percentiles and :meth:`values_since` read a ring
    of the :data:`HISTOGRAM_WINDOW` most recent ones.  Over the window percentiles are
    exact: for percentile ``p`` over ``n`` sorted samples the rank is
    ``(p/100) * (n-1)`` with linear interpolation between neighbouring
    samples — the same definition numpy's default ``percentile`` uses,
    chosen so tests can assert against hand-computed values.
    """

    __slots__ = ("_lock", "_recent", "_count", "_total", "_min", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._recent: deque[float] = deque(maxlen=HISTOGRAM_WINDOW)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._recent.append(value)
            self._count += 1
            self._total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def _require(self, what: str) -> None:
        if not self._count:
            raise ConfigurationError(f"empty histogram has no {what}")

    @property
    def mean(self) -> float:
        with self._lock:
            self._require("mean")
            return self._total / self._count

    @property
    def minimum(self) -> float:
        with self._lock:
            self._require("minimum")
            return self._min

    @property
    def maximum(self) -> float:
        with self._lock:
            self._require("maximum")
            return self._max

    def percentile(self, p: float) -> float:
        """Percentile ``p`` of the window of recent observations."""
        with self._lock:
            self._require("percentiles")
            values = list(self._recent)
        return percentile_of(values, p)

    def values_since(self, offset: int) -> list[float]:
        """The observations recorded at absolute index ``offset`` onward
        (``offset`` counts every observation ever recorded), in record
        order.  Pairing this with :attr:`count` gives windowed readout —
        the SLO controller snapshots ``count`` each tick and takes
        percentiles over only the latencies completed since.  Values
        that have already left the window are gone: the call then
        returns the whole window, the most recent observations."""
        if offset < 0:
            raise ConfigurationError(f"offset cannot be negative, got {offset}")
        with self._lock:
            skip = offset - (self._count - len(self._recent))
            if skip <= 0:
                return list(self._recent)
            return list(itertools.islice(self._recent, skip, None))

    def snapshot(self) -> dict:
        with self._lock:
            if not self._count:
                return {"count": 0}
            snap = {
                "count": self._count,
                "total": self._total,
                "mean": self._total / self._count,
                "min": self._min,
                "max": self._max,
            }
            ordered = sorted(self._recent)
        for p in SNAPSHOT_PERCENTILES:
            snap[f"p{p:g}"] = percentile_of(ordered, p)
        return snap


class MetricsRegistry:
    """Named counters + histograms + spans behind one injectable clock."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self.spans = SpanRecorder(clock)

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram()
            return self._histograms[name]

    @contextmanager
    def timer(self, name: str):
        """Record the block's wall time (seconds) into histogram ``name``."""
        start = self._clock()
        try:
            yield
        finally:
            self.histogram(name).record(self._clock() - start)

    def span(self, name: str):
        """Open a (nestable) span; see :class:`repro.telemetry.spans.SpanRecorder`."""
        return self.spans.span(name)

    def snapshot(self) -> dict:
        """A deterministic point-in-time view (keys sorted, spans in end order)."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {name: counters[name].value for name in sorted(counters)},
            "histograms": {
                name: histograms[name].snapshot() for name in sorted(histograms)
            },
            "spans": self.spans.snapshot(),
        }
