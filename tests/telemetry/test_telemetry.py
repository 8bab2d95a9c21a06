"""Telemetry unit tests: percentile math, span nesting, determinism."""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import Counter, Histogram, MetricsRegistry, render_text, to_json
from repro.telemetry.metrics import HISTOGRAM_WINDOW
from repro.telemetry.spans import SPAN_RING


class FakeClock:
    """A deterministic clock: each read advances by ``step``."""

    def __init__(self, start: float = 0.0, step: float = 1.0):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestCounter:
    def test_inc_and_value(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter().inc(-1)

    def test_thread_safety(self):
        c = Counter()

        def hammer():
            for _ in range(2000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8 * 2000


class TestHistogramPercentiles:
    def test_single_value(self):
        h = Histogram()
        h.record(42.0)
        for p in (0, 50, 100):
            assert h.percentile(p) == 42.0

    def test_exact_ranks(self):
        h = Histogram()
        for v in [10, 20, 30, 40, 50]:
            h.record(v)
        assert h.percentile(0) == 10
        assert h.percentile(50) == 30
        assert h.percentile(100) == 50

    def test_linear_interpolation(self):
        h = Histogram()
        for v in [0.0, 10.0]:
            h.record(v)
        # rank = 0.9 * (2-1) = 0.9 -> 0 + 0.9 * 10
        assert h.percentile(90) == pytest.approx(9.0)

    def test_order_independent(self):
        a, b = Histogram(), Histogram()
        for v in [5, 1, 3, 2, 4]:
            a.record(v)
        for v in [1, 2, 3, 4, 5]:
            b.record(v)
        assert a.percentile(75) == b.percentile(75) == 4.0

    def test_summary_stats(self):
        h = Histogram()
        for v in [1.0, 2.0, 3.0]:
            h.record(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.minimum == 1.0
        assert h.maximum == 3.0

    def test_empty_histogram_raises(self):
        h = Histogram()
        with pytest.raises(ConfigurationError):
            h.percentile(50)
        with pytest.raises(ConfigurationError):
            h.mean
        assert h.snapshot() == {"count": 0}

    def test_bad_percentile_rejected(self):
        h = Histogram()
        h.record(1.0)
        with pytest.raises(ConfigurationError):
            h.percentile(101)


class TestBoundedMemory:
    """A long-lived gateway records per query forever: histograms and
    the span recorder keep a bounded window, while count, total, min
    and max stay exact over every observation."""

    N = 100_000

    def test_histogram_keeps_a_bounded_window(self):
        h = Histogram()
        for v in range(self.N):
            h.record(v)
        assert len(h._recent) == HISTOGRAM_WINDOW < self.N
        assert h.count == self.N
        assert h.total == sum(range(self.N))
        assert h.minimum == 0 and h.maximum == self.N - 1
        assert h.mean == (self.N - 1) / 2
        # percentiles read the window of the most recent values
        first = self.N - HISTOGRAM_WINDOW
        assert h.percentile(0) == first
        assert h.percentile(100) == self.N - 1
        snap = h.snapshot()
        assert snap["count"] == self.N and snap["min"] == 0
        assert snap["p50"] == pytest.approx((first + self.N - 1) / 2)

    def test_values_since_keeps_absolute_offsets(self):
        h = Histogram()
        n = HISTOGRAM_WINDOW + 20
        for v in range(n):
            h.record(v)
        assert h.values_since(n - 5) == [float(v) for v in range(n - 5, n)]
        assert h.values_since(20) == [float(v) for v in range(20, n)]
        assert h.values_since(n) == []
        # values that left the window are gone: the window is returned
        assert h.values_since(3) == [float(v) for v in range(20, n)]
        offset = h.count
        h.record(-1)
        assert h.values_since(offset) == [-1.0]

    def test_span_recorder_keeps_a_ring(self):
        reg = MetricsRegistry(clock=FakeClock())
        n = self.N // 10
        for i in range(n):
            with reg.span(f"s{i}"):
                pass
        spans = reg.spans.completed()
        assert len(spans) == SPAN_RING < n
        assert spans[-1].name == f"s{n - 1}"
        assert spans[0].name == f"s{n - SPAN_RING}"


class TestSpans:
    def test_nesting_parent_and_depth(self):
        reg = MetricsRegistry(clock=FakeClock())
        with reg.span("outer"):
            assert reg.spans.active_depth == 1
            with reg.span("inner"):
                assert reg.spans.active_depth == 2
        spans = reg.spans.completed()
        # inner completes first
        assert [s.name for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner.parent == "outer" and inner.depth == 1
        assert outer.parent is None and outer.depth == 0
        assert outer.start < inner.start and inner.end < outer.end

    def test_span_duration_requires_close(self):
        reg = MetricsRegistry(clock=FakeClock())
        with reg.span("open") as sp:
            with pytest.raises(ConfigurationError):
                sp.duration
        assert sp.duration > 0

    def test_spans_from_threads_are_independent(self):
        reg = MetricsRegistry()
        ready = threading.Barrier(2)

        def worker(name):
            with reg.span(name):
                ready.wait(timeout=5)

        threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = reg.spans.completed()
        # neither thread's span nests under the other's
        assert {s.name for s in spans} == {"t0", "t1"}
        assert all(s.parent is None and s.depth == 0 for s in spans)

    def test_timer_records_into_histogram(self):
        reg = MetricsRegistry(clock=FakeClock(step=0.5))
        with reg.timer("work"):
            pass
        assert reg.histogram("work").count == 1
        assert reg.histogram("work").percentile(50) == pytest.approx(0.5)


class TestExporterDeterminism:
    @staticmethod
    def _populate(reg):
        reg.counter("pool.hits").inc(9)
        reg.counter("pool.misses").inc(1)
        for v in [0.1, 0.2, 0.3, 0.4]:
            reg.histogram("request.latency").record(v)
        with reg.span("request"):
            with reg.span("garble"):
                pass

    def test_snapshot_identical_under_fixed_clock(self):
        a = MetricsRegistry(clock=FakeClock(step=0.25))
        b = MetricsRegistry(clock=FakeClock(step=0.25))
        self._populate(a)
        self._populate(b)
        assert a.snapshot() == b.snapshot()
        assert to_json(a.snapshot()) == to_json(b.snapshot())
        assert render_text(a.snapshot()) == render_text(b.snapshot())

    def test_text_report_contents(self):
        reg = MetricsRegistry(clock=FakeClock())
        self._populate(reg)
        text = render_text(reg.snapshot(), title="serving telemetry")
        assert "serving telemetry" in text
        assert "pool.hits" in text and "9" in text
        assert "request.latency" in text and "p90" in text
        assert "garble" in text

    def test_json_round_trips(self):
        import json

        reg = MetricsRegistry(clock=FakeClock())
        self._populate(reg)
        snap = reg.snapshot()
        assert json.loads(to_json(snap)) == snap

    def test_empty_registry_renders(self):
        assert "no metrics" in render_text(MetricsRegistry().snapshot())

    def test_registry_reuses_instruments_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("y") is reg.histogram("y")
