"""Unit tests for the metrics registry and PhaseProfiler."""

import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhaseProfiler,
    get_metrics,
    set_metrics,
)
from repro.telemetry.spans import Tracer, get_tracer, set_tracer


class TestPrimitives:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_histogram_buckets(self):
        hist = Histogram("h", buckets=(1, 10, 100))
        for value in (0, 1, 5, 10, 50, 1000):
            hist.observe(value)
        # counts[i] = observations <= bucket[i]; last slot is overflow
        assert hist.counts == [2, 2, 1, 1]
        assert hist.count == 6
        assert hist.total == 1066
        assert hist.min == 0 and hist.max == 1000
        assert hist.mean == pytest.approx(1066 / 6)

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_empty_histogram_to_dict(self):
        state = Histogram("h").to_dict()
        assert state["count"] == 0
        assert state["min"] is None and state["max"] is None


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.names() == ["a"]

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_roundtrip_merge(self):
        src = MetricsRegistry()
        src.counter("runs").inc(3)
        src.gauge("size").set(7)
        src.histogram("steps").observe(20)
        src.histogram("steps").observe(500)

        dst = MetricsRegistry()
        dst.counter("runs").inc(1)
        dst.histogram("steps").observe(5)
        dst.merge_snapshot(src.snapshot())

        assert dst.counter("runs").value == 4
        assert dst.gauge("size").value == 7
        hist = dst.histogram("steps")
        assert hist.count == 3
        assert hist.total == 525
        assert hist.min == 5 and hist.max == 500

    def test_merge_bucket_mismatch_raises(self):
        src = MetricsRegistry()
        src.histogram("h", buckets=(1, 2)).observe(1)
        dst = MetricsRegistry()
        dst.histogram("h", buckets=(1, 2, 3))
        with pytest.raises(ValueError):
            dst.merge_snapshot(src.snapshot())

    def test_merge_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge_snapshot({"x": {"kind": "mystery"}})


class TestPhaseProfiler:
    @pytest.fixture
    def sinks(self):
        """Install a fresh tracer and registry; restore on teardown."""
        tracer, registry = Tracer(), MetricsRegistry()
        previous = set_tracer(tracer), set_metrics(registry)
        try:
            yield tracer, registry
        finally:
            set_tracer(previous[0])
            set_metrics(previous[1])

    def test_record_and_fractions(self, sinks):
        _, registry = sinks
        profiler = PhaseProfiler()
        profiler.record("evaluate", 3.0)
        profiler.record("speciate", 1.0)
        profiler.record("evaluate", 1.0)
        assert profiler.phases == {"evaluate": 4.0, "speciate": 1.0}
        assert profiler.fractions() == {"evaluate": 0.8, "speciate": 0.2}
        assert profiler.total == 5.0
        assert profiler.seconds("missing") == 0.0
        # the installed registry sees the same stream
        assert registry.counter("phase.evaluate_seconds").value == 4.0
        assert registry.counter("phase.speciate_seconds").value == 1.0

    def test_negative_duration_rejected(self, sinks):
        _, registry = sinks
        profiler = PhaseProfiler()
        with pytest.raises(ValueError):
            profiler.record("x", -0.1)
        assert profiler.phases == {}
        assert registry.names() == []

    def test_phase_without_sinks_records_no_span_or_counter(self):
        tracer, registry = Tracer(), MetricsRegistry()
        assert get_tracer() is None and get_metrics() is None
        profiler = PhaseProfiler()
        with profiler.phase("work", generation=0):
            pass
        assert profiler.phases.keys() == {"work"}
        assert profiler.seconds("work") >= 0.0
        assert len(tracer) == 0
        assert registry.names() == []

    def test_phase_with_tracer_and_registry_shares_one_reading(self, sinks):
        tracer, registry = sinks
        profiler = PhaseProfiler()
        with profiler.phase("evaluate", generation=2):
            pass
        (span,) = tracer.spans
        assert span.name == "phase.evaluate"
        assert span.attrs == {"generation": 2}
        assert span.to_dict()["dur"] == profiler.seconds("evaluate")
        assert (
            registry.counter("phase.evaluate_seconds").value
            == profiler.seconds("evaluate")
        )


class TestPhaseTimer:
    """The registry-backed phase view: ``phase.<name>_seconds`` counters
    fed by :class:`PhaseProfiler` and read back as a profile."""

    def test_profiler_api_parity(self):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            profiler = PhaseProfiler()
            profiler.record("evaluate", 3.0)
            profiler.record("speciate", 1.0)
            profiler.record("evaluate", 1.0)
        finally:
            set_metrics(previous)
        counters = {
            name[len("phase.") : -len("_seconds")]: state["value"]
            for name, state in registry.snapshot().items()
        }
        assert counters == profiler.phases
        total = sum(counters.values())
        assert {k: v / total for k, v in counters.items()} == (
            profiler.fractions()
        )
        assert total == profiler.total == 5.0
        assert profiler.seconds("evaluate") == 4.0
        assert profiler.seconds("missing") == 0.0

    def test_empty_fractions(self):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            profiler = PhaseProfiler()
            assert profiler.fractions() == {}
            assert profiler.total == 0.0
        finally:
            set_metrics(previous)
        assert registry.names() == []


class TestTeeRecorder:
    """One ``record`` call fans out to every sink that is installed."""

    def test_fans_out(self):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            first, second = PhaseProfiler(), PhaseProfiler()
            first.record("evaluate", 1.5)
            second.record("evaluate", 0.5)
        finally:
            set_metrics(previous)
        assert first.seconds("evaluate") == 1.5
        assert second.seconds("evaluate") == 0.5
        # both profilers feed the one installed registry
        assert registry.counter("phase.evaluate_seconds").value == 2.0
        # nothing is recorded once the registry is uninstalled
        first.record("evaluate", 1.0)
        assert first.seconds("evaluate") == 2.5
        assert registry.counter("phase.evaluate_seconds").value == 2.0


class TestGlobalRegistry:
    def test_set_metrics_returns_previous(self):
        assert get_metrics() is None
        registry = MetricsRegistry()
        assert set_metrics(registry) is None
        try:
            assert get_metrics() is registry
        finally:
            assert set_metrics(None) is registry
        assert get_metrics() is None


class TestHistogramQuantiles:
    def test_nearest_rank_bucket_resolution(self):
        hist = Histogram("h", buckets=(1, 10, 100))
        for value in (0.5, 2, 3, 20, 50, 500):
            hist.observe(value)
        # ranks: p50 -> 3rd obs (bucket <=10), p95/p99 -> overflow -> max
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(0.95) == 500
        assert hist.quantile(0.99) == 500

    def test_clamped_to_observed_range(self):
        hist = Histogram("h", buckets=(100,))
        hist.observe(3)
        hist.observe(7)
        # the bucket bound (100) far exceeds anything observed
        assert hist.quantile(0.5) == 7
        assert hist.quantile(0.0) == 7  # same bucket, same clamped bound

    def test_empty_histogram_returns_none(self):
        hist = Histogram("h")
        assert hist.quantile(0.5) is None
        assert hist.quantiles() == {"p50": None, "p95": None, "p99": None}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_deterministic_across_identical_streams(self):
        def build():
            hist = Histogram("h", buckets=(0.001, 0.01, 0.1, 1.0))
            for i in range(1000):
                hist.observe((i % 97) / 100.0)
            return hist.quantiles()

        assert build() == build()

    def test_quantiles_in_snapshot_export(self):
        registry = MetricsRegistry()
        hist = registry.histogram("phase.evaluate_seconds")
        for value in (0.01, 0.02, 0.03):
            hist.observe(value)
        state = registry.snapshot()["phase.evaluate_seconds"]
        assert set(state["quantiles"]) == {"p50", "p95", "p99"}
        assert state["quantiles"]["p50"] is not None

    def test_merge_snapshot_recomputes_quantiles(self):
        source = MetricsRegistry()
        for value in (1, 2, 3, 200):
            source.histogram("h", buckets=(10, 100)).observe(value)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        merged = target.snapshot()["h"]
        assert merged["quantiles"] == source.snapshot()["h"]["quantiles"]
