"""Counters, gauges, histograms and the labelled registry."""

import pytest

from repro.telemetry.metrics import (
    LATENCY_BUCKETS,
    RESERVOIR_SIZE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    reset_registry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("c")
        assert c.value == 0.0
        c.inc()
        c.inc()
        assert c.value == 2.0

    def test_inc_by_amount(self):
        c = Counter("c")
        c.inc(2.5)
        assert c.value == pytest.approx(2.5)

    def test_negative_increment_raises(self):
        c = Counter("c")
        with pytest.raises(ValueError):
            c.inc(-1.0)
        assert c.value == 0.0

    def test_carries_its_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("launches", kernel="gemm", backend="AccCpuSerial")
        assert dict(c.labels) == {"kernel": "gemm", "backend": "AccCpuSerial"}


class TestGauge:
    def test_set(self):
        g = Gauge("g")
        g.set(7)
        assert g.value == 7.0

    def test_inc_and_dec(self):
        g = Gauge("g")
        g.inc(3.0)
        g.dec(1.0)
        assert g.value == pytest.approx(2.0)

    def test_can_go_negative(self):
        g = Gauge("g")
        g.dec(4.0)
        assert g.value == pytest.approx(-4.0)

    def test_set_casts_to_float(self):
        g = Gauge("g")
        g.set(True)
        assert g.value == 1.0 and isinstance(g.value, float)


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram("h")
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.006)
        assert h.mean == pytest.approx(0.002)

    def test_min_max(self):
        h = Histogram("h")
        for v in (0.5, 0.01, 0.2):
            h.observe(v)
        assert h.min == pytest.approx(0.01)
        assert h.max == pytest.approx(0.5)

    def test_empty_statistics_are_zero(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.sum == 0.0
        assert h.min == 0.0
        assert h.max == 0.0
        assert h.mean == 0.0
        assert h.percentile(95) == 0.0

    def test_percentile_single_observation(self):
        h = Histogram("h")
        h.observe(0.25)
        assert h.percentile(0) == 0.25
        assert h.percentile(50) == 0.25
        assert h.percentile(100) == 0.25

    def test_percentile_interpolates_linearly(self):
        h = Histogram("h", buckets=(10.0,))
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.percentile(50) == pytest.approx(2.5)
        assert h.percentile(0) == pytest.approx(1.0)
        assert h.percentile(100) == pytest.approx(4.0)

    def test_percentile_out_of_range_raises(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_quantiles_trio(self):
        h = Histogram("h")
        for i in range(100):
            h.observe(i / 100.0)
        q = h.quantiles()
        assert set(q) == {"p50", "p95", "p99"}
        assert q["p50"] <= q["p95"] <= q["p99"]

    def test_cumulative_buckets_monotonic(self):
        h = Histogram("h")
        for v in (1e-6, 1e-4, 1e-2, 0.5):
            h.observe(v)
        cum = h.cumulative_buckets()
        assert [b for b, _ in cum] == list(LATENCY_BUCKETS)
        counts = [c for _, c in cum]
        assert counts == sorted(counts)
        assert counts[-1] == 4

    def test_nan_counts_in_no_bucket(self):
        h = Histogram("nan_h", buckets=(1.0, 2.0))
        h.observe(float("nan"))
        h.observe(1.5)
        assert h.count == 2
        assert h.cumulative_buckets() == [(1.0, 0), (2.0, 1)]

    def test_observation_above_top_bound_counts_only_in_inf(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(5.0)
        assert h.count == 1
        assert h.cumulative_buckets() == [(1.0, 0)]

    def test_unsorted_buckets_raise(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 0.5))

    def test_empty_buckets_raise(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_bad_reservoir_size_raises(self):
        with pytest.raises(ValueError):
            Histogram("h", reservoir_size=0)

    def test_reservoir_stays_bounded(self):
        h = Histogram("h", reservoir_size=16)
        for i in range(1000):
            h.observe(float(i))
        assert h.count == 1000
        assert len(h._reservoir) == 16

    def test_percentiles_deterministic_across_instances(self):
        a = Histogram("h", reservoir_size=32)
        b = Histogram("h", reservoir_size=32)
        for i in range(500):
            a.observe(float(i))
            b.observe(float(i))
        assert a.percentile(95) == b.percentile(95)

    def test_default_reservoir_size(self):
        h = Histogram("h")
        assert h._reservoir_size == RESERVOIR_SIZE


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("c", "help", kernel="k")
        b = reg.counter("c", kernel="k")
        assert a is b
        assert len(reg) == 1

    def test_distinct_labels_distinct_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("c", kernel="k1")
        b = reg.counter("c", kernel="k2")
        assert a is not b
        assert len(reg) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("c", kernel="k", backend="b")
        b = reg.counter("c", backend="b", kernel="k")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("m", kernel="k")

    def test_gauge_and_histogram_kinds(self):
        reg = MetricsRegistry()
        reg.gauge("g")
        reg.histogram("h")
        assert reg.kind_of("g") == "gauge"
        assert reg.kind_of("h") == "histogram"
        assert reg.kind_of("missing") is None

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.counter("aa")
        assert reg.names() == ["aa", "zz"]

    def test_help_text_recorded(self):
        reg = MetricsRegistry()
        reg.counter("c", "counts things", kernel="k")
        assert reg.help_of("c") == "counts things"
        assert reg.help_of("missing") == ""

    def test_instruments_filtered_by_name(self):
        reg = MetricsRegistry()
        reg.counter("c", kernel="k1")
        reg.counter("c", kernel="k2")
        reg.gauge("g")
        assert len(list(reg.instruments("c"))) == 2
        assert len(list(reg.instruments())) == 3

    def test_instruments_deterministic_order(self):
        reg = MetricsRegistry()
        reg.counter("c", kernel="zz")
        reg.counter("c", kernel="aa")
        kernels = [dict(i.labels)["kernel"] for i in reg.instruments("c")]
        assert kernels == ["aa", "zz"]

    def test_histogram_custom_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(0.5, 1.0))
        assert h.bounds == (0.5, 1.0)

    def test_clear_empties_registry(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.clear()
        assert len(reg) == 0
        assert reg.names() == []
        # Name can be re-bound as a different kind after clear.
        reg.gauge("c")
        assert reg.kind_of("c") == "gauge"

    def test_global_registry_is_singleton(self):
        assert registry() is registry()

    def test_reset_registry_swaps_global(self):
        old = registry()
        try:
            new = reset_registry()
            assert new is registry()
            assert new is not old
        finally:
            reset_registry()
