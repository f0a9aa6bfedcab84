"""Unit tests for repro.obs.metrics: primitives, labels, snapshots."""

import json

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge()
        g.set(10)
        g.inc(-3)
        assert g.value == 7.0


class TestHistogram:
    def test_summary_stats(self):
        h = Histogram()
        for v in (0, 1, 1, 2, 8):
            h.observe(v)
        assert h.count == 5
        assert h.sum == 12
        assert h.min == 0
        assert h.max == 8
        assert h.mean == 2.4

    def test_buckets_cumulative(self):
        h = Histogram(buckets=(1, 2, 4))
        for v in (0.5, 1, 3, 100):
            h.observe(v)
        snap = h.snapshot_value()
        assert snap["buckets"] == {"le_1": 2, "le_2": 2, "le_4": 3, "le_inf": 4}

    def test_empty_histogram(self):
        snap = Histogram().snapshot_value()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0
        assert snap["min"] is None
        assert snap["p50"] is None and snap["p95"] is None

    def test_quantile_small_integers(self):
        h = Histogram(buckets=(1, 2, 4, 8))
        for v in (1, 1, 2, 2, 2, 4, 4, 8, 8, 8):
            h.observe(v)
        assert h.quantile(0.50) == 2
        assert h.quantile(0.95) == 8
        assert h.quantile(0.0) == 1  # clamped to the observed minimum
        assert h.quantile(1.0) == 8

    def test_quantile_clamps_to_observed_range(self):
        # All observations land in one bucket whose upper bound is far
        # above the data: the estimate must not exceed the observed max.
        h = Histogram(buckets=(100,))
        for v in (3, 5, 7):
            h.observe(v)
        assert h.quantile(0.5) <= h.max
        assert h.quantile(0.5) >= h.min

    def test_quantile_empty_is_none(self):
        assert Histogram().quantile(0.5) is None

    def test_snapshot_includes_quantiles(self):
        h = Histogram()
        for v in range(1, 11):
            h.observe(v)
        snap = h.snapshot_value()
        assert snap["p50"] is not None and snap["p95"] is not None
        assert snap["p50"] <= snap["p95"] <= snap["max"]

    def test_quantile_single_observation_is_exact(self):
        h = Histogram(buckets=(100,))
        h.observe(7)
        # One observation far below its bucket bound: every quantile is
        # that observation, not the bucket's upper bound.
        assert h.quantile(0.0) == 7
        assert h.quantile(0.5) == 7
        assert h.quantile(1.0) == 7

    def test_quantile_degenerate_data_is_exact(self):
        h = Histogram(buckets=(1, 1000))
        for _ in range(5):
            h.observe(42)
        assert h.quantile(0.5) == 42
        assert h.quantile(0.99) == 42


class TestHistogramMerge:
    def test_merge_folds_counts_sum_and_range(self):
        a, b = Histogram(), Histogram()
        for v in (0, 1, 2):
            a.observe(v)
        for v in (16, 64):
            b.observe(v)
        result = a.merge(b)
        assert result is a
        assert a.count == 5
        assert a.sum == 83
        assert a.min == 0 and a.max == 64

    def test_merge_equals_observing_everything_in_one(self):
        import random

        rng = random.Random(7)
        values = [rng.uniform(0, 200) for _ in range(100)]
        merged = Histogram()
        for chunk_start in range(0, 100, 25):
            part = Histogram()
            for v in values[chunk_start:chunk_start + 25]:
                part.observe(v)
            merged.merge(part)
        direct = Histogram()
        for v in values:
            direct.observe(v)
        assert merged.snapshot_value() == direct.snapshot_value()
        for q in (0.1, 0.5, 0.9, 0.99):
            assert merged.quantile(q) == direct.quantile(q)

    def test_merge_empty_is_identity(self):
        h = Histogram()
        h.observe(3)
        before = h.snapshot_value()
        h.merge(Histogram())
        assert h.snapshot_value() == before
        empty = Histogram()
        empty.merge(h)
        assert empty.snapshot_value() == before

    def test_merge_rejects_different_buckets(self):
        with pytest.raises(ValueError, match="different buckets"):
            Histogram(buckets=(1, 2)).merge(Histogram(buckets=(1, 2, 4)))


class TestRegistry:
    def test_get_or_create_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("hits") is reg.counter("hits")
        assert reg.counter("hits", schema="a") is not reg.counter("hits", schema="b")

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_labels_and_json(self):
        reg = MetricsRegistry()
        reg.counter("violations_total").inc(2)
        reg.gauge("beta", schema="two-coloring").set(1)
        reg.histogram("advice_bits_per_node").observe(1)
        snap = reg.snapshot()
        assert snap["violations_total"] == 2
        assert snap["beta{schema=two-coloring}"] == 1.0
        assert snap["advice_bits_per_node"]["count"] == 1
        json.dumps(snap)  # JSON-ready
