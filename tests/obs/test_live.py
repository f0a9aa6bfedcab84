"""Serving telemetry (repro.obs.live) and the AdviceService query path.

The acceptance properties of the serving subsystem:

* per-query answers are bit-identical to a cold ``solve_with_advice``
  full-graph decode;
* per-query deterministic work (BFS visits per query) stays flat as n
  grows at fixed Δ — the paper's O(Δ^T) serving claim;
* ``queries_total`` = Σ tenant shards = sampled + unsampled, exactly;
* sampling is a pure function of (seed, rate, key): same seed + logical
  clock ⇒ identical sampled span sets across runs;
* the unsampled path costs < 10% over a sampling-disabled service.
"""

import time

import pytest

from repro.core.api import make_service, solve_with_advice
from repro.graphs.generators import grid
from repro.local.graph import LocalGraph
from repro.obs.live import (
    SlidingWindowHistogram,
    SloMonitor,
    SloPolicy,
    TenantShards,
    head_sampled,
    prometheus_text,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import WorkProfile
from repro.obs.trace import NULL_TRACER, LogicalClock
from repro.perf import WORK_COUNTERS
from repro.schemas.two_coloring import TwoColoringSchema
from repro.serve import AdviceService, ServeError, run_serve_bench


def make_grid_service(side=16, **options):
    graph = LocalGraph(grid(side, side), seed=0)
    options.setdefault("sample_rate", 0.5)
    options.setdefault("clock", LogicalClock())
    return AdviceService(TwoColoringSchema(spacing=8), graph, **options), graph


class ListSink:
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(dict(record))

    def close(self):
        pass


# ---------------------------------------------------------------------------
# Head sampling of the service's one tracer
# ---------------------------------------------------------------------------


class TestSamplingTracer:
    """``head_sampled`` decides which queries run under the service tracer."""

    def test_decision_is_deterministic_across_instances(self):
        keys = range(2000)
        set_a = {k for k in keys if head_sampled(k, 0.3, seed=5)}
        set_b = {k for k in keys if head_sampled(k, 0.3, seed=5)}
        assert set_a == set_b
        # and roughly the configured fraction
        assert 0.25 < len(set_a) / 2000 < 0.35

    def test_different_seed_different_set(self):
        assert {k for k in range(500) if head_sampled(k, 0.3, seed=0)} != \
            {k for k in range(500) if head_sampled(k, 0.3, seed=1)}

    def test_rate_zero_and_one(self):
        assert not any(head_sampled(k, 0.0) for k in range(100))
        assert all(head_sampled(k, 1.0) for k in range(100))

    def test_for_query_routes_and_counts(self):
        always, _ = make_grid_service(side=8, sample_rate=1.0)
        never, _ = make_grid_service(side=8, sample_rate=0.0)
        assert always._tracer_for(1) is always.tracer
        assert never._tracer_for(1) is NULL_TRACER
        node = next(iter(always.graph.nodes()))
        assert always.query(node).sampled and not never.query(node).sampled
        assert always.registry.snapshot()["queries_sampled_total"] == 1
        assert never.registry.snapshot()["queries_unsampled_total"] == 1

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            head_sampled(0, 1.5)
        with pytest.raises(ValueError):
            make_grid_service(side=8, sample_rate=1.5)


# ---------------------------------------------------------------------------
# SlidingWindowHistogram
# ---------------------------------------------------------------------------


class TestSlidingWindowHistogram:
    def test_rotation_evicts_old_windows(self):
        w = SlidingWindowHistogram(window_size=10, windows=2)
        for v in range(100):
            w.observe(100.0)  # old regime
        for _ in range(20):
            w.observe(1.0)  # new regime fills both retained windows
        assert w.count == 20
        assert w.quantile(0.99) <= 2  # the old regime has rotated out
        assert w.observed_total == 120

    def test_merged_matches_direct_within_coverage(self):
        from repro.obs.metrics import Histogram

        w = SlidingWindowHistogram(window_size=50, windows=4)
        direct = Histogram(w.buckets)
        for v in range(120):  # under 200 = full coverage, no eviction
            w.observe(v % 37)
            direct.observe(v % 37)
        assert w.merged().snapshot_value() == direct.snapshot_value()

    def test_snapshot_has_rolling_fields(self):
        clock = LogicalClock()
        w = SlidingWindowHistogram(window_size=4, windows=2, clock=clock)
        for v in (1, 2, 3, 4, 5):
            w.observe(v)
        snap = w.snapshot_value()
        assert snap["windows"] == 2 and snap["window_size"] == 4
        assert snap["observed_total"] == 5
        assert snap["p99"] is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowHistogram(window_size=0)
        with pytest.raises(ValueError):
            SlidingWindowHistogram(windows=0)


# ---------------------------------------------------------------------------
# TenantShards
# ---------------------------------------------------------------------------


class TestTenantShards:
    def test_first_k_tenants_get_own_shard_rest_overflow(self):
        shards = TenantShards(MetricsRegistry(), max_tenants=2)
        assert shards.label("a") == "a"
        assert shards.label("b") == "b"
        assert shards.label("c") == TenantShards.OVERFLOW
        assert shards.label("d") == TenantShards.OVERFLOW
        # sticky: repeats keep their assignment
        assert shards.label("a") == "a"
        assert shards.label("c") == TenantShards.OVERFLOW
        assert shards.labels() == ["__other__", "a", "b"]

    def test_shard_sum_equals_total_regardless_of_order(self):
        registry = MetricsRegistry()
        shards = TenantShards(registry, max_tenants=2)
        total = registry.counter("queries_total")
        for tenant in ["x", "y", "z", "x", "w", "z", "y", "q"]:
            total.inc()
            shards.counter("queries_total", tenant).inc()
        snap = registry.snapshot()
        shard_sum = sum(
            snap[f"queries_total{{tenant={label}}}"]
            for label in shards.labels()
        )
        assert shard_sum == snap["queries_total"] == 8


# ---------------------------------------------------------------------------
# SLOs
# ---------------------------------------------------------------------------


class TestSloMonitor:
    def test_latency_breach_emits_failure_report(self):
        policy = SloPolicy(latency_quantile=0.95, latency_target=1.0,
                           max_error_rate=1.0, window=10)
        monitor = SloMonitor(policy, schema_name="2-coloring")
        breaches = []
        for _ in range(10):
            breaches += monitor.record(50.0)
        assert len(breaches) == 1
        report = breaches[0]
        assert report.kind == "slo-violation"
        assert report.schema_name == "2-coloring"
        assert "latency over target" in report.error
        assert monitor.registry.snapshot()["slo_violations_total"] == 1

    def test_error_rate_breach(self):
        policy = SloPolicy(latency_target=1e9, max_error_rate=0.1, window=10)
        monitor = SloMonitor(policy)
        breaches = []
        for i in range(10):
            breaches += monitor.record(0.0, error=(i < 2))  # 20% > 10%
        assert len(breaches) == 1
        assert "error rate over budget" in breaches[0].error

    def test_within_objectives_no_breach(self):
        policy = SloPolicy(latency_target=10.0, max_error_rate=0.5, window=5)
        monitor = SloMonitor(policy)
        for _ in range(20):
            assert monitor.record(1.0) == []
        assert monitor.violations == []
        assert monitor.snapshot_value()["windows_closed"] == 4

    def test_error_budget_burn(self):
        policy = SloPolicy(latency_target=1e9, max_error_rate=0.1, window=100)
        monitor = SloMonitor(policy)
        for i in range(50):
            monitor.record(0.0, error=(i < 10))  # 10 errors, 5 allowed
        budget = monitor.budget()
        assert budget["allowed"] == pytest.approx(5.0)
        assert budget["spent"] == 10.0
        assert budget["remaining"] == pytest.approx(-5.0)
        assert budget["burn_rate"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Prometheus exporter
# ---------------------------------------------------------------------------


class TestPrometheusText:
    def test_renders_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc(3)
        registry.counter("queries_total", tenant="acme").inc(2)
        registry.gauge("memo_size").set(7)
        registry.histogram("latency", buckets=(1, 2)).observe(1.5)
        text = prometheus_text(registry)
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_queries_total 3" in text
        assert 'repro_queries_total{tenant="acme"} 2' in text
        assert "# TYPE repro_memo_size gauge" in text
        assert "repro_memo_size 7" in text
        assert "# TYPE repro_latency histogram" in text
        assert 'repro_latency_bucket{le="1"} 0' in text
        assert 'repro_latency_bucket{le="2"} 1' in text
        assert 'repro_latency_bucket{le="+Inf"} 1' in text
        assert "repro_latency_sum 1.5" in text
        assert "repro_latency_count 1" in text

    def test_output_is_stable(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b_total").inc()
            registry.counter("a_total", tenant="t").inc(2)
            return registry

        assert prometheus_text(build()) == prometheus_text(build())

    def test_write_prometheus(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        path = tmp_path / "metrics.prom"
        write_prometheus(registry, str(path))
        assert path.read_text() == prometheus_text(registry)

    def test_name_sanitized_and_namespace(self):
        registry = MetricsRegistry()
        registry.counter("weird-name.total").inc()
        text = prometheus_text(registry, namespace="svc")
        assert "svc_weird_name_total 1" in text


# ---------------------------------------------------------------------------
# AdviceService
# ---------------------------------------------------------------------------


class TestAdviceService:
    def test_answers_bit_identical_to_cold_full_decode(self):
        # The flagship grid instance (n = 4096): every served answer must
        # equal what a cold encode + full-graph decode computes.
        graph = LocalGraph(grid(64, 64), seed=0)
        service = AdviceService(
            TwoColoringSchema(spacing=8), graph, sample_rate=0.25,
            clock=LogicalClock(),
        )
        cold = solve_with_advice(TwoColoringSchema(spacing=8), graph)
        assert cold.valid
        import random

        rng = random.Random(0)
        nodes = sorted(graph.nodes(), key=graph.id_of)
        sample = [nodes[rng.randrange(len(nodes))] for _ in range(150)]
        for i, v in enumerate(sample):
            result = service.query(v, tenant=f"tenant-{i % 3}")
            assert result.label == cold.result.labeling[v]
        # and via batches too
        batch = service.query_batch(sample[:20], tenant="batch")
        for r in batch:
            assert r.label == cold.result.labeling[r.node]

    def test_counters_reconcile_exactly(self):
        service, _ = make_grid_service(side=16, max_tenants=3)
        import random

        rng = random.Random(1)
        nodes = sorted(service.graph.nodes(), key=service.graph.id_of)
        for i in range(120):
            service.query(
                nodes[rng.randrange(len(nodes))],
                tenant=f"tenant-{rng.randrange(8)}",  # forces overflow shard
            )
        snap = service.registry.snapshot()
        total = snap["queries_total"]
        shard_sum = sum(
            snap[f"queries_total{{tenant={label}}}"]
            for label in service.shards.labels()
        )
        sampled = snap.get("queries_sampled_total", 0)
        unsampled = snap.get("queries_unsampled_total", 0)
        assert total == 120
        assert shard_sum == total
        assert sampled + unsampled == total
        assert TenantShards.OVERFLOW in service.shards.labels()

    def test_per_query_work_flat_as_n_grows(self):
        # The acceptance sweep: n = 4k -> 16k -> 64k at fixed Δ = 4.  The
        # deterministic per-query BFS work must stay flat (the small drift
        # is boundary balls becoming rarer as n grows).
        report = run_serve_bench(sides=(64, 128, 256), queries=32, seed=0)
        ratio = report["flatness"]["visit_ratio"]
        assert ratio is not None and ratio <= 1.25
        for case in report["cases"]:
            assert case["reconciled"]
            assert case["ball_p50"] == 113  # interior radius-7 grid ball

    def test_sampled_span_sets_reproduce_across_runs(self):
        def run():
            sink = ListSink()
            service, graph = make_grid_service(
                side=12, sample_rate=0.4, sample_seed=7, span_sink=sink,
            )
            nodes = sorted(graph.nodes(), key=graph.id_of)
            flags = [
                service.query(nodes[i % len(nodes)]).sampled
                for i in range(60)
            ]
            service.close()
            return flags, sink.records

        flags_a, records_a = run()
        flags_b, records_b = run()
        assert flags_a == flags_b
        assert any(flags_a) and not all(flags_a)
        assert records_a == records_b  # logical clock ⇒ bit-identical spans
        span_names = {r["name"] for r in records_a if r["kind"] == "span"}
        assert {"query", "gather", "decode"} <= span_names

    def test_unsampled_overhead_under_ten_percent(self):
        # sample_rate=0.0 pays one sampling decision per query vs
        # sample_rate=None (no sampling machinery at all); the gather
        # dominates both.  The two services answer each query back to back,
        # in alternating order, so host noise lands on both alike.
        graph = LocalGraph(grid(24, 24), seed=0)
        nodes = sorted(graph.nodes(), key=graph.id_of)
        services = [
            AdviceService(TwoColoringSchema(spacing=8), graph, sample_rate=rate)
            for rate in (None, 0.0)
        ]
        for service in services:
            for v in nodes[:30]:  # warm both identically
                service.query(v)
        best = [float("inf")] * 2
        for _ in range(3):
            spent = [0.0, 0.0]
            for i in range(300):
                node = nodes[i % len(nodes)]
                for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                    t0 = time.perf_counter()
                    services[k].query(node)
                    spent[k] += time.perf_counter() - t0
            best = [min(b, t) for b, t in zip(best, spent)]
        baseline, unsampled = best
        assert unsampled <= baseline * 1.10

    @pytest.mark.parametrize("batch", [1, 80])
    def test_sampled_trace_totals_equal_service_stats(self, batch):
        # Every serve span is stamped from the service's SimStats, so a
        # fully sampled trace accounts for exactly the work the service
        # counted, on the scalar (one node) and vectorized gather alike.
        service, graph = make_grid_service(side=16, sample_rate=1.0)
        nodes = sorted(graph.nodes(), key=graph.id_of)[:batch]
        service.query_batch(nodes)
        profile = WorkProfile.from_records(service.tracer.ring().records)
        [gather] = profile.by_name("gather")
        assert gather.attrs["engine"] == (
            "scalar" if batch == 1 else "vectorized"
        )
        stats = service.stats.counters()
        assert stats["decide_calls"] == batch
        assert {c: profile.total(c) for c in WORK_COUNTERS} == stats

    def test_repeated_query_is_decided_again(self):
        service, graph = make_grid_service(side=16)
        center = sorted(graph.nodes(), key=graph.id_of)[40]
        first = service.query(center)
        second = service.query(center)
        assert first.label == second.label
        assert not first.cache_hit and not second.cache_hit
        queries = service.registry.snapshot()["queries_total"]
        assert service.stats.decide_calls == queries == 2

    def test_invalid_advice_counts_errors_and_reraises(self):
        from repro.advice.schema import InvalidAdvice

        policy = SloPolicy(latency_target=1e9, max_error_rate=0.0, window=1)
        service, graph = make_grid_service(side=16, slo=policy)
        # Blank out the served advice: no anchors are visible in any ball.
        service.advice = {v: "" for v in service.advice}
        node = sorted(graph.nodes(), key=graph.id_of)[0]
        with pytest.raises(InvalidAdvice):
            service.query(node, tenant="acme")
        snap = service.registry.snapshot()
        assert snap["query_errors_total"] == 1
        assert snap["queries_total"] == 1
        assert snap["queries_total{tenant=acme}"] == 1
        assert service.slo.errors_total == 1
        assert any(
            "error rate over budget" in r.error
            for r in service.slo.violations
        )

    def test_slo_violations_surface_in_snapshot(self):
        policy = SloPolicy(
            latency_quantile=0.5, latency_target=0.5, window=4,
        )
        # Logical clock: each query's latency is a fixed number of ticks
        # (>= 1), so every window breaches the 0.5-tick target.
        service, graph = make_grid_service(side=12, slo=policy)
        nodes = sorted(graph.nodes(), key=graph.id_of)
        for i in range(8):
            service.query(nodes[i])
        snap = service.snapshot()
        assert snap["slo"]["windows_closed"] == 2
        assert snap["slo"]["violations"] >= 2
        assert service.registry.snapshot()["slo_violations_total"] >= 2

    def test_snapshot_and_prometheus_round_out(self):
        import json

        service, _ = make_grid_service(side=12)
        nodes = sorted(service.graph.nodes(), key=service.graph.id_of)
        for v in nodes[:10]:
            service.query(v)
        snap = service.snapshot()
        assert snap["schema"] == "two-coloring"
        assert snap["n"] == 144 and snap["radius"] == 7
        assert snap["packed_advice_bits"] > 0
        assert snap["metrics"]["queries_total"] == 10
        assert snap["latency"]["observed_total"] == 10
        assert snap["ball_size"]["p99"] <= 113
        assert snap["sampling"] == {"rate": 0.5, "seed": 0}
        assert snap["metrics"]["queries_sampled_total"] + \
            snap["metrics"]["queries_unsampled_total"] == 10
        json.dumps(snap)  # JSON-ready
        text = service.prometheus()
        assert "repro_queries_total 10" in text

    def test_engines_agree(self, force_gather):
        graph = LocalGraph(grid(12, 12), seed=0)
        nodes = sorted(graph.nodes(), key=graph.id_of)[:25]
        vec = AdviceService(TwoColoringSchema(spacing=8), graph, sample_rate=None)
        scal = AdviceService(TwoColoringSchema(spacing=8), graph, sample_rate=None)
        for v in nodes:
            force_gather("vectorized")
            label = vec.query(v).label
            force_gather("scalar")
            assert label == scal.query(v).label
        # the deterministic work counters are engine-independent too
        assert vec.stats.views_gathered == scal.stats.views_gathered
        assert vec.stats.bfs_node_visits == scal.stats.bfs_node_visits
        assert vec.stats.decide_calls == scal.stats.decide_calls

    @pytest.mark.parametrize("engine", ["auto", "vectorized"])
    @pytest.mark.parametrize("batch", [1, 3, 4, 64])
    def test_batches_answer_like_scalar(self, force_gather, engine, batch):
        graph = LocalGraph(grid(12, 12), seed=0)
        nodes = sorted(graph.nodes(), key=graph.id_of)
        batches = [
            [nodes[(start + k) % len(nodes)] for k in range(batch)]
            for start in range(0, 2 * batch, batch)
        ]
        served = AdviceService(TwoColoringSchema(spacing=8), graph, sample_rate=None)
        scal = AdviceService(TwoColoringSchema(spacing=8), graph, sample_rate=None)
        for roots in batches:
            force_gather(engine)
            got = [(r.node, r.label) for r in served.query_batch(roots)]
            force_gather("scalar")
            want = [(r.node, r.label) for r in scal.query_batch(roots)]
            assert got == want
        assert served.stats.views_gathered == scal.stats.views_gathered
        assert served.stats.bfs_node_visits == scal.stats.bfs_node_visits
        assert served.stats.decide_calls == scal.stats.decide_calls

    def test_snapshot_names_the_single_query_engine(self, force_gather):
        # One root is below auto's vectorize cut-off.
        service, _ = make_grid_service(side=12)
        assert service.snapshot()["engine"] == "scalar"
        force_gather("vectorized")
        assert service.snapshot()["engine"] == "vectorized"

    def test_make_service_facade(self):
        graph = LocalGraph(grid(12, 12), seed=0)
        service = make_service("2-coloring", graph, sample_rate=None)
        node = sorted(graph.nodes(), key=graph.id_of)[5]
        assert service.query(node).label in (1, 2)

    def test_unservable_schema_raises(self):
        from repro.graphs.generators import cycle

        graph = LocalGraph(cycle(16), seed=0)
        with pytest.raises(ServeError, match="per-view decoder"):
            make_service("balanced-orientation", graph)

    def test_empty_batch_is_empty(self):
        service, _ = make_grid_service(side=12)
        assert service.query_batch([]) == []
        assert service.registry.snapshot() == {}
