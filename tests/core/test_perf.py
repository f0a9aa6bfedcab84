"""Unit tests for the repro.perf work counters."""

from repro.obs.trace import NULL_TRACER, RingSink, Tracer
from repro.perf import WORK_COUNTERS, SimStats


class TestSimStats:
    def test_defaults_and_hit_rate(self):
        stats = SimStats()
        assert stats.cache_hit_rate == 0.0
        stats.view_cache_hits = 3
        stats.view_cache_misses = 1
        assert stats.cache_hit_rate == 0.75

    def test_merge(self):
        a = SimStats(views_gathered=2, bfs_node_visits=10)
        b = SimStats(views_gathered=3, view_cache_hits=4, decide_calls=1)
        a.merge(b)
        assert a.views_gathered == 5
        assert a.view_cache_hits == 4
        assert a.bfs_node_visits == 10
        assert a.decide_calls == 1

    def test_as_dict_is_json_ready(self):
        import json

        stats = SimStats(views_gathered=1, engine="scalar")
        payload = stats.as_dict()
        json.dumps(payload)
        assert list(payload) == ["engine", *WORK_COUNTERS, "cache_hit_rate"]
        assert "engine" not in SimStats().as_dict()


class TestSpan:
    def test_span_stamps_the_counter_delta(self):
        ring = RingSink()
        tracer = Tracer(ring)
        stats = SimStats(views_gathered=5)  # work before the span is not its
        with stats.span(tracer, "outer", radius=2):
            stats.views_gathered += 3
            with stats.span(tracer, "inner"):
                stats.bfs_node_visits += 7
        inner, outer = (r["attrs"] for r in ring.records)
        assert inner == {**dict.fromkeys(WORK_COUNTERS, 0), "bfs_node_visits": 7}
        # nested work counts in the enclosing span too
        assert outer["radius"] == 2
        assert outer["views_gathered"] == 3 and outer["bfs_node_visits"] == 7

    def test_span_is_stamped_when_the_block_raises(self):
        ring = RingSink()
        stats = SimStats()
        try:
            with stats.span(Tracer(ring), "decode"):
                stats.decide_calls += 1
                raise KeyError("boom")
        except KeyError:
            pass
        [record] = ring.records
        assert record["attrs"]["decide_calls"] == 1
        assert record["attrs"]["error"] == "KeyError"

    def test_null_tracer_gets_the_null_span(self):
        stats = SimStats()
        with stats.span(NULL_TRACER, "gather", radius=1) as span:
            stats.views_gathered += 1
        assert span is NULL_TRACER.span("gather")
        assert stats.views_gathered == 1
