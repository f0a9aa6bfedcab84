"""Telemetry/profile diffing under the shared tolerance semantics."""

import pytest

from repro.core.api import default_instance, make_schema
from repro.obs import (
    LogicalClock,
    MetricDelta,
    allowed_drift,
    diff_profiles,
    diff_telemetry,
    format_deltas,
    profile_run,
)


class TestAllowedDrift:
    def test_relative_with_unit_floor(self):
        assert allowed_drift(1000.0, 0.01) == pytest.approx(10.0)
        assert allowed_drift(0.0, 0.01) == pytest.approx(0.01)  # the floor
        assert allowed_drift(-200.0, 0.1) == pytest.approx(20.0)

    def test_matches_bench_baseline_rule(self):
        # The bench baseline gate and the diff layer share one rule.
        from benchmarks.common import allowed_drift as bench_rule

        assert bench_rule is allowed_drift


class TestDiffTelemetry:
    BASE = {"beta": 1, "rounds": 7, "bfs_node_visits": 900,
            "cache_hit_rate": 0.5}

    def test_identical_runs_show_no_significant_drift(self):
        deltas = diff_telemetry(self.BASE, dict(self.BASE))
        assert all(not d.significant for d in deltas)

    def test_drift_is_ranked_worst_first(self):
        current = dict(self.BASE, bfs_node_visits=2700, rounds=8)
        deltas = diff_telemetry(self.BASE, current)
        significant = [d for d in deltas if d.significant]
        assert [d.metric for d in significant][:2] == [
            "bfs_node_visits", "rounds"
        ]
        assert significant[0].delta == 1800

    def test_tolerance_allows_slack(self):
        current = dict(self.BASE, cache_hit_rate=0.505)
        deltas = {d.metric: d for d in diff_telemetry(self.BASE, current)}
        assert not deltas["cache_hit_rate"].significant
        current["cache_hit_rate"] = 0.52
        deltas = {d.metric: d for d in diff_telemetry(self.BASE, current)}
        assert deltas["cache_hit_rate"].significant

    def test_appearing_and_disappearing_metrics(self):
        deltas = {d.metric: d for d in diff_telemetry(
            {"beta": 1}, {"rounds": 5}, metrics=["beta", "rounds"]
        )}
        assert deltas["beta"].significant and deltas["beta"].current is None
        assert deltas["rounds"].significant and deltas["rounds"].base is None
        assert "disappeared" in deltas["beta"].describe()
        assert "appeared" in deltas["rounds"].describe()

    def test_absent_everywhere_is_skipped(self):
        assert diff_telemetry({}, {}, metrics=["nope"]) == []


class TestDiffProfiles:
    def _profile(self, n):
        graph, kwargs = default_instance("2-coloring", n, 0)
        schema = make_schema("2-coloring", **kwargs)
        _, profile = profile_run(schema, graph, clock=LogicalClock())
        return profile

    def test_same_run_diffs_empty(self):
        a, b = self._profile(40), self._profile(40)
        assert diff_profiles(a, b, "bfs_node_visits") == []

    def test_bigger_instance_shows_where_work_went(self):
        small, big = self._profile(40), self._profile(80)
        rows = diff_profiles(small, big, "bfs_node_visits")
        assert rows, "doubling n must move BFS work"
        stacks = dict(rows)
        gather = next(s for s in stacks if s.endswith("gather"))
        assert stacks[gather].delta > 0


class TestFormatting:
    def test_format_deltas_table(self):
        deltas = [
            MetricDelta("bfs_node_visits", 900.0, 2700.0),
            MetricDelta("beta", 1.0, 1.0),
        ]
        text = format_deltas(deltas)
        assert "bfs_node_visits" in text and "YES" in text
        assert format_deltas([d for d in deltas if d.significant],
                             only_significant=True).count("\n") == 1
        assert format_deltas([]) == "(no metric drift)"
