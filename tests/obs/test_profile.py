"""Work-profile soundness: attribution must match the engine exactly.

The profiler's contract: spans and ``SchemaRun.telemetry`` both read the
run's ``SimStats``, so for every registered schema the per-span work
attributed by :class:`WorkProfile` sums *exactly* to the telemetry
counters, and span-by-span self sums equal the tree totals.
Collapsed-stack output round-trips through :func:`parse_collapsed`, and a
:class:`LogicalClock` makes whole profiles deterministic.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import available_schemas, default_instance, make_schema
from repro.local import LocalGraph, run_message_passing, run_view_algorithm
from repro.local.model import MessagePassingAlgorithm
from repro.obs import (
    LogicalClock,
    RingSink,
    Tracer,
    WorkProfile,
    parse_collapsed,
    profile_run,
)
from repro.perf import WORK_COUNTERS
from repro.graphs import cycle, grid


def _profile_schema(name, n=60, seed=0, clock=None):
    graph, kwargs = default_instance(name, n, seed)
    schema = make_schema(name, **kwargs)
    return profile_run(schema, graph, clock=clock)


def _work(profile, telemetry):
    """(profile totals, telemetry values) of every work counter."""
    return (
        {c: profile.total(c) for c in WORK_COUNTERS},
        {c: telemetry[c] for c in WORK_COUNTERS},
    )


class TestReconciliation:
    """Per-span work sums exactly to the run's engine totals — all schemas."""

    @pytest.mark.parametrize("name", available_schemas())
    def test_profile_reconciles_with_telemetry(self, name):
        run, profile = _profile_schema(name)
        assert run.valid, f"{name}: demo instance must solve"
        totals, telemetry = _work(profile, run.telemetry)
        assert totals == telemetry, name

    @pytest.mark.parametrize("name", available_schemas())
    def test_telemetry_counters_are_ints(self, name):
        graph, kwargs = default_instance(name, 60, 0)
        run = make_schema(name, **kwargs).run(graph)
        for counter in WORK_COUNTERS:
            value = run.telemetry[counter]
            assert type(value) is int, f"{name}: {counter}={value!r}"

    @pytest.mark.parametrize("name", available_schemas())
    def test_self_sums_equal_totals(self, name):
        _, profile = _profile_schema(name)
        for counter in WORK_COUNTERS:
            assert profile.self_totals(counter) == pytest.approx(
                profile.total(counter)
            )
        assert profile.self_totals("wall") == pytest.approx(
            profile.total("wall"), abs=1e-9
        )

    def test_engine_totals_match_stats(self):
        # Direct engine check: the view engine's stats ARE the profile totals.
        g = LocalGraph(grid(8, 8), seed=0)
        ring = RingSink(capacity=1 << 16)
        result = run_view_algorithm(
            g, 2, lambda v: len(v.nodes), tracer=Tracer(ring)
        )
        profile = WorkProfile.from_records(ring.records)
        assert profile.total("views_gathered") == result.stats.views_gathered
        assert profile.total("bfs_node_visits") == result.stats.bfs_node_visits
        assert profile.total("decide_calls") == result.stats.decide_calls
        # The engine span declares totals; its children split them fully.
        engine = profile.by_name("run_view_algorithm")[0]
        assert engine.work_self["bfs_node_visits"] == 0
        assert engine.work_self["decide_calls"] == 0


class TestCollapsedRoundTrip:
    @pytest.mark.parametrize("name", available_schemas())
    def test_round_trips_for_counters_and_wall(self, name):
        _, profile = _profile_schema(name, clock=LogicalClock())
        for metric in ("wall",) + WORK_COUNTERS:
            text = profile.collapsed(metric)
            assert parse_collapsed(text) == profile.stack_totals(metric)

    def test_repeated_stacks_accumulate(self):
        assert parse_collapsed("a;b 3\na;b 4\na 1") == {
            ("a", "b"): 7, ("a",): 1
        }

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_collapsed("justonetoken")

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(
                *[st.sampled_from(["run", "gather", "decide", "verify"])] * 2
            ),
            st.integers(min_value=1, max_value=10**9),
            min_size=1,
            max_size=8,
        )
    )
    def test_parser_inverts_rendering(self, stacks):
        text = "\n".join(
            f"{';'.join(path)} {value}" for path, value in stacks.items()
        )
        assert parse_collapsed(text) == stacks


class TestDeterminism:
    def test_logical_clock_profiles_identical(self):
        _, first = _profile_schema("2-coloring", clock=LogicalClock())
        _, second = _profile_schema("2-coloring", clock=LogicalClock())
        assert first.collapsed("wall") == second.collapsed("wall")
        assert [s.as_dict() for s in first.spans] == [
            s.as_dict() for s in second.spans
        ]

    def test_logical_clock_wall_counts_trace_operations(self):
        _, profile = _profile_schema("2-coloring", clock=LogicalClock())
        for span in profile.spans:
            assert span.wall == int(span.wall) and span.wall > 0
            assert span.wall_self >= 0


class _Pings(MessagePassingAlgorithm):
    def send(self, round_index):
        return {port: "ping" for port in range(self.ctx.degree)}

    def receive(self, round_index, messages):
        if round_index >= 2:
            self.output = round_index


class TestMessagePassingProfile:
    def test_messages_attributed_and_rounds_timeline(self):
        g = LocalGraph(cycle(16), seed=0)
        ring = RingSink(capacity=1 << 16)
        result = run_message_passing(g, _Pings, tracer=Tracer(ring))
        profile = WorkProfile.from_records(ring.records)
        assert (
            profile.total("messages_delivered")
            == result.stats.messages_delivered
        )
        rounds = profile.rounds()
        assert [r["round"] for r in rounds] == list(range(result.rounds))
        assert sum(r["messages"] for r in rounds) == result.stats.messages_delivered


class TestStructure:
    def test_critical_path_follows_heaviest_chain(self):
        _, profile = _profile_schema("2-coloring")
        path = profile.critical_path()
        assert path[0].name == "schema_run"
        for parent, child in zip(path, path[1:]):
            children = profile.children_of(parent)
            assert child in children
            assert child.wall == max(c.wall for c in children)

    def test_critical_path_by_counter(self):
        _, profile = _profile_schema("2-coloring")
        path = profile.critical_path("bfs_node_visits")
        assert path[-1].name == "gather"

    def test_timeline_orders_spans(self):
        _, profile = _profile_schema("2-coloring", clock=LogicalClock())
        timeline = profile.timeline()
        starts = [t["start"] for t in timeline]
        assert starts == sorted(starts)
        names = {t["name"] for t in timeline}
        assert {"schema_run", "encode", "decode", "verify"} <= names

    def test_from_jsonl(self, tmp_path):
        from repro.obs import JsonlSink

        graph, kwargs = default_instance("2-coloring", 40, 0)
        schema = make_schema("2-coloring", **kwargs)
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        tracer = Tracer(sink)
        run = schema.run(graph, tracer=tracer)
        tracer.close()
        profile = WorkProfile.from_jsonl(str(path))
        totals, telemetry = _work(profile, run.telemetry)
        assert totals == telemetry

    def test_profile_run_takes_a_schema_name(self):
        graph, kwargs = default_instance("2-coloring", 40, 0)
        run, profile = profile_run("2-coloring", graph, **kwargs)
        assert run.valid
        totals, telemetry = _work(profile, run.telemetry)
        assert totals == telemetry

    def test_summary_is_json_ready(self):
        import json

        _, profile = _profile_schema("2-coloring")
        summary = profile.summary()
        json.dumps(summary)
        assert summary["totals"]["bfs_node_visits"] > 0
        assert summary["critical_path"][0]["name"] == "schema_run"
