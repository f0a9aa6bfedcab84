"""ChurnRunner: bootstrap, local repair, escalation."""

import pytest

from repro.advice.schema import InvalidAdvice
from repro.dynamic import ChurnRunner, Mutation, generate_mutation_plan
from repro.dynamic import runner as churn_runner
from repro.dynamic.runner import ChurnError
from repro.graphs import grid, planted_three_colorable
from repro.local import LocalGraph
from repro.obs.robustness import (
    BALL_RESOLVE,
    GLOBAL_RESOLVE,
    RESOLVED_FAILED,
    RESOLVED_LOCAL,
    RESOLVED_NOOP,
    RESOLVED_REENCODE,
)
from repro.schemas.three_coloring import ThreeColoringSchema
from repro.schemas.two_coloring import TwoColoringSchema


def _grid_runner(side=6, seed=0, **kwargs):
    graph = LocalGraph(grid(side, side), seed=seed)
    return ChurnRunner(TwoColoringSchema(), graph, **kwargs)


class TestBootstrap:
    def test_serving_state_starts_valid(self):
        runner = _grid_runner()
        assert runner.schema.check_solution(runner.graph, runner.labeling)
        assert set(runner.advice) == set(runner.graph.nodes())

    def test_bootstrap_failure_is_churn_error(self):
        class _Broken(TwoColoringSchema):
            def check_solution(self, graph, labeling):
                return False

        graph = LocalGraph(grid(4, 4), seed=0)
        with pytest.raises(ChurnError):
            ChurnRunner(_Broken(), graph)


class TestStream:
    def test_plan_stream_stays_valid_with_full_check(self):
        graph = LocalGraph(grid(6, 6), seed=0)
        plan = generate_mutation_plan(graph, 50, seed=1)
        runner = ChurnRunner(TwoColoringSchema(), graph)
        for m in plan.mutations:
            record = runner.apply(m, full_check=True)
            assert record.valid, f"invalid after {m.describe()}"
        assert runner.applied == 50
        # The serving pair decodes end to end.
        result = runner.schema.decode(runner.graph, runner.advice)
        assert runner.schema.check_solution(runner.graph, result.labeling)

    def test_stream_is_bit_reproducible(self):
        def one_run():
            graph = LocalGraph(grid(6, 6), seed=0)
            plan = generate_mutation_plan(graph, 40, seed=8)
            runner = ChurnRunner(TwoColoringSchema(), graph)
            return [runner.apply(m, full_check=True).as_dict() for m in plan.mutations]

        assert one_run() == one_run()

    def test_epoch_advances_with_each_topology_change(self):
        graph = LocalGraph(grid(5, 5), seed=0)
        plan = generate_mutation_plan(graph, 10, seed=4)
        runner = ChurnRunner(TwoColoringSchema(), graph)
        epochs = [graph.epoch]
        for m in plan.mutations:
            runner.apply(m)
            epochs.append(graph.epoch)
        assert all(b > a for a, b in zip(epochs, epochs[1:]))

    def test_metrics_land_in_the_registry(self):
        # The stream's account is its records: one per applied mutation,
        # in order, each holding the mutation it applied.
        graph = LocalGraph(grid(6, 6), seed=0)
        plan = generate_mutation_plan(graph, 20, seed=2)
        runner = ChurnRunner(TwoColoringSchema(), graph)
        records = [runner.apply(m) for m in plan.mutations]
        assert runner.applied == 20
        assert [r.index for r in records] == list(range(20))
        assert [r.mutation for r in records] == list(plan.mutations)
        assert {r.mutation.kind for r in records} <= {
            "edge-insert", "edge-delete", "node-insert", "node-delete"
        }


class TestEscalation:
    def test_crippled_solver_falls_back_to_reencode(self):
        runner = _grid_runner(5, max_ball_radius=0, max_solver_steps=1)
        # A fresh node has no label; with the ball re-solve crippled the
        # runner must escalate to a full re-encode and still end valid.
        record = runner.apply(
            Mutation("node-insert", node=1000, neighbors=(0,)), full_check=True
        )
        assert record.resolved_by == RESOLVED_REENCODE
        assert record.valid
        assert not record.local
        assert any(
            a.kind == GLOBAL_RESOLVE and a.success for a in record.actions
        )

    def test_exhausted_escalate_budget_is_a_clean_failure(self):
        class _EncoderOffline(TwoColoringSchema):
            def __init__(self):
                super().__init__()
                self.offline = False

            def encode(self, graph):
                if self.offline:
                    raise InvalidAdvice("encoder offline")
                return super().encode(graph)

        graph = LocalGraph(grid(5, 5), seed=0)
        schema = _EncoderOffline()
        runner = ChurnRunner(schema, graph, max_ball_radius=0, max_solver_steps=1)
        schema.offline = True
        record = runner.apply(
            Mutation("node-insert", node=1000, neighbors=(0,)), full_check=True
        )
        assert record.resolved_by == RESOLVED_FAILED
        assert not record.valid
        # One re-encode fallback was attempted, and it failed.
        failures = [a for a in record.actions if a.kind == GLOBAL_RESOLVE]
        assert [(a.success, a.detail) for a in failures] == [
            (False, "reencode raised InvalidAdvice")
        ]

    def test_stale_certificate_fallback_is_a_clean_failure(self):
        # The planted certificate covers only the bootstrap nodes; a
        # re-encode after a node insert must fail as an advice error the
        # fallback records, not leak a KeyError.
        raw, cert = planted_three_colorable(40, seed=0)
        graph = LocalGraph(raw, seed=0)
        runner = ChurnRunner(
            ThreeColoringSchema(coloring=dict(cert)),
            graph,
            max_ball_radius=0,
            max_solver_steps=1,
        )
        record = runner.apply(
            Mutation("node-insert", node=10_000, neighbors=(0,)), full_check=True
        )
        assert record.resolved_by == RESOLVED_FAILED
        assert not record.valid
        failures = [a for a in record.actions if a.kind == GLOBAL_RESOLVE]
        assert [(a.success, a.detail) for a in failures] == [
            (False, "reencode raised AdviceError")
        ]


class TestRecords:
    def test_record_dict_shape(self):
        runner = _grid_runner(5)
        record = runner.apply(Mutation("edge-delete", u=0, v=1), full_check=True)
        d = record.as_dict()
        assert set(d) == {
            "index",
            "mutation",
            "actions",
            "resolved_by",
            "local",
            "repair_radius_hist",
            "valid",
        }
        assert d["resolved_by"] in (
            RESOLVED_NOOP,
            RESOLVED_LOCAL,
            RESOLVED_REENCODE,
            RESOLVED_FAILED,
        )

    def test_local_repairs_report_ball_or_patch_actions(self):
        graph = LocalGraph(grid(6, 6), seed=0)
        plan = generate_mutation_plan(graph, 40, seed=6)
        runner = ChurnRunner(TwoColoringSchema(), graph)
        saw_local = False
        for m in plan.mutations:
            record = runner.apply(m, full_check=True)
            if record.resolved_by == RESOLVED_LOCAL:
                saw_local = True
                assert record.actions
                assert record.as_dict()["repair_radius_hist"]
        assert saw_local


class TestRegionCheck:
    def test_clean_first_check_is_not_repeated(self, monkeypatch):
        graph = LocalGraph(grid(8, 8), seed=0)
        plan = generate_mutation_plan(graph, 60, seed=3)
        runner = ChurnRunner(TwoColoringSchema(), graph)
        checks = []
        original = churn_runner.violations

        def counting(*args, **kwargs):
            bad = original(*args, **kwargs)
            checks.append(bool(bad))
            return bad

        monkeypatch.setattr(churn_runner, "violations", counting)
        repeated = 0
        for m in plan.mutations:
            del checks[:]
            record = runner.apply(m)
            assert record.valid == runner.schema.check_solution(runner.graph, runner.labeling)
            if checks[0]:
                # Something was bad, so relabelled: the validity check runs.
                assert len(checks) == 2 or record.resolved_by == RESOLVED_REENCODE
                repeated += len(checks) == 2
            else:
                assert len(checks) == 1
        assert repeated  # the plan exercises both branches

    def test_patched_advice_is_kept_without_a_copy(self, monkeypatch):
        # Dense anchors (spacing 2), so mutations often need a patch.
        runner = ChurnRunner(TwoColoringSchema(spacing=2), LocalGraph(grid(8, 8), seed=0))
        handed = []
        original = TwoColoringSchema.repair_advice

        def spying(self, *args, **kwargs):
            patched = original(self, *args, **kwargs)
            handed.append(patched)
            return patched

        monkeypatch.setattr(TwoColoringSchema, "repair_advice", spying)
        plan = generate_mutation_plan(runner.graph, 30, seed=2)
        kept = 0
        for m in plan.mutations:
            del handed[:]
            runner.apply(m)
            if handed and handed[-1] is not None:
                assert runner.advice is handed[-1]
                kept += 1
        assert kept
