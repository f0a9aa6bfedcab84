"""RobustRunner: detection, local repair, escalation, and reporting."""

import random

import pytest

from repro.advice.schema import InvalidAdvice
from repro.core.api import (
    available_schemas,
    default_instance,
    make_schema,
    solve_with_advice,
)
from repro.faults import FaultPlan, RobustRunner
from repro.faults.runner import escalate, resolve_balls
from repro.graphs import cycle
from repro.lcl import vertex_coloring
from repro.lcl.verify import violations
from repro.local import LocalGraph
from repro.obs.bandwidth import CONGEST, BandwidthExceeded, use_bandwidth_policy
from repro.obs.robustness import BALL_RESOLVE, GLOBAL_RESOLVE, LOCAL_KINDS


def _setup(name="2-coloring", n=32, seed=0):
    graph, kwargs = default_instance(name, n, seed)
    return graph, make_schema(name, **kwargs)


class TestCleanRuns:
    def test_no_plan_is_a_clean_run(self):
        graph, schema = _setup()
        run = RobustRunner(schema).run(graph)
        report = run.robustness
        assert run.valid
        assert report.injected == []
        assert not report.detected
        assert not report.escalated
        assert report.final_valid
        assert report.actions == []

    def test_noop_plan_injects_nothing(self):
        graph, schema = _setup()
        run = RobustRunner(schema).run(graph, plan=FaultPlan(seed=5))
        assert run.robustness.injected == []
        assert run.valid

    def test_robustness_lands_in_telemetry(self):
        graph, schema = _setup()
        run = RobustRunner(schema).run(graph)
        assert run.telemetry["robustness"] == {
            "injected": 0,
            "detected": False,
            "locally_repaired": 0,
            "escalated": False,
        }


class TestRepair:
    def test_flip_detected_and_repaired_locally(self):
        # Seed 0 is known-harmful for 2-coloring (not masked by symmetry).
        graph, schema = _setup()
        plan = FaultPlan(seed=0, advice_flips=2)
        run = RobustRunner(schema).run(graph, plan=plan)
        report = run.robustness
        assert run.valid
        assert len(report.injected) == 2
        assert report.detected
        assert report.repaired_locally
        assert not report.escalated
        assert all(a.kind in LOCAL_KINDS for a in report.actions)
        assert any(a.success for a in report.actions)

    def test_truncation_surfaces_as_decode_error_then_heals(self):
        graph, schema = _setup("balanced-orientation")
        plan = FaultPlan(seed=1, advice_truncations=2)
        run = RobustRunner(schema).run(graph, plan=plan)
        report = run.robustness
        assert run.valid
        assert report.detected
        assert report.decode_errors >= 1
        assert report.final_valid
        assert not report.escalated

    def test_report_is_reproducible_bit_for_bit(self):
        graph, schema = _setup()
        plan = FaultPlan(seed=0, advice_flips=2)
        a = RobustRunner(schema).run(graph, plan=plan).robustness
        b = RobustRunner(schema).run(graph, plan=plan).robustness
        assert a.as_dict() == b.as_dict()

    def test_metrics_registry_sees_the_repair(self):
        # The run's telemetry is its metrics record, counted from its report.
        graph, schema = _setup()
        run = RobustRunner(schema).run(graph, plan=FaultPlan(seed=0, advice_flips=2))
        report, telemetry = run.robustness, run.telemetry
        assert telemetry["faults_injected_total"] == len(report.injected) == 2
        assert telemetry["faults_detected_total"] == 1
        assert telemetry["violations_total"] == report.initial_violations
        local = sum(report.repair_radius_hist.values())
        assert telemetry["repairs_local_total"] == report.locally_repaired == local
        radius = telemetry["repair_radius"]
        assert radius["count"] == local
        assert radius["sum"] == sum(r * c for r, c in report.repair_radius_hist.items())
        assert "repairs_global_total" not in telemetry

    def test_reused_runner_reports_each_run_alone(self):
        # One runner, three plans: every run's telemetry is what a fresh
        # runner reports for the same plan, with no count carried over.
        graph, schema = _setup("2-coloring", n=200)
        reused = RobustRunner(schema)
        for seed in range(3):
            plan = FaultPlan(seed=seed, advice_flips=2)
            telemetry = reused.run(graph, plan=plan).telemetry
            fresh = RobustRunner(schema).run(graph, plan=plan).telemetry
            assert telemetry == fresh, seed
            assert telemetry["advice_bits_per_node"]["count"] == graph.n
            assert telemetry["faults_injected_total"] == 2

    def test_planned_advice_faults_are_counted_even_when_none_land(self):
        # Small balanced-orientation instances carry no advice bits at all,
        # so a flip finds no target: the key is there and reads 0.  A plan
        # without advice faults reports no such key.
        graph, schema = _setup("balanced-orientation", n=8)
        assert not any(schema.encode(graph).values())
        run = RobustRunner(schema).run(graph, plan=FaultPlan(seed=0, advice_flips=2))
        assert run.robustness.injected == []
        assert run.telemetry["faults_injected_total"] == 0
        clean = RobustRunner(schema).run(graph, plan=FaultPlan(seed=0))
        assert "faults_injected_total" not in clean.telemetry

    def test_masked_faults_do_not_trip_detection(self):
        # Seed 2 flips bits whose damage the decoder masks entirely.
        graph, schema = _setup()
        run = RobustRunner(schema).run(graph, plan=FaultPlan(seed=2, advice_flips=2))
        report = run.robustness
        assert run.valid
        assert report.injected
        assert not report.detected
        assert report.actions == []


class TestEscalation:
    def test_crippled_runner_escalates_but_still_ends_valid(self):
        graph, schema = _setup()
        crippled = RobustRunner(
            schema,
            patch_radii=(),
            refetch_radii=(),
            max_solver_steps=1,
            max_ball_radius=0,
        )
        run = crippled.run(graph, plan=FaultPlan(seed=2, advice_flips=3))
        report = run.robustness
        assert report.detected
        assert report.escalated
        assert report.final_valid
        assert not report.gave_up
        assert any(a.kind == GLOBAL_RESOLVE for a in report.actions)
        assert not report.repaired_locally

    def test_exhausted_budget_gives_up_cleanly(self):
        # A schema whose decode always lands on an unsatisfiable problem:
        # every ball re-solve fails and the one global attempt decodes
        # invalid, so the run must end in a recorded give-up, not a loop
        # or a leaked exception.
        from repro.advice import FunctionSchema
        from repro.advice.schema import DecodeResult
        from repro.graphs import path
        from repro.lcl import vertex_coloring
        from repro.local import LocalGraph

        graph = LocalGraph(path(4))
        schema = FunctionSchema(
            "unsat-1col",
            lambda g: {v: "" for v in g.nodes()},
            lambda g, advice: DecodeResult(
                labeling={v: 1 for v in g.nodes()}, rounds=0
            ),
            vertex_coloring(1),
        )
        crippled = RobustRunner(
            schema,
            patch_radii=(),
            refetch_radii=(),
            max_ball_radius=1,
        )
        run = crippled.run(graph)
        report = run.robustness
        assert report.detected
        assert report.escalated
        assert report.gave_up
        assert not run.valid
        assert not report.final_valid
        globals_ = [a for a in report.actions if a.kind == GLOBAL_RESOLVE]
        assert [(a.success, a.detail) for a in globals_] == [
            (False, "verify decoded invalid")
        ]
        assert report.as_dict()["gave_up"] is True
        assert "gave-up" in report.summary()


class TestSharedTail:
    """A robust run finishes through the schema's own tail, so it is
    metered and reported like a plain run."""

    @pytest.mark.parametrize("name", available_schemas())
    @pytest.mark.parametrize("seed", range(2))
    def test_fault_free_telemetry_matches_the_plain_run(self, name, seed):
        graph, schema = _setup(name, n=64, seed=seed)
        plain = schema.run(graph)
        robust = RobustRunner(schema).run(graph)
        telemetry = dict(robust.telemetry)
        assert set(telemetry.pop("robustness")) == {
            "injected",
            "detected",
            "locally_repaired",
            "escalated",
        }
        assert telemetry == plain.telemetry
        assert robust.bandwidth.total_bits == plain.bandwidth.total_bits > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_congest_overflow_raises_like_the_plain_run(self, seed):
        graph, schema = _setup("3-coloring", n=64, seed=seed)

        def outcome(run):
            try:
                run()
            except BandwidthExceeded as exc:
                assert exc.failure_report.kind == "bandwidth-exceeded"
                return str(exc)
            return None

        with use_bandwidth_policy(CONGEST(1)):
            plain = outcome(lambda: schema.run(graph))
            robust = outcome(lambda: RobustRunner(schema).run(graph))
            faulty = outcome(
                lambda: RobustRunner(schema).run(
                    graph, plan=FaultPlan(seed=seed, advice_flips=2)
                )
            )
        assert plain is not None
        assert robust == plain
        assert faulty is not None

    def test_verify_fallback_returns_the_clean_advice(self):
        # The flips survive every local stage; the labeling comes from the
        # global decode of the clean advice, and so must run.advice.
        graph, schema = _setup("2-coloring", n=1000, seed=0)
        run = RobustRunner(schema).run(
            graph, plan=FaultPlan(seed=7, advice_flips=4)
        )
        assert run.valid and run.robustness.escalated
        assert run.robustness.actions[-1].detail == "verify"
        clean = schema.encode(graph)
        assert run.advice == {v: clean.get(v, "") for v in graph.nodes()}
        assert run.total_advice_bits == sum(len(b) for b in clean.values())


class TestApiIntegration:
    def test_solve_with_advice_robust_path(self):
        graph, _ = _setup()
        plan = FaultPlan(seed=0, advice_flips=2)
        run = solve_with_advice("2-coloring", graph, fault_plan=plan)
        assert run.valid
        assert run.robustness.detected
        assert run.robustness.repaired_locally

    def test_fault_plan_alone_implies_robust(self):
        graph, _ = _setup()
        run = solve_with_advice(
            "2-coloring", graph, fault_plan=FaultPlan(seed=0, advice_flips=1)
        )
        assert hasattr(run, "robustness")
        assert run.valid


class TestResolveBalls:
    """The invariant both runners rely on to re-check only the residual
    bad list: a ball re-solve can only remove violations."""

    @pytest.mark.parametrize("name", ["2-coloring", "3-coloring"])
    @pytest.mark.parametrize("seed", range(4))
    def test_no_violation_outside_the_input_bad_set(self, name, seed):
        graph, schema = _setup(name, n=64, seed=0)
        problem = schema.repair_problem(graph)
        clean = schema.decode(graph, schema.encode(graph)).labeling
        rng = random.Random(seed)
        corrupted = dict(clean)
        for v in rng.sample(sorted(graph.nodes(), key=graph.id_of), 3):
            choices = [c for c in problem.candidate_labels(graph, v) if c != clean[v]]
            corrupted[v] = rng.choice(choices)
        bad = sorted(violations(problem, graph, corrupted), key=graph.id_of)
        assert bad

        actions = []
        repaired, residual, used = resolve_balls(
            graph,
            problem,
            corrupted,
            bad,
            max_radius=10,
            max_steps=200_000,
            actions=actions,
        )
        after = sorted(violations(problem, graph, repaired), key=graph.id_of)
        assert set(after) <= set(bad)
        assert residual == after
        assert not residual  # the pass succeeded
        assert corrupted != repaired  # the input map is left untouched
        assert any(a.success for a in actions) and used >= problem.radius

    def test_exhausted_budget_stops_the_escalation(self):
        # A larger ball is a harder search: once a search runs out of
        # steps at a radius, no larger radius is tried.
        graph = LocalGraph(cycle(30), seed=1)
        problem = vertex_coloring(3)
        labeling = {v: 1 + v % 3 for v in graph.nodes()}  # 30 % 3 == 0: proper
        labeling[4] = labeling[5]
        labeling[20] = labeling[21]
        bad = sorted(violations(problem, graph, labeling), key=graph.id_of)
        assert bad

        actions = []
        repaired, residual, used = resolve_balls(
            graph,
            problem,
            labeling,
            bad,
            max_radius=10,
            max_steps=1,
            actions=actions,
        )
        assert actions and all(a.kind == BALL_RESOLVE for a in actions)
        assert {a.radius for a in actions} == {problem.radius}
        assert not any(a.success for a in actions)
        assert residual == bad and used == 0
        assert repaired == labeling

    def test_three_coloring_repair_skips_the_hopeless_radii(self):
        # Seed 1 exhausts the budget at a small radius; the refetch that
        # heals it used to wait for six ball re-solves, one per radius.
        graph, schema = _setup("3-coloring", n=400, seed=0)
        run = RobustRunner(schema).run(
            graph, plan=FaultPlan(seed=1, advice_flips=4)
        )
        report = run.robustness
        attempts = [a for a in report.actions if a.kind == BALL_RESOLVE]
        assert report.final_valid
        assert 0 < len(attempts) < 6


class TestEscalate:
    def test_one_attempt_records_its_outcome(self):
        cases = [
            (({"a": 2}, True), ({"a": 2}, True, "verify")),
            (({"a": 1}, False), ({"a": 1}, False, "verify decoded invalid")),
            (InvalidAdvice("boom"), (None, False, "verify raised InvalidAdvice")),
        ]
        for outcome, expected in cases:
            calls = []

            def attempt():
                calls.append(1)
                if isinstance(outcome, Exception):
                    raise outcome
                return outcome

            actions = []
            result, ok = escalate(attempt, label="verify", actions=actions)
            assert len(calls) == 1
            assert (result, ok, actions[0].detail) == expected
            assert [(a.kind, a.success) for a in actions] == [(GLOBAL_RESOLVE, ok)]
