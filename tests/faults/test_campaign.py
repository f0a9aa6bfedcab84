"""Corruption campaigns: reproducibility, aggregation, and acceptance."""

import pytest

from repro.dynamic import run_churn_campaign
from repro.faults import run_campaign
from repro.faults.campaign import HARMFUL, KINDS, _plan_for


class TestCampaign:
    def test_small_campaign_meets_the_acceptance_bar(self):
        result = run_campaign(runs=20, seed=1, n=48, max_faults=3)
        totals = result.totals
        assert result.ok
        assert totals["runs"] == 20
        assert totals["unexpected_errors"] == 0
        assert totals["detection_rate"] == 1.0
        assert totals["invalid_final"] == 0
        assert totals["local_repair_rate"] >= 0.8

    def test_campaign_is_bit_reproducible(self):
        a = run_campaign(runs=12, seed=3, n=48, max_faults=2)
        b = run_campaign(runs=12, seed=3, n=48, max_faults=2)
        assert a.as_dict() == b.as_dict()

    def test_different_seeds_give_different_campaigns(self):
        a = run_campaign(runs=12, seed=0, n=48, max_faults=2, schemas=["2-coloring"])
        b = run_campaign(runs=12, seed=9, n=48, max_faults=2, schemas=["2-coloring"])
        assert a.records != b.records

    def test_per_schema_breakdown_partitions_the_records(self):
        names = ["2-coloring", "balanced-orientation"]
        result = run_campaign(runs=10, seed=2, n=48, max_faults=2, schemas=names)
        per = result.per_schema
        assert sorted(per) == sorted(names)
        assert sum(agg["runs"] for agg in per.values()) == 10

    def test_progress_callback_sees_every_record(self):
        seen = []
        run_campaign(
            runs=6,
            seed=4,
            n=48,
            max_faults=2,
            schemas=["2-coloring"],
            progress=seen.append,
        )
        assert [r["run"] for r in seen] == list(range(6))
        for record in seen:
            assert record["ground_truth"] in HARMFUL + ("masked",)

    def test_plan_for_covers_every_kind(self):
        for kind in KINDS:
            plan = _plan_for(kind, 2, seed=7)
            assert plan.advice_faults == 2
            assert plan.seed == 7


@pytest.mark.parametrize(
    "campaign, kwargs",
    [
        (run_campaign, {"runs": 0}),
        (run_campaign, {"runs": -3}),
        (run_campaign, {"max_faults": 0}),
        (run_campaign, {"kinds": ()}),
        (run_churn_campaign, {"mutations": -1}),
        (run_churn_campaign, {"decode_every": -7}),
    ],
)
def test_bad_campaign_sizes_are_rejected(campaign, kwargs):
    with pytest.raises(ValueError):
        campaign(**kwargs)
