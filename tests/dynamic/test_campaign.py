"""Churn campaigns and the ``python -m repro churn`` CLI."""

import json

import pytest

from repro.dynamic import run_churn_campaign
from repro.dynamic.campaign import FLAGSHIPS, flagship_instance


class TestCampaign:
    def test_small_campaign_passes_both_flagships(self):
        result = run_churn_campaign(mutations=30, seed=0, n=64)
        assert result.ok
        assert list(result.per_schema) == list(FLAGSHIPS)
        for agg in result.per_schema.values():
            assert agg["mutations"] == 30
            assert agg["failures"] == 0
            assert agg["local_rate"] >= 0.95
        assert result.checkpoints
        assert all(c["ok"] for c in result.checkpoints)

    def test_campaign_is_bit_reproducible(self):
        a = run_churn_campaign(mutations=25, seed=3, n=64)
        b = run_churn_campaign(mutations=25, seed=3, n=64)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_local_rate_floor_gates_ok(self):
        result = run_churn_campaign(
            mutations=10, seed=0, n=64, schemas=["2-coloring"], min_local_rate=1.01
        )
        # Validity holds, but an unreachable floor must flip ok to False.
        assert all(r["valid"] for r in result.records)
        assert not result.ok

    def test_schema_restriction(self):
        result = run_churn_campaign(mutations=10, seed=0, schemas=["3-coloring"])
        assert list(result.per_schema) == ["3-coloring"]

    def test_unknown_flagship_rejected(self):
        with pytest.raises(KeyError):
            flagship_instance("delta-coloring", 64, 0)

    def test_checkpoint_cadence(self):
        result = run_churn_campaign(
            mutations=20, seed=0, n=64, schemas=["2-coloring"], decode_every=10
        )
        assert [c["step"] for c in result.checkpoints] == [10, 20]

    def test_totals_aggregate_across_schemas(self):
        result = run_churn_campaign(mutations=15, seed=1, n=64)
        totals = result.totals
        assert totals["mutations"] == 15 * len(FLAGSHIPS)
        assert totals["repairs_local"] + totals["reencode_fallbacks"] + totals[
            "failures"
        ] >= totals["repairs_local"]
        assert 0.0 <= totals["local_rate"] <= 1.0


class TestChurnCli:
    def test_cli_exit_zero_and_summary(self, capsys):
        from repro.__main__ import churn_main

        rc = churn_main(["--mutations", "12", "--schema", "2-coloring"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "churn campaign" in out
        assert "2-coloring" in out

    def test_cli_json_payload(self, capsys, tmp_path):
        from repro.__main__ import churn_main

        out_file = tmp_path / "churn.json"
        rc = churn_main(
            [
                "--mutations",
                "8",
                "--schema",
                "2-coloring",
                "--json",
                "--out",
                str(out_file),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["params"]["mutations"] == 8
        on_disk = json.loads(out_file.read_text())
        assert on_disk == payload

    def test_cli_nonzero_on_unmet_floor(self, capsys):
        from repro.__main__ import churn_main

        rc = churn_main(
            [
                "--mutations",
                "5",
                "--schema",
                "2-coloring",
                "--min-local-rate",
                "1.01",
            ]
        )
        assert rc == 1
        assert "CHURN FAILURE" in capsys.readouterr().out
