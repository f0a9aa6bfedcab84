"""Tests for the `python -m repro` demo CLI."""

import json

import pytest

from repro.__main__ import main, run_one
from repro.core.api import available_schemas
from repro.obs import load_jsonl, span_tree


class TestCLI:
    def test_single_schema(self, capsys):
        code = main(["balanced-orientation", "--n", "80", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "balanced-orientation" in out
        assert "True" in out

    def test_unknown_schema_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-schema"])

    def test_run_one_each_fast_schema(self):
        for name in ("2-coloring", "balanced-orientation", "3-coloring"):
            run = run_one(name, 60, seed=2)
            assert run.valid

    def test_all_registered_have_defaults(self):
        from repro.core.api import default_instance

        for name in available_schemas():
            graph, kwargs = default_instance(name, 60, 3)
            assert graph.n > 0

    def test_json_output(self, capsys):
        code = main(["2-coloring", "--n", "60", "--seed", "1", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 60
        (record,) = payload["schemas"]
        assert record["schema"] == "2-coloring"
        assert record["valid"] is True
        telemetry = record["telemetry"]
        for key in ("beta", "rounds", "bits_per_node", "cache_hit_rate"):
            assert key in telemetry

    @pytest.mark.parametrize(
        "argv",
        [
            ["churn", "--schema", "foo"],
            ["churn", "--decode-every", "-7"],
            ["chaos", "--runs", "0"],
            ["chaos", "--runs", "-3"],
            ["chaos", "--max-faults", "0"],
        ],
    )
    def test_bad_campaign_arguments_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestBandwidthCLI:
    def test_table_output(self, capsys):
        code = main(["bandwidth", "2-coloring", "--n", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== bandwidth: 2-coloring" in out
        assert "policy=LOCAL" in out
        assert "total bits on wire" in out
        assert "min CONGEST budget" in out
        assert "hotspot edges:" in out

    def test_json_output_reconciles(self, capsys):
        code = main(["bandwidth", "2-coloring", "--n", "60", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        profile = json.loads(out)
        assert profile["policy"] == "local"
        assert profile["total_bits"] > 0
        assert profile["per_round"]["sum"] == profile["total_bits"]
        assert profile["per_edge"]["sum"] == profile["total_bits"]

    def test_congest_overflow_exits_nonzero_with_attribution(self, capsys):
        code = main(
            ["bandwidth", "2-coloring", "--n", "60",
             "--policy", "congest", "--budget", "1"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "BANDWIDTH EXCEEDED under CONGEST(B=1)" in out
        assert "bandwidth-exceeded" in out  # failure report summary line

    def test_sufficient_congest_budget_succeeds(self, capsys):
        code = main(
            ["bandwidth", "2-coloring", "--n", "60",
             "--policy", "congest", "--budget", "64", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        profile = json.loads(out)
        assert profile["policy"] == "congest"
        assert profile["capacity_bits"] == 64 * profile["id_bits"]


class TestTraceCLI:
    def test_trace_writes_jsonl_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        code = main(
            ["trace", "one-bit-2-coloring", "--n", "200", "--out", out]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        records = load_jsonl(out)
        names = {r["name"] for r in records if r["kind"] == "span"}
        # acceptance: the span tree covers encode -> gather -> decide -> verify
        assert {"schema_run", "encode", "decode", "gather", "decide",
                "verify"} <= names
        tree = span_tree(records)
        assert [s["name"] for s in tree[None]] == ["schema_run"]
        assert "telemetry" in stdout
        assert "beta" in stdout

    def test_trace_default_out_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["trace", "2-coloring", "--n", "40"])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "trace-2-coloring.jsonl").exists()
