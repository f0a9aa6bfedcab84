"""The unified dashboard and the cross-PR perf history."""

import json

import pytest

from repro.core.api import available_schemas
from repro.obs.report import (
    append_history,
    build_provenance,
    check_history_drift,
    collect_report,
    history_snapshot,
    load_history,
    render_html,
    render_markdown,
    report_main,
)
from repro.perf import WORK_COUNTERS

SUBSET = ["2-coloring", "balanced-orientation"]


@pytest.fixture(scope="module")
def subset_report():
    return collect_report(schemas=SUBSET, n=48, seed=0)


class TestProvenance:
    def test_stamp_fields(self):
        prov = build_provenance(seed=3, schemas=["a", "b"], n=10)
        assert set(prov) >= {"commit", "python", "platform", "seed",
                             "schemas", "n"}
        assert prov["seed"] == 3 and prov["schemas"] == ["a", "b"]
        assert prov["commit"] and prov["commit"] != ""


class TestCollect:
    def test_subset_report_shape(self, subset_report):
        assert subset_report["ok"] is True
        assert [r["schema"] for r in subset_report["schemas"]] == SUBSET
        for record in subset_report["schemas"]:
            assert record["valid"] is True
            totals = record["profile"]["totals"]
            for counter in WORK_COUNTERS:
                assert totals[counter] == record["telemetry"][counter]
            assert record["profile"]["critical_path"][0]["name"] == "schema_run"
            assert "beta" in record["telemetry"]

    def test_full_registry_dashboard(self):
        # The acceptance property: all ten schemas, valid.
        report = collect_report(n=60, seed=0)
        names = [r["schema"] for r in report["schemas"]]
        assert names == available_schemas() and len(names) == 10
        assert report["ok"] is True

    def test_quantiles_surface_in_telemetry(self, subset_report):
        hist = subset_report["schemas"][0]["telemetry"]["advice_bits_per_node"]
        assert {"p50", "p95", "max"} <= set(hist)

    def test_chaos_summary_included(self):
        report = collect_report(schemas=["2-coloring"], n=48, chaos_runs=4)
        robustness = report["robustness"]
        assert robustness["runs"] == 4
        assert "repair_radius_hist" in robustness

    def test_broken_schema_does_not_sink_dashboard(self, monkeypatch):
        import repro.obs.report as report_mod

        def boom(name, n, seed):
            raise RuntimeError("kaput")

        monkeypatch.setattr("repro.core.api.default_instance", boom)
        report = report_mod.collect_report(schemas=["2-coloring"], n=48)
        assert report["ok"] is False
        assert "kaput" in report["schemas"][0]["error"]


class TestRendering:
    def test_markdown_dashboard(self, subset_report):
        text = render_markdown(subset_report)
        assert "# repro observability report" in text
        assert "Definition 3.2" in text
        for name in SUBSET:
            assert name in text
        assert "**Status:** all schemas valid" in text

    def test_bandwidth_section_and_column(self, subset_report):
        text = render_markdown(subset_report)
        assert "## Bandwidth (bits-on-wire)" in text
        assert "bits-on-wire" in text  # summary table column
        assert "min CONGEST B" in text
        for record in subset_report["schemas"]:
            bandwidth = record["telemetry"]["bandwidth"]
            assert bandwidth["total_bits"] > 0
            assert str(bandwidth["total_bits"]) in text

    def test_html_dashboard(self, subset_report):
        html = render_html(subset_report)
        assert html.startswith("<!doctype html>")
        for name in SUBSET:
            assert name in html
        assert "critical path" in html


class TestHistory:
    def test_first_append_creates_file(self, subset_report, tmp_path):
        path = str(tmp_path / "BENCH_history.json")
        assert append_history(subset_report, path) == []
        history = load_history(path)
        assert len(history) == 1
        entry = history[0]
        assert set(entry) == {"provenance", "metrics"}
        serving_rows = {
            f"serving:{c['case']}"
            for c in subset_report["serving"]["cases"]
        }
        assert set(entry["metrics"]) == set(SUBSET) | serving_rows
        row = entry["metrics"]["2-coloring"]
        assert row["valid"] is True
        assert row["beta"] == 1 and row["rounds"] > 0
        for name in serving_rows:
            serving_row = entry["metrics"][name]
            assert serving_row["valid"] is True
            assert serving_row["queries_total"] > 0
            assert serving_row["bfs_node_visits"] > 0

    def test_clean_reappend_and_drift_rejection(self, subset_report, tmp_path):
        path = str(tmp_path / "BENCH_history.json")
        assert append_history(subset_report, path) == []
        # Same tree, same seed: appending again is clean.
        assert append_history(subset_report, path) == []
        assert len(load_history(path)) == 2
        # Simulate a regression: the last entry claims fewer BFS visits.
        history = load_history(path)
        history[-1]["metrics"]["2-coloring"]["bfs_node_visits"] -= 100
        with open(path, "w") as fh:
            json.dump(history, fh)
        problems = append_history(subset_report, path)
        assert problems and "bfs_node_visits" in problems[0]
        assert len(load_history(path)) == 2  # drift blocked the append

    def test_schema_disappearing_is_drift(self, subset_report):
        snapshot = history_snapshot(subset_report)
        smaller = {
            "metrics": {
                "2-coloring": snapshot["metrics"]["2-coloring"],
            }
        }
        problems = check_history_drift(snapshot, smaller)
        assert any("missing" in p for p in problems)
        # New schemas appearing is NOT drift (the registry may grow).
        assert check_history_drift(smaller, snapshot) == []

    def test_validity_regression_is_drift(self, subset_report):
        snapshot = history_snapshot(subset_report)
        broken = json.loads(json.dumps(snapshot))
        broken["metrics"]["2-coloring"]["valid"] = False
        problems = check_history_drift(snapshot, broken)
        assert any("invalid" in p for p in problems)

    def test_new_metric_is_not_drift(self, subset_report):
        # A base entry recorded before an instrumentation landed (no
        # bits_on_wire column) must not flag the fresh snapshot as drift.
        snapshot = history_snapshot(subset_report)
        assert snapshot["metrics"]["2-coloring"]["bits_on_wire"] > 0
        older = json.loads(json.dumps(snapshot))
        for row in older["metrics"].values():
            row.pop("bits_on_wire", None)
        assert check_history_drift(older, snapshot) == []

    def test_disappearing_metric_is_drift(self, subset_report):
        snapshot = history_snapshot(subset_report)
        stripped = json.loads(json.dumps(snapshot))
        for row in stripped["metrics"].values():
            row.pop("bits_on_wire", None)
        problems = check_history_drift(snapshot, stripped)
        assert any("bits_on_wire" in p for p in problems)


class TestCli:
    def test_report_main_json_and_history(self, tmp_path, capsys):
        history = str(tmp_path / "hist.json")
        out = str(tmp_path / "report.md")
        html = str(tmp_path / "report.html")
        code = report_main(
            ["--schema", "2-coloring", "--n", "48", "--json",
             "--out", out, "--html", html, "--history", history]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schemas"][0]["schema"] == "2-coloring"
        assert len(load_history(history)) == 1
        assert open(out).read().startswith("# repro observability report")
        assert open(html).read().startswith("<!doctype html>")

    def test_report_main_fails_on_drift(self, tmp_path, capsys):
        history = str(tmp_path / "hist.json")
        assert report_main(
            ["--schema", "2-coloring", "--n", "48", "--history", history]
        ) == 0
        entries = load_history(history)
        entries[-1]["metrics"]["2-coloring"]["rounds"] += 1
        with open(history, "w") as fh:
            json.dump(entries, fh)
        capsys.readouterr()
        assert report_main(
            ["--schema", "2-coloring", "--n", "48", "--history", history]
        ) == 1
        assert len(load_history(history)) == 1
        # --no-check force-appends past the drift.
        assert report_main(
            ["--schema", "2-coloring", "--n", "48", "--history", history,
             "--no-check"]
        ) == 0
        assert len(load_history(history)) == 2
