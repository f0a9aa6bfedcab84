"""Smoke tests for the benchmark suite, with every workload run tiny.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q``
(outside the tier-1 ``testpaths``).  Sizes are passed as constructor
arguments, never through the command line.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import networkx as nx
import pytest

from benchmarks.suite import compare as cmp
from benchmarks.suite.__main__ import ROOT, load_spec, with_units
from benchmarks.suite.spans import SpanRecorder
from benchmarks.suite.workloads import (
    Repair,
    ServeSkewed,
    SolveLarge,
    SolveSmall,
    run_workload,
)
from repro import LocalGraph
from repro.serve import AdviceService

SECONDS = 0.2


def tiny_workloads():
    return [
        SolveSmall(n=40),
        SolveLarge(grid_side=8, cycle_n=100),
        ServeSkewed(side=24, hot=32, queries=50, oracle_side=8, layer_nodes=20),
        Repair(grid_side=8, mutations=10, fault_n=40, fault_seeds=1, check_every=5),
    ]


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def runs():
    """Each tiny workload run untraced and traced, with seed 0."""
    out = {}
    for workload in tiny_workloads():
        rec = SpanRecorder()
        out[workload.name] = (run_workload(workload, 0, SECONDS),
                              run_workload(workload, 0, SECONDS, rec), rec)
    return out


def test_workload_names_match_spec(spec, runs):
    assert [w["name"] for w in spec["workloads"]] == list(runs)


def test_every_metric_emitted_with_unit(spec, runs):
    layer_names = set()
    for name, (plain, traced, _) in runs.items():
        assert plain.failed == 0 and traced.failed == 0, name
        assert plain.attempted > 0 and traced.attempted > 0, name
        metrics = with_units(name, plain.metrics, False, spec)
        for m in spec["end_to_end"]:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert metrics[m["name"]]["value"] > 0, (name, m["name"])
        layers = with_units(name, traced.metrics, True, spec)
        assert [m["name"] for m in spec["per_layer"]] == list(layers)
        assert all(layers[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
        layer_names |= set(traced.metrics)
    # Every per-layer metric is measured by at least one workload.
    assert layer_names == {m["name"] for m in spec["per_layer"]}


def test_solve_traces_cover_the_solve(runs):
    for name in ("solve-small", "solve-large"):
        assert runs[name][1].metrics["trace.coverage"] > 0.5


def fingerprint(x):
    """A plain, address-free structure describing generated inputs."""
    if isinstance(x, LocalGraph):
        return sorted(x.ids().items()), fingerprint(x.graph)
    if isinstance(x, nx.Graph):
        return sorted(tuple(sorted(e)) for e in x.edges())
    if dataclasses.is_dataclass(x):
        return [fingerprint(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return sorted((repr(k), fingerprint(v)) for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return sorted(map(fingerprint, x))
    if isinstance(x, (list, tuple)):
        return [fingerprint(y) for y in x]
    if callable(x):
        return getattr(x, "__qualname__", type(x).__name__)
    if hasattr(x, "__dict__"):
        return type(x).__name__, fingerprint(vars(x))
    return x


def test_seed_changes_streams_but_not_metric_names():
    for workload in tiny_workloads():
        a, b = (fingerprint(workload.prepare(seed, SECONDS)) for seed in (0, 1))
        assert fingerprint(workload.prepare(0, SECONDS)) == a, workload.name
        # The query stream follows the seed; the solve and repair workloads
        # hold their inputs fixed (see INSTANCE_SEED).
        assert (a != b) == (workload.name == "serve-skewed"), workload.name
    serve = ServeSkewed(side=24, hot=32, queries=50, oracle_side=8, layer_nodes=20)
    names = [set(run_workload(serve, seed, SECONDS).metrics) for seed in (0, 1)]
    assert names[0] == names[1]


def test_trace_spans_nest_with_nonnegative_self_time(runs, tmp_path):
    for name, (_, _, rec) in runs.items():
        assert rec.spans, name
        by_id = {s["id"]: s for s in rec.spans}
        for s in rec.spans:
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
                assert s["op"] == parent["op"]
        assert all(t >= 0 for t in rec.self_times().values())
        path = tmp_path / f"{name}.jsonl"
        rec.write_jsonl(str(path))
        assert len(path.read_text().splitlines()) == len(rec.spans)


def test_one_corrupted_answer_raises_fail_ratio(monkeypatch):
    serve = ServeSkewed(side=24, hot=32, queries=50, oracle_side=8, layer_nodes=20)
    assert run_workload(serve, 0, SECONDS).failed == 0
    original = AdviceService.query
    calls = {"n": 0}

    def corrupt_fifth(self, node, tenant="default"):
        result = original(self, node, tenant=tenant)
        calls["n"] += 1
        if calls["n"] == 5:
            return dataclasses.replace(result, label=("corrupted",))
        return result

    monkeypatch.setattr(AdviceService, "query", corrupt_fifth)
    outcome = run_workload(serve, 0, SECONDS)
    assert outcome.failed == 1 and outcome.attempted > 1


def _run_file(values, failed=0):
    metrics = {name: {"value": v, "unit": "s"} for name, v in values.items()}
    return {"workloads": {"w": {"attempted": 100, "failed": failed, "metrics": metrics}}}


def _pairs(parent, change, **kw):
    return ([_run_file({"pass_s": v}) for v in parent],
            [_run_file({"pass_s": v}, **kw) for v in change])


def _verdicts(rows):
    return {row.metric: row.verdict for row in rows}


def test_compare_verdicts(spec):
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    same = cmp.compare(*_pairs(base, base[::-1]), spec)
    assert _verdicts(same) == {"pass_s": "no change", "fail_ratio": "no change"}
    slower = cmp.compare(*_pairs(base, [v * 1.3 for v in base]), spec)
    assert _verdicts(slower)["pass_s"] == "regression"
    faster = cmp.compare(*_pairs(base, [v * 0.8 for v in base]), spec)
    assert _verdicts(faster)["pass_s"] == "gain"
    noisy = [1.0, 1.3, 0.7, 1.25, 0.75, 1.0, 1.3, 0.7, 1.0, 1.0]
    assert _verdicts(cmp.compare(*_pairs(noisy, noisy[::-1]), spec))["pass_s"] == "unresolved"
    failing = cmp.compare(*_pairs(base, base, failed=1), spec)
    assert _verdicts(failing)["fail_ratio"] == "regression"
    with pytest.raises(ValueError):
        cmp.compare(*_pairs(base[:9], base[:9]), spec)


def test_cli_refuses_without_sources(tmp_path):
    """With only BENCHMARK.json and the suite, it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "suite", tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "solve-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
