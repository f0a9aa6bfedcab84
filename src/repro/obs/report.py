"""The unified observability report and the cross-PR perf history.

``python -m repro report`` runs every registered schema on its seeded demo
instance with a tracer attached and folds four layers into one dashboard:

* **telemetry** — the Definition 3.2 footprint (β, T, bits per node) plus
  the engine work counters of every run;
* **profile** — per-span work attribution (:mod:`repro.obs.profile`):
  totals, critical path, hottest self-time spans;
* **robustness** — an optional seeded chaos campaign summary
  (:mod:`repro.faults`), including the repair-radius histogram;
* **lint** — the static LOCAL-contract linter's violation counts
  (:mod:`repro.analysis`).

Every report is stamped with provenance — commit hash, seed, python
version, platform, schema list — so a dashboard artifact is attributable
to the exact tree that produced it (:func:`build_provenance` is also what
the benchmark harness stamps its JSON with).

``--history BENCH_history.json`` maintains the cross-PR trajectory: each
invocation appends one compact entry (provenance + per-schema
deterministic metrics) after checking the fresh snapshot against the last
entry under the shared tolerance semantics (:mod:`repro.obs.diff`) —
drift beyond tolerance exits nonzero *without* appending, which is what
the CI ``report`` job gates on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Mapping, Optional, Sequence

from ..perf import WORK_COUNTERS
from .diff import DETERMINISTIC_TOLERANCES, diff_telemetry
from .profile import profile_run

#: Per-schema metrics pinned in every history entry.  All deterministic
#: functions of (schema, n, seed); wall times are deliberately excluded.
HISTORY_METRICS: Sequence[str] = (
    "beta",
    "rounds",
    "total_advice_bits",
    *WORK_COUNTERS,
)

#: Per-case serving metrics pinned in every history entry (rows keyed
#: ``serving:<case>``).  Deterministic functions of (params, seed) — the
#: seeded query stream and the radius-``T`` ball structure; wall-clock
#: latency quantiles are deliberately excluded.
SERVING_HISTORY_METRICS: Sequence[str] = (
    "queries_total",
    "views_gathered",
    "bfs_node_visits",
    "decide_calls",
    "ball_p50",
    "ball_max",
)

#: Fixed parameters of the report's embedded serving bench — small grids
#: so ``repro report`` stays fast; the flagship sweep lives in
#: ``python -m repro serve-bench``.
SERVING_REPORT_PARAMS: Dict[str, object] = {
    "sides": (24, 32),
    "queries": 64,
    "tenants": 2,
    "sample_rate": 0.25,
}


def git_commit() -> str:
    """The current commit hash, or ``"unknown"`` outside a git checkout.

    Resolved against the checkout containing this module (not the cwd),
    so provenance survives running the CLI from another directory.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def build_provenance(
    seed: Optional[int] = None,
    schemas: Optional[Sequence[str]] = None,
    **extra: object,
) -> Dict[str, object]:
    """Attribution stamp for reports, bench JSONs, and history entries."""
    prov: Dict[str, object] = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if seed is not None:
        prov["seed"] = seed
    if schemas is not None:
        prov["schemas"] = list(schemas)
    prov.update(extra)
    return prov


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def _lint_summary(  # pragma: no cover - exercised via collect_report(lint=True)
    roots: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Static-only linter run, summarized (rule -> count)."""
    from ..analysis.engine import DEFAULT_ROOTS, run_lint

    report = run_lint(roots=tuple(roots) if roots else DEFAULT_ROOTS,
                      checked_refs=set())
    # Static-only semantics (matches `repro lint --static-only`): without
    # the dynamic harness registry loaded, ORD002 would fire on every claim.
    violations = [v for v in report.violations if v.rule != "ORD002"]
    by_rule: Dict[str, int] = {}
    unwaived = 0
    for violation in violations:
        by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
        if not getattr(violation, "waived", False):
            unwaived += 1
    return {
        "functions_checked": report.functions_checked,
        "files_scanned": len(report.files),
        "violations": len(violations),
        "unwaived": unwaived,
        "by_rule": dict(sorted(by_rule.items())),
    }


def _chaos_summary(
    runs: int, seed: int, n: int, schemas: Optional[Sequence[str]]
) -> Dict[str, object]:
    """Small seeded corruption campaign, summarized per schema."""
    from ..faults import run_campaign

    result = run_campaign(runs=runs, seed=seed, schemas=schemas, n=n)
    totals = result.totals
    return {
        "runs": totals["runs"],
        "harmful": totals["harmful"],
        "detection_rate": totals["detection_rate"],
        "local_repair_rate": totals["local_repair_rate"],
        "repair_radius_hist": totals["repair_radius_hist"],
        "ok": result.ok,
        "per_schema": result.per_schema,
    }


def collect_schema(name: str, n: int, seed: int) -> Dict[str, object]:
    """One schema's dashboard record: run, telemetry, profile, failures."""
    from ..core.api import default_instance, make_schema

    try:
        graph, kwargs = default_instance(name, n, seed)
        schema = make_schema(name, **kwargs)
        run, profile = profile_run(schema, graph)
    except Exception as exc:  # a broken schema must not sink the dashboard
        return {
            "schema": name,
            "valid": False,
            "error": f"{type(exc).__name__}: {exc}",
        }
    record: Dict[str, object] = {
        "schema": name,
        "valid": run.valid,
        "n": run.n,
        "max_degree": run.max_degree,
        "beta": run.beta,
        "rounds": run.rounds,
        "bits_per_node": round(run.bits_per_node, 6),
        "schema_type": run.schema_type,
        "telemetry": run.telemetry,
        "profile": profile.summary(),
        "failures": len(run.failures),
    }
    try:
        from ..analysis.locality import certify_schema

        cert = certify_schema(name, schema, graph, run_dynamic=False)
        record["locality"] = cert.as_dict()
        record["certified_T"] = (
            cert.declared_radius if cert.passed else "FAIL"
        )
        record["certified_beta"] = (
            cert.declared_advice_bits if cert.passed else "FAIL"
        )
    except Exception as exc:  # certification must not sink the dashboard
        record["locality"] = {"error": f"{type(exc).__name__}: {exc}"}
        record["certified_T"] = record["certified_beta"] = "-"
    return record


def collect_report(
    schemas: Optional[Sequence[str]] = None,
    n: int = 120,
    seed: int = 0,
    chaos_runs: int = 0,
    lint: bool = False,
    serving: bool = True,
) -> Dict[str, object]:
    """Assemble the full dashboard payload (JSON-ready)."""
    from ..core.api import available_schemas

    names = list(schemas) if schemas else available_schemas()
    records = [collect_schema(name, n, seed) for name in names]
    payload: Dict[str, object] = {
        "provenance": build_provenance(seed=seed, schemas=names, n=n),
        "schemas": records,
        "ok": all(r.get("valid") for r in records),
    }
    if serving:
        from ..serve.bench import run_serve_bench

        payload["serving"] = run_serve_bench(
            seed=seed, **SERVING_REPORT_PARAMS
        )
        payload["ok"] = payload["ok"] and all(
            c.get("reconciled") for c in payload["serving"]["cases"]
        )
    if chaos_runs > 0:
        payload["robustness"] = _chaos_summary(
            chaos_runs, seed, max(48, n // 2), schemas
        )
    if lint:
        payload["lint"] = _lint_summary()
    return payload


# ---------------------------------------------------------------------------
# History
# ---------------------------------------------------------------------------


def history_snapshot(report: Mapping[str, object]) -> Dict[str, object]:
    """Compact per-schema deterministic-metric entry for the history file.

    Serving-bench cases (when the report carries a ``serving`` section)
    enter as additional rows keyed ``serving:<case>`` with the
    :data:`SERVING_HISTORY_METRICS` counters, so the same drift gate pins
    the query-serving path.
    """
    metrics: Dict[str, Dict[str, object]] = {}
    for record in report.get("schemas", []):
        name = str(record.get("schema"))
        telemetry = record.get("telemetry") or {}
        row: Dict[str, object] = {"valid": bool(record.get("valid"))}
        for metric in HISTORY_METRICS:
            value = telemetry.get(metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[metric] = value
        metrics[name] = row
    serving = report.get("serving") or {}
    for case in serving.get("cases", []):
        row = {"valid": bool(case.get("reconciled"))}
        for metric in SERVING_HISTORY_METRICS:
            value = case.get(metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[metric] = value
        metrics[f"serving:{case.get('case')}"] = row
    return {"provenance": report.get("provenance", {}), "metrics": metrics}


def load_history(path: str) -> List[Dict[str, object]]:
    try:
        with open(path) as fh:
            history = json.load(fh)
    except FileNotFoundError:
        return []
    if not isinstance(history, list):
        raise ValueError(f"{path}: history must be a JSON list of entries")
    return history


def check_history_drift(
    last: Mapping[str, object],
    snapshot: Mapping[str, object],
    tolerances: Optional[Mapping[str, float]] = None,
) -> List[str]:
    """Deterministic-metric drift of ``snapshot`` vs the last history entry.

    Returns human-readable problem strings (empty = within tolerance).
    A schema disappearing from the snapshot is drift; a new schema is not
    (growing the registry must not fail CI).  Likewise a metric present
    only in the fresh snapshot is new instrumentation, not drift — but a
    metric that *disappears* from a schema's row is.
    """
    tolerances = tolerances if tolerances is not None else {
        m: DETERMINISTIC_TOLERANCES.get(m, 0.0)
        for m in (*HISTORY_METRICS, *SERVING_HISTORY_METRICS)
    }
    problems: List[str] = []
    last_metrics = last.get("metrics", {})
    fresh_metrics = snapshot.get("metrics", {})
    for name, base_row in sorted(last_metrics.items()):
        fresh_row = fresh_metrics.get(name)
        if fresh_row is None:
            problems.append(f"schema {name!r}: missing from current run")
            continue
        if base_row.get("valid") and not fresh_row.get("valid"):
            problems.append(f"schema {name!r}: was valid, now invalid")
        deltas = diff_telemetry(base_row, fresh_row, tolerances=tolerances)
        problems.extend(
            f"schema {name!r}: {d.describe()}"
            for d in deltas
            if d.significant and d.base is not None
        )
    return problems


def append_history(
    report: Mapping[str, object],
    path: str,
    check: bool = True,
) -> List[str]:
    """Append ``report``'s snapshot to the history file at ``path``.

    With ``check=True`` (the default), the snapshot is first diffed
    against the last entry; on drift the problems are returned and the
    file is left untouched.  Returns the empty list on a clean append.
    """
    history = load_history(path)
    snapshot = history_snapshot(report)
    if check and history:
        problems = check_history_drift(history[-1], snapshot)
        if problems:
            return problems
    history.append(snapshot)
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return []


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_SUMMARY_COLUMNS = (
    ("schema", "schema"),
    ("valid", "valid"),
    ("β", "beta"),
    ("T", "rounds"),
    ("cert T", "certified_T"),
    ("cert β", "certified_beta"),
    ("bits/node", "bits_per_node"),
    ("type", "schema_type"),
    ("engine", "engine"),
    ("views", "views_gathered"),
    ("bfs visits", "bfs_node_visits"),
    ("decides", "decide_calls"),
    ("cache hit", "cache_hit_rate"),
    ("bits-on-wire", "bits_on_wire"),
)


def _summary_rows(report: Mapping[str, object]) -> List[List[str]]:
    rows = []
    for record in report.get("schemas", []):
        if "error" in record:
            rows.append([str(record.get("schema")), "ERROR",
                         str(record["error"])]
                        + [""] * (len(_SUMMARY_COLUMNS) - 3))
            continue
        telemetry = record.get("telemetry") or {}
        row = []
        for _, key in _SUMMARY_COLUMNS:
            value = record.get(key, telemetry.get(key, ""))
            if key == "engine" and not value:
                value = "-"  # message-passing / manual-gather schemas
            if isinstance(value, float):
                value = f"{value:g}"
            row.append(str(value))
        rows.append(row)
    return rows


def _advice_quantiles(record: Mapping[str, object]) -> str:
    telemetry = record.get("telemetry") or {}
    hist = telemetry.get("advice_bits_per_node")
    if not isinstance(hist, dict):
        return "-"
    return (
        f"p50={hist.get('p50')} p95={hist.get('p95')} max={hist.get('max')}"
    )


_BANDWIDTH_HEADERS = (
    "schema", "policy", "total bits", "round p50", "round p95",
    "peak edge·round", "min CONGEST B", "hotspot edge",
)


def _bandwidth_rows(report: Mapping[str, object]) -> List[List[str]]:
    """One row per schema from its telemetry's ``bandwidth`` profile."""
    rows = []
    for record in report.get("schemas", []):
        telemetry = record.get("telemetry") or {}
        bw = telemetry.get("bandwidth")
        if not isinstance(bw, dict):
            continue
        per_round = bw.get("per_round") or {}
        hotspots = bw.get("hotspots") or []
        hot = hotspots[0] if hotspots else {}
        hot_cell = (
            f"{tuple(hot.get('edge', ()))} ({hot.get('bits')} bits)"
            if hot else "-"
        )
        rows.append([
            str(record.get("schema")),
            str(bw.get("policy")),
            f"{bw.get('total_bits', 0):g}",
            f"{per_round.get('p50', 0):g}",
            f"{per_round.get('p95', 0):g}",
            f"{bw.get('peak_edge_round_bits', 0):g}",
            f"{bw.get('min_congest_budget', 0):g}",
            hot_cell,
        ])
    return rows


def render_markdown(report: Mapping[str, object]) -> str:
    """The dashboard as a self-contained markdown document."""
    prov = report.get("provenance", {})
    lines = ["# repro observability report", ""]
    lines.append(
        f"Provenance: commit `{prov.get('commit', 'unknown')}`, "
        f"seed {prov.get('seed')}, n {prov.get('n')}, "
        f"python {prov.get('python')}, {prov.get('platform')}"
    )
    lines += ["", "## Schema footprint (Definition 3.2)", ""]
    headers = [h for h, _ in _SUMMARY_COLUMNS]
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "---|" * len(headers))
    for row in _summary_rows(report):
        lines.append("| " + " | ".join(row) + " |")

    bandwidth_rows = _bandwidth_rows(report)
    if bandwidth_rows:
        lines += ["", "## Bandwidth (bits-on-wire)", ""]
        lines.append(
            "Flooding-equivalent accounting of each decoder's T rounds "
            "under the ambient policy; `min CONGEST B` is the smallest "
            "budget for which `CONGEST(B)` fits the run."
        )
        lines.append("")
        lines.append("| " + " | ".join(_BANDWIDTH_HEADERS) + " |")
        lines.append("|" + "---|" * len(_BANDWIDTH_HEADERS))
        for row in bandwidth_rows:
            lines.append("| " + " | ".join(row) + " |")

    lines += ["", "## Work attribution (per-span profile)", ""]
    for record in report.get("schemas", []):
        name = record.get("schema")
        if "error" in record:
            lines.append(f"### {name}\n\nERROR: {record['error']}\n")
            continue
        profile = record.get("profile") or {}
        totals = profile.get("totals", {})
        crit = profile.get("critical_path", [])
        lines.append(f"### {name}")
        lines.append("")
        lines.append(
            f"- totals: wall {totals.get('wall', 0):.4f}s, "
            f"bfs visits {totals.get('bfs_node_visits', 0):g}, "
            f"views {totals.get('views_gathered', 0):g}, "
            f"decides {totals.get('decide_calls', 0):g}, "
            f"messages {totals.get('messages_delivered', 0):g}, "
            f"bits on wire {totals.get('bits_on_wire', 0):g}"
        )
        lines.append(
            "- critical path: "
            + (" → ".join(
                f"{s['name']} ({s['wall'] * 1000:.2f}ms)" for s in crit
            ) or "-")
        )
        lines.append(f"- advice bits/node: {_advice_quantiles(record)}")
        lines.append("")

    serving = report.get("serving")
    if serving:
        lines += ["", "## Serving (per-query decode)", ""]
        lines.append(
            "One `AdviceService` per grid size answers a seeded query "
            "stream from radius-T ball gathers only — O(Δ^T) per query, "
            "independent of n.  The deterministic per-query work (BFS "
            "visits/query) staying flat across sizes is the paper's "
            "serving claim; wall latencies are informational."
        )
        lines.append("")
        serving_headers = (
            "case", "n", "queries", "bfs visits/query", "ball p50",
            "decides", "p50 µs", "p95 µs", "reconciled",
        )
        lines.append("| " + " | ".join(serving_headers) + " |")
        lines.append("|" + "---|" * len(serving_headers))
        for case in serving.get("cases", []):
            lat = case.get("latency_us", {})
            lines.append(
                "| " + " | ".join(str(x) for x in (
                    case.get("case"), case.get("n"),
                    case.get("queries_total"),
                    case.get("bfs_visits_per_query"),
                    case.get("ball_p50"), case.get("decide_calls"),
                    lat.get("p50"), lat.get("p95"),
                    "yes" if case.get("reconciled") else "NO",
                )) + " |"
            )
        flatness = serving.get("flatness", {})
        lines.append("")
        lines.append(
            f"- flatness: bfs-visits/query ratio "
            f"{flatness.get('visit_ratio')} across "
            f"n={[c.get('n') for c in serving.get('cases', [])]}, "
            f"wall-latency ratio {flatness.get('latency_ratio')}"
        )
        lines.append("")

    robustness = report.get("robustness")
    if robustness:
        lines += ["## Robustness (seeded chaos campaign)", ""]
        lines.append(
            f"- runs {robustness.get('runs')}, harmful "
            f"{robustness.get('harmful')}, detection "
            f"{robustness.get('detection_rate', 0):.1%}, local repair "
            f"{robustness.get('local_repair_rate', 0):.1%}"
        )
        lines.append(
            f"- repair radius histogram: {robustness.get('repair_radius_hist')}"
        )
        lines.append("")

    lint = report.get("lint")
    if lint:
        lines += ["## LOCAL-contract lint (static)", ""]
        lines.append(
            f"- {lint.get('functions_checked')} functions in "
            f"{lint.get('files_scanned')} files; "
            f"{lint.get('violations')} findings "
            f"({lint.get('unwaived')} unwaived): {lint.get('by_rule')}"
        )
        lines.append("")

    status = "all schemas valid" if report.get("ok") \
        else "PROBLEMS — see above"
    lines.append(f"**Status:** {status}")
    lines.append("")
    return "\n".join(lines)


def render_html(report: Mapping[str, object]) -> str:
    """Minimal standalone HTML wrap of the dashboard (same data as markdown)."""
    prov = report.get("provenance", {})

    def esc(text: object) -> str:
        return (
            str(text)
            .replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )

    rows = "\n".join(
        "<tr>" + "".join(f"<td>{esc(cell)}</td>" for cell in row) + "</tr>"
        for row in _summary_rows(report)
    )
    headers = "".join(f"<th>{esc(h)}</th>" for h, _ in _SUMMARY_COLUMNS)
    sections = []
    for record in report.get("schemas", []):
        name = esc(record.get("schema"))
        if "error" in record:
            sections.append(f"<h3>{name}</h3><p>ERROR: "
                            f"{esc(record['error'])}</p>")
            continue
        profile = record.get("profile") or {}
        crit = " → ".join(
            f"{esc(s['name'])} ({s['wall'] * 1000:.2f}ms)"
            for s in profile.get("critical_path", [])
        )
        sections.append(
            f"<h3>{name}</h3><p>critical path: {crit or '-'}<br>"
            f"advice bits/node: {esc(_advice_quantiles(record))}</p>"
        )
    status = "all schemas valid" if report.get("ok") else "PROBLEMS"
    return f"""<!doctype html>
<html><head><meta charset="utf-8"><title>repro observability report</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem; }}
table {{ border-collapse: collapse; }}
th, td {{ border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: left; }}
th {{ background: #f2f2f2; }}
</style></head><body>
<h1>repro observability report</h1>
<p>Provenance: commit <code>{esc(prov.get('commit', 'unknown'))}</code>,
seed {esc(prov.get('seed'))}, n {esc(prov.get('n'))},
python {esc(prov.get('python'))}, {esc(prov.get('platform'))}</p>
<h2>Schema footprint (Definition 3.2)</h2>
<table><tr>{headers}</tr>
{rows}
</table>
<h2>Work attribution</h2>
{''.join(sections)}
<p><strong>Status:</strong> {status}</p>
</body></html>
"""


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def report_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro report``: build the dashboard, maintain history."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Collect telemetry, work profiles, robustness, and lint "
        "summaries across every schema into one dashboard; optionally "
        "append a deterministic-metric snapshot to a perf-history file.",
    )
    parser.add_argument("--n", type=int, default=120, help="instance size hint")
    parser.add_argument("--seed", type=int, default=0, help="identifier seed")
    parser.add_argument(
        "--schema", action="append", dest="schemas",
        help="restrict to this schema (repeatable; default: all)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw report payload as JSON instead of markdown",
    )
    parser.add_argument("--out", help="also write the markdown dashboard here")
    parser.add_argument("--html", help="also write a standalone HTML dashboard")
    parser.add_argument(
        "--history", metavar="PATH",
        help="append a per-schema deterministic-metric snapshot to this "
        "JSON file, failing on drift beyond tolerance vs the last entry",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="append to --history without diffing against the last entry",
    )
    parser.add_argument(
        "--chaos-runs", type=int, default=0, metavar="N",
        help="include a seeded chaos campaign of N runs (default: skip)",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="include a static LOCAL-contract lint summary",
    )
    parser.add_argument(
        "--no-serving", action="store_true",
        help="skip the embedded serving bench (the ## Serving section)",
    )
    args = parser.parse_args(argv)

    report = collect_report(
        schemas=args.schemas,
        n=args.n,
        seed=args.seed,
        chaos_runs=args.chaos_runs,
        lint=args.lint,
        serving=not args.no_serving,
    )

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=repr))
    else:
        print(render_markdown(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(render_markdown(report))
        print(f"wrote {args.out}", file=sys.stderr)
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(render_html(report))
        print(f"wrote {args.html}", file=sys.stderr)

    exit_code = 0 if report.get("ok") else 1
    if args.history:
        problems = append_history(
            report, args.history, check=not args.no_check
        )
        if problems:
            print(
                f"HISTORY DRIFT: {len(problems)} metric(s) moved beyond "
                f"tolerance vs the last entry of {args.history} "
                "(entry NOT appended)",
                file=sys.stderr,
            )
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            exit_code = 1
        else:
            entries = len(load_history(args.history))
            print(
                f"appended history entry #{entries} to {args.history}",
                file=sys.stderr,
            )
    return exit_code
