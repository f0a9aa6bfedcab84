"""``python -m repro serve-bench``: the open-loop serving load generator.

The flagship measurement behind the paper's serving claim: at fixed Δ
(the grid family, Δ = 4), per-query cost is a radius-``T`` ball gather —
O(Δ^T) work — so it stays **flat as n grows**.  The bench stands up one
:class:`~repro.serve.AdviceService` per grid size (n = side² from 4k to
64k at the defaults), replays a seeded open-loop query stream against it,
and reports:

* exact p50/p95/p99/mean per-query wall latency (microseconds) per size;
* the deterministic per-query work counters (BFS node-visits per query,
  ball-size quantiles, decide calls) that CI pins with zero tolerance in
  ``benchmarks/baselines/serving.json`` — wall times are machine-dependent
  and deliberately excluded from the baseline;
* the flatness ratio: max/min mean BFS visits per query across sizes.
  Boundary balls are smaller than interior balls, so the per-query mean
  creeps *up* slightly as the boundary fraction shrinks with n; the
  acceptance bound (``--max-visit-ratio``) allows that drift and nothing
  more.  A per-query cost growing with n (the claim being false) would
  blow through it immediately;
* per-tenant/sampling reconciliation (``queries_total`` = Σ tenant shards
  = sampled + unsampled) and the SLO monitor's verdict.

``repro report`` embeds a small fixed-parameter instance of this bench as
its ``## Serving`` section, and the history drift gate pins the serving
counters alongside the per-schema metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from typing import Dict, List, Optional, Sequence

from ..graphs.generators import grid
from ..local.graph import LocalGraph
from ..local.model import resolve_engine
from ..obs.live import SloPolicy
from ..schemas.two_coloring import TwoColoringSchema
from .service import AdviceService

#: Default grid sides: n = 4096 / 16384 / 65536 at fixed Δ = 4.
DEFAULT_SIDES = (64, 128, 256)

#: Deterministic per-case serving metrics pinned by the committed
#: baseline, all with zero tolerance (pure functions of seed/params).
SERVING_TOLERANCES: Dict[str, float] = {
    "queries_total": 0.0,
    "views_gathered": 0.0,
    "bfs_node_visits": 0.0,
    "decide_calls": 0.0,
    "ball_p50": 0.0,
    "ball_max": 0.0,
}


def _exact_quantile(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank quantile of an already-sorted sample (exact, not bucketed)."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _counter(snapshot: Dict[str, object], name: str) -> float:
    value = snapshot.get(name, 0.0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def _bench_case(
    side: int,
    queries: int,
    seed: int,
    spacing: int,
    sample_rate: float,
    tenants: int,
    batch: int,
    slo: Optional[SloPolicy],
    verify: bool,
) -> Dict[str, object]:
    graph = LocalGraph(grid(side, side), seed=seed)
    schema = TwoColoringSchema(spacing=spacing)
    service = AdviceService(
        schema,
        graph,
        sample_rate=sample_rate,
        sample_seed=seed,
        slo=slo,
    )
    order = sorted(graph.nodes(), key=graph.id_of)
    rng = random.Random(seed * 1_000_003 + side)
    latencies: List[float] = []
    answers = {}
    issued = 0
    while issued < queries:
        size = min(batch, queries - issued)
        nodes = [order[rng.randrange(len(order))] for _ in range(size)]
        tenant = f"tenant-{rng.randrange(tenants)}"
        for result in service.query_batch(nodes, tenant=tenant):
            latencies.append(result.latency)
            answers[result.node] = result.label
        issued += size

    snapshot = service.registry.snapshot()
    total = _counter(snapshot, "queries_total")
    shard_sum = sum(
        _counter(snapshot, f"queries_total{{tenant={label}}}")
        for label in service.shards.labels()
    )
    sampled = _counter(snapshot, "queries_sampled_total")
    unsampled = _counter(snapshot, "queries_unsampled_total")
    reconciled = total == shard_sum == sampled + unsampled

    mismatches = 0
    if verify:
        cold = TwoColoringSchema(spacing=spacing)
        cold_run = cold.run(graph, check=True)
        mismatches = sum(
            1 for v, label in answers.items()
            if cold_run.result.labeling[v] != label
        )

    latencies.sort()
    stats = service.stats
    case: Dict[str, object] = {
        "case": f"grid-{side}x{side}",
        "n": graph.n,
        "max_degree": graph.max_degree,
        "radius": service.radius,
        "queries_total": int(total),
        "views_gathered": stats.views_gathered,
        "bfs_node_visits": stats.bfs_node_visits,
        "decide_calls": stats.decide_calls,
        "ball_p50": service.ball_size_window.quantile(0.50),
        "ball_p99": service.ball_size_window.quantile(0.99),
        "ball_max": service.ball_size_window.merged().max,
        "bfs_visits_per_query": round(stats.bfs_node_visits / max(1, total), 6),
        "latency_us": {
            "p50": round(_exact_quantile(latencies, 0.50) * 1e6, 3),
            "p95": round(_exact_quantile(latencies, 0.95) * 1e6, 3),
            "p99": round(_exact_quantile(latencies, 0.99) * 1e6, 3),
            "mean": round(sum(latencies) / len(latencies) * 1e6, 3),
        },
        "sampled_total": int(sampled),
        "unsampled_total": int(unsampled),
        "tenant_shards": service.shards.labels(),
        "reconciled": reconciled,
        "engine": resolve_engine(batch),
    }
    if verify:
        case["verified_against_cold_decode"] = mismatches == 0
        case["mismatches"] = mismatches
    if service.slo is not None:
        case["slo"] = service.slo.snapshot_value()
    service.close()
    return case


def run_serve_bench(
    sides: Sequence[int] = DEFAULT_SIDES,
    queries: int = 256,
    seed: int = 0,
    spacing: int = 8,
    sample_rate: float = 0.05,
    tenants: int = 4,
    batch: int = 1,
    slo_latency_target: Optional[float] = None,
    verify: bool = False,
) -> Dict[str, object]:
    """Run the full latency-vs-n sweep; returns the bench report payload."""
    slo = (
        SloPolicy(
            name="serve-bench",
            latency_quantile=0.95,
            latency_target=slo_latency_target,
            max_error_rate=0.0,
            window=max(1, min(queries, 128)),
        )
        if slo_latency_target is not None
        else None
    )
    cases = [
        _bench_case(
            side, queries, seed, spacing, sample_rate, tenants, batch,
            slo, verify,
        )
        for side in sides
    ]
    visits = [float(c["bfs_visits_per_query"]) for c in cases]
    means = [float(c["latency_us"]["mean"]) for c in cases]
    flatness = {
        "bfs_visits_per_query": visits,
        "visit_ratio": round(max(visits) / min(visits), 6) if visits else None,
        "latency_mean_us": means,
        "latency_ratio": round(max(means) / min(means), 6) if means else None,
    }
    return {
        "benchmark": "serving",
        "params": {
            "sides": list(sides),
            "queries": queries,
            "seed": seed,
            "spacing": spacing,
            "sample_rate": sample_rate,
            "tenants": tenants,
            "batch": batch,
        },
        "cases": cases,
        "flatness": flatness,
    }


def _parse_sides(text: str) -> List[int]:
    try:
        sides = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--sides wants comma-separated grid side lengths, got {text!r}"
        ) from None
    if not sides or any(s < 8 for s in sides):
        raise argparse.ArgumentTypeError("grid sides must all be >= 8")
    return sides


def serve_bench_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro serve-bench``: run the sweep, print, gate, dump."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve-bench",
        description="Open-loop query load against AdviceService per grid "
        "size; reports p50/p95/p99 per-query latency vs n at fixed Δ and "
        "asserts the per-query work stays flat.",
    )
    parser.add_argument(
        "--sides", type=_parse_sides, default=list(DEFAULT_SIDES),
        help="comma-separated grid side lengths (default 64,128,256 — "
        "n = 4k/16k/64k)",
    )
    parser.add_argument("--queries", type=int, default=256,
                        help="queries per size (default 256)")
    parser.add_argument("--seed", type=int, default=0, help="stream seed")
    parser.add_argument("--spacing", type=int, default=8,
                        help="TwoColoringSchema anchor spacing (T = spacing-1)")
    parser.add_argument("--sample-rate", type=float, default=0.05,
                        help="trace head-sampling rate (default 0.05)")
    parser.add_argument("--tenants", type=int, default=4,
                        help="distinct tenants in the stream (default 4)")
    parser.add_argument("--batch", type=int, default=1,
                        help="nodes per query_batch call (default 1)")
    parser.add_argument(
        "--slo-latency-target", type=float, default=None, metavar="SECONDS",
        help="attach an SloMonitor with this p95 latency target",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="also check every answer against a cold full-graph decode",
    )
    parser.add_argument(
        "--max-visit-ratio", type=float, default=1.25,
        help="fail when max/min BFS visits per query across sizes exceeds "
        "this (the flat-per-query-cost acceptance bound; default 1.25)",
    )
    parser.add_argument("--json", action="store_true",
                        help="print the raw report as JSON")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this file")
    args = parser.parse_args(argv)

    report = run_serve_bench(
        sides=args.sides,
        queries=args.queries,
        seed=args.seed,
        spacing=args.spacing,
        sample_rate=args.sample_rate,
        tenants=args.tenants,
        batch=args.batch,
        slo_latency_target=args.slo_latency_target,
        verify=args.verify,
    )
    from ..obs.report import build_provenance

    report["provenance"] = build_provenance(
        seed=args.seed, schemas=["2-coloring"]
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=repr))
    else:
        header = (
            f"{'case':>14} {'n':>6} {'p50 µs':>8} {'p95 µs':>8} "
            f"{'p99 µs':>8} {'mean µs':>8} {'bfs/q':>8} "
            f"{'ball p50':>8} {'ok':>3}"
        )
        print(header)
        print("-" * len(header))
        for case in report["cases"]:
            lat = case["latency_us"]
            ok = case["reconciled"] and case.get(
                "verified_against_cold_decode", True
            )
            print(
                f"{case['case']:>14} {case['n']:>6} {lat['p50']:>8.1f} "
                f"{lat['p95']:>8.1f} {lat['p99']:>8.1f} {lat['mean']:>8.1f} "
                f"{case['bfs_visits_per_query']:>8.1f} "
                f"{case['ball_p50']:>8g} "
                f"{'yes' if ok else 'NO':>3}"
            )
        flatness = report["flatness"]
        print(
            f"flatness: bfs-visits/query ratio "
            f"{flatness['visit_ratio']:.3f} "
            f"(bound {args.max_visit_ratio:g}), "
            f"wall-latency ratio {flatness['latency_ratio']:.3f}"
        )
    if args.out:
        print(f"wrote {args.out}")

    problems = []
    for case in report["cases"]:
        if not case["reconciled"]:
            problems.append(f"{case['case']}: tenant/sampling counters "
                            "do not reconcile")
        if case.get("verified_against_cold_decode") is False:
            problems.append(
                f"{case['case']}: {case['mismatches']} answers differ "
                "from the cold full decode"
            )
        slo_snap = case.get("slo")
        if slo_snap and slo_snap["violations"]:
            problems.append(
                f"{case['case']}: {slo_snap['violations']} SLO violations"
            )
    ratio = report["flatness"]["visit_ratio"]
    if ratio is not None and ratio > args.max_visit_ratio:
        problems.append(
            f"per-query BFS visits not flat: ratio {ratio:.3f} exceeds "
            f"{args.max_visit_ratio:g} across n="
            f"{[c['n'] for c in report['cases']]}"
        )
    for problem in problems:
        print(f"SERVE-BENCH FAILURE: {problem}")
    return 1 if problems else 0
