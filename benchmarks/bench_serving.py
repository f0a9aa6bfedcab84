"""Serving benchmark: per-query latency vs n and deterministic work pins.

A thin harness over :func:`repro.serve.run_serve_bench` (the same sweep
behind ``python -m repro serve-bench``): one
:class:`repro.serve.AdviceService` per grid size answers a seeded
open-loop query stream from radius-``T`` ball gathers only, and the
report carries exact p50/p95/p99 wall latency plus the deterministic
per-query work counters.

The counters — queries issued, views gathered, BFS node visits, decide
calls, ball-size quantiles — are pure functions of
``(params, seed)``, so ``benchmarks/baselines/serving.json`` pins them
with **zero tolerance**: any change to the serving path that alters how
much work a query does (or how the stream is accounted) fails the
``bench-regression`` CI diff.  Wall latencies are machine-dependent and
deliberately excluded from the baseline; the flat-per-query-work
acceptance bound (``--max-visit-ratio``) is enforced on the deterministic
BFS-visits-per-query counter instead.

Regenerate the baseline after an intentional serving change::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --out BENCH_serving.json \
        --write-baseline benchmarks/baselines/serving.json
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

from repro.serve import SERVING_TOLERANCES, run_serve_bench

#: bench-regression parameters: small enough for CI, spread enough (4x in
#: n) that a per-query cost growing with n still trips the visit-ratio
#: bound.
BASELINE_SIDES = (24, 48)
BASELINE_QUERIES = 64


def main(argv: Optional[List[str]] = None) -> Dict[str, object]:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sides", default=",".join(str(s) for s in BASELINE_SIDES),
        help="comma-separated grid side lengths",
    )
    parser.add_argument("--queries", type=int, default=BASELINE_QUERIES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--sample-rate", type=float, default=0.05)
    parser.add_argument(
        "--max-visit-ratio", type=float, default=1.25,
        help="fail when max/min BFS visits per query across sizes exceeds "
        "this (0 = record only)",
    )
    parser.add_argument("--out", default="BENCH_serving.json")
    parser.add_argument(
        "--write-baseline", metavar="PATH",
        help="also write the deterministic-counter baseline (zero "
        "tolerance) to PATH",
    )
    args = parser.parse_args(argv)

    sides = [int(s) for s in args.sides.split(",") if s.strip()]
    report = run_serve_bench(
        sides=sides,
        queries=args.queries,
        seed=args.seed,
        tenants=args.tenants,
        sample_rate=args.sample_rate,
        verify=True,
    )

    from common import stamp_provenance

    stamp_provenance(report, seed=args.seed, schemas=["2-coloring"])
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    problems: List[str] = []
    for case in report["cases"]:
        lat = case["latency_us"]
        print(
            f"{case['case']:>14}: n {case['n']:6d}, "
            f"p50 {lat['p50']:8.1f}µs, p95 {lat['p95']:8.1f}µs, "
            f"bfs/q {case['bfs_visits_per_query']:6.1f}, "
            f"decides {case['decide_calls']:3d}, "
            f"reconciled {'yes' if case['reconciled'] else 'NO'}, "
            f"verified {'yes' if case['verified_against_cold_decode'] else 'NO'}"
        )
        if not case["reconciled"]:
            problems.append(f"{case['case']}: counters do not reconcile")
        if not case["verified_against_cold_decode"]:
            problems.append(
                f"{case['case']}: {case['mismatches']} answers differ from "
                "the cold full decode"
            )
    ratio = report["flatness"]["visit_ratio"]
    print(
        f"flatness: bfs-visits/query ratio {ratio:.3f} "
        f"(bound {args.max_visit_ratio:g}), wall-latency ratio "
        f"{report['flatness']['latency_ratio']:.3f}"
    )
    print(f"wrote {args.out}")

    if args.write_baseline:
        from common import write_baseline

        write_baseline(report, args.write_baseline, SERVING_TOLERANCES)
        print(f"wrote {args.write_baseline}")

    if args.max_visit_ratio and ratio > args.max_visit_ratio:
        problems.append(
            f"per-query BFS visits not flat: ratio {ratio:.3f} exceeds "
            f"{args.max_visit_ratio:g}"
        )
    if problems:
        raise SystemExit("; ".join(problems))
    return report


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (small smoke sweep)
# ---------------------------------------------------------------------------


def test_serving_smoke(benchmark):
    from .common import print_table, run_once

    report = run_once(
        benchmark,
        lambda: run_serve_bench(sides=(16, 24), queries=32, verify=True),
    )
    print_table(
        "serving: per-query latency and work",
        [
            {
                "case": c["case"],
                "n": c["n"],
                "p50_us": c["latency_us"]["p50"],
                "bfs_per_q": c["bfs_visits_per_query"],
                "decides": c["decide_calls"],
            }
            for c in report["cases"]
        ],
    )
    for case in report["cases"]:
        assert case["reconciled"]
        assert case["verified_against_cold_decode"]


if __name__ == "__main__":
    main()
