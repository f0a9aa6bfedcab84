"""Churn benchmark: sustained mutations/sec and campaign determinism.

Two sections:

1. **Churn campaign** — a seeded :func:`repro.dynamic.run_churn_campaign`
   over the flagship instances (``--mutations`` live topology changes
   each, validity asserted after every one).  The per-schema local-repair
   and fallback counts are deterministic given the seed, so they are
   pinned by ``benchmarks/baselines/churn.json`` with zero tolerance: any
   schema silently escalating more (or failing) than before fails the
   ``repair`` CI job's diff.
2. **Throughput** — sustained mutations/sec of the incremental
   :class:`repro.dynamic.ChurnRunner` on the 64x64 grid 2-coloring
   workload versus the naive serve-by-re-encoding baseline (every
   mutation triggers a full encode + decode).  Timings are
   machine-dependent and deliberately excluded from the baseline;
   ``--min-speedup 5`` turns the ISSUE's >= 5x acceptance bound into a
   hard exit code for local verification.

Regenerate the baseline after an intentional repair-policy change::

    PYTHONPATH=src python benchmarks/bench_churn.py \
        --out BENCH_churn.json --write-baseline benchmarks/baselines/churn.json
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Optional

from repro.dynamic import ChurnRunner, Mutation, generate_mutation_plan, run_churn_campaign
from repro.dynamic.campaign import FLAGSHIPS
from repro.graphs import grid
from repro.local import LocalGraph
from repro.schemas.two_coloring import TwoColoringSchema

#: Campaign metrics pinned by the baseline — all deterministic per seed.
CHURN_TOLERANCES: Dict[str, float] = {
    "mutations": 0.0,
    "repairs_local": 0.0,
    "reencode_fallbacks": 0.0,
    "failures": 0.0,
    "local_rate": 0.0,
}


def campaign_cases(
    mutations: int, seed: int, n: int
) -> List[Dict[str, object]]:
    result = run_churn_campaign(mutations=mutations, seed=seed, n=n)
    cases: List[Dict[str, object]] = []
    for name, d in result.per_schema.items():
        cases.append(
            {
                "case": name,
                "mutations": d["mutations"],
                "repairs_local": d["repairs_local"],
                "reencode_fallbacks": d["reencode_fallbacks"],
                "failures": d["failures"],
                "local_rate": d["local_rate"],
                "repair_radius_hist": d["repair_radius_hist"],
            }
        )
    totals = {"case": "TOTALS"}
    totals.update(result.totals)
    totals["ok"] = result.ok
    cases.append(totals)
    return cases


def _replay_raw(graph: LocalGraph, mutation: Mutation) -> None:
    """Apply one mutation with the bare LocalGraph mutator API."""
    if mutation.kind == "edge-insert":
        graph.add_edge(mutation.u, mutation.v)
    elif mutation.kind == "edge-delete":
        graph.remove_edge(mutation.u, mutation.v)
    elif mutation.kind == "node-insert":
        graph.add_node(mutation.node, neighbors=mutation.neighbors)
    else:
        graph.remove_node(mutation.node)


def throughput_cases(
    side: int, mutations: int, baseline_mutations: int, seed: int
) -> List[Dict[str, object]]:
    """Incremental repair vs full re-encode per mutation, mutations/sec.

    Both paths replay the same seeded plan (the baseline a prefix of it:
    full re-encodes on a ``side * side`` grid are orders of magnitude
    slower, so timing every mutation would dominate the bench for no
    extra information).
    """
    graph = LocalGraph(grid(side, side), seed=seed)
    plan = generate_mutation_plan(graph, mutations, seed=seed)
    runner = ChurnRunner(TwoColoringSchema(), graph)
    t0 = time.perf_counter()
    for m in plan.mutations:
        runner.apply(m)
    churn_s = time.perf_counter() - t0
    # Correctness is asserted outside the timed loop: the incremental
    # path's region checks are the whole point of the speedup.
    final = runner.schema.decode(runner.graph, runner.advice)
    assert runner.schema.check_solution(runner.graph, final.labeling)
    churn_rate = mutations / churn_s

    prefix = plan.mutations[:baseline_mutations]
    base_graph = LocalGraph(grid(side, side), seed=seed)
    base_schema = TwoColoringSchema()
    t0 = time.perf_counter()
    for m in prefix:
        _replay_raw(base_graph, m)
        advice = base_schema.encode(base_graph)
        base_schema.decode(base_graph, advice)
    base_s = time.perf_counter() - t0
    base_rate = len(prefix) / base_s

    return [
        {
            "case": f"throughput-grid-{side}x{side}",
            "mutations": mutations,
            "churn_seconds": round(churn_s, 6),
            "churn_mutations_per_s": round(churn_rate, 2),
            "baseline_mutations": len(prefix),
            "baseline_seconds": round(base_s, 6),
            "baseline_mutations_per_s": round(base_rate, 2),
            "speedup": round(churn_rate / base_rate, 2),
        }
    ]


def main(argv: Optional[List[str]] = None) -> Dict[str, object]:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mutations", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--side", type=int, default=64)
    parser.add_argument("--throughput-mutations", type=int, default=200)
    parser.add_argument("--baseline-mutations", type=int, default=15)
    parser.add_argument("--out", default="BENCH_churn.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless incremental repair beats re-encode-per-mutation "
        "by this factor (0 = record only; the acceptance bound is 5)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="also write the campaign baseline (churn metrics, zero "
        "tolerance) to PATH",
    )
    args = parser.parse_args(argv)

    from common import stamp_provenance

    cases = campaign_cases(args.mutations, args.seed, args.n)
    throughput = throughput_cases(
        args.side, args.throughput_mutations, args.baseline_mutations, args.seed
    )
    report = {
        "benchmark": "churn",
        "params": {
            "mutations": args.mutations,
            "seed": args.seed,
            "n": args.n,
        },
        "cases": cases,
        "throughput_cases": throughput,
    }
    stamp_provenance(report, seed=args.seed, schemas=list(FLAGSHIPS))
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for case in cases:
        print(
            f"{case['case']:>24}: mutations {case['mutations']:4d}, "
            f"local {case['repairs_local']:4d} "
            f"({case['local_rate']:.1%}), "
            f"reencode {case['reencode_fallbacks']}, "
            f"failures {case['failures']}"
        )
    speedup = 0.0
    for case in throughput:
        speedup = max(speedup, case["speedup"])
        print(
            f"{case['case']:>24}: churn {case['churn_mutations_per_s']:.0f}/s, "
            f"re-encode {case['baseline_mutations_per_s']:.1f}/s "
            f"(speedup {case['speedup']:.1f}x)"
        )
    print(f"wrote {args.out}")

    if args.write_baseline:
        from common import write_baseline

        write_baseline(report, args.write_baseline, CHURN_TOLERANCES)
        print(f"wrote {args.write_baseline}")

    totals = cases[-1]
    if not totals["ok"]:
        raise SystemExit(
            f"campaign failed: {totals['failures']} invalid mutations, "
            f"{totals['checkpoint_failures']} checkpoint failures, "
            f"local rate {totals['local_rate']:.1%}"
        )
    if args.min_speedup and speedup < args.min_speedup:
        raise SystemExit(
            f"churn speedup {speedup:.1f}x below the "
            f"{args.min_speedup:.0f}x acceptance bound"
        )
    return report


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (small smoke campaign)
# ---------------------------------------------------------------------------


def test_churn_smoke(benchmark):
    from .common import print_table, run_once

    rows = run_once(benchmark, lambda: campaign_cases(30, 0, 48))
    print_table(
        "churn: local repair / fallbacks",
        [
            {
                "case": r["case"],
                "mutations": r["mutations"],
                "local": r["repairs_local"],
                "reencode": r["reencode_fallbacks"],
                "failures": r["failures"],
            }
            for r in rows
        ],
    )
    assert rows[-1]["failures"] == 0


if __name__ == "__main__":
    main()
