"""Gather benchmark: scalar vs vectorized batched-BFS.

Times both view gathers on the same graphs, each followed by deciding
every view:

* **scalar** — per-root CSR BFS with dict-based view assembly
  (:func:`repro.local.gather_all_views`, the reference semantics);
* **vectorized** — one masked multi-source BFS frontier sweep over the
  CSR arrays for *all* roots at once, views materialized lazily
  (:func:`repro.local.vectorized.gather_views_batched`).

``run_view_algorithm`` picks between the two by root count alone; this
benchmark calls each directly so both are timed on every case.

The decision rule is the center advice-decompression rule — O(1) per
view after gathering — so the timings measure the gather/decode
machinery rather than the user's rule.  Outputs are cross-checked for
exact equality on every case and the timings land in a JSON report
stamped with provenance plus the numpy version::

    PYTHONPATH=src python benchmarks/bench_vectorized.py \
        --rows 64 --cols 64 --radius 3 --out BENCH_vectorized.json

The 64x64-grid radius-3 case is the acceptance workload: ``--min-speedup
10`` fails the run unless the vectorized gather beats scalar by 10x.
Also runnable under pytest-benchmark (a small smoke instance) like the
other ``bench_*`` modules.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Optional

import numpy

from repro.graphs import binary_tree, cycle, grid
from repro.local import LocalGraph, gather_all_views
from repro.local.vectorized import gather_views_batched
from repro.perf import SimStats


def _decide(view) -> str:
    """Center advice decompression: the label is the center's advice bit."""
    return view.advice_of(view.center)


def _advice(graph: LocalGraph, every: int = 9) -> Dict[object, str]:
    """Deterministic sparse anchors: every ``every``-th identifier."""
    return {
        v: ("1" if graph.id_of(v) % every == 0 else "") for v in graph.nodes()
    }


def _best(fn, reps: int) -> float:
    """Warm once, then report the minimum of ``reps`` timed runs."""
    fn()
    best = float("inf")
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_case(
    name: str,
    graph: LocalGraph,
    radius: int,
    reps: int,
) -> Dict[str, object]:
    """Time both gathers on one graph; verify bit-identical outputs."""
    advice = _advice(graph)

    def decide_all(gather, engine):
        stats = SimStats(engine=engine)
        views = gather(graph, radius, advice, stats=stats)
        outputs = {v: _decide(view) for v, view in views.items()}
        stats.decide_calls += len(views)
        return outputs, stats

    def scalar_run():
        return decide_all(gather_all_views, "scalar")

    def vectorized_run():
        return decide_all(gather_views_batched, "vectorized")

    scalar_seconds = _best(scalar_run, reps)
    scalar_outputs, scalar_stats = scalar_run()

    vectorized_seconds = _best(vectorized_run, reps)
    vectorized_outputs, vectorized_stats = vectorized_run()
    if vectorized_outputs != scalar_outputs:
        raise AssertionError(f"{name}: vectorized outputs diverge")

    return {
        "case": name,
        "n": graph.n,
        "m": graph.m,
        "max_degree": graph.max_degree,
        "radius": radius,
        "scalar_seconds": round(scalar_seconds, 6),
        "vectorized_seconds": round(vectorized_seconds, 6),
        "speedup": round(scalar_seconds / max(vectorized_seconds, 1e-9), 3),
        "views_per_second": round(
            graph.n / max(vectorized_seconds, 1e-9), 1
        ),
        "engine_stats": vectorized_stats.as_dict(),
        "scalar_stats": scalar_stats.as_dict(),
    }


def run_suite(
    rows: int, cols: int, radius: int, reps: int = 3
) -> List[Dict[str, object]]:
    """The benchmark cases: the acceptance grid plus cycle and tree."""
    n = rows * cols
    depth = max(2, n.bit_length() - 2)
    tree = binary_tree(depth)
    return [
        bench_case(
            f"grid-{rows}x{cols}",
            LocalGraph(grid(rows, cols), seed=1),
            radius,
            reps,
        ),
        bench_case(f"cycle-{n}", LocalGraph(cycle(n), seed=2), radius, reps),
        bench_case(
            f"tree-{tree.number_of_nodes()}",
            LocalGraph(tree, seed=3),
            radius,
            reps,
        ),
    ]


def main(argv: Optional[List[str]] = None) -> Dict[str, object]:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=64)
    parser.add_argument("--cols", type=int, default=64)
    parser.add_argument("--radius", type=int, default=3)
    parser.add_argument(
        "--reps", type=int, default=3, help="timed repetitions (min is kept)"
    )
    parser.add_argument("--out", default="BENCH_vectorized.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless the grid case's vectorized gather reaches this "
        "speedup over scalar (0 = record only)",
    )
    args = parser.parse_args(argv)

    from common import stamp_provenance

    cases = run_suite(args.rows, args.cols, args.radius, args.reps)
    report = {
        "benchmark": "vectorized_engines",
        "params": {
            "rows": args.rows,
            "cols": args.cols,
            "radius": args.radius,
        },
        "cases": cases,
    }
    stamp_provenance(
        report, seed=1, extra_seeds=[2, 3], numpy_version=numpy.__version__
    )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    for case in cases:
        print(
            f"{case['case']:>14}: scalar {case['scalar_seconds']:.3f}s -> "
            f"vectorized {case['vectorized_seconds']:.3f}s "
            f"({case['speedup']:.1f}x)"
        )
    print(f"wrote {args.out}")
    grid_case = cases[0]
    if args.min_speedup and grid_case["speedup"] < args.min_speedup:
        raise SystemExit(
            f"grid vectorized speedup {grid_case['speedup']}x below "
            f"{args.min_speedup}x"
        )
    return report


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (small smoke instance)
# ---------------------------------------------------------------------------


def test_vectorized_engines_smoke(benchmark):
    from .common import print_table, run_once

    rows = run_once(benchmark, lambda: run_suite(16, 16, 2, reps=1))
    print_table(
        "engines: scalar vs vectorized",
        [
            {
                "case": r["case"],
                "scalar_s": r["scalar_seconds"],
                "vector_s": r["vectorized_seconds"],
                "speedup": r["speedup"],
            }
            for r in rows
        ],
    )
    # Output equality is asserted inside bench_case.  The vectorized sweep
    # must win already at this small size (the auto threshold is 64 nodes).
    assert all(r["speedup"] > 1.0 for r in rows)


if __name__ == "__main__":
    main()
