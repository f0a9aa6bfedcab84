"""Simulation-core benchmark: seed engine vs CSR/batched/memoized engine.

Times ``run_view_algorithm`` three ways on the same graphs:

* **seed** — a faithful copy of the pre-CSR implementation (per-node
  networkx BFS, per-call neighbor sorting, per-view ``Delta`` recompute);
* **engine** — the compiled backend with batched all-nodes gathering
  (:func:`repro.local.gather_all_views`);
* **memoized** — the same engine with order-invariant view memoization,
  reporting the cache hit rate (Section 8: order-isomorphic views must
  decide identically, so repeated grid/tree/cycle neighborhoods are
  decided once).

Outputs are cross-checked for exact equality on every case, and the
before/after timings plus engine counters land in a JSON report
(``BENCH_simulation.json`` by default)::

    PYTHONPATH=src python benchmarks/bench_simulation_core.py \
        --rows 64 --cols 64 --radius 3 --out BENCH_simulation.json

Also runnable under pytest-benchmark (a small smoke instance) like the
other ``bench_*`` modules.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Optional

from repro.graphs import binary_tree, cycle, grid
from repro.local import LocalGraph, run_view_algorithm
from repro.local.views import View
from repro.lower_bounds import canonicalize


# ---------------------------------------------------------------------------
# The seed implementation, preserved verbatim as the "before" baseline
# ---------------------------------------------------------------------------


def _seed_bfs_layers(nxg, v, radius):
    seen = {v}
    layer = [v]
    dist = 0
    while layer:
        yield layer
        if radius is not None and dist >= radius:
            return
        next_layer = []
        for u in layer:
            for w in nxg.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    next_layer.append(w)
        layer = next_layer
        dist += 1


def _seed_gather_view(graph: LocalGraph, center, radius: int, advice=None) -> View:
    """The pre-CSR ``gather_view``: dict-based BFS + per-view Delta scan."""
    nxg = graph.graph
    distances: Dict[object, int] = {}
    for d, layer in enumerate(_seed_bfs_layers(nxg, center, radius)):
        for v in layer:
            distances[v] = d
    nodes = frozenset(distances)
    edges = set()
    for v in nodes:
        if distances[v] >= radius:
            continue
        for u in nxg.neighbors(v):
            if u in nodes:
                edges.add((v, u) if graph.id_of(v) < graph.id_of(u) else (u, v))
    advice = advice or {}
    max_degree = max((d for _, d in nxg.degree()), default=0)
    return View(
        center=center,
        radius=radius,
        nodes=nodes,
        edges=frozenset(edges),
        ids={v: graph.id_of(v) for v in nodes},
        inputs={v: graph.input_of(v) for v in nodes},
        advice={v: advice.get(v, "") for v in nodes},
        distances=distances,
        _graph_n=graph.n,
        _graph_max_degree=max_degree,
    )


def _seed_run_view_algorithm(graph: LocalGraph, radius: int, decide, advice=None):
    return {
        v: decide(_seed_gather_view(graph, v, radius, advice=advice))
        for v in graph.nodes()
    }


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


def _decide(view: View) -> object:
    """A representative decision: ball size and boundary degree profile."""
    boundary = sorted(
        view.degree(v) for v in view.nodes if view.distance(v) == view.radius
    )
    return (len(view.nodes), tuple(boundary))


def bench_case(name: str, graph: LocalGraph, radius: int) -> Dict[str, object]:
    """Time seed vs engine vs memoized engine on one graph; verify outputs."""
    t0 = time.perf_counter()
    seed_outputs = _seed_run_view_algorithm(graph, radius, _decide)
    seed_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine = run_view_algorithm(graph, radius, _decide)
    engine_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    memoized = run_view_algorithm(
        graph, radius, canonicalize(_decide), memoize=True
    )
    memoized_seconds = time.perf_counter() - t0

    if engine.outputs != seed_outputs:
        raise AssertionError(f"{name}: engine outputs diverge from seed")
    if memoized.outputs != seed_outputs:
        raise AssertionError(f"{name}: memoized outputs diverge from seed")

    return {
        "case": name,
        "n": graph.n,
        "m": graph.m,
        "max_degree": graph.max_degree,
        "radius": radius,
        "seed_seconds": round(seed_seconds, 6),
        "engine_seconds": round(engine_seconds, 6),
        "memoized_seconds": round(memoized_seconds, 6),
        "speedup": round(seed_seconds / max(engine_seconds, 1e-9), 3),
        "views_per_second": round(graph.n / max(engine_seconds, 1e-9), 1),
        "view_cache_hit_rate": round(memoized.stats.cache_hit_rate, 4),
        "distinct_view_classes": memoized.stats.decide_calls,
        "engine_stats": engine.stats.as_dict(),
        "memoized_stats": memoized.stats.as_dict(),
    }


def run_suite(rows: int, cols: int, radius: int) -> List[Dict[str, object]]:
    """The benchmark cases: the acceptance grid plus cycle and tree."""
    n = rows * cols
    depth = max(2, n.bit_length() - 2)
    tree = binary_tree(depth)
    return [
        bench_case(
            f"grid-{rows}x{cols}", LocalGraph(grid(rows, cols), seed=1), radius
        ),
        bench_case(f"cycle-{n}", LocalGraph(cycle(n), seed=2), radius),
        bench_case(
            f"tree-{tree.number_of_nodes()}", LocalGraph(tree, seed=3), radius
        ),
    ]


def main(argv: Optional[List[str]] = None) -> Dict[str, object]:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=64)
    parser.add_argument("--cols", type=int, default=64)
    parser.add_argument("--radius", type=int, default=3)
    parser.add_argument("--out", default="BENCH_simulation.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless the grid case reaches this speedup (0 = record only)",
    )
    args = parser.parse_args(argv)

    from common import stamp_provenance

    cases = run_suite(args.rows, args.cols, args.radius)
    report = {
        "benchmark": "simulation_core",
        "params": {"rows": args.rows, "cols": args.cols, "radius": args.radius},
        "cases": cases,
    }
    stamp_provenance(report, seed=1, extra_seeds=[2, 3])
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    for case in cases:
        print(
            f"{case['case']:>14}: seed {case['seed_seconds']:.3f}s -> "
            f"engine {case['engine_seconds']:.3f}s "
            f"({case['speedup']:.1f}x, cache hit rate "
            f"{case['view_cache_hit_rate']:.2%}, "
            f"{case['distinct_view_classes']} distinct view classes)"
        )
    print(f"wrote {args.out}")
    grid_case = cases[0]
    if args.min_speedup and grid_case["speedup"] < args.min_speedup:
        raise SystemExit(
            f"grid speedup {grid_case['speedup']}x below {args.min_speedup}x"
        )
    return report


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (small smoke instance)
# ---------------------------------------------------------------------------


def test_simulation_core_smoke(benchmark):
    from .common import print_table, run_once

    rows = run_once(benchmark, lambda: run_suite(16, 16, 2))
    print_table(
        "simulation core: seed vs engine",
        [
            {
                "case": r["case"],
                "seed_s": r["seed_seconds"],
                "engine_s": r["engine_seconds"],
                "speedup": r["speedup"],
                "hit_rate": r["view_cache_hit_rate"],
            }
            for r in rows
        ],
    )
    # Output equality is asserted inside bench_case; here we only require
    # the engine not to be slower than the seed on every case (shape, not
    # magnitude — machines vary).
    assert all(r["speedup"] > 1.0 for r in rows)
    # Families with few order-isomorphism classes (cycle, tree) must hit
    # the view cache; a grid with random identifiers legitimately may not.
    assert any(r["view_cache_hit_rate"] > 0.1 for r in rows)


if __name__ == "__main__":
    main()
