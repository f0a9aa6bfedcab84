"""Linear-decode gate: every decode grows linearly in n at fixed Delta.

The decode radius ``T`` of every schema depends only on ``Delta`` (§1),
so a decode should do ``O(n·f(Delta))`` work.  For each registered schema
this script builds its default instance
(:func:`repro.core.api.default_instance`) at a requested size ``n`` and at
``4n``, encodes once (outside the timed region), and times
``schema.decode`` as the minimum over at least :data:`REPEATS` calls and
at least :data:`MIN_DECODE_S` of decoding, so a decode of a few
milliseconds is timed dozens of times, not three.  Linear growth reads a
decode-time ratio of about 4 and quadratic growth about 16; the gate
fails when a ratio exceeds :data:`MAX_RATIO`.

Encode times and the graphs' actual node counts are reported too, but
encodes are not gated: the paper's encoder is centralized and unbounded.
Some default instances are smaller than the request (splitting and
delta-edge-coloring build about ``n/4`` nodes), and one-bit-lcl is exempt
(see :data:`EXEMPT`).  Each decoded labeling is verified once, outside the
timed region, so a fast but wrong decode cannot pass.

Beside the decode gate, each case reports the cold end-to-end
:func:`~repro.core.api.solve_with_advice` on the same instances under the
default bandwidth policy (``LOCAL``), which meters every run: its time (min
of three, each on a fresh copy of the graph, so no cache is warm), its
``n``-to-``4n`` ratio, and the ``tracemalloc`` peak of one more run.  These
columns are reported, not gated.  The flooding meter prices a ``T``-round
decode as flooding its radius-``T`` views, ``Θ(Σ_v |B_T(v)|)`` work; where
``T`` reaches the diameter that sum is ``n²``, and an exact distance
profile of a sparse graph has no known subquadratic algorithm (it decides
the diameter).  A linear-time gate there would measure the instance, not
the code.

Run::

    PYTHONPATH=src python benchmarks/bench_scaling.py --out BENCH_scaling.json
"""

from __future__ import annotations

import argparse
import gc
import json
import time
import tracemalloc
from typing import Dict, List, Optional

from repro.core.api import (
    available_schemas,
    default_instance,
    make_schema,
    solve_with_advice,
)
from repro.local import LocalGraph
from repro.obs.bandwidth import current_bandwidth_policy

#: Largest allowed decode-time ratio between ``4n`` and ``n``.
MAX_RATIO = 8.0
#: Requested size of the small instance; the large one is ``FACTOR`` times it.
DEFAULT_N = 500
FACTOR = 4
#: 3-coloring starts above its component threshold, where a quadratic
#: decode would show.
SIZES: Dict[str, int] = {"3-coloring": 1000}
#: Schemas without a scalable default instance, with the reason printed.
EXEMPT: Dict[str, str] = {
    "one-bit-lcl": (
        "default instance is a fixed cycle(48), and x = 24 fails to encode "
        "on larger cycles (the color code needs more nodes than y)"
    ),
}
REPEATS = 3
#: Least total wall time a decode is timed for.  A min of three ~2 ms
#: decodes read a ratio of 3.9 to 8.3 between runs of identical code.
MIN_DECODE_S = 0.2
SEED = 0


def _measure(name: str, n: int) -> Dict[str, object]:
    """Encode once, then time the decode: the min over at least
    :data:`REPEATS` runs and :data:`MIN_DECODE_S` seconds of them."""
    graph, kwargs = default_instance(name, n, SEED)
    schema = make_schema(name, **kwargs)
    start = time.perf_counter()
    advice = schema.encode(graph)
    encode_s = time.perf_counter() - start
    decode_s, runs, total = float("inf"), 0, 0.0
    while runs < REPEATS or total < MIN_DECODE_S:
        start = time.perf_counter()
        result = schema.decode(graph, advice)
        elapsed = time.perf_counter() - start
        decode_s = min(decode_s, elapsed)
        runs += 1
        total += elapsed
    if not schema.check_solution(graph, result.labeling):
        raise SystemExit(f"{name}: decode at n={graph.n} is invalid")
    return {
        "n": graph.n,
        "encode_s": encode_s,
        "decode_s": decode_s,
        "instance": (graph, kwargs),
    }


def _fresh(graph: LocalGraph) -> LocalGraph:
    """The same topology, identifiers and inputs, with every cache cold."""
    inputs = {v: graph.input_of(v) for v in graph.nodes()}
    return LocalGraph(graph.graph, ids=graph.ids(), inputs=inputs)


def _measure_solve(name: str, graph: LocalGraph, kwargs: Dict) -> tuple:
    """Cold ``solve_with_advice`` under the ambient policy: the min of
    :data:`REPEATS` timed runs and the ``tracemalloc`` peak (bytes) of one
    more, each on a fresh copy of ``graph``."""
    solve_s = float("inf")
    for _ in range(REPEATS):
        copy = _fresh(graph)
        gc.collect()
        start = time.perf_counter()
        run = solve_with_advice(name, copy, **kwargs)
        solve_s = min(solve_s, time.perf_counter() - start)
        if not run.valid:
            raise SystemExit(f"{name}: solve at n={graph.n} is invalid")
    copy = _fresh(graph)
    gc.collect()
    tracemalloc.start()
    try:
        solve_with_advice(name, copy, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return solve_s, peak


def scaling_cases() -> List[Dict[str, object]]:
    cases: List[Dict[str, object]] = []
    for name in available_schemas():
        if name in EXEMPT:
            cases.append({"schema": name, "exempt": EXEMPT[name]})
            continue
        n = SIZES.get(name, DEFAULT_N)
        small = _measure(name, n)
        large = _measure(name, FACTOR * n)
        ratio = large["decode_s"] / small["decode_s"]
        # The metered solves run after both decodes are timed, so the
        # decode gate's measurements are taken as they were without them.
        for side in (small, large):
            solve_s, peak = _measure_solve(name, *side["instance"])
            side["solve_s"], side["solve_peak_mb"] = solve_s, peak / 2**20
        cases.append(
            {
                "schema": name,
                "requested_n": [n, FACTOR * n],
                "n": [small["n"], large["n"]],
                "decode_s": [small["decode_s"], large["decode_s"]],
                "encode_s": [small["encode_s"], large["encode_s"]],
                "decode_ratio": ratio,
                "encode_ratio": large["encode_s"] / small["encode_s"],
                "ok": ratio <= MAX_RATIO,
                "solve_s": [small["solve_s"], large["solve_s"]],
                "solve_ratio": large["solve_s"] / small["solve_s"],
                "solve_peak_mb": [small["solve_peak_mb"], large["solve_peak_mb"]],
            }
        )
    return cases


def main(argv: Optional[List[str]] = None) -> Dict[str, object]:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_scaling.json")
    args = parser.parse_args(argv)

    from common import stamp_provenance

    cases = scaling_cases()
    report = {
        "benchmark": "scaling",
        "params": {
            "factor": FACTOR,
            "max_ratio": MAX_RATIO,
            "repeats": REPEATS,
            "min_decode_s": MIN_DECODE_S,
            "solve_policy": current_bandwidth_policy().describe(),
        },
        "cases": cases,
    }
    stamp_provenance(report, seed=SEED, schemas=available_schemas())
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for case in cases:
        if "exempt" in case:
            print(f"{case['schema']:>22}: exempt ({case['exempt']})")
            continue
        (n0, n1), (d0, d1), (e0, e1) = case["n"], case["decode_s"], case["encode_s"]
        (s0, s1), (m0, m1) = case["solve_s"], case["solve_peak_mb"]
        print(
            f"{case['schema']:>22}: n {n0:5d} -> {n1:5d}  "
            f"decode {d0 * 1e3:8.2f} -> {d1 * 1e3:8.2f} ms "
            f"(ratio {case['decode_ratio']:.1f}{'' if case['ok'] else ' FAIL'})  "
            f"encode {e0 * 1e3:8.1f} -> {e1 * 1e3:8.1f} ms "
            f"(ratio {case['encode_ratio']:.1f}, not gated)  "
            f"metered solve {s0 * 1e3:8.1f} -> {s1 * 1e3:8.1f} ms "
            f"(ratio {case['solve_ratio']:.1f}, peak {m0:6.1f} -> {m1:6.1f} MB, "
            "not gated)"
        )
    print(f"wrote {args.out}")
    failed = [c["schema"] for c in cases if c.get("ok") is False]
    if failed:
        raise SystemExit(
            f"decode grew more than {MAX_RATIO:g}x from n to {FACTOR}n: "
            + ", ".join(failed)
        )
    return report


if __name__ == "__main__":
    main()
