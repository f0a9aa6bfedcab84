"""Linear-decode gate: every decode grows linearly in n at fixed Delta.

The decode radius ``T`` of every schema depends only on ``Delta`` (§1),
so a decode should do ``O(n·f(Delta))`` work.  For each registered schema
this script builds its default instance
(:func:`repro.core.api.default_instance`) at a requested size ``n`` and at
``4n``, encodes once (outside the timed region), and times
``schema.decode`` as the minimum of three calls.  Linear growth reads a
decode-time ratio of about 4 and quadratic growth about 16; the gate
fails when a ratio exceeds :data:`MAX_RATIO`.

Encode times and the graphs' actual node counts are reported too, but
encodes are not gated: the paper's encoder is centralized and unbounded.
Some default instances are smaller than the request (splitting and
delta-edge-coloring build about ``n/4`` nodes), and one-bit-lcl is exempt
(see :data:`EXEMPT`).  Each decoded labeling is verified once, outside the
timed region, so a fast but wrong decode cannot pass.

Run::

    PYTHONPATH=src python benchmarks/bench_scaling.py --out BENCH_scaling.json
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Optional

from repro.core.api import available_schemas, default_instance, make_schema

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
SEED = 0


def _measure(name: str, n: int) -> Dict[str, object]:
    """Encode once, then time the decode (min of :data:`REPEATS`)."""
    graph, kwargs = default_instance(name, n, SEED)
    schema = make_schema(name, **kwargs)
    start = time.perf_counter()
    advice = schema.encode(graph)
    encode_s = time.perf_counter() - start
    decode_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = schema.decode(graph, advice)
        decode_s = min(decode_s, time.perf_counter() - start)
    if not schema.check_solution(graph, result.labeling):
        raise SystemExit(f"{name}: decode at n={graph.n} is invalid")
    return {"n": graph.n, "encode_s": encode_s, "decode_s": decode_s}


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
        "params": {"factor": FACTOR, "max_ratio": MAX_RATIO, "repeats": REPEATS},
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
        print(
            f"{case['schema']:>22}: n {n0:5d} -> {n1:5d}  "
            f"decode {d0 * 1e3:8.2f} -> {d1 * 1e3:8.2f} ms "
            f"(ratio {case['decode_ratio']:.1f}{'' if case['ok'] else ' FAIL'})  "
            f"encode {e0 * 1e3:8.1f} -> {e1 * 1e3:8.1f} ms "
            f"(ratio {case['encode_ratio']:.1f}, not gated)"
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
