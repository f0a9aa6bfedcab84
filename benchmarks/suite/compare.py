"""Paired comparison of a change against its parent.

Input: at least :data:`MIN_PAIRS` run files per side, written by
``python -m benchmarks.suite run --out FILE``, paired by position (run
parent and change alternately, with the same seed within a pair).  For
every (metric, workload) row both sides get their median and quartiles,
and the row gets one verdict:

* ``regression`` — the change's median is worse than the parent's by more
  than the metric's ``BENCHMARK.json`` bound; for ``fail_ratio``, any rise;
* ``gain`` — the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
* ``unresolved`` — the parent's own spread (IQR / median) is wider than the
  bound, unless every change run is better than every parent run;
* ``no change`` — otherwise.  Per-layer metrics have no bound, so their
  rows are only ever ``gain``, ``worse`` (the gain rule reversed) or ``-``.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

MIN_PAIRS = 10
GAIN_SHARE = 0.9


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    parent: List[float]  # q1, median, q3
    change: List[float]
    wins: int
    pairs: int
    verdict: str


def quartiles(values: Sequence[float]) -> List[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def judge(workload: str, metric: str, unit: str, parent: Sequence[float],
          change: Sequence[float], better: str, bound: Optional[float]) -> Row:
    """The row for one metric; ``parent[i]`` and ``change[i]`` form a pair."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    needed = math.ceil(GAIN_SHARE * len(parent))
    iqr = p[2] - p[0]
    moved = abs(c[1] - p[1]) > iqr
    worse_by = sign * (c[1] - p[1]) / abs(p[1]) if p[1] else sign * (c[1] - p[1])
    if bound is None:
        verdict = "gain" if wins >= needed and moved else (
            "worse" if losses >= needed and moved else "-")
    elif worse_by > bound:
        verdict = "regression"
    elif wins >= needed and moved:
        verdict = "gain"
    elif p[1] and iqr / abs(p[1]) > bound and not (
            max(sign * x for x in change) < min(sign * x for x in parent)):
        verdict = "unresolved"
    else:
        verdict = "no change"
    return Row(workload, metric, unit, p, c, wins, len(parent), verdict)


def compare(parent_runs: Sequence[Dict], change_runs: Sequence[Dict], spec: Dict) -> List[Row]:
    """Every (metric, workload) row present on both sides, plus ``fail_ratio``."""
    if len(parent_runs) != len(change_runs):
        raise ValueError("parent and change need the same number of runs (one pair each)")
    if len(parent_runs) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs, got {len(parent_runs)}")
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload in parent_runs[0]["workloads"]:
        if not all(workload in run["workloads"] for run in (*parent_runs, *change_runs)):
            continue
        sides = [[run["workloads"][workload] for run in runs]
                 for runs in (parent_runs, change_runs)]
        for metric, entry in sides[0][0]["metrics"].items():
            if metric not in declared or not all(metric in r["metrics"] for r in sides[1]):
                continue
            values = [[r["metrics"][metric]["value"] for r in side] for side in sides]
            rows.append(judge(workload, metric, entry["unit"], *values,
                              declared[metric]["better"], declared[metric].get("bound")))
        parent, change = ([r["failed"] / r["attempted"] for r in side] for side in sides)
        wins = sum(b < a for a, b in zip(parent, change))
        verdict = "regression" if sum(change) > sum(parent) else "no change"
        rows.append(Row(workload, "fail_ratio", "failed/attempted", quartiles(parent),
                        quartiles(change), wins, len(parent), verdict))
    return rows


def format_rows(rows: Sequence[Row]) -> str:
    lines = [f"{'workload':13s} {'metric':40s} {'parent q1/med/q3':>32s} "
             f"{'change q1/med/q3':>32s} {'wins':>6s}  verdict"]
    for r in rows:
        p = "/".join(f"{x:.4g}" for x in r.parent)
        c = "/".join(f"{x:.4g}" for x in r.change)
        lines.append(f"{r.workload:13s} {r.metric:40s} {p:>32s} {c:>32s} "
                     f"{r.wins:>3d}/{r.pairs:<2d}  {r.verdict}")
    return "\n".join(lines)


def main(parent: Sequence[Path], change: Sequence[Path], spec: Dict,
         json_out: Optional[Path] = None) -> int:
    """Print the table; exit 1 if any row is a regression, 2 on bad input."""
    runs = []
    for paths in (parent, change):
        side = []
        for path in paths:
            with open(path) as fh:
                side.append(json.load(fh))
        runs.append(side)
    try:
        rows = compare(*runs, spec)
    except ValueError as exc:
        print(f"compare: {exc}")
        return 2
    print(format_rows(rows))
    if json_out is not None:
        with open(json_out, "w") as fh:
            json.dump([asdict(r) for r in rows], fh, indent=1)
            fh.write("\n")
    return 1 if any(r.verdict == "regression" for r in rows) else 0
