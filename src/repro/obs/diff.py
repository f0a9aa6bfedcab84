"""Run-over-run diffing of telemetry and work profiles.

Two runs of the same schema on the same seeded instance must agree on
every *deterministic* metric — β, rounds, advice bits, and the engine
work counters are pure functions of ``(graph, seed)``.  This module turns
"did PR N regress the Δ-coloring hot path?" into a ranked table:

* :func:`diff_telemetry` — compare two ``SchemaRun.telemetry`` dicts (or
  any flat metric mappings, e.g. history snapshots) under per-metric
  tolerances, returning :class:`MetricDelta` rows ranked worst-first.
* :func:`diff_profiles` — compare two :class:`~repro.obs.profile.WorkProfile`
  trees stack-by-stack (collapsed-stack identity), showing where the extra
  BFS visits or wall time went.

The tolerance semantics are shared with the benchmark baseline gate
(``benchmarks/common.py``): a drift is significant when
``|current - base| > tolerance * max(|base|, 1)`` — relative slack with an
absolute floor of one unit, so zero-valued baselines don't divide by zero
and hit-rate rounding gets its 1% (:data:`DETERMINISTIC_TOLERANCES`).
Wall times are machine noise and are deliberately absent from the default
metric set; pass them explicitly if you want them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..perf import WORK_COUNTERS
from .profile import WorkProfile

#: Deterministic metrics diffed by default, with their tolerances.  Exact
#: (0.0) except the hit rate, which carries report rounding.
DETERMINISTIC_TOLERANCES: Dict[str, float] = {
    "beta": 0.0,
    "rounds": 0.0,
    "total_advice_bits": 0.0,
    **{counter: 0.0 for counter in WORK_COUNTERS},
    "cache_hit_rate": 0.01,
}


def allowed_drift(base: float, tolerance: float) -> float:
    """The drift a metric may show before it counts as a regression.

    Relative tolerance with an absolute floor of one unit — the exact rule
    the committed benchmark baselines are gated on.
    """
    return tolerance * max(abs(base), 1.0)


@dataclass
class MetricDelta:
    """One metric's movement between a baseline run and a current run."""

    metric: str
    base: Optional[float]
    current: Optional[float]
    tolerance: float = 0.0

    @property
    def delta(self) -> float:
        if self.base is None or self.current is None:
            return float("inf")  # appearing/disappearing is always significant
        return self.current - self.base

    @property
    def relative(self) -> float:
        """Delta scaled by ``max(|base|, 1)`` (the ranking key)."""
        if self.base is None or self.current is None:
            return float("inf")
        return abs(self.delta) / max(abs(self.base), 1.0)

    @property
    def significant(self) -> bool:
        if self.base is None or self.current is None:
            return True
        return abs(self.delta) > allowed_drift(self.base, self.tolerance)

    def describe(self) -> str:
        if self.base is None:
            return f"{self.metric}: appeared at {self.current:g}"
        if self.current is None:
            return f"{self.metric}: disappeared (was {self.base:g})"
        sign = "+" if self.delta >= 0 else ""
        return (
            f"{self.metric}: {self.base:g} -> {self.current:g} "
            f"({sign}{self.delta:g}, tolerance ±"
            f"{allowed_drift(self.base, self.tolerance):g})"
        )


def _numeric(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def diff_telemetry(
    base: Mapping[str, object],
    current: Mapping[str, object],
    tolerances: Optional[Mapping[str, float]] = None,
    metrics: Optional[Sequence[str]] = None,
) -> List[MetricDelta]:
    """Ranked deltas between two telemetry dicts (worst first).

    ``metrics`` defaults to the keys of ``tolerances`` (themselves
    defaulting to :data:`DETERMINISTIC_TOLERANCES`).  A metric absent from
    both runs is skipped; absent from one is reported as significant.
    """
    tolerances = dict(
        tolerances if tolerances is not None else DETERMINISTIC_TOLERANCES
    )
    names = list(metrics) if metrics is not None else list(tolerances)
    deltas: List[MetricDelta] = []
    for name in names:
        b = _numeric(base.get(name))
        c = _numeric(current.get(name))
        if b is None and c is None:
            continue
        deltas.append(
            MetricDelta(
                metric=name, base=b, current=c,
                tolerance=float(tolerances.get(name, 0.0)),
            )
        )
    deltas.sort(key=lambda d: (not d.significant, -d.relative, d.metric))
    return deltas


def diff_profiles(
    base: WorkProfile,
    current: WorkProfile,
    metric: str = "bfs_node_visits",
) -> List[Tuple[str, MetricDelta]]:
    """Stack-by-stack deltas of per-span *self* work between two profiles.

    Returns ``(stack, delta)`` pairs ranked by significance then relative
    movement — the answer to "where did the 3× extra BFS visits go?".
    ``metric`` is a work counter or ``"wall"`` (wall compares integer
    microseconds and is machine-dependent; prefer counters, or profile
    under a :class:`~repro.obs.trace.LogicalClock` for deterministic wall).
    """
    base_stacks = base.stack_totals(metric)
    current_stacks = current.stack_totals(metric)
    rows: List[Tuple[str, MetricDelta]] = []
    for path in sorted(set(base_stacks) | set(current_stacks)):
        b = base_stacks.get(path)
        c = current_stacks.get(path)
        delta = MetricDelta(
            metric=metric,
            base=float(b) if b is not None else None,
            current=float(c) if c is not None else None,
        )
        if delta.base == delta.current:
            continue
        rows.append((";".join(path), delta))
    rows.sort(key=lambda r: (not r[1].significant, -r[1].relative, r[0]))
    return rows


def format_deltas(
    deltas: Sequence[MetricDelta], only_significant: bool = False
) -> str:
    """Human-readable ranked table of metric movements."""
    rows = [d for d in deltas if d.significant or not only_significant]
    if not rows:
        return "(no metric drift)"
    width = max(len(d.metric) for d in rows)
    lines = [
        f"{'metric':<{width}s} {'base':>12s} {'current':>12s} "
        f"{'delta':>12s}  significant"
    ]
    for d in rows:
        base = "-" if d.base is None else f"{d.base:g}"
        cur = "-" if d.current is None else f"{d.current:g}"
        delta = "-" if d.base is None or d.current is None else f"{d.delta:+g}"
        lines.append(
            f"{d.metric:<{width}s} {base:>12s} {cur:>12s} {delta:>12s}  "
            f"{'YES' if d.significant else 'no'}"
        )
    return "\n".join(lines)
