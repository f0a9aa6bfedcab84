"""Metric primitives: counters, gauges, histograms, and a live registry.

Definition 3.2 characterizes an advice schema by measurable quantities —
``beta`` (bits per node), ``T`` (decoder rounds), and the locality actually
consumed.  A finished run reports them in ``SchemaRun.telemetry``, which
:meth:`~repro.advice.schema.AdviceSchema.run` builds from the run record
itself (see ``docs/observability.md`` for the keys); per-node
distributions there are bulk :func:`histogram_of` snapshots, equal to what
a :class:`Histogram` fed the same values would report.  Engine work
(views, BFS visits, decides, bits on wire) is counted once, in
:class:`repro.perf.SimStats`, and telemetry reads it from there.

A :class:`MetricsRegistry` is for state read *while it changes*: the
serving path (:class:`repro.serve.AdviceService`, the SLO monitor and the
per-tenant shards of :mod:`repro.obs.live`) counts into one, and the
Prometheus exporter renders it.  Labels are frozen ``(key, value)``
tuples so a labeled metric family is an ordinary dict keyed on them;
unlabeled metrics snapshot to plain names.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot_value(self) -> float:
        return self.value


class Gauge:
    """A value that can be set to anything."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot_value(self) -> float:
        return self.value


#: Default bucket upper bounds; chosen for the small integer quantities the
#: schemas produce (advice lengths, rounds). ``inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Histogram:
    """Fixed-bucket histogram tracking count/sum/min/max alongside buckets."""

    kind = "histogram"

    def __init__(self, buckets: Optional[Iterable[float]] = None) -> None:
        self.buckets: Tuple[float, ...] = tuple(
            sorted(buckets if buckets is not None else DEFAULT_BUCKETS)
        )
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate, clamped to observed min/max.

        Returns the upper bound of the first bucket whose cumulative count
        reaches rank ``ceil(q * count)``, clamped into ``[min, max]`` — for
        the small-integer quantities the schemas record (advice lengths,
        repair radii) the bucket bounds 0/1/2/4/... make this exact
        whenever the answer lands on a bucket boundary.  ``None`` on an
        empty histogram; exact when every observation was the same value
        (the single-bucket degenerate case, where bucket resolution would
        otherwise smear the answer across the whole bucket).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return None
        if self.min == self.max:
            return self.min
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        estimate = self.max
        for bound, count in zip(self.buckets, self.bucket_counts):
            cumulative += count
            if cumulative >= target:
                estimate = bound
                break
        # min/max are tracked exactly; never report outside what was seen.
        return min(max(estimate, self.min), self.max)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place (and return ``self``).

        Mergeability is what lets :class:`repro.obs.live.SlidingWindowHistogram`
        keep per-window rings and answer rolling quantiles over their sum.
        Requires identical bucket bounds — merging histograms of different
        resolutions silently loses information, so it is an error.
        """
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        for i, count in enumerate(other.bucket_counts):
            self.bucket_counts[i] += count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def snapshot_value(self) -> Dict[str, object]:
        buckets = {}
        cumulative = 0
        for bound, count in zip(self.buckets, self.bucket_counts):
            cumulative += count
            buckets[f"le_{bound:g}"] = cumulative
        buckets["le_inf"] = cumulative + self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 9),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "buckets": buckets,
        }


@lru_cache(maxsize=1024)
def _bucket_labels(bounds: Tuple[float, ...]) -> Tuple[str, ...]:
    """The ``le_...`` labels of ``bounds`` (formatted once per bound set)."""
    return tuple(f"le_{b:g}" for b in bounds)


def histogram_of(
    values: Iterable[float], bounds: Sequence[float], zeros: int = 0
) -> Dict[str, object]:
    """The ``Histogram(buckets=bounds).snapshot_value()`` of ``values``
    followed by ``zeros`` more zero values, built in bulk (see
    :func:`sorted_histogram`)."""
    ordered = sorted(values)
    return sorted_histogram(ordered, bounds, zeros, sum(ordered))


def sorted_histogram(
    ordered, bounds: Sequence[float], zeros: int, total: float
) -> Dict[str, object]:
    """The snapshot of the ascending ``ordered`` values (a list, or a numpy
    array) plus ``zeros`` zeros, given their ``total``, over the ascending
    bucket ``bounds``: exactly what a :class:`Histogram` that observed
    them one by one would report.

    :meth:`Histogram.observe` puts a value in the first bucket with
    ``value <= bound``, so the cumulative count at a bound is the number
    of values ``<= bound``: one ``bisect_right`` (or ``searchsorted``) per
    bound.  The quantile scan over the cumulative counts mirrors
    :meth:`Histogram.quantile` (bucket upper bound at rank
    ``ceil(q·count)``, clamped to min/max).
    """
    bounds = tuple(bounds)
    count = len(ordered) + zeros
    if not count:
        return Histogram(buckets=bounds).snapshot_value()
    if isinstance(ordered, list):
        cum = [bisect_right(ordered, b) + zeros for b in bounds]
    else:
        cum = ordered.searchsorted(bounds, side="right").tolist()
        if zeros:
            cum = [c + zeros for c in cum]
    buckets = dict(zip(_bucket_labels(bounds), cum))
    buckets["le_inf"] = count
    low = 0.0 if zeros or not len(ordered) else float(ordered[0])
    high = float(ordered[-1]) if len(ordered) else 0.0
    total = float(total)
    quantiles = []
    for q in (0.50, 0.95):
        pos = bisect_left(cum, max(1, math.ceil(q * count)))
        estimate = bounds[pos] if pos < len(bounds) else high
        quantiles.append(min(max(estimate, low), high))
    return {
        "count": count,
        "sum": round(total, 9),
        "min": low,
        "max": high,
        "mean": round(total / count, 9),
        "p50": quantiles[0],
        "p95": quantiles[1],
        "buckets": buckets,
    }


class MetricsRegistry:
    """Holds the live metrics of one scope (a service, an SLO monitor).

    ``counter``/``gauge``/``histogram`` get-or-create, so call sites never
    need to pre-register — the first touch defines the metric, subsequent
    touches with the same name and labels return the same instance (with a
    type check: reusing a name across metric kinds is a bug).
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(**kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None, **labels: object
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view: ``{"name" or "name{k=v}": value-or-histogram}``."""
        out: Dict[str, object] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            out[_render(name, labels)] = metric.snapshot_value()
        return out
