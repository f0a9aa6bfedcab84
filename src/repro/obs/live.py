"""Streaming telemetry for the query-serving path (``repro.serve``).

All prior observability is batch-run-shaped: one ``SchemaRun``, one
telemetry dict.  A long-lived decode service answering a stream of
``query(node)`` calls needs a different set of primitives, collected here
and kept deterministic so the test suite can pin them bit-for-bit:

* :func:`head_sampled` — deterministic hash-based head sampling.  Each
  query key is hashed (seeded BLAKE2b — *not* Python's salted ``hash()``)
  against the configured rate; sampled queries get the service's one
  :class:`~repro.obs.trace.Tracer` and emit the full
  ``query → gather → decode`` span tree, unsampled queries
  get :data:`~repro.obs.trace.NULL_TRACER` at the cost of one short hash.
* :class:`SlidingWindowHistogram` — a ring of mergeable fixed-bucket
  :class:`~repro.obs.metrics.Histogram` windows giving rolling
  p50/p95/p99 over the last ``window_size * windows`` observations,
  rotation driven by observation count (and stamped with the
  :class:`~repro.obs.trace.LogicalClock` when one is supplied) so tests
  are bit-reproducible.
* :class:`TenantShards` — bounded-cardinality per-tenant label sharding
  over a :class:`~repro.obs.metrics.MetricsRegistry`: the first
  ``max_tenants`` distinct tenants get their own label, the long tail is
  folded into ``"__other__"`` so a hostile tenant id stream cannot blow
  up the metric space.
* :class:`SloPolicy` / :class:`SloMonitor` — declared latency/error-rate
  objectives evaluated per fixed-size query window, with cumulative
  error-budget burn accounting; breaches are emitted as structured
  :class:`~repro.obs.failure.FailureReport` records of kind
  ``"slo-violation"``.
* exporters — :func:`prometheus_text` renders a registry in the
  Prometheus text exposition format (:func:`write_prometheus` dumps it);
  span export reuses the :class:`~repro.obs.trace.JsonlSink` wire format
  verbatim (pass one as the service's ``span_sink``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .failure import FailureReport
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

#: Sampling hashes into 64 bits; a key is sampled when its digest falls
#: below ``rate * 2^64``.
_HASH_SPACE = 1 << 64


def head_sampled(key: object, rate: float, seed: int = 0) -> bool:
    """Whether ``key`` falls in the sampled fraction ``rate`` under ``seed``.

    A pure function of ``(key, rate, seed)``: the key is hashed with an
    8-byte seeded BLAKE2b digest, so the same query stream yields the
    same sampled set on every run, machine, and Python version.  Python's
    builtin ``hash()`` is per-process salted and would make the sampled
    set irreproducible, which the deterministic test suite rules out.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"sample rate {rate} outside [0, 1]")
    threshold = int(rate * _HASH_SPACE)
    if threshold == 0:
        return False
    digest = hashlib.blake2b(f"{seed}:{key}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") < threshold


# ---------------------------------------------------------------------------
# Sliding windows
# ---------------------------------------------------------------------------


class SlidingWindowHistogram:
    """Rolling quantiles over the most recent observations.

    Observations land in the newest of up to ``windows`` fixed-bucket
    :class:`~repro.obs.metrics.Histogram` rings; a ring rotates out after
    ``window_size`` observations, so the merged view always covers the
    last ``window_size * windows`` observations at worst-case staleness
    of one window.  Rotation is count-driven (deterministic); when a
    ``clock`` is supplied (e.g. the :class:`~repro.obs.trace.LogicalClock`)
    each ring records its opening stamp so exported snapshots are
    bit-reproducible too.
    """

    def __init__(
        self,
        window_size: int = 256,
        windows: int = 4,
        buckets: Optional[Iterable[float]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if windows < 1:
            raise ValueError("windows must be >= 1")
        self.window_size = window_size
        self.windows = windows
        self.buckets: Tuple[float, ...] = tuple(
            sorted(buckets if buckets is not None else DEFAULT_BUCKETS)
        )
        self._clock = clock
        self._rings: List[Histogram] = [Histogram(self.buckets)]
        self._opened: List[float] = [self._now()]
        self.observed_total = 0
        self.rotations = 0

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def observe(self, value: float) -> None:
        head = self._rings[-1]
        if head.count >= self.window_size:
            head = Histogram(self.buckets)
            self._rings.append(head)
            self._opened.append(self._now())
            self.rotations += 1
            if len(self._rings) > self.windows:
                self._rings.pop(0)
                self._opened.pop(0)
        head.observe(value)
        self.observed_total += 1

    def merged(self) -> Histogram:
        """All retained windows folded into one histogram (the rolling view)."""
        out = Histogram(self.buckets)
        for ring in self._rings:
            out.merge(ring)
        return out

    @property
    def count(self) -> int:
        """Observations currently covered by the rolling view."""
        return sum(ring.count for ring in self._rings)

    def quantile(self, q: float) -> Optional[float]:
        return self.merged().quantile(q)

    def snapshot_value(self) -> Dict[str, object]:
        merged = self.merged()
        snap = merged.snapshot_value()
        snap["p99"] = merged.quantile(0.99)
        snap["windows"] = len(self._rings)
        snap["window_size"] = self.window_size
        snap["observed_total"] = self.observed_total
        return snap


# ---------------------------------------------------------------------------
# Per-tenant sharding
# ---------------------------------------------------------------------------


class TenantShards:
    """Bounded-cardinality tenant labeling over a ``MetricsRegistry``.

    The first ``max_tenants`` distinct tenant ids each get their own
    ``tenant=<id>`` label; every id beyond that is folded into
    ``tenant=__other__``.  The fold is sticky (an id assigned to the
    overflow shard stays there), so ``queries_total`` summed over shards
    always equals the unsharded total regardless of arrival order.
    """

    OVERFLOW = "__other__"

    def __init__(self, registry: MetricsRegistry, max_tenants: int = 32) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        self.registry = registry
        self.max_tenants = max_tenants
        self._assigned: Dict[str, str] = {}

    def label(self, tenant: object) -> str:
        key = str(tenant)
        label = self._assigned.get(key)
        if label is None:
            dedicated = sum(
                1 for v in self._assigned.values() if v != self.OVERFLOW
            )
            label = key if dedicated < self.max_tenants else self.OVERFLOW
            self._assigned[key] = label
        return label

    def labels(self) -> List[str]:
        """All shard labels in use, sorted (dedicated tenants + overflow)."""
        return sorted(set(self._assigned.values()))

    def counter(self, name: str, tenant: object) -> Counter:
        return self.registry.counter(name, tenant=self.label(tenant))

    def gauge(self, name: str, tenant: object) -> Gauge:
        return self.registry.gauge(name, tenant=self.label(tenant))

    def histogram(
        self,
        name: str,
        tenant: object,
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        return self.registry.histogram(
            name, buckets=buckets, tenant=self.label(tenant)
        )


# ---------------------------------------------------------------------------
# SLOs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SloPolicy:
    """A declared serving objective, evaluated per ``window`` queries.

    ``latency_target`` is in the same units the monitor's ``record`` calls
    use (seconds under the wall clock, ticks under the logical clock);
    ``max_error_rate`` is the error budget per window — e.g. ``0.01``
    allows one failed query per hundred before the window burns budget.
    """

    name: str = "serving"
    latency_quantile: float = 0.95
    latency_target: float = 1.0
    max_error_rate: float = 0.01
    window: int = 256

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "latency_quantile": self.latency_quantile,
            "latency_target": self.latency_target,
            "max_error_rate": self.max_error_rate,
            "window": self.window,
        }


def build_slo_report(
    policy: SloPolicy,
    schema_name: str,
    kind_detail: str,
    observed: float,
    threshold: float,
    window_index: int,
) -> FailureReport:
    """An SLO breach as a structured, attributable failure record.

    Mirrors :func:`repro.obs.failure.build_bandwidth_report`: the report
    kind is ``"slo-violation"`` and the error line carries the objective,
    the observed value, and the threshold it crossed.  There is no single
    failing node — the unit of failure is a query window — so node
    attribution fields stay empty.
    """
    return FailureReport(
        schema_name=schema_name,
        kind="slo-violation",
        node=None,
        node_id=None,
        radius=0,
        advice_bits=None,
        error=(
            f"SLO {policy.name!r} {kind_detail} in window {window_index}: "
            f"observed {observed:g}, threshold {threshold:g}"
        ),
    )


class SloMonitor:
    """Evaluates an :class:`SloPolicy` over a live query stream.

    ``record(latency, error=...)`` is called once per query; every
    ``policy.window`` queries the monitor closes the window, checks the
    window's latency quantile and error rate against the objectives, and
    appends one :class:`~repro.obs.failure.FailureReport` per breached
    objective to :attr:`violations` (also counted in the registry as
    ``slo_violations_total``).

    Error-budget burn is cumulative: each window is *allowed*
    ``max_error_rate * window`` failed queries; :meth:`budget` reports
    spent vs allowed and the burn rate (> 1.0 means the budget is
    exhausted faster than the policy provisions).
    """

    def __init__(
        self,
        policy: SloPolicy,
        registry: Optional[MetricsRegistry] = None,
        schema_name: str = "serving",
        latency_buckets: Optional[Iterable[float]] = None,
    ) -> None:
        self.policy = policy
        self.registry = registry if registry is not None else MetricsRegistry()
        self.schema_name = schema_name
        self.violations: List[FailureReport] = []
        self._window_latencies = Histogram(latency_buckets)
        self._latency_buckets = latency_buckets
        self._window_errors = 0
        self._windows_closed = 0
        self.queries_total = 0
        self.errors_total = 0

    def record(self, latency: float, error: bool = False) -> List[FailureReport]:
        """Account one query; returns the breaches if this closed a window."""
        self.queries_total += 1
        self._window_latencies.observe(latency)
        if error:
            self.errors_total += 1
            self._window_errors += 1
        if self._window_latencies.count >= self.policy.window:
            return self._close_window()
        return []

    def _close_window(self) -> List[FailureReport]:
        policy = self.policy
        window = self._window_latencies
        breaches: List[FailureReport] = []
        observed_latency = window.quantile(policy.latency_quantile)
        if observed_latency is not None and observed_latency > policy.latency_target:
            breaches.append(
                build_slo_report(
                    policy,
                    self.schema_name,
                    f"p{policy.latency_quantile * 100:g} latency over target",
                    observed_latency,
                    policy.latency_target,
                    self._windows_closed,
                )
            )
        error_rate = self._window_errors / max(1, window.count)
        if error_rate > policy.max_error_rate:
            breaches.append(
                build_slo_report(
                    policy,
                    self.schema_name,
                    "error rate over budget",
                    error_rate,
                    policy.max_error_rate,
                    self._windows_closed,
                )
            )
        if breaches:
            self.registry.counter("slo_violations_total").inc(len(breaches))
            self.violations.extend(breaches)
        self._windows_closed += 1
        self._window_latencies = Histogram(self._latency_buckets)
        self._window_errors = 0
        return breaches

    def budget(self) -> Dict[str, float]:
        """Cumulative error-budget accounting under the declared policy."""
        allowed = self.policy.max_error_rate * self.queries_total
        spent = float(self.errors_total)
        return {
            "allowed": allowed,
            "spent": spent,
            "remaining": allowed - spent,
            "burn_rate": spent / allowed if allowed > 0 else 0.0,
        }

    def snapshot_value(self) -> Dict[str, object]:
        return {
            "policy": self.policy.as_dict(),
            "queries_total": self.queries_total,
            "errors_total": self.errors_total,
            "windows_closed": self._windows_closed,
            "violations": len(self.violations),
            "budget": self.budget(),
        }


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _prom_name(name: str, namespace: str) -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{namespace}_{safe}" if namespace else safe


def _prom_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry, namespace: str = "repro") -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters and gauges become single samples; histograms expand into the
    conventional ``_bucket{le=...}`` cumulative series plus ``_sum`` and
    ``_count``.  Output is sorted, so two registries with equal contents
    render byte-identically — the scrape endpoint is just this string.
    """
    families: Dict[str, List[str]] = {}
    kinds: Dict[str, str] = {}
    for (name, labels), metric in sorted(registry._metrics.items()):
        prom = _prom_name(name, namespace)
        kinds[prom] = (
            "histogram" if isinstance(metric, Histogram)
            else "counter" if isinstance(metric, Counter)
            else "gauge"
        )
        lines = families.setdefault(prom, [])
        if isinstance(metric, Histogram):
            cumulative = 0
            for bound, count in zip(metric.buckets, metric.bucket_counts):
                cumulative += count
                le = 'le="%g"' % bound
                lines.append(
                    f"{prom}_bucket{_prom_labels(labels, le)} {cumulative}"
                )
            le_inf = 'le="+Inf"'
            lines.append(
                f"{prom}_bucket{_prom_labels(labels, le_inf)} {metric.count}"
            )
            lines.append(f"{prom}_sum{_prom_labels(labels)} {metric.sum:g}")
            lines.append(f"{prom}_count{_prom_labels(labels)} {metric.count}")
        else:
            lines.append(f"{prom}{_prom_labels(labels)} {metric.value:g}")
    out: List[str] = []
    for prom in sorted(families):
        out.append(f"# TYPE {prom} {kinds[prom]}")
        out.extend(families[prom])
    return "\n".join(out) + ("\n" if out else "")


def write_prometheus(
    registry: MetricsRegistry, path: str, namespace: str = "repro"
) -> None:
    """Dump :func:`prometheus_text` to ``path`` (a file-based scrape target)."""
    with open(path, "w") as fh:
        fh.write(prometheus_text(registry, namespace=namespace))
