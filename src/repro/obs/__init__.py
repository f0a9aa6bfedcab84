"""Observability: run tracing, metrics, and failure attribution.

Engine work is counted once, in :class:`repro.perf.SimStats`; spans,
telemetry, history rows and the serving snapshot all read it.  The
modules, designed to stay out of the hot path until asked for:

* :mod:`repro.obs.trace` — structured span/event traces of a run
  (``Tracer``, ``RingSink``, ``JsonlSink``; ``NULL_TRACER`` is the
  zero-cost default threaded through the engine and schemas).
* :mod:`repro.obs.metrics` — metric primitives: the bulk histogram
  snapshot (``histogram_of``) behind ``SchemaRun.telemetry``, which each
  run builds from its own record, and the ``MetricsRegistry`` that only
  live consumers (the serving path, the Prometheus export) count into.
* :mod:`repro.obs.failure` — ``FailureReport`` attribution for invalid
  labelings and decoder errors.
* :mod:`repro.obs.bandwidth` — bits-on-wire accounting: the
  ``BandwidthPolicy`` split (LOCAL records, ``CONGEST(B)`` enforces
  ``B·⌈log n⌉`` bits per edge per round), the ``measure_bits`` message
  encoder, the per-``(edge, round)`` ``BandwidthMeter``, and the
  aggregated ``BandwidthProfile`` every schema run carries.
* :mod:`repro.obs.robustness` — the one repair record: the
  ``RepairAction`` list that the self-healing runner (:mod:`repro.faults`,
  ``RobustnessReport``) and the churn runtime (:mod:`repro.dynamic`,
  ``MutationRecord``) both emit, and the ``CampaignResult`` that chaos
  and churn campaigns both return (``per_schema``/``totals``/``runs``).
* :mod:`repro.obs.profile` — ``WorkProfile`` span-tree work attribution
  (collapsed stacks, critical path, timelines).
* :mod:`repro.obs.diff` — run-over-run telemetry/profile diffing under
  the shared deterministic-metric tolerance semantics.
* :mod:`repro.obs.report` — the unified dashboard
  (``python -m repro report``) and the cross-PR perf history.
* :mod:`repro.obs.live` — streaming serving telemetry for
  :mod:`repro.serve`: hash-based head sampling (``head_sampled``),
  rolling quantiles (``SlidingWindowHistogram``), bounded-cardinality
  per-tenant metric shards (``TenantShards``), SLO objectives with
  error-budget burn (``SloPolicy``/``SloMonitor``), and the Prometheus
  text-format exporter.
"""

from .bandwidth import (
    CONGEST,
    LOCAL,
    OFF,
    BandwidthExceeded,
    BandwidthMeter,
    BandwidthPolicy,
    BandwidthProfile,
    current_bandwidth_policy,
    flooding_bandwidth,
    measure_bits,
    parse_policy,
    use_bandwidth_policy,
)
from .diff import (
    DETERMINISTIC_TOLERANCES,
    MetricDelta,
    allowed_drift,
    diff_profiles,
    diff_telemetry,
    format_deltas,
)
from .failure import (
    FailureReport,
    build_bandwidth_report,
    build_error_report,
    build_order_violation_report,
    build_violation_reports,
    view_fingerprint,
)
from .live import (
    SlidingWindowHistogram,
    SloMonitor,
    SloPolicy,
    TenantShards,
    build_slo_report,
    head_sampled,
    prometheus_text,
    write_prometheus,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import WorkProfile, parse_collapsed, profile_run
from .report import build_provenance, collect_report, render_markdown
from .robustness import CampaignResult, MutationRecord, RepairAction, RobustnessReport
from .trace import (
    NULL_TRACER,
    JsonlSink,
    LogicalClock,
    NullTracer,
    RingSink,
    Span,
    Tracer,
    as_tracer,
    format_span_tree,
    load_jsonl,
    span_tree,
)

__all__ = [
    "BandwidthExceeded",
    "BandwidthMeter",
    "BandwidthPolicy",
    "BandwidthProfile",
    "CONGEST",
    "CampaignResult",
    "Counter",
    "DETERMINISTIC_TOLERANCES",
    "FailureReport",
    "LOCAL",
    "OFF",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "LogicalClock",
    "MetricDelta",
    "MetricsRegistry",
    "MutationRecord",
    "NULL_TRACER",
    "NullTracer",
    "RepairAction",
    "RingSink",
    "RobustnessReport",
    "SlidingWindowHistogram",
    "SloMonitor",
    "SloPolicy",
    "Span",
    "TenantShards",
    "Tracer",
    "WorkProfile",
    "allowed_drift",
    "as_tracer",
    "build_bandwidth_report",
    "build_error_report",
    "build_order_violation_report",
    "build_provenance",
    "build_slo_report",
    "build_violation_reports",
    "collect_report",
    "current_bandwidth_policy",
    "diff_profiles",
    "diff_telemetry",
    "flooding_bandwidth",
    "format_deltas",
    "format_span_tree",
    "head_sampled",
    "load_jsonl",
    "measure_bits",
    "parse_collapsed",
    "parse_policy",
    "profile_run",
    "prometheus_text",
    "render_markdown",
    "use_bandwidth_policy",
    "span_tree",
    "view_fingerprint",
    "write_prometheus",
]
