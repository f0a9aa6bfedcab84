"""Work counters for the simulation engine.

Every run of the LOCAL engine (:func:`repro.local.run_view_algorithm`,
:func:`repro.local.run_message_passing`) carries a :class:`SimStats`
instance on ``RunResult.stats`` so speedups are *measured* rather than
asserted: how many views were gathered, how many BFS node-visits they
cost, how often the order-invariant view cache hit.

``SimStats`` is the one place engine work is counted.  Trace spans
(:meth:`SimStats.span`), ``SchemaRun.telemetry``, the history rows of
``python -m repro report`` and the serving snapshot all read it; wall time
per layer lives only in the span tree (:mod:`repro.obs.profile`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: The additive engine work counters, in display order: the
#: :class:`SimStats` fields that merge by summation, that spans carry as
#: same-named attributes, and that telemetry and history rows pin.
WORK_COUNTERS: Tuple[str, ...] = (
    "views_gathered",
    "bfs_node_visits",
    "decide_calls",
    "view_cache_hits",
    "view_cache_misses",
    "messages_delivered",
    "bits_on_wire",
)


@dataclass
class SimStats:
    """The engine work of one simulation run (see :data:`WORK_COUNTERS`).

    Attributes
    ----------
    views_gathered:
        Number of radius-``T`` views materialized.
    bfs_node_visits:
        Total nodes popped across all BFS sweeps — the work the LOCAL
        model actually charges for, ``O(sum_v |B(v, T)|)``.
    decide_calls:
        How often the user's decision function actually ran; with a warm
        view cache this is the number of *distinct* order-isomorphic
        classes, not ``n``.
    view_cache_hits / view_cache_misses:
        Order-invariant memoization outcomes (both stay 0 unless the run
        passed ``memoize=True``).
    messages_delivered:
        Messages routed by :func:`repro.local.run_message_passing`.
    bits_on_wire:
        Total message bits accounted by the run's bandwidth policy
        (:mod:`repro.obs.bandwidth`): the meter inside
        ``run_message_passing``, or the flooding-equivalent accounting a
        schema run attaches for view-semantics decodes.  Zero when the
        policy is ``off`` or nothing was metered.
    """

    views_gathered: int = 0
    bfs_node_visits: int = 0
    decide_calls: int = 0
    view_cache_hits: int = 0
    view_cache_misses: int = 0
    messages_delivered: int = 0
    bits_on_wire: int = 0
    #: which execution engine produced the run (``"scalar"`` or
    #: ``"vectorized"``; empty for message passing and legacy call sites).
    #: It surfaces in :meth:`as_dict` only when set, so runs that predate
    #: the engine dispatch keep their exact telemetry shape.
    engine: str = ""
    #: the run's :class:`repro.obs.bandwidth.BandwidthProfile` (None when
    #: nothing was metered); excluded from equality.
    bandwidth: object = field(default=None, repr=False, compare=False)

    # -- derived quantities ----------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of views answered from the order-invariant cache."""
        total = self.view_cache_hits + self.view_cache_misses
        if total == 0:
            return 0.0
        return self.view_cache_hits / total

    def counters(self) -> Dict[str, int]:
        """The :data:`WORK_COUNTERS` values, by name."""
        return {name: getattr(self, name) for name in WORK_COUNTERS}

    # -- spans -----------------------------------------------------------------

    def span(self, tracer, name: str, **attrs: object):
        """Open ``tracer.span(name, **attrs)`` stamped with this run's work.

        On close the span's :data:`WORK_COUNTERS` attributes are set to
        how much each counter grew while it was open, so a span's
        counters are exactly the work counted inside it.  Under
        :data:`repro.obs.trace.NULL_TRACER` this costs one ``enabled``
        check.
        """
        if not tracer.enabled:
            return tracer.span(name)
        return _CountedSpan(self, tracer.span(name, **attrs))

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "SimStats") -> "SimStats":
        """Accumulate ``other`` into ``self`` (returns ``self``)."""
        for name in WORK_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if self.bandwidth is None:
            self.bandwidth = other.bandwidth
        if not self.engine:
            self.engine = other.engine
        return self

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: the engine (when set), the counters, the hit rate."""
        out: Dict[str, object] = {"engine": self.engine} if self.engine else {}
        out.update(self.counters())
        out["cache_hit_rate"] = round(self.cache_hit_rate, 6)
        return out


class _CountedSpan:
    """A live span that is stamped with a :class:`SimStats` delta on close."""

    __slots__ = ("stats", "span", "before")

    def __init__(self, stats: SimStats, span) -> None:
        self.stats = stats
        self.span = span
        self.before = stats.counters()

    def __enter__(self):
        return self.span.__enter__()

    def __exit__(self, *exc: object) -> None:
        before = self.before
        self.span.set(
            **{
                name: value - before[name]
                for name, value in self.stats.counters().items()
            }
        )
        self.span.__exit__(*exc)
