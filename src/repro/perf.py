"""Performance counters and timers for the simulation engine.

Every run of the LOCAL engine (:func:`repro.local.run_view_algorithm`,
:func:`repro.local.run_message_passing`) carries a :class:`SimStats`
instance on ``RunResult.stats`` so speedups are *measured* rather than
asserted: how many views were gathered, how many BFS node-visits they
cost, how often the order-invariant view cache hit, and how wall time
splits across the gather/decide phases.

The counters are plain integers and the timers are ``perf_counter``
deltas — cheap enough to stay on by default.  ``benchmarks/
bench_simulation_core.py`` serializes them (via :meth:`SimStats.as_dict`)
into its JSON report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List


@dataclass
class SimStats:
    """Counters and per-phase wall-clock timings of one simulation run.

    Attributes
    ----------
    views_gathered:
        Number of radius-``T`` views materialized.
    view_cache_hits / view_cache_misses:
        Order-invariant memoization outcomes (both stay 0 unless the run
        passed ``memoize=True``).
    bfs_node_visits:
        Total nodes popped across all BFS sweeps — the work the LOCAL
        model actually charges for, ``O(sum_v |B(v, T)|)``.
    decide_calls:
        How often the user's decision function actually ran; with a warm
        view cache this is the number of *distinct* order-isomorphic
        classes, not ``n``.
    messages_delivered:
        Messages routed by :func:`repro.local.run_message_passing`.
    bits_on_wire:
        Total message bits accounted by the run's bandwidth policy
        (:mod:`repro.obs.bandwidth`): the meter inside
        ``run_message_passing``, or the flooding-equivalent accounting a
        schema run attaches for view-semantics decodes.  Zero when the
        policy is ``off`` or nothing was metered.
    phase_seconds:
        Wall time per named phase (``gather``, ``decide``, ``deliver``...).
    """

    views_gathered: int = 0
    view_cache_hits: int = 0
    view_cache_misses: int = 0
    bfs_node_visits: int = 0
    decide_calls: int = 0
    messages_delivered: int = 0
    bits_on_wire: int = 0
    #: which execution engine produced the run (``"scalar"`` or
    #: ``"vectorized"``; empty for message passing and legacy call sites).
    #: It surfaces in :meth:`as_dict` only when set, so runs that predate
    #: the engine dispatch keep their exact telemetry shape.
    engine: str = ""
    #: the run's :class:`repro.obs.bandwidth.BandwidthProfile` (None when
    #: nothing was metered); excluded from equality like the phase stack.
    bandwidth: object = field(default=None, repr=False, compare=False)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: exclusive (self) time per phase: cumulative time minus time spent in
    #: phases nested inside it.  ``total_seconds`` sums these, so nesting a
    #: ``decide`` phase inside an outer ``run`` phase no longer double-counts.
    phase_self_seconds: Dict[str, float] = field(default_factory=dict)
    #: live stack of ``[name, child_seconds]`` frames (not part of equality)
    _phase_stack: List[List[object]] = field(
        default_factory=list, repr=False, compare=False
    )

    # -- timers ---------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block; accumulates inclusive and self time separately.

        ``phase_seconds[name]`` is *cumulative* (includes nested phases);
        ``phase_self_seconds[name]`` excludes time attributed to phases
        opened inside this one, so summing self times over all phases never
        counts a second twice regardless of nesting.
        """
        start = time.perf_counter()
        frame: List[object] = [name, 0.0]
        self._phase_stack.append(frame)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._phase_stack.pop()
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed
            self_time = elapsed - frame[1]
            self.phase_self_seconds[name] = (
                self.phase_self_seconds.get(name, 0.0) + self_time
            )
            if self._phase_stack:
                self._phase_stack[-1][1] += elapsed

    # -- derived quantities ----------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of views answered from the order-invariant cache."""
        total = self.view_cache_hits + self.view_cache_misses
        if total == 0:
            return 0.0
        return self.view_cache_hits / total

    @property
    def total_seconds(self) -> float:
        """Wall time across phases, counting nested phases once.

        Falls back to the cumulative dict when phases were recorded
        directly (no ``phase()`` context) and self times are absent.
        """
        if self.phase_self_seconds:
            return sum(self.phase_self_seconds.values())
        return sum(self.phase_seconds.values())

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "SimStats") -> "SimStats":
        """Accumulate ``other`` into ``self`` (returns ``self``)."""
        self.views_gathered += other.views_gathered
        self.view_cache_hits += other.view_cache_hits
        self.view_cache_misses += other.view_cache_misses
        self.bfs_node_visits += other.bfs_node_visits
        self.decide_calls += other.decide_calls
        self.messages_delivered += other.messages_delivered
        self.bits_on_wire += other.bits_on_wire
        if self.bandwidth is None:
            self.bandwidth = other.bandwidth
        if not self.engine:
            self.engine = other.engine
        for name, seconds in other.phase_seconds.items():
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        for name, seconds in other.phase_self_seconds.items():
            self.phase_self_seconds[name] = (
                self.phase_self_seconds.get(name, 0.0) + seconds
            )
        return self

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (used by the benchmark harness)."""
        out: Dict[str, object] = {}
        if self.engine:
            out["engine"] = self.engine
        return {
            **out,
            "views_gathered": self.views_gathered,
            "view_cache_hits": self.view_cache_hits,
            "view_cache_misses": self.view_cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "bfs_node_visits": self.bfs_node_visits,
            "decide_calls": self.decide_calls,
            "messages_delivered": self.messages_delivered,
            "bits_on_wire": self.bits_on_wire,
            "phase_seconds": {k: round(v, 6) for k, v in self.phase_seconds.items()},
            "phase_self_seconds": {
                k: round(v, 6) for k, v in self.phase_self_seconds.items()
            },
            "total_seconds": round(self.total_seconds, 6),
        }


class Timer:
    """A tiny reusable stopwatch: ``with Timer() as t: ...; t.seconds``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self._start
