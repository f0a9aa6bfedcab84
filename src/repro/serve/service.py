"""``AdviceService``: encode once, answer per-node decode queries forever.

The paper's serving claim (and ROADMAP item 1) is that once the advice is
computed centrally, answering "what is node ``v``'s output?" costs one
radius-``T`` ball gather — O(Δ^T) work per query, **independent of n**.
This module is the minimal query engine that makes the claim operational:

* **Encode once.**  ``schema.encode(graph)`` runs a single time at
  construction; the advice map is packed into one self-delimiting
  bitstream (:func:`repro.advice.bitstream.pack_parts`) and unpacked back
  as an integrity check — the served bits are the bits that survived the
  wire format.
* **Query via ball gathers.**  ``query(node)`` / ``query_batch(nodes)``
  gather only the queried nodes' radius-``T`` balls through
  :func:`repro.local.model.gather_views` with a ``roots=`` subset (the
  batch size picks the scalar or the vectorized gather) — and
  decide each ball directly with the schema's
  :meth:`~repro.advice.schema.AdviceSchema.view_decoder`.  The full graph
  is never re-decoded, and no answer is cached: an order-signature memo
  costs more per query than the decision it would save.
* **Streaming telemetry.**  Every query is counted overall, per tenant
  (bounded-cardinality shards), and as sampled/unsampled; latency and
  ball-size quantiles roll over sliding windows; a declared
  :class:`~repro.obs.live.SloPolicy` is monitored with error-budget burn;
  sampled queries emit ``query → gather → decode`` spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..advice.bitstream import pack_parts, unpack_parts
from ..advice.schema import (
    AdviceError,
    AdviceSchema,
    validate_advice_map,
)
from ..local.graph import LocalGraph, Node
from ..local.model import gather_views, resolve_engine
from ..local.views import View
from ..obs.live import (
    SlidingWindowHistogram,
    SloMonitor,
    SloPolicy,
    TenantShards,
    head_sampled,
    prometheus_text,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, RingSink, Sink, Tracer
from ..perf import SimStats


class ServeError(RuntimeError):
    """Raised when a schema/graph pair cannot be served query-at-a-time."""


#: Wall-clock latency bucket bounds (seconds) for the serving histograms.
#: Chosen around the sub-millisecond per-query ball gathers the grid
#: family produces; ``inf`` is implicit.
LATENCY_BUCKETS_SECONDS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Ball-size bucket bounds (nodes per gathered ball).
BALL_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)


@dataclass
class QueryResult:
    """One answered query, with its serving-side observables."""

    node: Node
    label: object
    tenant: str
    query_id: int
    sampled: bool
    #: always ``False``: every ball is decided, none is answered from a cache
    cache_hit: bool
    ball_size: int
    latency: float


class AdviceService:
    """A long-lived decode service for one ``(schema, graph)`` pair.

    Construction performs the one-time central work (encode, validate,
    pack/unpack the advice bitstream, wire up telemetry); afterwards
    :meth:`query` and :meth:`query_batch` are the only entry points and
    touch only the queried nodes' radius-``T`` balls.

    ``sample_rate=None`` disables the sampling machinery entirely (every
    query runs against :data:`~repro.obs.trace.NULL_TRACER` and counts as
    unsampled) — the baseline the sampling-overhead test compares against.
    """

    def __init__(
        self,
        schema: AdviceSchema,
        graph: LocalGraph,
        *,
        sample_rate: Optional[float] = 0.01,
        sample_seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        slo: Optional[SloPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        max_tenants: int = 32,
        span_sink: Optional[Sink] = None,
        latency_buckets: Optional[Sequence[float]] = None,
        window_size: int = 256,
        windows: int = 4,
    ) -> None:
        contract = schema.locality_contract(graph)
        if contract is None:
            raise ServeError(
                f"schema {schema.name!r} declares no locality contract; "
                "a serving radius T is required"
            )
        decide = schema.view_decoder()
        if decide is None:
            raise ServeError(
                f"schema {schema.name!r} has no per-view decoder "
                "(view_decoder() returned None); it cannot be served "
                "query-at-a-time"
            )

        self.schema = schema
        self.graph = graph
        self.radius = contract.radius
        self._decide = decide
        self._clock = clock

        # -- encode once, through the bitstream wire format ------------------
        advice = schema.encode(graph)
        validate_advice_map(graph, advice)
        self._order: List[Node] = sorted(graph.nodes(), key=graph.id_of)
        parts = [advice.get(v, "") for v in self._order]
        self.packed_advice = pack_parts(parts)
        unpacked = unpack_parts(self.packed_advice, len(parts))
        if unpacked != parts:  # pragma: no cover - codec round-trip guarantee
            raise ServeError("advice bitstream failed the pack/unpack check")
        self.advice: Dict[Node, str] = dict(zip(self._order, unpacked))

        # -- telemetry --------------------------------------------------------
        self.registry = registry if registry is not None else MetricsRegistry()
        self.shards = TenantShards(self.registry, max_tenants=max_tenants)
        buckets = tuple(
            latency_buckets if latency_buckets is not None
            else LATENCY_BUCKETS_SECONDS
        )
        self.latency_window = SlidingWindowHistogram(
            window_size=window_size, windows=windows,
            buckets=buckets, clock=clock,
        )
        self.ball_size_window = SlidingWindowHistogram(
            window_size=window_size, windows=windows,
            buckets=BALL_SIZE_BUCKETS, clock=clock,
        )
        self._latency_buckets = buckets
        self.slo = (
            SloMonitor(
                slo,
                registry=self.registry,
                schema_name=schema.name,
                latency_buckets=buckets,
            )
            if slo is not None
            else None
        )
        if sample_rate is not None and not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate {sample_rate} outside [0, 1]")
        self.sample_rate = sample_rate
        self.sample_seed = sample_seed
        #: the one tracer every sampled query runs under
        self.tracer = (
            Tracer(
                RingSink(),
                *([span_sink] if span_sink is not None else []),
                clock=clock,
            )
            if sample_rate is not None
            else NULL_TRACER
        )
        self.stats = SimStats()
        self._next_query_id = 0

    # -- internals ------------------------------------------------------------

    def _now(self) -> float:
        return self._clock() if self._clock is not None else time.perf_counter()

    def _tracer_for(self, query_id: int) -> Tracer:
        if self.sample_rate is not None and head_sampled(
            query_id, self.sample_rate, self.sample_seed
        ):
            return self.tracer
        return NULL_TRACER

    def _gather(self, nodes: Sequence[Node], tracer: Tracer) -> Dict[Node, View]:
        """Radius-``T`` balls of ``nodes`` only — never the whole graph."""
        index_of = self.graph.compiled.index_of
        return gather_views(
            self.graph,
            self.radius,
            self.advice,
            roots=[index_of[v] for v in nodes],
            stats=self.stats,
            tracer=tracer,
        )

    def _account(
        self,
        tenant: str,
        sampled: bool,
        results: Sequence[QueryResult],
        errors: int,
    ) -> None:
        count = len(results) + errors
        self.registry.counter("queries_total").inc(count)
        self.shards.counter("queries_total", tenant).inc(count)
        which = "queries_sampled_total" if sampled else "queries_unsampled_total"
        self.registry.counter(which).inc(count)
        if errors:
            self.registry.counter("query_errors_total").inc(errors)
            self.shards.counter("query_errors_total", tenant).inc(errors)
        tenant_latency = self.shards.histogram(
            "query_latency", tenant, buckets=self._latency_buckets
        )
        for r in results:
            tenant_latency.observe(r.latency)
            self.latency_window.observe(r.latency)
            self.ball_size_window.observe(r.ball_size)
            if self.slo is not None:
                self.slo.record(r.latency, error=False)
        if self.slo is not None:
            for _ in range(errors):
                self.slo.record(0.0, error=True)

    # -- public API -----------------------------------------------------------

    def query(self, node: Node, tenant: str = "default") -> QueryResult:
        """Answer one node's output from its radius-``T`` ball."""
        results = self.query_batch([node], tenant=tenant)
        return results[0]

    def query_batch(
        self, nodes: Sequence[Node], tenant: str = "default"
    ) -> List[QueryResult]:
        """Answer a batch of nodes through one shared ball gather.

        The batch shares a query id (one sampling decision) and one
        ``gather_views(roots=...)`` call; per-query latency is the
        batch wall time amortized evenly.  An :class:`AdviceError` from any
        ball is counted (``query_errors_total``, SLO error budget) and
        re-raised — partial batches are not returned.
        """
        if not nodes:
            return []
        self._next_query_id += 1
        query_id = self._next_query_id
        tracer = self._tracer_for(query_id)
        sampled = tracer.enabled
        start = self._now()
        results: List[QueryResult] = []
        with self.stats.span(
            tracer,
            "query",
            query_id=query_id,
            tenant=tenant,
            nodes=[str(v) for v in nodes],
            batch=len(nodes),
        ) as query_span:
            try:
                views = self._gather(nodes, tracer)
                answered: List[Tuple[Node, object, int]] = []
                for v in nodes:
                    view = views[v]
                    with self.stats.span(tracer, "decode", node=v):
                        label = self._decide(view)
                        self.stats.decide_calls += 1
                    answered.append((v, label, len(view.nodes)))
            except AdviceError:
                self._account(tenant, sampled, [], len(nodes))
                raise
            latency = self._now() - start
            per_query = latency / len(nodes)
            for v, label, ball_size in answered:
                results.append(
                    QueryResult(
                        node=v,
                        label=label,
                        tenant=tenant,
                        query_id=query_id,
                        sampled=sampled,
                        cache_hit=False,
                        ball_size=ball_size,
                        latency=per_query,
                    )
                )
            if tracer.enabled:
                query_span.set(ball_sizes=[r.ball_size for r in results])
        self._account(tenant, sampled, results, 0)
        return results

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready state of the serving telemetry."""
        snap: Dict[str, object] = {
            "schema": self.schema.name,
            "n": self.graph.n,
            "max_degree": self.graph.max_degree,
            "radius": self.radius,
            "packed_advice_bits": len(self.packed_advice),
            # the gather engine a single-node query uses
            "engine": resolve_engine(1),
            "metrics": self.registry.snapshot(),
            "latency": self.latency_window.snapshot_value(),
            "ball_size": self.ball_size_window.snapshot_value(),
            "engine_stats": self.stats.as_dict(),
        }
        if self.sample_rate is not None:
            snap["sampling"] = {"rate": self.sample_rate, "seed": self.sample_seed}
        if self.slo is not None:
            snap["slo"] = self.slo.snapshot_value()
        return snap

    def prometheus(self, namespace: str = "repro") -> str:
        """The scrape-endpoint payload (Prometheus text format)."""
        return prometheus_text(self.registry, namespace=namespace)

    def close(self) -> None:
        self.tracer.close()
