"""Public facade: one-call access to every schema in the reproduction.

Typical usage::

    from repro import LocalGraph, solve_with_advice
    from repro.graphs import cycle

    graph = LocalGraph(cycle(100), seed=0)
    run = solve_with_advice("balanced-orientation", graph)
    assert run.valid
    print(run.rounds, run.bits_per_node)

``available_schemas()`` lists the registry; ``compress_edges`` /
``decompress_edges`` expose the Contribution-4 pipeline.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..advice.schema import AdviceSchema, SchemaRun
from ..local.graph import LocalGraph, Node
from ..obs.trace import Tracer
from ..schemas.decompression import (
    CompressedEdgeSet,
    DecompressionResult,
    EdgeSetCompressor,
)
from ..schemas.delta_coloring import DeltaColoringSchema
from ..schemas.lcl_subexp import LCLSubexpSchema, OneBitLCLSchema
from ..schemas.orientation import BalancedOrientationSchema, OneBitOrientationSchema
from ..schemas.splitting import DeltaEdgeColoringSchema, splitting_schema
from ..schemas.three_coloring import ThreeColoringSchema
from ..schemas.two_coloring import OneBitTwoColoringSchema, TwoColoringSchema

SchemaFactory = Callable[..., AdviceSchema]

_REGISTRY: Dict[str, SchemaFactory] = {
    "2-coloring": TwoColoringSchema,
    "one-bit-2-coloring": OneBitTwoColoringSchema,
    "balanced-orientation": BalancedOrientationSchema,
    "one-bit-orientation": OneBitOrientationSchema,
    "splitting": splitting_schema,
    "delta-edge-coloring": DeltaEdgeColoringSchema,
    "delta-coloring": DeltaColoringSchema,
    "3-coloring": ThreeColoringSchema,
    "lcl-subexp": LCLSubexpSchema,
    "one-bit-lcl": OneBitLCLSchema,
}


def available_schemas() -> List[str]:
    """Names accepted by :func:`make_schema` / :func:`solve_with_advice`."""
    return sorted(_REGISTRY)


def default_instance(name: str, n: int, seed: int) -> Tuple[LocalGraph, Dict]:
    """A (graph, schema-kwargs) pair each schema can run on out of the box.

    This is the demo/smoke instance used by ``python -m repro`` and by the
    dynamic order-invariance fuzzer (:mod:`repro.analysis.fuzz`): every
    registered schema name maps to a graph family it is guaranteed to
    solve, so a failed run means a broken schema, not a bad instance.
    """
    from ..graphs import (
        cycle,
        planted_delta_colorable,
        planted_three_colorable,
        random_bipartite_regular,
    )
    from ..lcl import vertex_coloring

    if name in ("2-coloring", "one-bit-2-coloring"):
        return LocalGraph(cycle(n + n % 2), seed=seed), {}
    if name in ("balanced-orientation",):
        return LocalGraph(cycle(n), seed=seed), {}
    if name == "one-bit-orientation":
        return LocalGraph(cycle(max(n, 260)), seed=seed), {"walk_limit": 60}
    if name in ("splitting", "delta-edge-coloring"):
        side = max(12, n // 8)
        return (
            LocalGraph(random_bipartite_regular(side, 4, seed=seed), seed=seed),
            {"spacing": 6},
        )
    if name == "delta-coloring":
        graph, _ = planted_delta_colorable(max(n, 48), 4, seed=seed)
        return LocalGraph(graph, seed=seed), {}
    if name == "3-coloring":
        graph, cert = planted_three_colorable(max(n, 40), seed=seed)
        return LocalGraph(graph, seed=seed), {"coloring": cert}
    if name == "lcl-subexp":
        return (
            LocalGraph(cycle(max(n, 120)), seed=seed),
            {"problem": vertex_coloring(3), "x": 6},
        )
    if name == "one-bit-lcl":
        return (
            LocalGraph(cycle(48), seed=seed),
            {"problem": vertex_coloring(3), "x": 24},
        )
    raise KeyError(name)


def make_schema(name: str, **kwargs: object) -> AdviceSchema:
    """Instantiate a registered schema by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown schema {name!r}; available: {available_schemas()}"
        ) from None
    return factory(**kwargs)


def solve_with_advice(
    schema: "str | AdviceSchema",
    graph: LocalGraph,
    check: bool = True,
    tracer: Optional[Tracer] = None,
    fault_plan: Optional[object] = None,
    **kwargs: object,
) -> SchemaRun:
    """Encode, decode, and verify a schema on ``graph`` in one call.

    A ``tracer`` (see :mod:`repro.obs`) flows into :meth:`AdviceSchema.run`.
    The returned run carries ``telemetry``, built from the run itself: the
    engine counters and the paper's observables, so callers do not lose
    ``RunResult.stats`` at this boundary.

    Each ``run_view_algorithm`` call the schema makes picks its gather from
    the graph size (``docs/performance.md``, "Which gather runs"); the
    gather that ran lands in ``SchemaRun.telemetry["engine"]``.

    With a ``fault_plan`` the run goes through the self-healing
    :class:`repro.faults.RobustRunner` instead: the plan's faults are
    injected after encoding, decode errors and verifier violations are
    repaired locally with escalating radius, and the returned run carries
    a ``robustness`` report.  Build a :class:`~repro.faults.RobustRunner`
    directly to set its options (e.g. ``max_ball_radius``).
    """
    if isinstance(schema, str):
        schema = make_schema(schema, **kwargs)
    elif kwargs:
        raise TypeError("kwargs are only accepted with a schema name")
    if fault_plan is not None:
        from ..faults.runner import RobustRunner

        runner = RobustRunner(schema, tracer=tracer)
        return runner.run(graph, plan=fault_plan, check=check)
    return schema.run(graph, check=check, tracer=tracer)


def make_service(
    schema: "str | AdviceSchema",
    graph: LocalGraph,
    **service_options: object,
) -> "AdviceService":
    """Stand up an :class:`repro.serve.AdviceService` for ``schema``.

    The service encodes once (packing the advice through the Section 4
    bitstream) and then answers ``query(node)`` / ``query_batch(nodes)``
    from radius-``T`` ball gathers only — O(Δ^T) per query, independent of
    n.  Requires the schema to expose a :meth:`AdviceSchema.view_decoder`;
    schemas whose decode is not per-view raise
    :class:`repro.serve.ServeError`.  Keyword options (``sample_rate``,
    ``slo``, ``registry``, ``clock``, ...) pass straight through to the
    :class:`~repro.serve.AdviceService` constructor.
    """
    from ..serve import AdviceService

    if isinstance(schema, str):
        schema = make_schema(schema)
    return AdviceService(schema, graph, **service_options)


def compress_edges(
    graph: LocalGraph,
    subset: Iterable[Tuple[Node, Node]],
    one_bit: bool = False,
    walk_limit: Optional[int] = None,
) -> Tuple[CompressedEdgeSet, EdgeSetCompressor]:
    """Contribution 4: compress an edge subset to ~d/2 bits per node."""
    compressor = EdgeSetCompressor(one_bit=one_bit, walk_limit=walk_limit)
    return compressor.compress(graph, subset), compressor


def decompress_edges(
    graph: LocalGraph,
    compressed: CompressedEdgeSet,
    compressor: EdgeSetCompressor,
) -> DecompressionResult:
    """Recover the edge subset locally."""
    return compressor.decompress(graph, compressed)
