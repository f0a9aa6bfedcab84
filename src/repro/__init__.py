"""repro — Local Advice and Local Decompression (PODC 2024), reproduced.

A LOCAL-model simulation library implementing the paper's advice schemas:
balanced orientations, local edge-set decompression, Delta- and 3-coloring
with one bit of advice, LCLs on sub-exponential-growth graphs, the
composability framework, and the Section 8 order-invariance/ETH machinery.

Quickstart::

    from repro import LocalGraph, solve_with_advice
    from repro.graphs import cycle

    run = solve_with_advice("balanced-orientation", LocalGraph(cycle(64)))
    assert run.valid
"""

from .advice.schema import AdviceSchema, DecodeResult, SchemaRun
from .core.api import (
    available_schemas,
    compress_edges,
    decompress_edges,
    make_schema,
    make_service,
    solve_with_advice,
)
from .dynamic import ChurnRunner, MutationPlan, generate_mutation_plan, run_churn_campaign
from .faults import FaultPlan, RobustRunner, run_campaign
from .local.graph import LocalGraph
from .obs import (
    NULL_TRACER,
    CampaignResult,
    FailureReport,
    JsonlSink,
    MetricsRegistry,
    RingSink,
    RobustnessReport,
    Tracer,
)
from .perf import SimStats

__version__ = "1.0.0"

__all__ = [
    "AdviceSchema",
    "CampaignResult",
    "ChurnRunner",
    "DecodeResult",
    "FailureReport",
    "FaultPlan",
    "MutationPlan",
    "JsonlSink",
    "LocalGraph",
    "MetricsRegistry",
    "NULL_TRACER",
    "RingSink",
    "RobustRunner",
    "RobustnessReport",
    "SchemaRun",
    "SimStats",
    "Tracer",
    "__version__",
    "available_schemas",
    "compress_edges",
    "decompress_edges",
    "generate_mutation_plan",
    "make_schema",
    "make_service",
    "run_campaign",
    "run_churn_campaign",
    "solve_with_advice",
]
