"""LOCAL-model substrate: graphs, views, and execution engines."""

from .algorithm import LocalityTracker
from .compiled import CompiledGraph, InducedSubgraph
from .graph import LocalGraph, LocalGraphError, Node
from .model import (
    GatherAlgorithm,
    MessagePassingAlgorithm,
    MessageTrace,
    NodeContext,
    RunResult,
    SimulationError,
    run_message_passing,
    run_view_algorithm,
)
from .views import (
    GlobalKnowledge,
    GlobalKnowledgeUse,
    View,
    gather_all_views,
    gather_view,
    is_marked_order_invariant,
    mark_order_invariant,
    track_global_knowledge,
    uses_global_knowledge,
)

__all__ = [
    "CompiledGraph",
    "GatherAlgorithm",
    "GlobalKnowledge",
    "GlobalKnowledgeUse",
    "InducedSubgraph",
    "LocalGraph",
    "LocalGraphError",
    "LocalityTracker",
    "MessagePassingAlgorithm",
    "MessageTrace",
    "Node",
    "NodeContext",
    "RunResult",
    "SimulationError",
    "View",
    "gather_all_views",
    "gather_view",
    "is_marked_order_invariant",
    "mark_order_invariant",
    "run_message_passing",
    "run_view_algorithm",
    "track_global_knowledge",
    "uses_global_knowledge",
]
