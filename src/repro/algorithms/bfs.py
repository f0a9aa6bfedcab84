"""Whole-graph BFS utilities over plain networkx graphs.

Induced-subgraph distances, components and diameter checks live on the
CSR snapshot: :meth:`repro.local.graph.LocalGraph.induced`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import networkx as nx

from ..local.graph import Node


def bfs_distances(
    graph: nx.Graph, source: Node, cutoff: Optional[int] = None
) -> Dict[Node, int]:
    """Hop distances from ``source``, optionally capped at ``cutoff``."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        if cutoff is not None and dist[v] >= cutoff:
            continue
        for u in graph.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                frontier.append(u)
    return dist


def path_at_distance(
    graph: nx.Graph, source: Node, length: int
) -> Optional[List[Node]]:
    """A shortest path of exactly ``length`` edges from ``source``, if some
    node lies at that distance; ``None`` otherwise."""
    dist = bfs_distances(graph, source, cutoff=length)
    at_target = [v for v, d in dist.items() if d == length]
    if not at_target:
        return None
    target = at_target[0]
    # Walk back greedily along decreasing distance.
    path = [target]
    while dist[path[-1]] > 0:
        v = path[-1]
        path.append(next(u for u in graph.neighbors(v) if dist.get(u) == dist[v] - 1))
    return list(reversed(path))
