"""Clusterings around ruling-set centers (network-decomposition style).

Both Section 4 (LCLs on sub-exponential growth) and Section 6.1 (the
O(Delta^2)-coloring step) cluster the graph around well-spread centers,
color the *cluster graph*, and let each center broadcast within its
cluster.  This module provides the shared machinery: Voronoi-style BFS
clusterings, the contracted cluster graph, cluster degrees/radii, and
greedy cluster-graph coloring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx

from ..local.graph import LocalGraph, Node


class ClusteringError(ValueError):
    pass


@dataclass
class Clustering:
    """A (partial) partition of nodes into clusters around centers.

    Attributes
    ----------
    assignment:
        ``node -> center`` for every clustered node.
    centers:
        The cluster centers in a deterministic order.
    """

    graph: LocalGraph
    assignment: Dict[Node, Node]
    centers: List[Node]

    def members(self, center: Node) -> List[Node]:
        return [v for v, c in self.assignment.items() if c == center]

    def cluster_of(self, v: Node) -> Optional[Node]:
        return self.assignment.get(v)

    def unclustered(self) -> List[Node]:
        return [v for v in self.graph.nodes() if v not in self.assignment]

    def radius_of(self, center: Node) -> int:
        """Max distance (in G) from the center to a member."""
        members = set(self.members(center))
        radius = 0
        for d, layer in enumerate(self.graph.bfs_layers(center)):
            if any(v in members for v in layer):
                radius = d
        return radius

    def degree_of(self, center: Node) -> int:
        """Number of edges with exactly one endpoint in the cluster."""
        members = set(self.members(center))
        return sum(
            1
            for v in members
            for u in self.graph.graph.neighbors(v)
            if u not in members
        )

    def border_of(self, center: Node) -> List[Node]:
        """Members with a neighbor outside the cluster."""
        members = set(self.members(center))
        return [
            v
            for v in members
            if any(u not in members for u in self.graph.graph.neighbors(v))
        ]

    def internal_nodes(self, center: Node, margin: int) -> List[Node]:
        """Members at distance ``> margin`` (in G) from every non-member."""
        members = set(self.members(center))
        # Halo: everything within distance `margin` of a non-member.
        halo: Set[Node] = set()
        for v in self.graph.nodes():
            if v not in members:
                halo.update(self.graph.ball(v, margin))
        return [v for v in self.members(center) if v not in halo]

    def cluster_graph(self) -> nx.Graph:
        """Contracted graph: one node per center, edges between clusters
        joined by at least one G-edge (or sharing a border of distance 1)."""
        contracted = nx.Graph()
        contracted.add_nodes_from(self.centers)
        for u, v in self.graph.edges():
            cu, cv = self.assignment.get(u), self.assignment.get(v)
            if cu is not None and cv is not None and cu != cv:
                contracted.add_edge(cu, cv)
        return contracted


def nearest_centers(
    graph: LocalGraph,
    centers: Iterable[Node],
    max_radius: Optional[int] = None,
    restrict_to: Optional[Iterable[Node]] = None,
) -> Dict[Node, Tuple[Node, int]]:
    """``node -> (center, distance)`` for every node within ``max_radius``
    of a center (``None``: no cap): the nearest center, the smallest
    identifier among equally near ones.

    One multi-source BFS on the CSR, layer by layer: a node first reached
    at layer ``d + 1`` takes the smallest-identifier center among its
    layer-``d`` neighbors' centers.  Those are exactly the centers at
    distance ``d + 1`` from it, so every node gets the answer a separate
    BFS from every center would give.  ``restrict_to`` confines the BFS,
    and so the distances, to the induced subgraph on those nodes; a center
    outside it raises :class:`ClusteringError`.
    """
    compiled = graph.compiled
    indptr, indices, ids = compiled.indptr, compiled.indices, compiled.ids
    index_of = compiled.index_of
    centers = list(centers)
    # dist: -1 unreached, -2 outside restrict_to (never reached).
    if restrict_to is None:
        dist = [-1] * compiled.n
    else:
        dist = [-2] * compiled.n
        for v in restrict_to:
            if v in index_of:
                dist[index_of[v]] = -1
        for center in centers:
            if dist[index_of[center]] == -2:
                raise ClusteringError(
                    f"center {center!r} outside restricted node set"
                )
    if max_radius is not None and max_radius < 0:
        return {}
    owner = [-1] * compiled.n
    frontier = [index_of[c] for c in centers]
    for i in frontier:
        owner[i], dist[i] = i, 0
    d = 0
    while frontier and (max_radius is None or d < max_radius):
        d += 1
        reached: List[int] = []
        for i in frontier:
            mine = owner[i]
            for j in indices[indptr[i] : indptr[i + 1]]:
                if dist[j] == -1:
                    dist[j], owner[j] = d, mine
                    reached.append(j)
                elif dist[j] == d and ids[mine] < ids[owner[j]]:
                    owner[j] = mine
        frontier = reached
    nodes = compiled.nodes
    return {
        nodes[i]: (nodes[owner[i]], dist[i])
        for i in range(compiled.n)
        if dist[i] >= 0
    }


def voronoi_clustering(
    graph: LocalGraph,
    centers: Sequence[Node],
    max_radius: Optional[int] = None,
    restrict_to: Optional[Iterable[Node]] = None,
) -> Clustering:
    """Assign each node to its closest center (ties: smaller center ID).

    This is the Section 6.1 construction: "assign each vertex from G to the
    closest vertex from I, breaking ties in an arbitrary consistent manner".
    With ``max_radius`` given, nodes farther than that from every center stay
    unclustered.  ``restrict_to`` limits both the BFS and the assignable
    nodes to a subgraph (used when clustering proceeds color class by color
    class as in Section 4).  One multi-source BFS decides every node
    (:func:`nearest_centers`): a node takes the minimum-identifier center
    among those at its least distance.
    """
    nearest = nearest_centers(graph, centers, max_radius, restrict_to)
    assignment = {v: center for v, (center, _) in nearest.items()}
    return Clustering(graph=graph, assignment=assignment, centers=list(centers))


def color_cluster_graph(clustering: Clustering) -> Dict[Node, int]:
    """Greedy proper coloring of the contracted cluster graph (colors >= 1),
    scanning centers in identifier order so encoder and decoder agree."""
    contracted = clustering.cluster_graph()
    coloring: Dict[Node, int] = {}
    for center in sorted(clustering.centers, key=clustering.graph.id_of):
        taken = {
            coloring[c] for c in contracted.neighbors(center) if c in coloring
        }
        color = 1
        while color in taken:
            color += 1
        coloring[center] = color
    return coloring
