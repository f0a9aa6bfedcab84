"""Partner pairing and trail decomposition (the Section 5 substrate).

Section 5 constructs a virtual graph ``G'`` in which every node of degree
``2d`` splits into ``d`` copies, copy ``i`` incident to its ``(2i-1)``-th
and ``2i``-th incident edges "in some arbitrary fixed order (e.g., by
sorting the neighbors by their IDs)".  ``G'`` is then a disjoint union of
cycles (when all degrees are even) or cycles and paths (in general; a node
of odd degree leaves its last port unpaired and becomes a path endpoint).
Orienting every cycle/path of ``G'`` consistently induces an
(almost-)balanced orientation of ``G``: every copy has exactly one incoming
and one outgoing edge.

We call the cycles and paths of ``G'`` *trails*.  Everything here is
deterministic in the identifiers, so the distributed decoder can recompute
the pairing locally ("nodes compute G' without communication").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..local.graph import LocalGraph, LocalGraphError, Node

Edge = Tuple[Node, Node]


class OrientationError(ValueError):
    pass


def _mate_port(port: int, degree: int) -> int:
    """The port paired with ``port`` at a node of ``degree``, or -1.

    Ports are paired ``(0,1), (2,3), ...``; an odd-degree node leaves its
    last port unpaired.
    """
    if port == degree - 1 and degree % 2 == 1:
        return -1
    return port ^ 1


def partner(graph: LocalGraph, v: Node, u: Node) -> Optional[Node]:
    """The partner neighbor of ``u`` at ``v`` under the port pairing.

    Ports of ``v`` (neighbors in identifier order) are paired
    ``(0,1), (2,3), ...``; an odd-degree node leaves its last port
    unpaired (returns ``None``).  This is a purely local computation — the
    decoder evaluates it without communication beyond radius 1.
    """
    try:
        port = graph.port_of(v, u)
    except LocalGraphError:
        raise OrientationError(f"{u!r} is not a neighbor of {v!r}") from None
    mate = _mate_port(port, graph.degree(v))
    return None if mate < 0 else graph.neighbor_at_port(v, mate)


def trail_step(graph: LocalGraph, v: Node, u: Node) -> Optional[Node]:
    """Arriving at ``u`` along the half-edge ``v -> u``, where does the trail
    continue?  ``None`` at a trail endpoint."""
    return partner(graph, u, v)


@dataclass(frozen=True)
class Trail:
    """A maximal trail of the virtual graph ``G'``.

    ``nodes`` lists the visited nodes in walk order; consecutive pairs are
    the trail's edges.  For a closed trail the first node is *not* repeated
    at the end; the closing edge ``(nodes[-1], nodes[0])`` is implicit.
    """

    nodes: Tuple[Node, ...]
    closed: bool

    @property
    def length(self) -> int:
        """Number of edges."""
        return len(self.nodes) if self.closed else len(self.nodes) - 1

    def edges(self) -> List[Edge]:
        result = list(zip(self.nodes, self.nodes[1:]))
        if self.closed:
            result.append((self.nodes[-1], self.nodes[0]))
        return result


class TrailIndex:
    """Every trail of ``G'`` walked once, with each directed edge located.

    ``trails`` lists the trails in :func:`trail_decomposition` order and
    walk direction; edge ``j`` of a trail is ``trail.edges()[j]``.  For
    every directed edge ``v -> u`` the index holds ``(trail, position,
    sign)``: the trail it lies on, its position there, and ``+1`` when the
    trail's walk direction traverses it as ``v -> u`` (``-1`` otherwise).
    The triples live in three flat lists keyed by CSR slot (row of ``v``
    plus the port of ``u``), so the index costs ``O(m)`` to build and to
    hold.  It is a snapshot: mutate the graph and build a new one.
    """

    __slots__ = ("trails", "_compiled", "_trail", "_position", "_sign")

    def __init__(self, graph: LocalGraph) -> None:
        compiled = graph.compiled
        indptr, indices, nodes = compiled.indptr, compiled.indices, compiled.nodes
        slots = len(indices)
        self._compiled = compiled
        self._trail = trail = [-1] * slots
        self._position = position = [0] * slots
        self._sign = sign = [0] * slots
        self.trails: List[Trail] = []
        order = sorted(range(compiled.n), key=compiled.ids.__getitem__)

        def walk(prev: int, start: int) -> None:
            # Follow the trail from slot ``start`` (leaving ``prev``) until
            # it ends at an unpaired port or comes back to ``start``.
            t = len(self.trails)
            sequence = [prev]
            slot = start
            while True:
                cur = indices[slot]
                back = indptr[cur] + compiled.port_of_idx(cur, prev)
                pos = len(sequence) - 1
                trail[slot] = trail[back] = t
                position[slot] = position[back] = pos
                sign[slot], sign[back] = 1, -1
                mate = _mate_port(back - indptr[cur], indptr[cur + 1] - indptr[cur])
                if mate < 0:
                    sequence.append(cur)
                    closed = False
                    break
                slot = indptr[cur] + mate
                if slot == start:
                    closed = True
                    break
                sequence.append(cur)
                prev = cur
            self.trails.append(
                Trail(nodes=tuple(nodes[i] for i in sequence), closed=closed)
            )

        # Open trails start at unpaired ports (odd-degree nodes' last port),
        # lowest identifier first; whatever is left decomposes into cycles.
        for i in order:
            last = indptr[i + 1] - 1
            if (last - indptr[i]) % 2 == 0 and trail[last] < 0:
                walk(i, last)
        for i in order:
            for slot in range(indptr[i], indptr[i + 1]):
                if trail[slot] < 0:
                    walk(i, slot)

    def locate(self, v: Node, u: Node) -> Tuple[int, int, int]:
        """``(trail, position, sign)`` of the directed edge ``v -> u``."""
        compiled = self._compiled
        i = compiled.index_of[v]
        port = compiled.port_of_idx(i, compiled.index_of[u])
        if port < 0:
            raise OrientationError(f"{u!r} is not a neighbor of {v!r}")
        slot = compiled.indptr[i] + port
        return self._trail[slot], self._position[slot], self._sign[slot]


def trail_decomposition(graph: LocalGraph) -> List[Trail]:
    """Decompose all edges of ``G`` into the trails of ``G'``.

    Every edge belongs to exactly one trail; trails are reported with a
    canonical direction (open trails start at the endpoint with the smaller
    identifier context; closed trails start at their minimum-identifier node
    and head towards its paired port with smaller neighbor identifier) so
    that encoder and tests are deterministic.
    """
    return TrailIndex(graph).trails


# ---------------------------------------------------------------------------
# Orientations from trails
# ---------------------------------------------------------------------------


def orient_trails(
    graph: LocalGraph, trails: Iterable[Trail], directions: Optional[Dict[int, bool]] = None
) -> Set[Tuple[Node, Node]]:
    """Orient every trail consistently; returns the set of directed edges.

    ``directions[i]`` (default ``True``) orients trail ``i`` along its
    stored walk order; ``False`` reverses it.  Because every node copy in
    ``G'`` has exactly one incoming and one outgoing edge under a consistent
    trail orientation, the induced orientation of ``G`` is almost balanced.
    """
    directions = directions or {}
    oriented: Set[Tuple[Node, Node]] = set()
    for index, trail in enumerate(trails):
        forward = directions.get(index, True)
        edges = trail.edges()
        for a, b in edges:
            oriented.add((a, b) if forward else (b, a))
    return oriented


def eulerian_orientation(graph: LocalGraph) -> Set[Tuple[Node, Node]]:
    """A centralized almost-balanced orientation (the encoder's reference)."""
    return orient_trails(graph, trail_decomposition(graph))


def orientation_to_port_labels(
    graph: LocalGraph, oriented: Set[Tuple[Node, Node]]
) -> Dict[Node, Tuple[int, ...]]:
    """Convert a directed-edge set into per-port +-1 labels for the
    :func:`repro.lcl.catalog.balanced_orientation` LCL."""
    labels: Dict[Node, Tuple[int, ...]] = {}
    for v in graph.nodes():
        row = []
        for u in graph.neighbors(v):
            if (v, u) in oriented:
                row.append(1)
            elif (u, v) in oriented:
                row.append(-1)
            else:
                raise OrientationError(f"edge {{{v!r}, {u!r}}} not oriented")
        labels[v] = tuple(row)
    return labels


def imbalance(graph: LocalGraph, oriented: Set[Tuple[Node, Node]]) -> Dict[Node, int]:
    """``outdeg - indeg`` per node."""
    out: Dict[Node, int] = {v: 0 for v in graph.nodes()}
    inn: Dict[Node, int] = {v: 0 for v in graph.nodes()}
    for a, b in oriented:
        out[a] += 1
        inn[b] += 1
    return {v: out[v] - inn[v] for v in graph.nodes()}


def is_almost_balanced(graph: LocalGraph, oriented: Set[Tuple[Node, Node]]) -> bool:
    """Every node satisfies ``|outdeg - indeg| <= 1``."""
    return all(abs(x) <= 1 for x in imbalance(graph, oriented).values())
