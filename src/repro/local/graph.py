"""Communication graphs for the LOCAL model.

The LOCAL model (Section 3.2 of the paper) works on an ``n``-node graph in
which every node carries a unique identifier from ``{1, ..., n^c}``.  A node
initially knows its own identifier, its degree, the maximum degree ``Delta``
of the graph, and ``n``.  Computation proceeds in synchronous rounds; in
``T`` rounds a node can learn exactly its radius-``T`` neighborhood.

:class:`LocalGraph` wraps a :class:`networkx.Graph` with the bookkeeping the
simulator needs: identifier assignment, port numberings (incident edges
sorted by neighbor identifier), ball extraction, and distance queries.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

import networkx as nx

from .compiled import CompiledGraph, InducedSubgraph

Node = Hashable


class LocalGraphError(ValueError):
    """Raised for malformed inputs to :class:`LocalGraph`."""


class LocalGraph:
    """A simple undirected graph prepared for LOCAL-model simulation.

    Parameters
    ----------
    graph:
        The underlying :class:`networkx.Graph`.  Self-loops and multi-edges
        are rejected; the LOCAL model of the paper is defined on simple
        graphs.
    ids:
        Optional mapping ``node -> identifier``.  Identifiers must be
        distinct positive integers.  When omitted, nodes are numbered
        ``1..n`` in an order chosen by ``seed`` (a random permutation when a
        seed is given, insertion order otherwise).
    inputs:
        Optional mapping ``node -> input label`` (the ``I`` of an
        input-labeled graph ``G = (V, E, I)``).
    seed:
        Seed for the random identifier permutation.
    """

    def __init__(
        self,
        graph: nx.Graph,
        ids: Optional[Mapping[Node, int]] = None,
        inputs: Optional[Mapping[Node, object]] = None,
        seed: Optional[int] = None,
    ) -> None:
        if graph.is_directed():
            raise LocalGraphError("LocalGraph requires an undirected graph")
        if graph.is_multigraph():
            raise LocalGraphError("LocalGraph requires a simple graph")
        if any(u == v for u, v in graph.edges()):
            raise LocalGraphError("LocalGraph rejects self-loops")

        self._graph = graph
        self._epoch: int = 0
        self._nodes: List[Node] = list(graph.nodes())
        if ids is None:
            order = list(self._nodes)
            if seed is not None:
                random.Random(seed).shuffle(order)
            ids = {v: i + 1 for i, v in enumerate(order)}
        self._validate_ids(ids)
        self._id_of: Dict[Node, int] = {v: int(ids[v]) for v in self._nodes}
        self._node_of: Dict[int, Node] = {i: v for v, i in self._id_of.items()}
        self._inputs: Dict[Node, object] = dict(inputs) if inputs else {}
        # Degrees and Delta are read inside inner simulation loops; compute
        # them once here (the wrapped graph only changes through the mutator
        # API below, which keeps this bookkeeping in sync).
        self._degrees: Dict[Node, int] = {v: graph.degree(v) for v in self._nodes}
        self._max_degree: int = max(self._degrees.values(), default=0)
        self._compiled: Optional[CompiledGraph] = None

    # -- construction helpers -------------------------------------------------

    def _validate_ids(self, ids: Mapping[Node, int]) -> None:
        missing = [v for v in self._nodes if v not in ids]
        if missing:
            raise LocalGraphError(f"ids missing for {len(missing)} nodes, e.g. {missing[0]!r}")
        values = [int(ids[v]) for v in self._nodes]
        if len(set(values)) != len(values):
            raise LocalGraphError("identifiers must be distinct")
        if values and min(values) < 1:
            raise LocalGraphError("identifiers must be positive integers")

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Node, Node]],
        nodes: Optional[Iterable[Node]] = None,
        **kwargs: object,
    ) -> "LocalGraph":
        """Build a :class:`LocalGraph` from an edge list (plus isolated nodes)."""
        graph = nx.Graph()
        if nodes is not None:
            graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        return cls(graph, **kwargs)  # type: ignore[arg-type]

    # -- basic accessors -------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (treat as read-only)."""
        return self._graph

    @property
    def epoch(self) -> int:
        """Monotone mutation counter; bumped by every topology change.

        Snapshot consumers (:class:`CompiledGraph` holders, memoized views)
        compare their recorded epoch against this to detect staleness.
        """
        return self._epoch

    @property
    def compiled(self) -> CompiledGraph:
        """The CSR backend (compiled lazily on first adjacency query).

        All hot-path accessors (:meth:`neighbors`, :meth:`port_of`,
        :meth:`ball`, :meth:`bfs_layers`, ...) route through this snapshot.
        It is compiled from the networkx graph once; after that every
        mutation through the mutator API derives the next snapshot from
        the current one (a port spliced per changed row), stamped with the
        new :attr:`epoch`.  Derivation is copy-on-write: a snapshot taken
        before a mutation keeps answering for the old topology.
        """
        if self._compiled is None:
            self._compiled = CompiledGraph.from_local(self)
        return self._compiled

    @property
    def n(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def m(self) -> int:
        return self._graph.number_of_edges()

    @property
    def max_degree(self) -> int:
        """``Delta``: the maximum degree, known to every node up front."""
        return self._max_degree

    def nodes(self) -> List[Node]:
        return list(self._nodes)

    def edges(self) -> List[Tuple[Node, Node]]:
        return list(self._graph.edges())

    def degree(self, v: Node) -> int:
        return self._degrees[v]

    def id_of(self, v: Node) -> int:
        return self._id_of[v]

    def node_of(self, node_id: int) -> Node:
        return self._node_of[node_id]

    def ids(self) -> Dict[Node, int]:
        return dict(self._id_of)

    def input_of(self, v: Node) -> object:
        return self._inputs.get(v)

    def has_edge(self, u: Node, v: Node) -> bool:
        return self._graph.has_edge(u, v)

    # -- mutation (churn) ------------------------------------------------------

    def _invalidate(self, derive: Callable[[CompiledGraph], CompiledGraph]) -> None:
        """Bump the epoch and move every topology-derived cache past the
        mutation just made.

        A compiled snapshot, if one exists, is replaced by ``derive(old)``
        stamped with the new epoch (no recompile; the old snapshot and its
        ``_np_csr`` / ``_np_flood`` engine caches stay with their holders).
        """
        self._epoch += 1
        if self._compiled is not None:
            self._compiled = derive(self._compiled)
            self._compiled.epoch = self._epoch

    def add_edge(self, u: Node, v: Node) -> None:
        """Insert the edge ``{u, v}`` between two existing nodes."""
        if u == v:
            raise LocalGraphError("LocalGraph rejects self-loops")
        if u not in self._id_of or v not in self._id_of:
            missing = u if u not in self._id_of else v
            raise LocalGraphError(f"cannot add edge at unknown node {missing!r}")
        if self._graph.has_edge(u, v):
            raise LocalGraphError(f"edge {u!r}-{v!r} already present")
        self._graph.add_edge(u, v)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self._max_degree = max(self._max_degree, self._degrees[u], self._degrees[v])
        self._invalidate(lambda compiled: compiled.with_edge(u, v))

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the edge ``{u, v}``."""
        if not self._graph.has_edge(u, v):
            raise LocalGraphError(f"edge {u!r}-{v!r} not present")
        self._graph.remove_edge(u, v)
        old_u, old_v = self._degrees[u], self._degrees[v]
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        if max(old_u, old_v) == self._max_degree:
            self._max_degree = max(self._degrees.values(), default=0)
        self._invalidate(lambda compiled: compiled.without_edge(u, v))

    def add_node(
        self,
        v: Node,
        neighbors: Iterable[Node] = (),
        node_id: Optional[int] = None,
        input: Optional[object] = None,
    ) -> None:
        """Insert node ``v`` (with optional incident edges to existing nodes).

        The identifier defaults to ``max(existing ids) + 1`` so insertion
        order alone determines the id assignment (bit-reproducible plans).
        """
        if v in self._id_of:
            raise LocalGraphError(f"node {v!r} already present")
        attach = list(neighbors)
        for u in attach:
            if u not in self._id_of:
                raise LocalGraphError(f"cannot attach new node to unknown node {u!r}")
        if len(set(attach)) != len(attach) or v in attach:
            raise LocalGraphError("attachment list must be distinct existing nodes")
        if node_id is None:
            node_id = max(self._node_of, default=0) + 1
        node_id = int(node_id)
        if node_id < 1 or node_id in self._node_of:
            raise LocalGraphError(f"identifier {node_id} is not a fresh positive integer")
        self._graph.add_node(v)
        self._nodes.append(v)
        self._id_of[v] = node_id
        self._node_of[node_id] = v
        self._degrees[v] = 0
        if input is not None:
            self._inputs[v] = input
        self._invalidate(lambda compiled: compiled.with_node(v, node_id))
        for u in attach:
            self.add_edge(v, u)

    def remove_node(self, v: Node) -> List[Node]:
        """Delete node ``v`` with its incident edges; return its old neighbors."""
        if v not in self._id_of:
            raise LocalGraphError(f"node {v!r} not present")
        dropped = list(self._graph.neighbors(v))
        self._graph.remove_node(v)
        self._nodes.remove(v)
        del self._node_of[self._id_of.pop(v)]
        old_degree = self._degrees.pop(v)
        self._inputs.pop(v, None)
        for u in dropped:
            self._degrees[u] -= 1
        if old_degree == self._max_degree or any(
            self._degrees[u] + 1 == self._max_degree for u in dropped
        ):
            self._max_degree = max(self._degrees.values(), default=0)
        self._invalidate(lambda compiled: compiled.without_node(v))
        return dropped

    # -- ports -----------------------------------------------------------------

    def neighbors(self, v: Node) -> List[Node]:
        """Neighbors of ``v`` in increasing identifier order (port order)."""
        return self.compiled.neighbors(v)

    def port_of(self, v: Node, u: Node) -> int:
        """Port index (0-based) of the edge ``{v, u}`` at ``v``."""
        compiled = self.compiled
        if u not in compiled.index_of:
            raise LocalGraphError(f"{u!r} is not a neighbor of {v!r}")
        port = compiled.port_of(v, u)
        if port < 0:
            raise LocalGraphError(f"{u!r} is not a neighbor of {v!r}")
        return port

    def neighbor_at_port(self, v: Node, port: int) -> Node:
        u = self.compiled.neighbor_at_port(v, port)
        if u is None:
            raise LocalGraphError(f"node {v!r} has no port {port}")
        return u

    # -- distances and balls ----------------------------------------------------

    def bfs_layers(self, v: Node, radius: Optional[int] = None) -> Iterator[List[Node]]:
        """Yield the BFS layers ``N_{=0}(v), N_{=1}(v), ...`` up to ``radius``."""
        return self.compiled.bfs_layers(v, radius)

    def ball(self, v: Node, radius: int) -> List[Node]:
        """``N_{<= radius}(v)``: all nodes within distance ``radius`` of ``v``."""
        return self.compiled.ball(v, radius)

    def sphere(self, v: Node, radius: int) -> List[Node]:
        """``N_{= radius}(v)``: nodes at distance exactly ``radius`` from ``v``."""
        if radius < 0:
            return []
        return self.compiled.sphere(v, radius)

    def induced(self, nodes: Iterable[Node]) -> InducedSubgraph:
        """The subgraph induced by ``nodes``, as a mask over :attr:`compiled`.

        Distances, components and diameter checks inside it run on the CSR
        arrays (:class:`repro.local.compiled.InducedSubgraph`).  The view
        is bound to the current snapshot; take a new one after a mutation.
        """
        return InducedSubgraph(self.compiled, nodes)

    def ball_subgraph(self, v: Node, radius: int) -> nx.Graph:
        """The subgraph induced by ``N_{<= radius}(v)``."""
        return self._graph.subgraph(self.ball(v, radius)).copy()

    def distance(self, u: Node, v: Node) -> float:
        """Hop distance between ``u`` and ``v`` (``inf`` if disconnected)."""
        return self.compiled.distance(u, v)

    def power_graph(self, k: int) -> nx.Graph:
        """The ``k``-th power graph ``G^k`` (edges between nodes at distance 1..k)."""
        if k < 1:
            raise LocalGraphError("power graph exponent must be >= 1")
        power = nx.Graph()
        power.add_nodes_from(self._nodes)
        for v in self._nodes:
            for u in self.ball(v, k):
                if u != v:
                    power.add_edge(v, u)
        return power

    # -- convenience ------------------------------------------------------------

    def components(self) -> List[Set[Node]]:
        return [set(c) for c in nx.connected_components(self._graph)]

    def relabel_by_id(self) -> "LocalGraph":
        """Return an isomorphic LocalGraph whose node names equal the identifiers."""
        mapping = dict(self._id_of)
        relabeled = nx.relabel_nodes(self._graph, mapping)
        new_ids = {mapping[v]: i for v, i in self._id_of.items()}
        new_inputs = {mapping[v]: label for v, label in self._inputs.items()}
        return LocalGraph(relabeled, ids=new_ids, inputs=new_inputs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalGraph(n={self.n}, m={self.m}, max_degree={self.max_degree})"
