"""Flat-array (CSR) adjacency backend for fast LOCAL simulation.

:class:`LocalGraph` answers every query through networkx dicts and
re-sorts neighbor lists on each ``neighbors()`` call.  That is fine for
correctness but dominates simulation time: gathering all radius-``T``
views is ``O(sum_v |B(v, T)|)`` integer work in the LOCAL model, yet the
seed implementation paid dict hashing, dynamic dispatch, and an
``O(d log d)`` sort per visited node.

:class:`CompiledGraph` is a read-only snapshot in compressed-sparse-row
form: nodes are renumbered to dense indices ``0..n-1`` and adjacency
lives in two flat integer lists (``indptr``/``indices``).  Each row is
sorted by neighbor *identifier*, so a row slice **is** the port
numbering of the LOCAL model — ``indices[indptr[i] + p]`` is the
neighbor behind port ``p``.  A parallel ``nbr_ids`` array makes
``port_of`` a binary search instead of a linear scan, and a reusable
distance scratch array lets thousands of BFS sweeps run without
reallocating.

:class:`LocalGraph` compiles one lazily (first adjacency query) and keeps
its public API unchanged; everything downstream inherits the speedup.
After that first compile, each mutation derives the next snapshot from
the current one (``with_edge``, ``without_edge``, ``with_node``,
``without_node``): a port is spliced in or out at its sorted position
and the rows past it shift, so no row is re-sorted.  Derivation is
copy-on-write — the old snapshot is never touched and keeps answering
for the old topology — and a derived snapshot starts with fresh BFS
scratch and no numpy sidecars (CSR arrays, reverse slots, flooding
cache, ball sweep).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

Node = Hashable


class CompiledGraph:
    """CSR snapshot of a simple undirected graph with LOCAL-model ports.

    Parameters
    ----------
    nodes:
        Node objects in a fixed order; their position becomes the dense
        index.
    ids:
        ``node -> identifier`` (distinct positive integers).
    adjacency:
        ``node -> iterable of neighbor nodes`` (any order; rows are
        re-sorted by identifier here).
    """

    __slots__ = (
        "n",
        "m",
        "nodes",
        "index_of",
        "ids",
        "indptr",
        "indices",
        "nbr_ids",
        "degrees",
        "max_degree",
        "epoch",
        "_dist",
        "_np_csr",
        "_np_rev",
        "_np_flood",
        "_np_balls",
    )

    def __init__(
        self,
        nodes: Iterable[Node],
        ids: Mapping[Node, int],
        adjacency: Mapping[Node, Iterable[Node]],
    ) -> None:
        self.nodes: List[Node] = list(nodes)
        n = len(self.nodes)
        self.n = n
        self.index_of: Dict[Node, int] = {v: i for i, v in enumerate(self.nodes)}
        self.ids: List[int] = [int(ids[v]) for v in self.nodes]

        indptr = [0] * (n + 1)
        indices: List[int] = []
        nbr_ids: List[int] = []
        index_of = self.index_of
        id_list = self.ids
        for i, v in enumerate(self.nodes):
            row = sorted((id_list[index_of[u]], index_of[u]) for u in adjacency[v])
            for ident, j in row:
                indices.append(j)
                nbr_ids.append(ident)
            indptr[i + 1] = len(indices)
        self.indptr = indptr
        self.indices = indices
        self.nbr_ids = nbr_ids
        self.m = len(indices) // 2
        self.degrees: List[int] = [indptr[i + 1] - indptr[i] for i in range(n)]
        self.max_degree: int = max(self.degrees, default=0)
        # Mutation epoch of the source graph this snapshot describes;
        # LocalGraph stamps each derived snapshot with its new epoch, so a
        # holder can tell its snapshot from the graph's current one.
        self.epoch: int = 0
        self._fresh_caches()

    def _fresh_caches(self) -> None:
        n = self.n
        # BFS scratch: -1 means "unvisited"; reset_scratch restores it.
        # Shared by every scalar sweep, so sweeps must not interleave.
        self._dist: List[int] = [-1] * n
        # Lazily built numpy snapshot of (indptr, indices, ids) for the
        # vectorized engine; None until first np_csr() call.
        self._np_csr = None
        # Lazily built reverse-slot array (reverse_slots()) for the
        # compiled LCL checks of repro.lcl.compiled.
        self._np_rev = None
        # Lazily built flooding ball-sweep cache owned by
        # repro.obs.bandwidth._flood_cache (structure-only, advice-free).
        self._np_flood = None
        # Layers the flooding meter folds instead of sweeping again: the
        # flat balls of an all-roots vectorized gather
        # (repro.local.vectorized.BallSweep), or the compact layers a cold
        # meter call kept (repro.local.vectorized.FloodLayers); None until
        # one runs.
        self._np_balls = None

    @classmethod
    def from_local(cls, graph: "LocalGraph") -> "CompiledGraph":  # noqa: F821
        """Snapshot a :class:`repro.local.graph.LocalGraph`."""
        nx_graph = graph.graph
        compiled = cls(
            graph.nodes(),
            graph.ids(),
            {v: list(nx_graph.neighbors(v)) for v in nx_graph.nodes()},
        )
        compiled.epoch = graph.epoch
        return compiled

    # -- copy-on-write derivation (one mutation each) --------------------------

    def _derive(
        self,
        nodes: List[Node],
        index_of: Dict[Node, int],
        ids: List[int],
        indices: List[int],
        nbr_ids: List[int],
        degrees: List[int],
    ) -> "CompiledGraph":
        """A new snapshot over the given arrays (``epoch`` left at 0 for the
        caller to stamp); unchanged arrays may be shared with ``self``."""
        new = CompiledGraph.__new__(CompiledGraph)
        new.nodes, new.index_of, new.ids = nodes, index_of, ids
        new.n = len(nodes)
        new.indptr = list(accumulate(degrees, initial=0))
        new.indices, new.nbr_ids = indices, nbr_ids
        new.m = len(indices) // 2
        new.degrees = degrees
        new.max_degree = max(degrees, default=0)
        new.epoch = 0
        new._fresh_caches()
        return new

    def with_edge(self, u: Node, v: Node) -> "CompiledGraph":
        """This snapshot plus the edge ``{u, v}`` (absent, ``u != v``): each
        endpoint gains a port at its identifier-sorted position."""
        i, j = self.index_of[u], self.index_of[v]
        indptr, ids = self.indptr, self.ids
        indices, nbr_ids = self.indices.copy(), self.nbr_ids.copy()
        # Splice the later position first so the earlier one stays valid.
        # Two rows share a position only where one ends and the next
        # begins; the higher row's port goes in first there, so the lower
        # row's lands before it.
        splices = sorted(
            (
                (bisect_left(nbr_ids, ids[j], indptr[i], indptr[i + 1]), i, j),
                (bisect_left(nbr_ids, ids[i], indptr[j], indptr[j + 1]), j, i),
            ),
            reverse=True,
        )
        for pos, _, other in splices:
            indices.insert(pos, other)
            nbr_ids.insert(pos, ids[other])
        degrees = self.degrees.copy()
        degrees[i] += 1
        degrees[j] += 1
        return self._derive(self.nodes, self.index_of, ids, indices, nbr_ids, degrees)

    def without_edge(self, u: Node, v: Node) -> "CompiledGraph":
        """This snapshot minus the edge ``{u, v}`` (present): each endpoint
        loses that port."""
        i, j = self.index_of[u], self.index_of[v]
        indptr, ids = self.indptr, self.ids
        indices, nbr_ids = self.indices.copy(), self.nbr_ids.copy()
        cuts = (
            bisect_left(nbr_ids, ids[j], indptr[i], indptr[i + 1]),
            bisect_left(nbr_ids, ids[i], indptr[j], indptr[j + 1]),
        )
        for pos in sorted(cuts, reverse=True):
            del indices[pos]
            del nbr_ids[pos]
        degrees = self.degrees.copy()
        degrees[i] -= 1
        degrees[j] -= 1
        return self._derive(self.nodes, self.index_of, ids, indices, nbr_ids, degrees)

    def with_node(self, v: Node, ident: int) -> "CompiledGraph":
        """This snapshot plus the isolated node ``v``, appended as the last
        (empty) row."""
        index_of = dict(self.index_of)
        index_of[v] = self.n
        return self._derive(
            self.nodes + [v],
            index_of,
            self.ids + [int(ident)],
            self.indices,
            self.nbr_ids,
            self.degrees + [0],
        )

    def without_node(self, v: Node) -> "CompiledGraph":
        """This snapshot minus ``v`` and its ports; every index above ``v``'s
        moves down by one."""
        i = self.index_of[v]
        indptr, nbr_ids, indices = self.indptr, self.nbr_ids, self.indices
        lo, hi = indptr[i], indptr[i + 1]
        ident = self.ids[i]
        degrees = self.degrees.copy()
        # v's own row, plus the port back to v in each neighbour's row.
        cuts = list(range(lo, hi))
        for j in indices[lo:hi]:
            cuts.append(bisect_left(nbr_ids, ident, indptr[j], indptr[j + 1]))
            degrees[j] -= 1
        del degrees[i]
        indices, nbr_ids = indices.copy(), nbr_ids.copy()
        for pos in sorted(cuts, reverse=True):
            del indices[pos]
            del nbr_ids[pos]
        nodes = self.nodes.copy()
        del nodes[i]
        index_of = dict(self.index_of)
        del index_of[v]
        for k in range(i, len(nodes)):
            index_of[nodes[k]] = k
        ids = self.ids.copy()
        del ids[i]
        return self._derive(
            nodes, index_of, ids, [j - (j > i) for j in indices], nbr_ids, degrees
        )

    # -- index-level primitives (hot paths work on ints only) -----------------

    def row(self, i: int) -> Tuple[int, int]:
        """The ``(start, end)`` slice of node ``i``'s ports in ``indices``."""
        return self.indptr[i], self.indptr[i + 1]

    def neighbors_idx(self, i: int) -> List[int]:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def port_of_idx(self, i: int, j: int) -> int:
        """Port of neighbor ``j`` at node ``i`` (binary search), or -1."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        target = self.ids[j]
        k = bisect_left(self.nbr_ids, target, lo, hi)
        if k < hi and self.indices[k] == j:
            return k - lo
        return -1

    def np_csr(self):
        """The CSR arrays as cached numpy vectors, ``int32`` when they fit.

        Returns ``(indptr, indices, ids)`` — the flat adjacency plus the
        node identifiers by dense index — for the vectorized gather
        (:mod:`repro.local.vectorized`) and the flooding meter
        (:mod:`repro.obs.bandwidth`).  The gather's key space is ``block *
        n`` within its mask budget (or ``n`` for single-root blocks), so
        32-bit arithmetic is exact whenever the graph itself fits 32 bits —
        and roughly 15% faster end to end; astronomically large inputs get
        ``int64``.  Built once on first use; the snapshot is read-only by
        convention.
        """
        if self._np_csr is None:
            import numpy as np

            fits = (
                self.n < (1 << 30)
                and len(self.indices) < (1 << 31)
                and (not self.ids or max(self.ids) < (1 << 31))
            )
            dtype = np.int32 if fits else np.int64
            self._np_csr = (
                np.asarray(self.indptr, dtype=dtype),
                np.asarray(self.indices, dtype=dtype),
                np.asarray(self.ids, dtype=dtype),
            )
        return self._np_csr

    def reverse_slots(self):
        """The reverse of every CSR slot, as a cached numpy vector.

        Slot ``s`` holds the port from ``i`` to ``j = indices[s]``;
        ``reverse_slots()[s]`` is the slot of the port from ``j`` back to
        ``i``.  Ranking the slots by ``(tail, head)`` and by ``(head, tail)``
        pairs each slot with its reverse, so it is two sorts and no Python
        loop.  Built once on first use, like :meth:`np_csr`.
        """
        if self._np_rev is None:
            import numpy as np

            indptr, indices, _ = self.np_csr()
            tails = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
            heads = indices.astype(np.int64)
            by_tail = np.argsort(tails * self.n + heads, kind="stable")
            by_head = np.argsort(heads * self.n + tails, kind="stable")
            rev = np.empty_like(indices)
            rev[by_head] = by_tail
            self._np_rev = rev
        return self._np_rev

    def bfs_fill(self, src: int, radius: Optional[int] = None) -> List[int]:
        """BFS from ``src``; returns the visit order (non-decreasing distance).

        On return the shared :attr:`_dist` scratch holds the hop distance of
        every visited index ``i``.  The caller **must** call
        :meth:`reset_scratch` with the returned order before the next sweep;
        the scratch is not reentrant.
        """
        return self.bfs_fill_many((src,), radius)

    def bfs_fill_many(
        self, sources: Iterable[int], radius: Optional[int] = None
    ) -> List[int]:
        """Multi-source :meth:`bfs_fill`: the hop distance to the nearest of
        ``sources``, with the same scratch contract."""
        dist = self._dist
        indptr, indices = self.indptr, self.indices
        order: List[int] = []
        append = order.append
        for src in sources:
            if dist[src] < 0:
                dist[src] = 0
                append(src)
        # The loop walks ``order`` while appending to it: a FIFO queue.
        for i in order:
            d = dist[i]
            if radius is not None and d >= radius:
                continue
            d1 = d + 1
            for j in indices[indptr[i] : indptr[i + 1]]:
                if dist[j] < 0:
                    dist[j] = d1
                    append(j)
        return order

    def reset_scratch(self, order: Iterable[int]) -> None:
        dist = self._dist
        for i in order:
            dist[i] = -1

    def bfs_masked(
        self, src: int, mask: bytearray, radius: Optional[int] = None
    ) -> Tuple[List[int], List[int]]:
        """BFS from ``src`` through the indices ``i`` with ``mask[i]`` set.

        Returns ``(order, depth)``: the visit order (non-decreasing
        distance) and the hop distance of each visited index, parallel to
        it.  Unlike :meth:`bfs_fill`, the :attr:`_dist` scratch is reset
        before returning, so callers need no :meth:`reset_scratch`.
        """
        dist = self._dist
        indptr, indices = self.indptr, self.indices
        order = [src]
        dist[src] = 0
        head = 0
        while head < len(order):
            i = order[head]
            head += 1
            d = dist[i]
            if radius is not None and d >= radius:
                continue
            d1 = d + 1
            for k in range(indptr[i], indptr[i + 1]):
                j = indices[k]
                if mask[j] and dist[j] < 0:
                    dist[j] = d1
                    order.append(j)
        depth = [dist[i] for i in order]
        self.reset_scratch(order)
        return order, depth

    # -- node-level API (used by LocalGraph's thin wrappers) -------------------

    def neighbors(self, v: Node) -> List[Node]:
        """Neighbors of ``v`` in port (identifier) order."""
        nodes = self.nodes
        i = self.index_of[v]
        return [nodes[j] for j in self.indices[self.indptr[i] : self.indptr[i + 1]]]

    def port_of(self, v: Node, u: Node) -> int:
        """0-based port of ``u`` at ``v``, or -1 if not adjacent."""
        return self.port_of_idx(self.index_of[v], self.index_of[u])

    def neighbor_at_port(self, v: Node, port: int) -> Optional[Node]:
        i = self.index_of[v]
        lo, hi = self.indptr[i], self.indptr[i + 1]
        if not 0 <= port < hi - lo:
            return None
        return self.nodes[self.indices[lo + port]]

    def degree(self, v: Node) -> int:
        return self.degrees[self.index_of[v]]

    def ball(self, v: Node, radius: int) -> List[Node]:
        """Nodes within ``radius`` of ``v``, in BFS (distance) order."""
        if radius < 0:
            return []
        order = self.bfs_fill(self.index_of[v], radius)
        result = [self.nodes[i] for i in order]
        self.reset_scratch(order)
        return result

    def bfs_layers(self, v: Node, radius: Optional[int] = None) -> Iterator[List[Node]]:
        """Yield BFS layers ``N_{=0}(v), N_{=1}(v), ...`` up to ``radius``.

        The visit order of :meth:`bfs_fill` has non-decreasing distance, so
        layers are contiguous runs of the order array.
        """
        order = self.bfs_fill(self.index_of[v], radius)
        dist = self._dist
        nodes = self.nodes
        layers: List[List[Node]] = []
        current: List[Node] = []
        current_d = 0
        for i in order:
            d = dist[i]
            if d != current_d:
                layers.append(current)
                current = []
                current_d = d
            current.append(nodes[i])
        layers.append(current)
        self.reset_scratch(order)
        return iter(layers)

    def sphere(self, v: Node, radius: int) -> List[Node]:
        if radius < 0:
            return []
        order = self.bfs_fill(self.index_of[v], radius)
        dist = self._dist
        result = [self.nodes[i] for i in order if dist[i] == radius]
        self.reset_scratch(order)
        return result

    def distance(self, u: Node, v: Node) -> float:
        """Hop distance (``inf`` when disconnected); early-exits at ``v``."""
        if u == v:
            return 0
        src, dst = self.index_of[u], self.index_of[v]
        dist = self._dist
        indptr, indices = self.indptr, self.indices
        order = [src]
        dist[src] = 0
        head = 0
        found: float = float("inf")
        while head < len(order):
            i = order[head]
            head += 1
            d1 = dist[i] + 1
            for k in range(indptr[i], indptr[i + 1]):
                j = indices[k]
                if dist[j] < 0:
                    if j == dst:
                        found = d1
                        head = len(order)  # drain: stop the sweep
                        dist[j] = d1
                        order.append(j)
                        break
                    dist[j] = d1
                    order.append(j)
            if found != float("inf"):
                break
        self.reset_scratch(order)
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledGraph(n={self.n}, m={self.m}, max_degree={self.max_degree})"


class InducedSubgraph:
    """The subgraph of a :class:`CompiledGraph` induced by a node set.

    A ``bytearray`` membership mask over the snapshot's dense indices;
    every query is a :meth:`CompiledGraph.bfs_masked` sweep, so no
    adjacency is copied and no graph-object view is built.  Like the
    snapshot it wraps, a view is read-only: build a fresh one (through
    :meth:`repro.local.graph.LocalGraph.induced`) after a mutation.
    """

    __slots__ = ("_compiled", "_mask", "_members")

    def __init__(self, compiled: CompiledGraph, nodes: Iterable[Node]) -> None:
        index_of = compiled.index_of
        # Member indices in snapshot (``LocalGraph.nodes()``) order.
        self._members: List[int] = sorted({index_of[v] for v in nodes})
        mask = bytearray(compiled.n)
        for i in self._members:
            mask[i] = 1
        self._compiled = compiled
        self._mask = mask

    def nodes(self) -> List[Node]:
        """Members in ``LocalGraph.nodes()`` order."""
        names = self._compiled.nodes
        return [names[i] for i in self._members]

    def __contains__(self, v: Node) -> bool:
        i = self._compiled.index_of.get(v)
        return i is not None and bool(self._mask[i])

    def __len__(self) -> int:
        return len(self._members)

    def distances(self, source: Node, cutoff: Optional[int] = None) -> Dict[Node, int]:
        """Hop distances from ``source`` inside the subgraph, in BFS order,
        optionally capped at ``cutoff``."""
        if source not in self:
            raise KeyError(f"{source!r} is not in the induced subgraph")
        order, depth = self._compiled.bfs_masked(
            self._compiled.index_of[source], self._mask, cutoff
        )
        names = self._compiled.nodes
        return {names[i]: d for i, d in zip(order, depth)}

    def components(self) -> List[Set[Node]]:
        """Connected components, seeded in ``LocalGraph.nodes()`` order."""
        compiled, mask = self._compiled, self._mask
        names = compiled.nodes
        seen = bytearray(compiled.n)
        out: List[Set[Node]] = []
        for i in self._members:
            if seen[i]:
                continue
            order, _ = compiled.bfs_masked(i, mask)
            for j in order:
                seen[j] = 1
            out.append({names[j] for j in order})
        return out

    def diameter_at_most(self, bound: int) -> bool:
        """Is every component's (strong) diameter ``<= bound``?

        An ``s``-node subgraph has no component of diameter above
        ``s - 1``, so that case answers at once.  Otherwise one BFS per
        component, capped past ``bound``, gives the eccentricity ``e`` of
        its first member, and ``e <= diam <= 2e``: the component fails when
        ``e > bound`` and passes when ``2e <= bound``.  Only in between
        does one capped BFS run per member, the first one past ``bound``
        deciding.
        """
        if len(self._members) - 1 <= bound:
            return True
        compiled, mask = self._compiled, self._mask
        seen = bytearray(compiled.n)
        for i in self._members:
            if seen[i]:
                continue
            order, depth = compiled.bfs_masked(i, mask, bound + 1)
            ecc = depth[-1]
            if ecc > bound:
                return False
            for j in order:
                seen[j] = 1
            if 2 * ecc <= bound:
                continue
            for j in order:
                _, depth = compiled.bfs_masked(j, mask, bound + 1)
                if depth[-1] > bound:
                    return False
        return True
