"""Vectorized batched radius-``T`` view gathering (numpy sweeps over CSR).

The scalar engine (:func:`repro.local.views.gather_all_views`) runs one
Python BFS per root.  In the LOCAL model the work charged for is
``O(sum_v |B(v, T)|)`` integer traversal, which is exactly what numpy can
do in bulk.

This module replaces the per-root sweeps with **one masked multi-source
BFS frontier sweep** over the :class:`~repro.local.compiled.CompiledGraph`
CSR arrays for *all* roots at once:

* the frontier is a pair of flat integer arrays ``(owner, node)`` —
  ``owner`` is the root's slot, ``node`` a dense CSR index; a sparse
  step is ``np.repeat`` over row degrees plus an offset ``np.arange``
  gather into ``indices`` (the pointer/bin flat-array idiom), then a
  sort-dedupe;
* a dense layer (one whose expansion would cover a good share of the
  ``block × n`` keys, as in the middle layers of a graph whose balls are
  the whole graph) is stepped bit-parallel instead, as direction-
  optimizing BFS does: one ``np.bitwise_or.reduceat`` of packed owner
  bits over the CSR rows, the frontier and the unvisited keys staying
  packed through a run of dense layers; the gather reads a packed layer
  as the same sorted keys, and the flooding meter (:func:`fold_layers`)
  folds it as it is;
* visited state is a single flat boolean mask indexed by
  ``owner * n + node`` — no per-root sets, no dicts; roots are processed
  in blocks sized so the mask stays cache-resident (see ``_MASK_BUDGET``),
  and the mask is allocated once and selectively cleared between blocks;
* per-root grouping is a counting scatter over the per-layer owner counts
  (``np.bincount`` + ``cumsum``), not a global sort: BFS layers already
  leave each layer owner-sorted, so group ranks fall out of arithmetic;
* visible edges (both endpoints in the ball, at least one *interior* —
  the exact rule of :func:`repro.local.views.gather_view`) come from one
  more expansion over the interior entries, computed **lazily** on first
  ``edges`` access.  Every neighbor of an interior node is within
  distance ``T`` by the triangle inequality, so no ball-membership test
  is needed; the only filter is the dedupe rule
  ``not interior(nbr) or src < nbr``, which keeps interior–interior
  edges exactly once.

The result is a :class:`BallBatch`: per-root slices into flat node /
distance / edge arrays, and the backing of the one lazy view class,
:class:`~repro.local.views.LazyView`, which the scalar gather returns
too.  :meth:`BallBatch.view` returns a ``LazyView`` whose fields
(``nodes``, ``edges``, ``ids``, ``inputs``, ``advice``, ``distances``)
are built on first access from batch-level columns that are themselves
converted from numpy at most once per batch.  Center accessors
(``advice_of(center)``, ``distance(center)``, ...) answer in O(1) from
per-root columns without building any per-view dict, so a decoder that
only reads its center pays nothing for materialization.  A fully
materialized batched view is value-equal to the scalar
:func:`~repro.local.views.gather_view` result; the test suite pins this
batch-equals-scalar property on random graphs and radii.

Soundness note: dict- and frozenset-valued ``View`` fields compare by
*content*, so construction order never leaks into equality; iteration
order of ``view.nodes`` may differ between engines, which is exactly the
order-insensitivity the LOCAL-contract linter (rule LOC002) already
demands of decoders.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from ..obs.trace import as_tracer
from ..perf import SimStats
from .graph import LocalGraph, Node
from .views import Balls, LazyView, View

#: soft budget for the visited mask: roots are processed in blocks of
#: ``max(1, _MASK_BUDGET // n)`` so the mask stays ~4 MB of bools — small
#: enough to live in last-level cache, which dominates the scattered
#: fancy-indexing the sweep does (measured ~1.4x faster than a 32 MB mask).
_MASK_BUDGET = 1 << 22

#: one frontier expansion is materialized flat; its length must fit the
#: 32-bit index arithmetic the sweep uses for speed.
_EXPANSION_LIMIT = (1 << 31) - 1


# ---------------------------------------------------------------------------
# The masked multi-source sweep
# ---------------------------------------------------------------------------


def _expand(indptr, indices, node, degs):
    """One frontier expansion: all neighbors of the ``node`` entries, flat.

    ``degs`` are the entries' degrees; callers repeat any per-entry
    column (owner, source) by them.  The neighbor indices are gathered
    straight from the CSR ``indices`` array.
    """
    total = int(degs.sum(dtype=_np.int64))
    if total > _EXPANSION_LIMIT:  # pragma: no cover - needs a >2^31 frontier
        raise ValueError(
            "frontier expansion exceeds 2^31 entries; "
            "lower block_budget to shrink the root blocks"
        )
    # Entry k's ports start at position cum[k] - degs[k] of the flat
    # output, so position p reads indices[p + starts[k] - cum[k] + degs[k]].
    shift = indptr[node]
    shift += degs
    shift -= degs.cumsum(dtype=indices.dtype)
    offsets = _np.arange(total, dtype=indices.dtype)
    offsets += shift.repeat(degs)
    return indices[offsets]


def _dedupe_sorted(key):
    """Sort ``key`` in place and drop duplicates (faster than np.unique)."""
    key.sort()
    keep = _np.empty(key.size, dtype=bool)
    keep[0] = True
    _np.not_equal(key[1:], key[:-1], out=keep[1:])
    return key.compress(keep)


class _Sweep:
    """The CSR arrays one sweep reads, shared by its root blocks.

    ``adj`` is the adjacency padded to the maximum degree ``Δ``, stored
    port-major (``adj[p, v]`` is port ``p`` of node ``v``) and filled past
    each degree with the node itself, so one ``take`` expands a whole
    frontier: a padding entry names a node of the current layer and is
    dropped as visited.  Only the meter's sweep builds it (``padded``), and
    only while padding at most doubles the table; otherwise ``adj`` is
    ``None`` and frontiers expand over the CSR.  A gather, which keeps its
    balls, does not: the table would add ``n·Δ`` int64 to its peak memory.
    ``rows`` (the nodes of nonzero degree) and their ``starts`` in
    ``indices`` are what the dense step reduces over.
    """

    __slots__ = ("indptr", "indices", "n", "degree", "max_degree", "adj", "_rows")

    def __init__(self, compiled, padded: bool) -> None:
        indptr, indices, _ids = compiled.np_csr()
        n = compiled.n
        self.indptr, self.indices, self.n = indptr, indices, n
        self.degree = degree = _np.diff(indptr)
        self.max_degree = width = compiled.max_degree
        self.adj = None
        if padded and n * width <= 2 * (indices.size + n):
            adj = _np.arange(n, dtype=_np.int64).repeat(width).reshape(n, width)
            adj[_np.arange(width) < degree[:, None]] = indices
            self.adj = _np.ascontiguousarray(adj.T)
        self._rows = None

    def rows(self):
        """``(rows, starts)``: the nodes of nonzero degree and their first
        ports, built on the first dense step."""
        if self._rows is None:
            rows = _np.flatnonzero(self.degree)
            self._rows = rows, self.indptr[rows]
        return self._rows


def _sparse_step(sweep, base, node, visited):
    """The next layer's keys ``owner·n + node`` by expansion of the
    frontier's (``base = owner·n``): every ``(owner, neighbor)`` minus the
    visited ones, sorted, deduplicated and marked visited."""
    if sweep.adj is not None:
        key = sweep.adj.take(node, axis=1)
        key += base
        key = key.ravel()
    else:
        degs = sweep.degree.take(node)
        key = base.repeat(degs)
        key += _expand(sweep.indptr, sweep.indices, node, degs)
    key = key.compress(~visited.take(key))
    if key.size:
        key = _dedupe_sorted(key)
        visited[key] = True
    return key


#: ``_BYTE_BITS[b]``: the eight bits of byte value ``b`` in ``packbits``
#: order (most significant first), as float64 for the weighted fold.
_BYTE_BITS = _np.unpackbits(
    _np.arange(256, dtype=_np.uint8)[:, None], axis=1
).astype(_np.float64)
#: ``_BYTE_POP[b]``: the number of set bits of byte value ``b``.
_BYTE_POP = _BYTE_BITS.sum(axis=1).astype(_np.uint8)


def _pack_rows(rows, block):
    """Pack the boolean ``(n, block)`` matrix ``rows`` into bit rows of
    whole 64-bit words (zero padding), so dense steps OR them word-wise."""
    packed = _np.packbits(rows, axis=1)
    out = _np.zeros((rows.shape[0], -(-block // 64) * 8), dtype=_np.uint8)
    out[:, : packed.shape[1]] = packed
    return out


def _bit_keys(bits, block):
    """The set bits of packed rows as ``(owner, node)``, owner-sorted."""
    n = bits.shape[0]
    key = _np.flatnonzero(_np.unpackbits(bits, axis=1, count=block).view(bool).T)
    owner = key // n
    return owner, key - owner * n


def _bit_entries(bits, block):
    """The set bits of packed rows as ``(owner, node)``, node-sorted: no
    transpose, for callers that do not need the owner order."""
    key = _np.flatnonzero(_np.unpackbits(bits, axis=1, count=block).view(bool))
    node = key // block
    return key - node * block, node


def _dense_step(sweep, bits, unseen):
    """The next layer as packed bit rows, by bit-parallel OR over the CSR.

    A node's row of the next layer is the OR of its neighbors' frontier
    rows — one ``bitwise_or.reduceat`` over the CSR, word-wise — less the
    bits still set in ``unseen``, which it then clears.  ``reduceat``
    returns the row itself for an empty segment and rejects a start past
    the end, so only the nodes of nonzero degree are reduced, and the
    other rows stay zero.
    """
    indptr, indices = sweep.indptr, sweep.indices
    rows, starts = sweep.rows()
    front = bits.view(_np.uint64)
    reach = _np.zeros_like(front)
    # Chunk the gathered neighbor rows so they stay within the mask budget.
    chunk = max(1, _MASK_BUDGET // front[0].nbytes)
    lo = 0
    while lo < rows.size:
        hi = int(_np.searchsorted(starts, int(starts[lo]) + chunk, "right"))
        hi = max(lo + 1, hi)
        first, last = int(starts[lo]), int(indptr[rows[hi - 1] + 1])
        reach[rows[lo:hi]] = _np.bitwise_or.reduceat(
            front[indices[first:last]], starts[lo:hi] - first, axis=0
        )
        lo = hi
    free = unseen.view(_np.uint64)
    reach &= free
    free ^= reach
    return reach.view(_np.uint8)


#: a frontier is expanded with :func:`_dense_step` when its expansion count
#: ``Σ deg(frontier)`` exceeds this fraction of the block's ``block·n`` key
#: space; below it, sorting the expansion is cheaper than the passes over
#: the whole bit matrix.
_DENSE_FRACTION = 1 / 8


def _block_layers(sweep, roots_block, radius, visited):
    """Masked multi-source BFS for one block of roots, one layer at a time.

    Yields layer ``d`` (``d = 0`` is the roots) as ``(owner, node, layer)``.
    A sparse layer comes as keys: the block slot of each entry's root and
    its dense node index, int64, sorted by owner, then node, and ``layer``
    is their keys ``owner·n + node``.  A frontier whose expansion is dense
    (see :data:`_DENSE_FRACTION`) is stepped by :func:`_dense_step`, and the
    layers it yields come as ``(None, None, bits)``: packed node-major rows,
    bit ``o`` of row ``v`` set when ``v`` is at distance ``d`` from root
    ``o`` (:func:`_bit_keys` reads them as keys).  Through a run of dense
    layers the frontier and the unvisited keys stay packed, and they go
    back to keys once the frontier thins out again.

    A step from layer ``d`` reaches only layers ``d - 1`` to ``d + 1``, so
    each switch carries over just the last two layers: their keys are what
    the packed rows first mark visited, and what the mask gains on the way
    back.  ``visited`` is a reusable flat boolean mask of at least
    ``roots_block.size * n`` entries, indexed ``owner * n + node``, all
    ``False`` on entry and restored to ``False`` when the iterator ends or
    is closed: through the touched keys while they are few (rezeroing the
    whole mask per block would cost more than a sparse sweep), by one fill
    once they exceed 1/64 of it.
    """
    n = sweep.n
    block = roots_block.size
    span = block * n
    dense = _DENSE_FRACTION * span
    owner = _np.arange(block, dtype=_np.int64)
    node = roots_block.astype(_np.int64)
    base = owner * n
    key = base + node
    touched = [key]
    visited[key] = True
    prev = bits = unseen = None
    try:
        yield owner, node, key
        for _depth in range(radius):
            if bits is not None:
                load = sweep.degree @ _BYTE_POP.take(bits).sum(axis=1, dtype=_np.int64)
                if load <= dense:
                    # Back to keys: mark the last two layers visited.
                    p_owner, p_node = _bit_entries(prev, block)
                    owner, node = _bit_entries(bits, block)
                    base = owner * n
                    touched += [p_owner * n + p_node, base + node]
                    visited[touched[-2]] = True
                    visited[touched[-1]] = True
                    bits = unseen = None
            if bits is None:
                if (
                    node.size * sweep.max_degree <= dense
                    or sweep.degree.take(node).sum() <= dense
                ):
                    prev = owner, node
                    key = _sparse_step(sweep, base, node, visited)
                    if key.size == 0:
                        return
                    touched.append(key)
                    owner = key // n
                    base = owner * n
                    node = key - base
                    yield owner, node, key
                    continue
                seen = _np.zeros((n, block), dtype=bool)
                seen[node, owner] = True
                bits = _pack_rows(seen, block)
                if prev is not None:
                    seen[prev[1], prev[0]] = True
                unseen = _pack_rows(seen, block)
                _np.invert(unseen, out=unseen)
                unseen &= _pack_rows(_np.ones((1, block), dtype=bool), block)
            prev, bits = bits, _dense_step(sweep, bits, unseen)
            if not bits.any():
                return
            yield None, None, bits
    finally:
        if sum(key.size for key in touched) * 64 > span:
            visited[:span] = False
        else:
            for key in touched:
                visited[key] = False


def _sweep_block(sweep, roots_block, radius, visited):
    """The balls of one block of roots: its layers, grouped per owner.

    Returns ``(sizes, g_node, g_dist)``: per-owner ball sizes and the
    ball entries grouped per owner, distance-ordered within each owner.
    """
    block = roots_block.size
    dtype = sweep.indices.dtype
    layers = [
        (owner, node) if owner is not None else _bit_keys(layer, block)
        for owner, node, layer in _block_layers(sweep, roots_block, radius, visited)
    ]

    # Counting scatter: each layer is owner-sorted, so an entry's rank
    # within its (layer, owner) group is its position minus the group
    # start, and its final slot is the owner's base plus the entries of
    # earlier layers plus that rank.  No argsort needed.
    counts = [
        _np.bincount(own, minlength=block).astype(dtype) for own, _ in layers
    ]
    sizes = counts[0].copy()
    for bc in counts[1:]:
        sizes += bc
    fill = _np.cumsum(sizes, dtype=dtype) - sizes
    total = int(_np.sum(sizes, dtype=_np.int64))
    g_node = _np.empty(total, dtype=dtype)
    g_dist = _np.empty(total, dtype=dtype)
    for depth, ((own, node), bc) in enumerate(zip(layers, counts)):
        group_starts = _np.cumsum(bc, dtype=dtype) - bc
        dest = _np.arange(own.size, dtype=dtype) - group_starts[own] + fill[own]
        g_node[dest] = node
        g_dist[dest] = depth
        fill += bc
    return sizes, g_node, g_dist


def _extract_edges(compiled, roots, ball_indptr, ball_nodes, ball_dists, radius, block):
    """Visible edges of every ball, grouped per owner (lazy half of the sweep).

    Expands every *interior* ball entry (distance ``< radius``) one hop.
    Every neighbor of an interior node is within distance ``radius`` by
    the triangle inequality, hence always inside the ball, so the only
    filter is the dedupe rule that keeps interior–interior edges exactly
    once (from the endpoint with the smaller CSR index).  Returns
    ``(edge_indptr, edge_lo, edge_hi)`` with ``ids[lo] < ids[hi]``.
    """
    n = compiled.n
    indptr, indices, ids = compiled.np_csr()
    dtype = indices.dtype
    nroots = int(roots.size)
    e_count_parts: List = []
    e_lo_parts: List = []
    e_hi_parts: List = []
    if nroots and ball_nodes.size:
        interior_flat = _np.zeros(min(block, nroots) * n, dtype=bool)
        for start in range(0, nroots, block):
            stop = min(start + block, nroots)
            lo, hi = int(ball_indptr[start]), int(ball_indptr[stop])
            seg_sizes = _np.diff(ball_indptr[start : stop + 1]).astype(dtype)
            g_owner = _np.repeat(
                _np.arange(stop - start, dtype=dtype), seg_sizes
            )
            g_node = ball_nodes[lo:hi]
            interior = ball_dists[lo:hi] < radius
            i_owner, i_node = g_owner[interior], g_node[interior]
            ikey = i_owner * n + i_node
            interior_flat[ikey] = True
            degs = indptr[i_node + 1] - indptr[i_node]
            nbr = _expand(indptr, indices, i_node, degs)
            if nbr.size:
                own = i_owner.repeat(degs)
                src = i_node.repeat(degs)
                keep = interior_flat[own * n + nbr]
                _np.logical_not(keep, out=keep)
                _np.logical_or(keep, src < nbr, out=keep)
                own, src, nbr = own[keep], src[keep], nbr[keep]
                swap = ids[src] > ids[nbr]
                e_lo_parts.append(_np.where(swap, nbr, src))
                e_hi_parts.append(_np.where(swap, src, nbr))
                e_count_parts.append(
                    _np.bincount(own, minlength=stop - start)
                )
            else:
                e_count_parts.append(
                    _np.zeros(stop - start, dtype=_np.int64)
                )
            interior_flat[ikey] = False
    else:
        e_count_parts.append(_np.zeros(nroots, dtype=_np.int64))

    edge_indptr = _np.zeros(nroots + 1, dtype=_np.int64)
    _np.cumsum(_concat(e_count_parts), out=edge_indptr[1:])
    return edge_indptr, _concat(e_lo_parts, dtype), _concat(e_hi_parts, dtype)


def _concat(parts, dtype=None):
    if not parts:
        return _np.empty(0, dtype=dtype if dtype is not None else _np.int64)
    if len(parts) == 1:
        return parts[0]
    return _np.concatenate(parts)


def gather_ball_batch(
    graph: LocalGraph,
    radius: int,
    advice: Optional[Mapping[Node, str]] = None,
    roots: Optional[Sequence[int]] = None,
    stats=None,
    block_budget: int = _MASK_BUDGET,
) -> "BallBatch":
    """Extract the radius-``radius`` balls of ``roots`` in flat arrays.

    ``roots`` are dense CSR indices (default: every node, in compiled
    order).  ``stats`` (a :class:`repro.perf.SimStats`) is charged the same
    ``views_gathered`` / ``bfs_node_visits`` the scalar engine would count
    — one view per root, one visit per ball entry — so telemetry and
    perf-history entries stay engine-independent.  Edge extraction is
    deferred until a view's ``edges`` field is first touched.  A sweep
    over every root (``roots=None``) also leaves its arrays on the
    snapshot as a :class:`BallSweep`, unless the one there covers
    ``radius``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    compiled = graph.compiled
    n = compiled.n
    indptr, indices, _ids = compiled.np_csr()
    dtype = indices.dtype
    if roots is None:
        root_arr = _np.arange(n, dtype=dtype)
    else:
        root_arr = _np.asarray(roots, dtype=dtype)
        if root_arr.size and (root_arr.min() < 0 or root_arr.max() >= n):
            raise ValueError("roots must be dense CSR indices in [0, n)")

    block = max(1, block_budget // max(n, 1))
    size_parts: List = []
    node_parts: List = []
    dist_parts: List = []
    if root_arr.size:
        visited = _np.zeros(min(block, root_arr.size) * n, dtype=bool)
        sweep = _Sweep(compiled, padded=False)
        for start in range(0, root_arr.size, block):
            sizes, g_node, g_dist = _sweep_block(
                sweep, root_arr[start : start + block], radius, visited
            )
            size_parts.append(sizes)
            node_parts.append(g_node)
            dist_parts.append(g_dist)

    ball_indptr = _np.zeros(root_arr.size + 1, dtype=_np.int64)
    _np.cumsum(_concat(size_parts, dtype), out=ball_indptr[1:])
    ball_nodes = _concat(node_parts, dtype)
    ball_dists = _concat(dist_parts, dtype)

    if roots is None:
        held = compiled._np_balls
        if held is None or not held.covers(radius):
            compiled._np_balls = BallSweep(radius, ball_indptr, ball_nodes, ball_dists)

    if stats is not None:
        stats.views_gathered += int(root_arr.size)
        stats.bfs_node_visits += int(ball_nodes.size)

    return BallBatch(
        graph=graph,
        compiled=compiled,
        radius=radius,
        advice=advice or {},
        roots=root_arr,
        ball_indptr=ball_indptr,
        ball_nodes=ball_nodes,
        ball_dists=ball_dists,
        block=block,
    )


class BallSweep:
    """The flat balls of every node, kept on the snapshot they were swept on.

    An all-roots :func:`gather_ball_batch` stores its arrays here
    (``CompiledGraph._np_balls``), so a later reader of the same balls —
    the flooding meter of :mod:`repro.obs.bandwidth` — folds them instead
    of sweeping again.  The arrays are shared with the batch, not copied.
    A snapshot derived by a mutation starts without one.
    """

    __slots__ = ("radius", "depth", "indptr", "nodes", "dists", "_cells")

    def __init__(self, radius: int, indptr, nodes, dists) -> None:
        self.radius = radius
        self.indptr, self.nodes, self.dists = indptr, nodes, dists
        # One past the deepest layer reached.  Balls that stop short of
        # the radius are whole components, so they are also the balls of
        # every larger radius.
        self.depth = int(dists.max()) + 1 if dists.size else 0
        self._cells = None

    def covers(self, radius: int) -> bool:
        """Whether the radius-``radius`` balls are these balls' first layers."""
        return radius <= self.radius or self.depth <= self.radius

    def fold(self, weights):
        """``M[i, d]``: the summed ``weights`` (one per node) of the nodes
        at distance exactly ``d`` from node ``i``, shape ``(n, depth)``.

        One weighted ``bincount`` over each entry's ``root·depth + dist``
        cell; a ``BallSweep`` builds its cells on first use.
        """
        n = weights.size
        if self._cells is None:
            cells = _np.repeat(
                _np.arange(n, dtype=_np.int64), _np.diff(self.indptr)
            )
            cells *= self.depth
            cells += self.dists
            self._cells = cells
        return _np.bincount(
            self._cells, weights=weights[self.nodes], minlength=n * self.depth
        ).reshape(n, self.depth)


class FloodLayers(BallSweep):
    """The BFS layers of every node, kept as :func:`fold_layers` swept them.

    Per root block, sparse layers stay as their int32 keys ``owner·n +
    node`` and dense layers as packed bit rows: four bytes per sparse entry
    and one bit per dense one.  A later meter call on the same snapshot
    folds its weights over these layers instead of sweeping again: the
    first such call flattens them into per-entry nodes and ``root·depth +
    dist`` cells (and drops the compact form), so that call and every one
    after it is one weighted ``bincount``, as for a :class:`BallSweep`.
    """

    __slots__ = ("_blocks",)

    def __init__(self, radius: int, depth: int, blocks) -> None:
        self.radius, self.depth = radius, depth
        self.nodes = self._cells = None
        self._blocks = blocks

    def _flatten(self, n: int) -> None:
        """Sparse layers give one cell per key.  A block's dense layers give
        one cell per ``(node, root)`` pair of the block: its distance where
        a dense layer holds it, else the spare cell ``n·depth`` past the
        matrix, which :meth:`fold` drops."""
        depth = self.depth
        spare = n * depth
        nodes, cells = [], []
        for start, size, layers in self._blocks:
            cell = None
            for d, layer in enumerate(layers):
                if layer.ndim == 1:
                    key = layer.astype(_np.int64)
                    owner = key // n
                    nodes.append(key - owner * n)
                    owner += start
                    owner *= depth
                    owner += d
                    cells.append(owner)
                    continue
                if cell is None:
                    cell = _np.full((n, size), spare, dtype=_np.int64)
                reached = _np.unpackbits(layer, axis=1, count=size)
                cell -= _np.multiply(reached, spare - d, dtype=_np.int64)
            if cell is not None:
                cell += _np.arange(start * depth, (start + size) * depth, depth)
                _np.minimum(cell, spare, out=cell)
                nodes.append(_np.arange(n, dtype=_np.int32).repeat(size))
                cells.append(cell.ravel())
        self.nodes = _concat(nodes, _np.int64)
        self._cells = _concat(cells, _np.int64)
        self._blocks = None

    def fold(self, weights):
        n, depth = weights.size, self.depth
        if self._cells is None:
            self._flatten(n)
        sums = _np.bincount(
            self._cells, weights=weights.take(self.nodes), minlength=n * depth + 1
        )
        return sums[: n * depth].reshape(n, depth)


def _fold_bits(bits, spread, block):
    """Per owner, the summed weights of the nodes whose packed row has the
    owner's bit set: the fold of one dense layer.

    A byte histogram: byte ``b`` in column ``j`` of node ``v``'s row adds
    ``v``'s weight to bin ``256·j + b`` (``spread`` is the weights repeated
    once per column), one weighted ``bincount`` per layer; each column's
    256 bins times the bits of their byte values give its eight owners'
    sums.  The weights are integers whose sums stay below 2^53, so every
    float64 sum is exact in any order.
    """
    width = bits.shape[1]
    cell = _np.add(bits, _np.arange(0, 256 * width, 256), dtype=_np.intp)
    hist = _np.bincount(cell.ravel(), weights=spread, minlength=256 * width)
    return (hist.reshape(width, 256) @ _BYTE_BITS).ravel()[:block]


def fold_layers(graph: LocalGraph, radius: int, weights):
    """``(M, layers)``: ``M[i, d]`` sums ``weights`` (one integer-valued
    float per node) over the nodes at distance exactly ``d <= radius`` from
    node ``i``, and ``layers`` are the swept layers as :class:`FloodLayers`.

    The masked multi-source sweep of :func:`gather_ball_batch`, over every
    root in blocks of the mask budget, folds each layer into its column of
    ``M`` as it comes out: a sparse layer by one ``bincount`` of its owners
    weighted by its nodes' weights, a dense one by :func:`_fold_bits`.  No
    per-entry array outlives its layer, and ``M`` is never wider than the
    deepest layer.
    """
    n = graph.compiled.n
    sweep = _Sweep(graph.compiled, padded=True)
    block = max(1, _MASK_BUDGET // max(n, 1))
    visited = _np.zeros(min(block, n) * n, dtype=bool)
    spread = {}
    blocks, columns = [], []
    for start in range(0, n, block):
        roots = _np.arange(start, min(start + block, n))
        layers, cols = [], []
        for owner, node, layer in _block_layers(sweep, roots, radius, visited):
            if owner is not None:
                layers.append(layer.astype(_np.int32))
                cols.append(
                    _np.bincount(owner, weights=weights.take(node), minlength=roots.size)
                )
            else:
                layers.append(layer)
                width = layer.shape[1]
                if width not in spread:
                    spread[width] = weights.repeat(width)
                cols.append(_fold_bits(layer, spread[width], roots.size))
        blocks.append((start, roots.size, layers))
        columns.append(cols)
    depth = max(map(len, columns), default=0)
    sums = _np.zeros((n, depth))
    for (start, size, _), cols in zip(blocks, columns):
        for d, col in enumerate(cols):
            sums[start : start + size, d] = col
    return sums, FloodLayers(radius, depth, blocks)


# ---------------------------------------------------------------------------
# The batch container and its lazy columns
# ---------------------------------------------------------------------------


def _read_now(mapping: Mapping[Node, object], nodes, ball) -> Dict[int, object]:
    """Dense index -> value of every ball member ``mapping`` holds a value
    (not ``None``) for, read now: the columns are built later, perhaps
    after the map was edited.  A batch of a few balls of a large graph
    reads its ball members only — an O(n) pass per batch is the very
    scaling the serving path's per-query O(Δ^T) bound rules out."""
    if not mapping:
        return {}
    get = mapping.get
    members = range(len(nodes)) if ball.size >= len(nodes) else _np.unique(ball).tolist()
    return {i: x for i in members if (x := get(nodes[i])) is not None}


class BallBatch(Balls):
    """Flat-array radius-``T`` balls of many roots, with lazy columns.

    The numpy arrays are the authoritative state; the Python-object
    columns of :class:`~repro.local.views.Balls` (node objects,
    identifiers, advice strings, ...) are converted lazily, once per
    batch, the first time any view touches the matching field — so the
    conversion cost is amortized over every view in the batch and skipped
    entirely for fields no decoder reads.  Edge arrays are extracted from
    the CSR on first use (the sweep only records balls and distances).
    The batch holds the snapshot it swept and the advice and inputs as
    they were at gather time.
    """

    __slots__ = (
        "advice",
        "inputs",
        "roots",
        "ball_indptr",
        "ball_nodes",
        "ball_dists",
        "_block",
        "_edges",
    )

    def __init__(
        self,
        graph: LocalGraph,
        compiled,
        radius: int,
        advice: Mapping[Node, str],
        roots,
        ball_indptr,
        ball_nodes,
        ball_dists,
        block: int,
    ) -> None:
        self.compiled = compiled
        self.radius = radius
        # Advice and inputs by dense index, as they are at gather time.
        self.advice = _read_now(advice, compiled.nodes, ball_nodes)
        self.inputs = _read_now(graph._inputs, compiled.nodes, ball_nodes)
        self.roots = roots
        self.ball_indptr = ball_indptr
        self.ball_nodes = ball_nodes
        self.ball_dists = ball_dists
        # Plain-list pointer table: LazyView slices it on every field
        # materialization, and Python ints are cheaper than numpy scalars.
        self.ball_ptr = ball_indptr.tolist()
        self.graph_n = graph.n
        self.graph_max_degree = graph.max_degree
        self._block = block
        self._edges: Optional[Tuple] = None
        self._cols: Dict[str, object] = {}

    def __len__(self) -> int:
        return int(self.roots.size)

    # -- lazy edge arrays ----------------------------------------------------

    def edge_arrays(self):
        """``(edge_indptr, edge_lo, edge_hi)``, extracted on first use."""
        if self._edges is None:
            self._edges = _extract_edges(
                self.compiled,
                self.roots,
                self.ball_indptr,
                self.ball_nodes,
                self.ball_dists,
                self.radius,
                self._block,
            )
        return self._edges

    # -- lazy columns (see Balls for the names) ------------------------------

    def _build_node(self) -> list:
        nodes = self.compiled.nodes
        return [nodes[i] for i in self.ball_nodes.tolist()]

    def _build_dist(self) -> list:
        return self.ball_dists.tolist()

    def _build_id(self) -> list:
        ids = self.compiled.ids
        return [ids[i] for i in self.ball_nodes.tolist()]

    def _build_advice(self) -> list:
        advice = self.advice
        return [advice.get(i, "") for i in self.ball_nodes.tolist()]

    def _build_input(self) -> Optional[list]:
        inputs = self.inputs
        if not inputs:
            return None  # sentinel: every input is None, use dict.fromkeys
        return [inputs.get(i) for i in self.ball_nodes.tolist()]

    def _build_holders(self) -> Tuple[list, list]:
        compiled = self.compiled
        nodes, ball = compiled.nodes, self.ball_nodes
        bits = {i: b for i, b in self.advice.items() if b}
        mask = _np.zeros(len(nodes), dtype=bool)
        mask[_np.fromiter(bits, _np.intp, len(bits))] = True
        held = mask[ball]
        # Only holder entries leave numpy.  Each root's entries are
        # contiguous, so ordering by (root, distance, id) sorts every
        # root's holders in place and keeps the roots' ranges.
        sel = _np.flatnonzero(held)
        ptr = _np.searchsorted(sel, self.ball_indptr).tolist()
        owner = _np.searchsorted(self.ball_indptr, sel, side="right")
        idx = ball[sel]
        dist = self.ball_dists[sel]
        ident = compiled.np_csr()[2][idx]
        order = _np.lexsort((ident, dist, owner))
        entries = [
            (d, k, nodes[i], bits[i])
            for d, k, i in zip(
                dist[order].tolist(), ident[order].tolist(), idx[order].tolist()
            )
        ]
        return ptr, entries

    def _build_edge_ptr(self) -> list:
        return self.edge_arrays()[0].tolist()

    def _build_edge(self) -> list:
        nodes = self.compiled.nodes
        _, lo, hi = self.edge_arrays()
        return [(nodes[a], nodes[b]) for a, b in zip(lo.tolist(), hi.tolist())]

    def _build_center_advice(self) -> list:
        advice = self.advice
        return [advice.get(r, "") for r in self.roots.tolist()]

    def _build_center_id(self) -> list:
        ids = self.compiled.ids
        return [ids[r] for r in self.roots.tolist()]

    def _build_center_input(self) -> list:
        inputs = self.inputs
        return [inputs.get(r) for r in self.roots.tolist()]

    # -- view materialization ------------------------------------------------

    def view(self, slot: int) -> LazyView:
        """The lazy :class:`View` of the root in ``slot`` (0-based)."""
        return LazyView(self, slot, self.compiled.nodes[int(self.roots[slot])])

    def views(self) -> Dict[Node, LazyView]:
        """All views of the batch, keyed by root node (roots order)."""
        nodes = self.compiled.nodes
        return {
            nodes[root]: LazyView(self, slot, nodes[root])
            for slot, root in enumerate(self.roots.tolist())
        }


def gather_views_batched(
    graph: LocalGraph,
    radius: int,
    advice: Optional[Mapping[Node, str]] = None,
    stats=None,
    tracer=None,
    roots: Optional[Sequence[int]] = None,
) -> Dict[Node, View]:
    """Vectorized drop-in for :func:`repro.local.views.gather_all_views`.

    Same contract (and the same stamped ``gather`` span when a tracer is
    attached); the returned views are :class:`~repro.local.views.LazyView`
    objects backed by one :class:`BallBatch`.
    """
    if stats is None:
        stats = SimStats()
    with stats.span(
        as_tracer(tracer), "gather", radius=radius, n=graph.n, engine="vectorized"
    ):
        return gather_ball_batch(
            graph, radius, advice=advice, roots=roots, stats=stats
        ).views()
