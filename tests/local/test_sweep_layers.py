"""The layer iterator must give the sparse-only sweep's balls exactly.

Each BFS layer of the vectorized sweep is expanded either by sorting the
frontier's expansion (the sparse step) or by a bit-parallel OR over the
CSR rows (the dense step), chosen from the frontier's density.  The
oracle below is the sparse-only block sweep the engine ran before the
dense step existed; the gather's arrays and the flooding meter's
profiles (CONGEST overflow attribution included) must equal what it
gives, on dense and sparse graphs, with isolated nodes at either end of
the CSR, at block sizes that are not multiples of 8 or 64, over many
blocks, and from radius 0 to past the diameter.
"""

from contextlib import contextmanager
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import cycle, grid
from repro.local import LocalGraph
from repro.local import vectorized as V
from repro.obs.bandwidth import CONGEST, BandwidthExceeded, flooding_bandwidth


def _oracle_block(indptr, indices, n, roots_block, radius):
    """Per-owner ball sizes, nodes and distances of one root block: a
    sort-deduplicated expansion per layer, grouped by a stable sort."""
    block = roots_block.size
    visited = np.zeros(block * n, dtype=bool)
    owner = np.arange(block, dtype=np.int64)
    node = roots_block.astype(np.int64)
    keys = [owner * n + node]
    visited[keys[0]] = True
    for _ in range(radius):
        starts, stops = indptr[node], indptr[node + 1]
        degs = stops - starts
        nbr = np.concatenate(
            [indices[a:b] for a, b in zip(starts, stops)] or [np.empty(0, np.int64)]
        ).astype(np.int64)
        key = owner.repeat(degs) * n + nbr
        key = np.unique(key[~visited[key]])
        if key.size == 0:
            break
        visited[key] = True
        keys.append(key)
        owner, node = np.divmod(key, n)
    dist = np.concatenate([np.full(k.size, d) for d, k in enumerate(keys)])
    flat = np.concatenate(keys)
    order = np.argsort(flat // n, kind="stable")
    sizes = np.bincount(flat // n, minlength=block)
    return sizes, (flat % n)[order], dist[order]


def _oracle_balls(graph, radius, block):
    indptr, indices, _ids = graph.compiled.np_csr()
    n = graph.n
    parts = [
        _oracle_block(indptr, indices, n, np.arange(s, min(s + block, n)), radius)
        for s in range(0, n, block)
    ]
    ball_indptr = np.zeros(n + 1, dtype=np.int64)
    if parts:
        np.cumsum(np.concatenate([p[0] for p in parts]), out=ball_indptr[1:])
    nodes = np.concatenate([p[1] for p in parts] or [np.empty(0, np.int64)])
    dists = np.concatenate([p[2] for p in parts] or [np.empty(0, np.int64)])
    return ball_indptr, nodes, dists


@contextmanager
def _checked_sweeps(budget):
    """Sweep with a ``budget``-sized mask, and check after every block
    that the iterator left the visited mask all ``False``."""
    real = V._block_layers

    def checked(sweep, roots_block, radius, visited):
        yield from real(sweep, roots_block, radius, visited)
        assert not visited.any()

    with mock.patch.object(V, "_MASK_BUDGET", budget), mock.patch.object(
        V, "_block_layers", checked
    ):
        yield


@st.composite
def _cases(draw):
    """A dense gnp graph, a cycle or a grid, with isolated nodes before
    and after it in CSR order, advice, a radius from 0 to past the
    diameter, and a root-block size."""
    family = draw(st.sampled_from(["gnp", "cycle", "grid"]))
    if family == "gnp":
        size = draw(st.integers(1, 40))
        base = nx.gnp_random_graph(
            size, draw(st.floats(0.3, 1.0)), seed=draw(st.integers(0, 999))
        )
    elif family == "cycle":
        base = cycle(draw(st.integers(3, 40)))
    else:
        base = grid(draw(st.integers(1, 7)), draw(st.integers(2, 9)))
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    raw = nx.Graph()
    raw.add_nodes_from(range(lead))
    raw.add_edges_from((lead + u, lead + v) for u, v in base.edges())
    raw.add_nodes_from(range(lead, lead + base.number_of_nodes() + trail))
    graph = LocalGraph(raw, seed=draw(st.integers(0, 99)))
    n = graph.n
    holders = draw(st.sets(st.sampled_from(range(n))))
    advice = {v: "1" * draw(st.integers(0, 3)) for v in holders}
    radius = draw(st.integers(0, n + 2))
    block = draw(st.sampled_from([1, 3, 7, 9, 63, 65, n]))
    return raw, graph.ids(), advice, radius, max(1, min(block, n))


def _profile_or_overflow(graph, rounds, advice, policy=None):
    try:
        return flooding_bandwidth(graph, rounds, advice, policy=policy).as_dict()
    except BandwidthExceeded as exc:
        return ("overflow", exc.node, exc.edge, exc.round_index, exc.bits)


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_layers_equal_the_sparse_sweep(case):
    raw, ids, advice, radius, block = case
    graph = LocalGraph(raw, ids=ids)
    expected = _oracle_balls(graph, radius, block)
    with _checked_sweeps(block * graph.n):
        batch = V.gather_ball_batch(graph, radius, block_budget=block * graph.n)
        assert np.array_equal(batch.ball_indptr, expected[0])
        assert np.array_equal(batch.ball_nodes, expected[1])
        assert np.array_equal(batch.ball_dists, expected[2])

        # The meter: its own layer sweep against the oracle's balls.
        rounds = radius + 1
        metered = LocalGraph(raw, ids=ids)
        oracle = LocalGraph(raw, ids=ids)
        oracle.compiled._np_balls = V.BallSweep(radius, *expected)
        local = _profile_or_overflow(metered, rounds, advice)
        assert local == _profile_or_overflow(oracle, rounds, advice)
        assert metered.compiled._np_balls.radius == min(radius, graph.n)
        budget = local["min_congest_budget"]
        if budget > 1:
            policy = CONGEST(budget - 1)
            got = _profile_or_overflow(LocalGraph(raw, ids=ids), rounds, advice, policy)
            assert got[0] == "overflow"
            assert got == _profile_or_overflow(oracle, rounds, advice, policy)


def _steps(raw, radius):
    """``(dense, sparse)`` step counts of one all-roots gather."""
    counts = {"dense": 0, "sparse": 0}

    def spy(name):
        real = getattr(V, f"_{name}_step")

        def step(*args):
            counts[name] += 1
            return real(*args)

        return step

    with mock.patch.object(V, "_dense_step", spy("dense")), mock.patch.object(
        V, "_sparse_step", spy("sparse")
    ):
        V.gather_ball_batch(LocalGraph(raw, seed=1), radius)
    return counts["dense"], counts["sparse"]


@pytest.mark.parametrize(
    "raw,dense",
    [
        (nx.gnp_random_graph(60, 0.3, seed=4), True),
        (cycle(60), False),
    ],
    ids=["gnp", "cycle"],
)
def test_the_frontier_density_picks_the_step(raw, dense):
    # The property above is only as strong as the steps it reaches: a
    # dense graph's middle layers take the dense step, a cycle never does.
    dense_steps, sparse_steps = _steps(raw, 10)
    assert sparse_steps > 0
    assert (dense_steps > 0) == dense
