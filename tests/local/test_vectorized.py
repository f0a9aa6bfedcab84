"""The vectorized engine must agree exactly with per-node BFS gathering.

The batch sweep (:mod:`repro.local.vectorized`) returns
:class:`~repro.local.views.LazyView` objects backed by one ``BallBatch``;
every field, accessor, and derived signature must match the scalar
:func:`gather_view` result — on fixed families, on
random graphs/radii via hypothesis, through chunked ``roots=`` subsets,
and under artificially small block budgets that force the multi-block
mask path.  Work counters must match the scalar engine exactly (the
perf-history drift gate pins them).
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import binary_tree, cycle, grid
from repro.local import LocalGraph, gather_all_views, gather_view
from repro.local.vectorized import gather_ball_batch, gather_views_batched
from repro.perf import SimStats


def _families():
    isolated = nx.Graph([(0, 1), (2, 3)])
    isolated.add_nodes_from([7, 8])
    return [
        ("grid", grid(5, 6)),
        ("tree", binary_tree(4)),
        ("cycle", cycle(15)),
        ("random", nx.gnp_random_graph(25, 0.15, seed=2)),
        ("isolated", isolated),
        ("empty", nx.Graph()),
    ]


FAMILIES = _families()


def _advice_for(graph: LocalGraph):
    return {v: ("1" if graph.id_of(v) % 3 == 0 else "") for v in graph.nodes()}


@pytest.mark.parametrize("name,raw", FAMILIES, ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("radius", [0, 1, 2, 4])
class TestBatchMatchesScalar:
    def test_views_equal(self, name, raw, radius):
        graph = LocalGraph(raw, seed=3)
        advice = _advice_for(graph)
        scalar = gather_all_views(graph, radius, advice=advice)
        batched = gather_views_batched(graph, radius, advice=advice)
        assert set(batched) == set(scalar)
        for v, view in scalar.items():
            assert batched[v] == view
            assert batched[v].materialize() == view
            assert batched[v].order_signature() == view.order_signature()

    def test_counters_match_scalar(self, name, raw, radius):
        graph = LocalGraph(raw, seed=3)
        s_stats, b_stats = SimStats(), SimStats()
        gather_all_views(graph, radius, stats=s_stats)
        gather_ball_batch(graph, radius, stats=b_stats)
        assert b_stats.views_gathered == s_stats.views_gathered
        assert b_stats.bfs_node_visits == s_stats.bfs_node_visits


class TestLazyViews:
    def _setup(self):
        graph = LocalGraph(grid(6, 6), seed=1, inputs={(0, 0): "x", (2, 3): "y"})
        advice = _advice_for(graph)
        return graph, advice

    def test_center_fast_paths_before_and_after_materialization(self):
        graph, advice = self._setup()
        batched = gather_views_batched(graph, 2, advice=advice)
        for v, view in gather_all_views(graph, 2, advice=advice).items():
            lazy = batched[v]
            # before any field is materialized: O(1) center columns
            assert lazy.advice_of(v) == view.advice_of(v)
            assert lazy.distance(v) == 0
            assert lazy.id_of(v) == view.id_of(v)
            assert lazy.input_of(v) == view.input_of(v)
            # after: served from the same dicts the scalar engine builds
            assert lazy.advice == view.advice
            assert lazy.advice_of(v) == view.advice_of(v)
            assert lazy.input_of(v) == view.input_of(v)

    def test_views_are_immutable(self):
        graph, advice = self._setup()
        lazy = next(iter(gather_views_batched(graph, 2, advice=advice).values()))
        with pytest.raises(Exception):
            lazy.center = None

    def test_non_center_accessors(self):
        graph, advice = self._setup()
        batched = gather_views_batched(graph, 2, advice=advice)
        scalar = gather_all_views(graph, 2, advice=advice)
        for v, view in scalar.items():
            lazy = batched[v]
            for u in view.nodes:
                assert lazy.distance(u) == view.distance(u)
                assert lazy.id_of(u) == view.id_of(u)
                assert lazy.has_edge(u, u) == view.has_edge(u, u)

    def test_roots_subset_and_chunking(self):
        graph, advice = self._setup()
        full = gather_views_batched(graph, 3, advice=advice)
        n = graph.n
        for lo, hi in [(0, 5), (5, 20), (20, n)]:
            part = gather_ball_batch(
                graph, 3, advice=advice, roots=range(lo, hi)
            ).views()
            assert len(part) == hi - lo
            for v, view in part.items():
                assert view == full[v]

    def test_bad_roots_rejected(self):
        graph, _ = self._setup()
        with pytest.raises(ValueError):
            gather_ball_batch(graph, 1, roots=[graph.n])
        with pytest.raises(ValueError):
            gather_ball_batch(graph, 1, roots=[-1])
        with pytest.raises(ValueError):
            gather_ball_batch(graph, -1)

    def test_small_block_budget_forces_multiblock(self):
        graph, advice = self._setup()
        full = gather_views_batched(graph, 3, advice=advice)
        small = gather_ball_batch(
            graph, 3, advice=advice, block_budget=graph.n * 2
        ).views()
        for v, view in small.items():
            assert view == full[v]
            assert view.edges == full[v].edges  # lazy edges across blocks


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=28),
    p=st.floats(min_value=0.0, max_value=0.35),
    radius=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_batched_equals_per_node_bfs(n, p, radius, seed):
    """On random graphs and radii, batch extraction == per-node BFS."""
    raw = nx.gnp_random_graph(n, p, seed=seed)
    graph = LocalGraph(raw, seed=seed)
    advice = {v: ("1" if (graph.id_of(v) + seed) % 4 == 0 else "") for v in raw}
    batched = gather_views_batched(graph, radius, advice=advice)
    assert set(batched) == set(graph.nodes())
    for v in graph.nodes():
        reference = gather_view(graph, v, radius, advice=advice)
        assert batched[v] == reference
        assert batched[v].materialize() == reference
