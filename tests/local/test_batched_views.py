"""Cross-checks: batched gathering and memoized decisions vs the reference.

``gather_all_views`` must produce exactly the ``View`` that per-node
``gather_view`` produces (same frozensets, same mappings), and memoized
runs of order-invariant algorithms must produce exactly the outputs of the
un-memoized path — on random graphs, trees, grids, and graphs with
isolated nodes.  A hypothesis property test checks the soundness contract
behind memoization: equal order signatures never separate the outputs of
an order-invariant algorithm.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import binary_tree, cycle, grid
from repro.local import (
    LocalGraph,
    gather_all_views,
    gather_view,
    mark_order_invariant,
    run_view_algorithm,
)
from repro.lower_bounds import canonicalize


def _families():
    isolated = nx.Graph([(0, 1), (2, 3)])
    isolated.add_nodes_from([7, 8])
    return [
        ("grid", grid(5, 6)),
        ("tree", binary_tree(4)),
        ("cycle", cycle(15)),
        ("random", nx.gnp_random_graph(25, 0.15, seed=2)),
        ("isolated", isolated),
    ]


FAMILIES = _families()


@pytest.mark.parametrize("name,raw", FAMILIES, ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_gather_all_views_equals_per_node(name, raw, radius):
    g = LocalGraph(raw, seed=5, inputs={v: str(v) for v in raw.nodes()})
    advice = {v: "1" if g.id_of(v) % 3 == 0 else "" for v in g.nodes()}
    batched = gather_all_views(g, radius, advice=advice)
    assert set(batched) == set(g.nodes())
    for v in g.nodes():
        single = gather_view(g, v, radius, advice=advice)
        assert batched[v] == single  # exact dataclass equality, field by field


@pytest.mark.parametrize("name,raw", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_memoized_outputs_equal_unmemoized(name, raw):
    g = LocalGraph(raw, seed=6)

    def decide(view):
        ranked = sorted(view.nodes, key=view.id_of)
        return (len(view.nodes), tuple(view.distance(v) for v in ranked))

    invariant = canonicalize(decide)
    plain = run_view_algorithm(g, 2, invariant, memoize=False)
    memoized = run_view_algorithm(g, 2, invariant, memoize=True)
    assert memoized.outputs == plain.outputs
    stats = memoized.stats
    assert stats.view_cache_hits + stats.view_cache_misses == g.n
    assert stats.decide_calls == stats.view_cache_misses


def test_marked_decider_decides_every_view_unless_memoized():
    g = LocalGraph(cycle(20), seed=7)
    calls = []

    @mark_order_invariant
    def decide(view):
        calls.append(view.center)
        return len(view.nodes)

    result = run_view_algorithm(g, 1, decide)
    assert result.outputs == {v: 3 for v in g.nodes()}
    # The mark declares order-invariance; it does not switch the memo on.
    assert sorted(calls) == sorted(g.nodes())
    assert result.stats.decide_calls == g.n
    assert result.stats.view_cache_hits == result.stats.view_cache_misses == 0

    calls.clear()
    memoized = run_view_algorithm(g, 1, decide, memoize=True)
    assert memoized.outputs == result.outputs
    # All radius-1 cycle views share one of a few order classes, so the
    # opted-in run decides far fewer than n views.
    assert len(calls) < g.n
    assert memoized.stats.view_cache_hits > 0


def test_unmarked_functions_never_memoize():
    g = LocalGraph(cycle(10), seed=8)
    result = run_view_algorithm(g, 1, lambda view: len(view.nodes))
    assert result.stats.view_cache_hits == 0
    assert result.stats.decide_calls == g.n


def test_stats_populated():
    g = LocalGraph(grid(4, 4), seed=9)
    result = run_view_algorithm(g, 2, lambda view: view.radius)
    stats = result.stats
    assert stats.views_gathered == g.n
    assert stats.bfs_node_visits >= g.n  # every sweep visits at least itself
    assert stats.decide_calls == g.n
    assert stats.engine == "scalar"  # 16 roots: below auto's cut-off


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=14),
    p=st.floats(min_value=0.0, max_value=0.5),
    graph_seed=st.integers(min_value=0, max_value=10_000),
    id_seed=st.integers(min_value=0, max_value=10_000),
    radius=st.integers(min_value=0, max_value=3),
)
def test_order_signature_collisions_never_change_outputs(
    n, p, graph_seed, id_seed, radius
):
    """Soundness of the memoization key on random graphs.

    For any order-invariant algorithm, views with equal
    ``order_signature()`` must map to equal outputs — otherwise the cache
    would silently corrupt a run.
    """
    raw = nx.gnp_random_graph(n, p, seed=graph_seed)
    g = LocalGraph(raw, seed=id_seed)
    advice = {v: str(g.id_of(v) % 2) for v in g.nodes()}

    def decide(view):
        ranked = sorted(view.nodes, key=view.id_of)
        return (
            tuple(view.distance(v) for v in ranked),
            tuple(view.advice_of(v) for v in ranked),
            tuple(tuple(sorted(ranked.index(u) for u in view.neighbors(v))) for v in ranked),
        )

    invariant = canonicalize(decide)
    by_signature = {}
    for v, view in gather_all_views(g, radius, advice=advice).items():
        key = view.order_signature()
        output = invariant(view)
        if key in by_signature:
            assert by_signature[key] == output, (
                f"signature collision changed output at node {v!r}"
            )
        else:
            by_signature[key] = output
