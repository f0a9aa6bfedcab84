"""Mutation API of :class:`LocalGraph` and epoch-based cache invalidation.

The churn runtime mutates a live graph in place.  Every topology-derived
cache must move past a mutation the moment an edge flips, or the decoder
would be served stale neighborhoods: the compiled CSR snapshot is derived
anew per mutation (copy-on-write, with no ``_np_csr`` / ``_np_flood`` /
``_np_balls`` sidecars and fresh BFS scratch), and memoized views
gathered from the old topology no longer match.  A
derived snapshot must equal a cold compile of the mutated graph field for
field, and a snapshot taken before the mutation must keep answering for
the old topology.
"""

import copy

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import cycle, grid
from repro.local.compiled import CompiledGraph
from repro.local.graph import LocalGraph, LocalGraphError
from repro.local.views import gather_view


def _fresh(n: int = 8) -> LocalGraph:
    return LocalGraph(cycle(n))


class TestMutators:
    def test_add_edge_updates_adjacency_and_degrees(self):
        g = _fresh()
        g.add_edge(0, 4)
        assert g.has_edge(0, 4)
        assert g.degree(0) == 3 and g.degree(4) == 3
        assert g.max_degree == 3
        assert g.m == 9

    def test_remove_edge_updates_adjacency_and_degrees(self):
        g = _fresh()
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.degree(0) == 1 and g.degree(1) == 1
        assert g.max_degree == 2
        assert g.m == 7

    def test_remove_edge_recomputes_max_degree(self):
        g = LocalGraph(grid(3, 3))
        center = 4  # the unique degree-4 node of a 3x3 grid
        assert g.max_degree == 4
        before = g.neighbors(center)[0]
        g.remove_edge(center, before)
        assert g.max_degree == 3

    def test_add_node_with_attachments(self):
        g = _fresh()
        old_ids = set(g.ids().values())
        g.add_node(99, neighbors=[0, 2])
        assert g.n == 9
        assert g.has_edge(99, 0) and g.has_edge(99, 2)
        assert g.degree(99) == 2
        new_id = g.id_of(99)
        assert new_id == max(old_ids) + 1
        assert g.node_of(new_id) == 99

    def test_remove_node_returns_old_neighbors(self):
        g = _fresh()
        dropped = g.remove_node(3)
        assert sorted(dropped) == [2, 4]
        assert g.n == 7
        assert 3 not in g.nodes()
        assert g.degree(2) == 1 and g.degree(4) == 1
        with pytest.raises(KeyError):
            g.id_of(3)

    def test_remove_node_recomputes_max_degree(self):
        g = LocalGraph(grid(3, 3))
        g.remove_node(4)  # drop the unique degree-4 center
        assert g.max_degree == 2

    def test_mutator_validation(self):
        g = _fresh()
        with pytest.raises(LocalGraphError):
            g.add_edge(0, 0)
        with pytest.raises(LocalGraphError):
            g.add_edge(0, 1)  # already present
        with pytest.raises(LocalGraphError):
            g.add_edge(0, 123)  # unknown endpoint
        with pytest.raises(LocalGraphError):
            g.remove_edge(0, 4)  # not present
        with pytest.raises(LocalGraphError):
            g.add_node(0)  # already present
        with pytest.raises(LocalGraphError):
            g.add_node(50, neighbors=[77])  # unknown attachment
        with pytest.raises(LocalGraphError):
            g.add_node(50, node_id=g.id_of(0))  # duplicate identifier
        with pytest.raises(LocalGraphError):
            g.remove_node(123)


class TestEpochInvalidation:
    def test_epoch_bumps_on_every_mutation(self):
        g = _fresh()
        assert g.epoch == 0
        g.add_edge(0, 4)
        g.remove_edge(0, 4)
        g.add_node(99, neighbors=[0])  # node + edge: two bumps
        g.remove_node(99)
        assert g.epoch == 5

    def test_compiled_snapshot_is_recompiled_after_mutation(self):
        g = _fresh()
        before = g.compiled
        assert before.epoch == 0
        g.add_edge(0, 4)
        after = g.compiled
        assert after is not before
        assert after.epoch == g.epoch
        # The stale snapshot keeps its old stamp — holders can detect it.
        assert before.epoch != g.epoch
        assert after.degrees[after.index_of[0]] == 3

    def test_stale_ball_cache_never_served_after_edge_flip(self):
        g = _fresh(8)
        assert sorted(g.ball(0, 1)) == [0, 1, 7]  # read before the flip
        g.add_edge(0, 4)
        assert sorted(g.ball(0, 1)) == [0, 1, 4, 7]
        g.remove_edge(0, 4)
        assert sorted(g.ball(0, 1)) == [0, 1, 7]

    def test_stale_view_never_served_after_edge_flip(self):
        g = _fresh(8)
        before = gather_view(g, 0, radius=1)
        g.add_edge(0, 4)
        after = gather_view(g, 0, radius=1)
        assert before.order_signature() != after.order_signature()
        assert set(after.nodes) == {0, 1, 4, 7}
        # Distinct signatures keep the two epochs apart in any decode memo
        # keyed on order_signature().
        g.remove_edge(0, 4)
        again = gather_view(g, 0, radius=1)
        assert again.order_signature() == before.order_signature()

    def test_vectorized_csr32_cache_dropped_on_mutation(self):
        numpy = pytest.importorskip("numpy")
        g = _fresh(8)
        indptr, _, _ = g.compiled.np_csr()
        assert indptr.dtype == numpy.int32  # the one snapshot, narrowed
        g.add_edge(0, 4)
        assert g.compiled._np_csr is None  # fresh snapshot, cache dies with old CSR
        indptr, indices, ids = g.compiled.np_csr()
        assert int(indptr[-1]) == 2 * g.m

    def test_flood_cache_dropped_on_mutation(self):
        numpy = pytest.importorskip("numpy")
        from repro.obs.bandwidth import flooding_bandwidth

        g = _fresh(8)
        before = flooding_bandwidth(g, 3).as_dict()
        sweep = g.compiled._np_balls
        assert g.compiled._np_flood is not None
        assert sweep is not None and sweep.radius == 2
        g.add_edge(0, 4)
        # Flood cache and ball sweep died with the stale CSR.
        assert g.compiled._np_flood is None and g.compiled._np_balls is None
        after = flooding_bandwidth(g, 3).as_dict()
        rebuilt = LocalGraph(g.graph, ids=g.ids())
        assert after == flooding_bandwidth(rebuilt, 3).as_dict()
        assert after != before  # the chord shortened the balls' layers
        # Same layers entry for entry: every (root, distance) count agrees.
        ones = numpy.ones(g.n)
        assert numpy.array_equal(
            g.compiled._np_balls.fold(ones), rebuilt.compiled._np_balls.fold(ones)
        )


_SNAPSHOT_FIELDS = (
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
)


def _fields(compiled: CompiledGraph) -> dict:
    return {name: getattr(compiled, name) for name in _SNAPSHOT_FIELDS}


def _mutate(g: LocalGraph, data, fresh_node: int) -> None:
    """One random mutation through the mutator API (a no-op when the
    drawn kind does not apply to ``g``)."""
    nodes = g.nodes()
    kind = data.draw(st.sampled_from(["add-edge", "remove-edge", "add-node", "remove-node"]))
    if kind == "add-edge" and len(nodes) >= 2:
        u, v = data.draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    elif kind == "remove-edge" and g.m:
        u, v = data.draw(st.sampled_from(sorted(g.edges())))
        g.remove_edge(u, v)
    elif kind == "add-node":
        attach = data.draw(st.lists(st.sampled_from(nodes), max_size=3, unique=True)) if nodes else []
        g.add_node(fresh_node, neighbors=attach)
    elif kind == "remove-node" and nodes:
        g.remove_node(data.draw(st.sampled_from(nodes)))


class TestDerivedSnapshots:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 14), st.floats(0.0, 0.6), st.integers(0, 10_000), st.data())
    def test_derived_snapshot_equals_cold_compile(self, n, p, seed, data):
        g = LocalGraph(nx.gnp_random_graph(n, p, seed=seed), seed=seed)
        g.compiled  # a snapshot exists, so every mutation derives one
        for step in range(data.draw(st.integers(1, 25))):
            before = g.compiled
            old = copy.deepcopy(_fields(before))
            old_edges = {frozenset(e) for e in g.edges()}
            view = g.induced(g.nodes())
            old_components = view.components()
            _mutate(g, data, 1000 + step)
            after = g.compiled
            assert _fields(after) == _fields(CompiledGraph.from_local(g))
            assert after._dist == [-1] * after.n
            assert after._np_csr is None and after._np_flood is None
            assert after._np_balls is None
            # Copy-on-write: the old snapshot and a view over it still
            # answer for the pre-mutation topology.
            assert _fields(before) == old
            assert {
                frozenset((before.nodes[i], before.nodes[j]))
                for i in range(before.n)
                for j in before.neighbors_idx(i)
            } == old_edges
            assert view.components() == old_components

    def test_mutations_never_recompile(self, monkeypatch):
        g = _fresh(8)
        g.compiled

        def refuse(cls, graph):
            raise AssertionError("recompiled from networkx")

        monkeypatch.setattr(CompiledGraph, "from_local", classmethod(refuse))
        g.add_edge(0, 4)
        g.add_node(99, neighbors=[0, 2])
        g.remove_edge(0, 1)
        g.remove_node(3)
        assert g.neighbors(0) == sorted([7, 4, 99], key=g.id_of)
        assert g.compiled.epoch == g.epoch
