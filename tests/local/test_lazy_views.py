"""The one lazy ``View`` against the eager builder it replaced.

Both gathers return :class:`~repro.local.views.LazyView` objects: the
scalar one backed by one BFS, the vectorized one by a slot of a
``BallBatch``.  The eager construction the scalar gather used to run —
every per-node dict and the edge set, built at gather time — is kept here
as the oracle, not in ``src``.  Over grids, tori, cycles and trees with
inputs and advice, and at every radius, a lazy view must equal the
oracle's ``View``, list the same holders, show the witness recorder the
same reads, refuse assignment, and materialize to a plain ``View``.

A view also holds what it gathered: the CSR snapshot it swept and the
advice and inputs as they were.  Mutating the graph or editing the advice
map in place after the gather must not change any field materialized
afterwards.
"""

import dataclasses

import pytest

from repro.graphs import binary_tree, cycle, grid, torus
from repro.local import LocalGraph, gather_all_views, gather_view
from repro.local.vectorized import gather_views_batched
from repro.local.views import LazyView, View, record_locality_witness


def eager_view(graph, center, radius, advice):
    """The eager scalar gather: every field built from one BFS, at once."""
    compiled = graph.compiled
    nodes_arr, ids_arr = compiled.nodes, compiled.ids
    indptr, indices = compiled.indptr, compiled.indices
    order = compiled.bfs_fill(compiled.index_of[center], radius)
    dist = compiled._dist
    distances, ids = {}, {}
    for i in order:
        v = nodes_arr[i]
        distances[v] = dist[i]
        ids[v] = ids_arr[i]
    edges = set()
    for i in order:
        if dist[i] >= radius:
            continue
        vi, v = ids_arr[i], nodes_arr[i]
        for k in range(indptr[i], indptr[i + 1]):
            j = indices[k]
            if dist[j] >= 0:
                u = nodes_arr[j]
                edges.add((v, u) if vi < ids_arr[j] else (u, v))
    compiled.reset_scratch(order)
    inputs = graph._inputs
    return View(
        center=center,
        radius=radius,
        nodes=frozenset(distances),
        edges=frozenset(edges),
        ids=ids,
        inputs={v: inputs.get(v) for v in distances},
        advice={v: advice.get(v, "") for v in distances},
        distances=distances,
        _graph_n=graph.n,
        _graph_max_degree=graph.max_degree,
    )


FAMILIES = [
    ("grid", lambda: grid(5, 6), 4),
    ("torus", lambda: torus(6, 6), 4),
    ("cycle", lambda: cycle(14), 5),
    ("tree", lambda: binary_tree(4), 4),
]
IDS = [f[0] for f in FAMILIES]


def _instance(make, seed=3):
    raw = make()
    # Inputs on some nodes only, one of them falsy but not None.
    inputs = {v: ("" if k == 0 else k % 4) for k, v in enumerate(raw.nodes()) if k % 3 == 0}
    graph = LocalGraph(raw, seed=seed, inputs=inputs)
    advice = {v: ("10"[: graph.id_of(v) % 3]) for v in graph.nodes()}
    return graph, advice


def _gathers(graph, radius, advice):
    """Every lazy view of ``graph``, from the scalar and the batched gather."""
    yield "scalar", gather_all_views(graph, radius, advice=advice)
    yield "batched", gather_views_batched(graph, radius, advice=advice)


def _center_reads(view):
    c = view.center
    return [view.advice_of(c), view.id_of(c), view.distance(c), view.input_of(c)]


def _witnessed(read):
    with record_locality_witness() as rec:
        value = read()
        return value, rec.witness()


@pytest.mark.parametrize("name,make,max_radius", FAMILIES, ids=IDS)
class TestLazyAgainstEager:
    def test_values_and_holders(self, name, make, max_radius):
        graph, advice = _instance(make)
        for radius in range(max_radius + 1):
            for engine, views in _gathers(graph, radius, advice):
                for v, lazy in views.items():
                    oracle = eager_view(graph, v, radius, advice)
                    assert isinstance(lazy, LazyView), engine
                    # holders first, on a view with nothing built yet
                    assert lazy.holders() == oracle.holders(), (engine, v, radius)
                    assert lazy.ball_size == len(oracle.nodes)
                    assert lazy == oracle, (engine, v, radius)
                    assert oracle == lazy
                    assert lazy.order_signature() == oracle.order_signature()

    def test_witness_sees_the_same_reads(self, name, make, max_radius):
        graph, advice = _instance(make)
        for radius in range(max_radius + 1):
            for engine, views in _gathers(graph, radius, advice):
                for v, lazy in views.items():
                    oracle = eager_view(graph, v, radius, advice)
                    assert _witnessed(lazy.holders) == _witnessed(oracle.holders)
                    fresh = gather_view(graph, v, radius, advice)
                    assert _witnessed(lambda: _center_reads(fresh)) == _witnessed(
                        lambda: _center_reads(oracle)
                    ), (engine, v, radius)

    def test_frozen_and_materialized(self, name, make, max_radius):
        graph, advice = _instance(make)
        for engine, views in _gathers(graph, max_radius, advice):
            for v, lazy in views.items():
                for field in ("center", "radius", "nodes", "edges", "ids", "inputs",
                              "advice", "distances", "_graph_n"):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(lazy, field, None)
                plain = lazy.materialize()
                assert type(plain) is View, engine
                assert plain == eager_view(graph, v, max_radius, advice)


def _every_field(view):
    return (
        view.center, view.radius, view.nodes, view.edges, view.ids, view.inputs,
        view.advice, view.distances, view._graph_n, view._graph_max_degree,
        view.holders(), view.order_signature(),
    )


def _mutate(graph, advice):
    """Remove and add nodes and edges, and edit ``advice`` in place as the
    churn runtime does."""
    nodes = sorted(graph.nodes(), key=graph.id_of)
    first, second = nodes[0], nodes[len(nodes) // 2]
    u = nodes[-1]
    w = next(x for x in nodes[1:-1] if not graph.has_edge(u, x) and x != second)
    graph.remove_node(first)
    advice.pop(first, None)
    graph.add_edge(u, w)
    graph.remove_edge(*next(iter(graph.edges())))
    graph.add_node("new", neighbors=[second], input="fresh")
    advice["new"] = "1"
    for v in list(advice):
        advice[v] = "" if advice[v] else "1"


@pytest.mark.parametrize("name,make,max_radius", FAMILIES, ids=IDS)
@pytest.mark.parametrize("engine", ["scalar", "batched"])
class TestGatherTimeState:
    def test_fields_materialized_after_a_mutation_show_the_gather(
        self, name, make, max_radius, engine
    ):
        """Views gathered, then the graph mutated and the advice edited:
        every field still equals the eager view built before the change."""
        graph, advice = _instance(make)
        radius = max_radius - 1
        gather = gather_all_views if engine == "scalar" else gather_views_batched
        views = gather(graph, radius, advice=advice)
        before = {v: eager_view(graph, v, radius, advice) for v in views}
        _mutate(graph, advice)
        for v, lazy in views.items():
            assert _every_field(lazy) == _every_field(before[v]), v
            assert lazy == before[v]

    def test_batched_view_after_node_removal(self, name, make, max_radius, engine):
        """A view gathered before a removal indexes the snapshot it swept,
        not the shorter one after it."""
        graph, advice = _instance(make)
        gather = gather_all_views if engine == "scalar" else gather_views_batched
        views = gather(graph, 3, advice=advice)
        before = {v: eager_view(graph, v, 3, advice) for v in views}
        graph.remove_node(graph.nodes()[0])
        for v, lazy in views.items():
            assert lazy.nodes == before[v].nodes
            assert lazy.edges == before[v].edges
            assert lazy.ids == before[v].ids
