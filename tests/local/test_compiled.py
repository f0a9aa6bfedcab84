"""The CSR backend must agree exactly with the reference semantics."""

import networkx as nx
import pytest

from repro.graphs import binary_tree, cycle, grid, star, torus
from repro.local import CompiledGraph, LocalGraph, LocalGraphError


def _random_graph(n: int, p: float, seed: int) -> nx.Graph:
    g = nx.gnp_random_graph(n, p, seed=seed)
    return g


FAMILIES = [
    ("grid", grid(6, 7)),
    ("torus", torus(5, 5)),
    ("cycle", cycle(17)),
    ("tree", binary_tree(4)),
    ("star", star(6)),
    ("random", _random_graph(30, 0.12, seed=4)),
    ("isolated", nx.Graph([(0, 1), (2, 3)])),
]
FAMILIES[-1][1].add_nodes_from([10, 11])  # isolated nodes


@pytest.mark.parametrize("name,raw", FAMILIES, ids=[f[0] for f in FAMILIES])
class TestCompiledMatchesReference:
    def test_neighbors_port_order(self, name, raw):
        g = LocalGraph(raw, seed=8)
        compiled = g.compiled
        for v in g.nodes():
            nbrs = compiled.neighbors(v)
            assert nbrs == sorted(raw.neighbors(v), key=g.id_of)

    def test_port_roundtrip(self, name, raw):
        g = LocalGraph(raw, seed=9)
        for v in g.nodes():
            for port, u in enumerate(g.neighbors(v)):
                assert g.port_of(v, u) == port
                assert g.neighbor_at_port(v, port) == u

    def test_ball_and_sphere_match_networkx(self, name, raw):
        g = LocalGraph(raw, seed=10)
        for v in list(g.nodes())[:10]:
            for radius in range(4):
                lengths = nx.single_source_shortest_path_length(
                    raw, v, cutoff=radius
                )
                assert set(g.ball(v, radius)) == set(lengths)
                assert set(g.sphere(v, radius)) == {
                    u for u, d in lengths.items() if d == radius
                }

    def test_bfs_layers_distances(self, name, raw):
        g = LocalGraph(raw, seed=11)
        v = g.nodes()[0]
        lengths = nx.single_source_shortest_path_length(raw, v, cutoff=3)
        for d, layer in enumerate(g.bfs_layers(v, 3)):
            assert all(lengths[u] == d for u in layer)

    def test_distance_matches_networkx(self, name, raw):
        g = LocalGraph(raw, seed=12)
        nodes = g.nodes()
        for u in nodes[:6]:
            lengths = nx.single_source_shortest_path_length(raw, u)
            for v in nodes[:6]:
                expected = lengths.get(v, float("inf"))
                assert g.distance(u, v) == expected

    def test_degrees_and_max_degree_cached(self, name, raw):
        g = LocalGraph(raw, seed=13)
        assert g.max_degree == max((d for _, d in raw.degree()), default=0)
        for v in g.nodes():
            assert g.degree(v) == raw.degree(v)


class TestCompiledEdgeCases:
    def test_empty_graph(self):
        g = LocalGraph(nx.Graph())
        assert g.compiled.n == 0
        assert g.max_degree == 0

    def test_port_errors_preserved(self):
        g = LocalGraph(nx.path_graph(4))
        with pytest.raises(LocalGraphError):
            g.port_of(0, 3)
        with pytest.raises(LocalGraphError):
            g.port_of(0, "not-a-node")
        with pytest.raises(LocalGraphError):
            g.neighbor_at_port(0, 5)

    def test_compiled_is_lazy_and_cached(self):
        g = LocalGraph(cycle(8))
        assert g._compiled is None
        first = g.compiled
        assert g.compiled is first

    def test_from_local_roundtrip(self):
        g = LocalGraph(torus(4, 4), seed=3)
        compiled = CompiledGraph.from_local(g)
        assert compiled.n == g.n
        assert compiled.m == g.m
        assert compiled.max_degree == g.max_degree
