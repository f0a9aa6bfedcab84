"""Unit tests for repro.local.graph."""

import networkx as nx
import pytest

from repro.graphs import cycle, grid, path, star, torus
from repro.local import LocalGraph, LocalGraphError


class TestConstruction:
    def test_default_ids_are_one_based_and_distinct(self):
        g = LocalGraph(cycle(5))
        ids = sorted(g.id_of(v) for v in g.nodes())
        assert ids == [1, 2, 3, 4, 5]

    def test_seeded_ids_are_permutation(self):
        g = LocalGraph(cycle(8), seed=42)
        assert sorted(g.id_of(v) for v in g.nodes()) == list(range(1, 9))

    def test_seeded_ids_deterministic(self):
        a = LocalGraph(cycle(10), seed=7)
        b = LocalGraph(cycle(10), seed=7)
        assert a.ids() == b.ids()

    def test_different_seeds_differ(self):
        a = LocalGraph(cycle(30), seed=1)
        b = LocalGraph(cycle(30), seed=2)
        assert a.ids() != b.ids()

    def test_explicit_ids(self):
        g = LocalGraph(path(3), ids={0: 10, 1: 20, 2: 30})
        assert g.id_of(1) == 20
        assert g.node_of(30) == 2

    def test_missing_id_rejected(self):
        with pytest.raises(LocalGraphError):
            LocalGraph(path(3), ids={0: 1, 1: 2})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(LocalGraphError):
            LocalGraph(path(3), ids={0: 1, 1: 1, 2: 2})

    def test_nonpositive_ids_rejected(self):
        with pytest.raises(LocalGraphError):
            LocalGraph(path(2), ids={0: 0, 1: 1})

    def test_self_loop_rejected(self):
        g = nx.Graph()
        g.add_edge(0, 0)
        with pytest.raises(LocalGraphError):
            LocalGraph(g)

    def test_directed_rejected(self):
        with pytest.raises(LocalGraphError):
            LocalGraph(nx.DiGraph([(0, 1)]))

    def test_multigraph_rejected(self):
        with pytest.raises(LocalGraphError):
            LocalGraph(nx.MultiGraph([(0, 1), (0, 1)]))

    def test_from_edges_with_isolated_nodes(self):
        g = LocalGraph.from_edges([(0, 1)], nodes=[0, 1, 2])
        assert g.n == 3
        assert g.degree(2) == 0

    def test_inputs_accessible(self):
        g = LocalGraph(path(2), inputs={0: "a"})
        assert g.input_of(0) == "a"
        assert g.input_of(1) is None


class TestBasics:
    def test_counts(self):
        g = LocalGraph(torus(4, 4))
        assert g.n == 16
        assert g.m == 32
        assert g.max_degree == 4

    def test_empty_graph(self):
        g = LocalGraph(nx.Graph())
        assert g.n == 0
        assert g.max_degree == 0

    def test_degree(self):
        g = LocalGraph(star(5))
        degrees = sorted(g.degree(v) for v in g.nodes())
        assert degrees == [1, 1, 1, 1, 1, 5]


class TestPorts:
    def test_neighbors_sorted_by_id(self):
        g = LocalGraph(star(4), seed=3)
        center_neighbors = g.neighbors(0)
        ids = [g.id_of(u) for u in center_neighbors]
        assert ids == sorted(ids)

    def test_port_roundtrip(self):
        g = LocalGraph(torus(4, 4), seed=5)
        for v in g.nodes():
            for port, u in enumerate(g.neighbors(v)):
                assert g.port_of(v, u) == port
                assert g.neighbor_at_port(v, port) == u

    def test_port_of_non_neighbor_raises(self):
        g = LocalGraph(path(4))
        with pytest.raises(LocalGraphError):
            g.port_of(0, 3)

    def test_invalid_port_raises(self):
        g = LocalGraph(path(2))
        with pytest.raises(LocalGraphError):
            g.neighbor_at_port(0, 5)


class TestBallsAndDistances:
    def test_ball_radius_zero(self):
        g = LocalGraph(cycle(6))
        assert g.ball(0, 0) == [0]

    def test_ball_negative_radius(self):
        g = LocalGraph(cycle(6))
        assert g.ball(0, -1) == []

    def test_ball_sizes_on_cycle(self):
        g = LocalGraph(cycle(11))
        for r in range(5):
            assert len(g.ball(0, r)) == min(11, 2 * r + 1)

    def test_sphere_on_cycle(self):
        g = LocalGraph(cycle(10))
        assert len(g.sphere(0, 3)) == 2
        assert g.sphere(0, 0) == [0]
        assert g.sphere(0, 20) == []

    def test_ball_subgraph_induced(self):
        g = LocalGraph(grid(5, 5))
        sub = g.ball_subgraph(12, 1)  # center of the grid
        assert sub.number_of_nodes() == 5
        assert sub.number_of_edges() == 4

    def test_distance_symmetric(self):
        g = LocalGraph(grid(4, 6), seed=2)
        nodes = g.nodes()
        for u, v in [(0, 23), (5, 17), (3, 3)]:
            assert g.distance(u, v) == g.distance(v, u)

    def test_distance_disconnected_is_inf(self):
        g = LocalGraph.from_edges([(0, 1)], nodes=[0, 1, 2])
        assert g.distance(0, 2) == float("inf")

    def test_bfs_layers_partition_ball(self):
        g = LocalGraph(torus(5, 5))
        layers = list(g.bfs_layers(0, 3))
        flattened = [v for layer in layers for v in layer]
        assert sorted(flattened, key=str) == sorted(g.ball(0, 3), key=str)
        assert len(set(flattened)) == len(flattened)

    def test_ball_matches_networkx(self):
        g = LocalGraph(grid(5, 5), seed=9)
        lengths = nx.single_source_shortest_path_length(g.graph, 7, cutoff=3)
        assert set(g.ball(7, 3)) == set(lengths)


class TestPowerGraphAndComponents:
    def test_power_graph_cycle(self):
        g = LocalGraph(cycle(8))
        p2 = g.power_graph(2)
        assert p2.number_of_edges() == 16  # each node: distance 1 and 2

    def test_power_graph_invalid(self):
        g = LocalGraph(cycle(4))
        with pytest.raises(LocalGraphError):
            g.power_graph(0)

    def test_components(self):
        g = LocalGraph.from_edges([(0, 1), (2, 3)], nodes=[0, 1, 2, 3, 4])
        comps = g.components()
        assert sorted(len(c) for c in comps) == [1, 2, 2]

    def test_relabel_by_id_isomorphic(self):
        g = LocalGraph(cycle(7), seed=11)
        relabeled = g.relabel_by_id()
        assert relabeled.n == g.n
        assert relabeled.m == g.m
        for v in relabeled.nodes():
            assert relabeled.id_of(v) == v
