"""Tests for BFS utility functions."""

import networkx as nx
import pytest

from repro.algorithms import bfs_distances, path_at_distance
from repro.graphs import cycle, grid, path
from repro.local import LocalGraph


def _whole(g: nx.Graph):
    """The whole graph as an induced subgraph of itself."""
    local = LocalGraph(g)
    return local.induced(local.nodes())


class TestDiameterAtMost:
    def test_exact_threshold(self):
        g = _whole(path(6))  # diameter 5
        assert g.diameter_at_most(5)
        assert not g.diameter_at_most(4)

    def test_cycle(self):
        g = _whole(cycle(10))  # diameter 5
        assert g.diameter_at_most(5)
        assert not g.diameter_at_most(4)

    def test_single_node(self):
        g = nx.Graph()
        g.add_node(0)
        assert _whole(g).diameter_at_most(0)


class TestPaths:
    def test_path_at_distance_valid(self):
        g = grid(5, 5)
        p = path_at_distance(g, 0, 4)
        assert len(p) == 5
        assert p[0] == 0
        for i, v in enumerate(p):
            assert nx.shortest_path_length(g, 0, v) == i

    def test_path_at_distance_too_far(self):
        g = path(4)
        assert path_at_distance(g, 0, 10) is None

    def test_bfs_distances_cutoff(self):
        g = cycle(20)
        dist = bfs_distances(g, 0, cutoff=3)
        assert max(dist.values()) == 3
        assert len(dist) == 7


class TestComponents:
    def test_component_of(self):
        g = nx.Graph([(0, 1), (2, 3)])
        assert _whole(g).components()[0] == {0, 1}

    def test_components(self):
        g = nx.Graph([(0, 1), (2, 3), (3, 4)])
        sizes = sorted(len(c) for c in _whole(g).components())
        assert sizes == [2, 3]
