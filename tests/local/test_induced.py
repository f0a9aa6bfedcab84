"""``LocalGraph.induced`` must agree with an induced-subgraph reference.

The reference below walks the networkx adjacency restricted to the node
set; the view under test runs masked sweeps over the CSR snapshot.  Every
call must also leave the shared BFS scratch (``CompiledGraph._dist``) clean.
"""

from collections import deque
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import path
from repro.local import LocalGraph
from repro.local.compiled import CompiledGraph


def _ref_distances(raw, members, source, cutoff):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if cutoff is not None and dist[v] >= cutoff:
            continue
        for u in raw.neighbors(v):
            if u in members and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _ref_components(raw, order, members):
    """Components of ``raw[members]`` in first-appearance order of ``order``."""
    out, seen = [], set()
    for v in order:
        if v in members and v not in seen:
            comp = set(_ref_distances(raw, members, v, None))
            seen |= comp
            out.append(comp)
    return out


def _ref_diameter(raw, members):
    """Largest component diameter of ``raw[members]`` (-1 when empty)."""
    return max(
        (max(_ref_distances(raw, members, v, None).values()) for v in members),
        default=-1,
    )


def _scratch_clean(graph):
    return all(d == -1 for d in graph.compiled._dist)


@st.composite
def graph_and_subset(draw, max_n=24):
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.floats(min_value=0.0, max_value=0.35))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    raw = nx.gnp_random_graph(n, p, seed=seed)
    graph = LocalGraph(raw, seed=seed)
    members = draw(st.sets(st.sampled_from(range(n))))
    return raw, graph, members


@settings(max_examples=80, deadline=None)
@given(graph_and_subset(), st.integers(min_value=1, max_value=5))
def test_induced_matches_reference(case, k):
    raw, graph, members = case
    view = graph.induced(members)
    assert len(view) == len(members)
    assert view.nodes() == [v for v in graph.nodes() if v in members]
    assert all((v in view) == (v in members) for v in graph.nodes())

    for source in sorted(members):
        for cutoff in (None, 0, k):
            got = view.distances(source, cutoff)
            assert got == _ref_distances(raw, members, source, cutoff)
            assert list(got.values()) == sorted(got.values())  # BFS order
            assert _scratch_clean(graph)

    assert view.components() == _ref_components(raw, graph.nodes(), members)
    assert _scratch_clean(graph)

    diameter = _ref_diameter(raw, members)
    s = len(members)
    # Both sides of the true diameter and of the ``s - 1 == bound`` shortcut.
    for bound in {diameter - 1, diameter, s - 2, s - 1}:
        if bound < 0:
            continue
        assert view.diameter_at_most(bound) == (diameter <= bound)
        assert _scratch_clean(graph)


@settings(max_examples=80, deadline=None)
@given(graph_and_subset(max_n=40), st.integers(min_value=0, max_value=8))
def test_diameter_sweeps_each_component_once_when_its_eccentricity_decides(
    case, drawn
):
    raw, graph, members = case
    view = graph.induced(members)
    diameter = _ref_diameter(raw, members)
    for bound in {diameter - 1, diameter, drawn}:
        if bound < 0:
            continue
        with mock.patch.object(
            CompiledGraph,
            "bfs_masked",
            autospec=True,
            side_effect=CompiledGraph.bfs_masked,
        ) as spy:
            assert view.diameter_at_most(bound) == (diameter <= bound)
        assert _scratch_clean(graph)
        if len(members) - 1 <= bound:
            assert spy.call_count == 0
            continue
        # Components are swept in node order, each from its first member
        # e, and the answer is known after that sweep unless
        # bound / 2 < ecc(e) <= bound.
        sweeps = 0
        for comp in _ref_components(raw, graph.nodes(), members):
            first = next(v for v in graph.nodes() if v in comp)
            ecc = max(_ref_distances(raw, members, first, None).values())
            sweeps += 1
            if ecc > bound:
                break
            if 2 * ecc > bound:
                sweeps = None
                break
        if sweeps is not None:
            assert spy.call_count == sweeps


def test_empty_subset():
    graph = LocalGraph(path(5))
    view = graph.induced([])
    assert len(view) == 0 and view.nodes() == []
    assert view.components() == []
    assert view.diameter_at_most(0)


def test_source_outside_subset_rejected():
    graph = LocalGraph(path(5))
    with pytest.raises(KeyError):
        graph.induced([0, 1]).distances(3)


class TestMutation:
    def test_view_after_add_edge_sees_new_edge(self):
        graph = LocalGraph(path(6))
        assert graph.induced(graph.nodes()).distances(0)[5] == 5
        graph.add_edge(0, 5)
        view = graph.induced(graph.nodes())
        assert view.distances(0)[5] == 1
        assert view.diameter_at_most(3)
        assert _scratch_clean(graph)

    def test_view_after_remove_node_sees_new_csr(self):
        graph = LocalGraph(path(6))
        assert len(graph.induced(graph.nodes()).components()) == 1
        graph.remove_node(2)
        view = graph.induced(graph.nodes())
        assert view.components() == [{0, 1}, {3, 4, 5}]
        assert view.distances(3) == {3: 0, 4: 1, 5: 2}
        assert not view.diameter_at_most(1)
        assert view.diameter_at_most(2)
        assert _scratch_clean(graph)
