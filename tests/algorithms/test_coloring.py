"""Tests for coloring building blocks (Linial, reductions, list coloring)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    ColoringError,
    assert_proper,
    coloring_from_ids,
    greedy_coloring,
    is_proper,
    linial_coloring,
    linial_reduction_step,
    list_coloring,
    num_colors,
    reduce_to_delta_plus_one,
)
from repro.graphs import complete, cycle, grid, random_regular, torus
from repro.local import LocalGraph


class TestGreedyAndBasics:
    def test_greedy_is_proper(self):
        g = LocalGraph(torus(5, 5), seed=1)
        assert is_proper(g, greedy_coloring(g))

    def test_greedy_at_most_delta_plus_one(self):
        g = LocalGraph(random_regular(40, 5, seed=3), seed=2)
        assert max(greedy_coloring(g).values()) <= 6

    def test_assert_proper_raises(self):
        g = LocalGraph(cycle(4))
        with pytest.raises(ColoringError):
            assert_proper(g, {v: 1 for v in g.nodes()})

    def test_id_coloring_proper(self):
        g = LocalGraph(complete(5), seed=4)
        assert is_proper(g, coloring_from_ids(g))


class TestLinial:
    def test_one_step_reduces_id_coloring(self):
        g = LocalGraph(cycle(200), seed=5)
        start = coloring_from_ids(g)
        reduced = linial_reduction_step(g, start)
        assert is_proper(g, reduced)
        assert max(reduced.values()) < max(start.values())

    def test_one_step_requires_proper(self):
        g = LocalGraph(cycle(4))
        with pytest.raises(ColoringError):
            linial_reduction_step(g, {v: 1 for v in g.nodes()})

    def test_iteration_reaches_delta_squared_scale(self):
        g = LocalGraph(cycle(500), seed=6)
        coloring, rounds = linial_coloring(g)
        assert is_proper(g, coloring)
        # Delta = 2; O(Delta^2) scale means a small constant palette.
        assert num_colors(coloring) <= 20
        assert rounds <= 10  # log* flavored

    def test_rounds_grow_slowly_with_n(self):
        small, r_small = linial_coloring(LocalGraph(cycle(64), seed=7))
        large, r_large = linial_coloring(LocalGraph(cycle(4096), seed=7))
        assert r_large <= r_small + 2  # log* growth: basically flat

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=3, max_value=6))
    def test_linial_on_regular_graphs(self, d):
        g = LocalGraph(random_regular(30, d, seed=d), seed=d)
        coloring, _ = linial_coloring(g)
        assert is_proper(g, coloring)


class TestReductions:
    def test_reduce_to_delta_plus_one(self):
        g = LocalGraph(torus(6, 6), seed=8)
        start = coloring_from_ids(g)
        reduced, rounds = reduce_to_delta_plus_one(g, start)
        assert is_proper(g, reduced)
        assert max(reduced.values()) <= g.max_degree + 1
        assert rounds > 0

    def test_reduce_noop_when_already_small(self):
        g = LocalGraph(cycle(6))
        start = {v: 1 + v % 2 for v in g.nodes()}
        reduced, rounds = reduce_to_delta_plus_one(g, start)
        assert reduced == start
        assert rounds == 0

    def test_list_coloring_respects_palettes(self):
        g = LocalGraph(cycle(10), seed=9)
        palettes = {v: [10 + v % 3, 20, 30] for v in g.nodes()}
        schedule, _ = linial_coloring(g)
        result, rounds = list_coloring(g, palettes, schedule)
        assert is_proper(g, result)
        for v in g.nodes():
            assert result[v] in palettes[v]

    def test_list_coloring_small_palette_rejected(self):
        g = LocalGraph(cycle(4))
        palettes = {v: [1] for v in g.nodes()}  # deg+1 = 3 needed
        schedule = {v: 1 + v % 2 for v in g.nodes()}
        with pytest.raises(ColoringError):
            list_coloring(g, palettes, schedule)

    def test_list_coloring_needs_proper_schedule(self):
        g = LocalGraph(cycle(4))
        palettes = {v: [1, 2, 3] for v in g.nodes()}
        with pytest.raises(ColoringError):
            list_coloring(g, palettes, {v: 1 for v in g.nodes()})


def _prime_table(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


# Every q the walk below can reach for c <= 2^40 and Delta <= 8: the k = 1
# candidate stops at the first prime >= 2^20, and larger k stop sooner.
_PRIMES = _prime_table((1 << 20) + 1000)


def _walked_parameters(c, delta):
    """Linial's (k, q) search stepping q one prime at a time."""
    from bisect import bisect_left

    best = None
    for k in range(1, max(2, c.bit_length()) + 1):
        at = bisect_left(_PRIMES, k * delta + 1)
        while _PRIMES[at] ** (k + 1) < c:
            at += 1
        q = _PRIMES[at]
        if best is None or q < best[1]:
            best = (k, q)
    return best


class TestLinialParameters:
    """The (k, q) search starts each k at the root bound; it must pick
    what the prime-by-prime walk picks."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1 << 40), st.integers(1, 8))
    def test_matches_prime_walk(self, c, delta):
        from repro.algorithms.coloring import _linial_parameters

        assert _linial_parameters(c, delta) == _walked_parameters(c, delta)

    @pytest.mark.parametrize("delta", [1, 2, 3, 8])
    def test_matches_prime_walk_at_root_boundaries(self, delta):
        from repro.algorithms.coloring import _linial_parameters

        for bits in range(1, 41):
            for c in {1 << bits, (1 << bits) - 1, (1 << bits) + 1}:
                assert _linial_parameters(c, delta) == _walked_parameters(c, delta)
        for p in (2, 3, 31, 1021, 65521, 1048573):
            for e in (2, 3, 4):
                if p**e <= 1 << 40:
                    for c in (p**e - 1, p**e, p**e + 1):
                        assert _linial_parameters(c, delta) == _walked_parameters(c, delta)

    def test_wide_palette_step_is_proper(self):
        import random

        g = LocalGraph(cycle(20), seed=7)
        rng = random.Random(3)
        coloring = {v: rng.randrange(1 << 36) for v in g.nodes()}
        assert is_proper(g, coloring)
        reduced = linial_reduction_step(g, coloring)
        assert is_proper(g, reduced)
        assert max(reduced.values()) < max(coloring.values())


class TestProperOnCsr:
    """is_proper / assert_proper decide on the CSR ports and fall back to
    the edge scan only to report a clash, so verdicts and messages match
    the plain edge scan."""

    @staticmethod
    def _scan(graph, coloring):
        bad = [(u, v) for u, v in graph.edges() if coloring[u] == coloring[v]]
        if bad:
            return f"coloring not proper on {len(bad)} edges, e.g. {bad[0]!r}"
        return None

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 9999), st.integers(1, 6), st.data())
    def test_matches_edge_scan(self, n, seed, palette, data):
        import networkx as nx

        g = LocalGraph(nx.gnm_random_graph(n, data.draw(st.integers(0, 2 * n)), seed=seed), seed=seed)
        coloring = {
            v: data.draw(st.sampled_from([*range(1, palette + 1), "a", (1, 2)]))
            for v in g.nodes()
        }
        expected = self._scan(g, coloring)
        assert is_proper(g, coloring) is (expected is None)
        if expected is None:
            assert_proper(g, coloring)
        else:
            with pytest.raises(ColoringError) as got:
                assert_proper(g, coloring)
            assert str(got.value) == expected

    def test_missing_colour_behaves_like_edge_scan(self):
        import networkx as nx

        graph = nx.path_graph(3)
        graph.add_node(9)
        g = LocalGraph(graph)
        # An isolated node without a colour is never looked up by the scan.
        assert is_proper(g, {0: 1, 1: 2, 2: 1})
        with pytest.raises(KeyError):
            is_proper(g, {0: 1, 1: 2, 9: 1})
        with pytest.raises(KeyError):
            assert_proper(g, {0: 1, 1: 2, 9: 1})
