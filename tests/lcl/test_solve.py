"""Tests for the exact LCL solver (backtracking)."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import complete, cycle, grid, path, star
from repro.lcl import (
    LCLError,
    SearchBudgetExceeded,
    count_solutions,
    is_valid,
    maximal_independent_set,
    solve_exact,
    vertex_coloring,
)
from repro.local import LocalGraph


class TestSolveExact:
    def test_three_colors_cycle(self):
        g = LocalGraph(cycle(7))
        problem = vertex_coloring(3)
        labeling = solve_exact(problem, g)
        assert labeling is not None
        assert is_valid(problem, g, labeling)

    def test_two_colors_odd_cycle_unsolvable(self):
        g = LocalGraph(cycle(5))
        assert solve_exact(vertex_coloring(2), g) is None

    def test_k4_needs_four_colors(self):
        g = LocalGraph(complete(4))
        assert solve_exact(vertex_coloring(3), g) is None
        assert solve_exact(vertex_coloring(4), g) is not None

    def test_respects_fixed_labels(self):
        g = LocalGraph(path(4))
        problem = vertex_coloring(2)
        labeling = solve_exact(problem, g, fixed={0: 2})
        assert labeling[0] == 2
        assert is_valid(problem, g, labeling)

    def test_contradictory_fixed_returns_none(self):
        g = LocalGraph(path(2))
        assert solve_exact(vertex_coloring(3), g, fixed={0: 1, 1: 1}) is None

    def test_restrict_to_partial_region(self):
        g = LocalGraph(path(5))
        problem = vertex_coloring(2)
        labeling = solve_exact(
            problem, g, fixed={0: 1, 4: 1}, restrict_to=[1, 2, 3]
        )
        assert labeling is not None
        assert set(labeling) == {0, 1, 2, 3, 4}
        assert is_valid(problem, g, labeling)

    def test_budget_enforced(self):
        g = LocalGraph(cycle(30))
        with pytest.raises(SearchBudgetExceeded):
            solve_exact(vertex_coloring(3), g, max_steps=5)

    def test_mis_solvable(self):
        g = LocalGraph(grid(3, 4))
        problem = maximal_independent_set()
        labeling = solve_exact(problem, g)
        assert labeling is not None
        assert is_valid(problem, g, labeling)

    def test_large_path_no_recursion_error(self):
        # The iterative solver must handle regions beyond Python's default
        # recursion limit.
        g = LocalGraph(path(2000))
        labeling = solve_exact(vertex_coloring(2), g)
        assert labeling is not None

    def test_restrict_to_one_component(self):
        g = LocalGraph.from_edges([(0, 1), (2, 3), (3, 4)])
        problem = vertex_coloring(2)
        labeling = solve_exact(problem, g, restrict_to=[2, 3, 4])
        assert set(labeling) == {2, 3, 4}

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=3, max_value=9))
    def test_cycle_coloring_property(self, n):
        g = LocalGraph(cycle(n), seed=n)
        problem = vertex_coloring(3)
        labeling = solve_exact(problem, g)
        assert labeling is not None
        assert is_valid(problem, g, labeling)


class TestCountSolutions:
    def test_two_colorings_of_even_cycle(self):
        g = LocalGraph(cycle(4))
        assert count_solutions(vertex_coloring(2), g) == 2

    def test_odd_cycle_has_none(self):
        g = LocalGraph(cycle(5))
        assert count_solutions(vertex_coloring(2), g) == 0

    def test_triangle_three_colorings(self):
        g = LocalGraph(complete(3))
        assert count_solutions(vertex_coloring(3), g) == 6  # 3! permutations

    def test_mis_count_path3(self):
        # MIS's of a path a-b-c: {a, c} and {b}.
        g = LocalGraph(path(3))
        assert count_solutions(maximal_independent_set(), g) == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=99))
    def test_matches_brute_force_enumeration(self, n, seed):
        # The search yields every solution exactly once: compare against
        # checking all k^n labelings of a small random graph.
        g = LocalGraph(nx.gnp_random_graph(n, 0.5, seed=seed), seed=seed)
        problem = vertex_coloring(3)
        nodes = g.nodes()
        brute = sum(
            is_valid(problem, g, dict(zip(nodes, labels)))
            for labels in itertools.product((1, 2, 3), repeat=n)
        )
        assert count_solutions(problem, g) == brute
