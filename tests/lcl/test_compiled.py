"""The compiled catalog checks against their predicates (the oracle).

Each test draws a random graph, one of the four compiled catalog problems
and a labeling that may be complete, partial or malformed (wrong types,
wrong lengths, unhashable labels and entries), and compares the compiled
path with the predicate: per-node verdicts, ``violations`` and
``accept_map`` lists in order, ``is_valid``, and the exceptions raised.
"""

import dataclasses
import itertools
import math
import random

import networkx as nx
from hypothesis import assume, given, settings, strategies as st

from repro.graphs import cycle, grid
from repro.lcl import (
    BLUE,
    IN,
    OUT,
    RED,
    SearchBudgetExceeded,
    accept_map,
    balanced_orientation,
    count_solutions,
    edge_coloring,
    is_valid,
    solve_exact,
    splitting,
    vertex_coloring,
    violations,
)
from repro.lcl.compiled import proper_by_ports
from repro.lcl.verify import check_at
from repro.local import LocalGraph

PROBLEMS = {
    "coloring": lambda k: vertex_coloring(k),
    "orientation": lambda k: balanced_orientation(strict=k % 2 == 0),
    "edge-coloring": lambda k: edge_coloring(k + 1),
    "splitting": lambda k: splitting(),
}

#: Entries a malformed label may hold: each alphabet's letters, near
#: misses that compare equal to them, and junk (unhashable included).
ENTRIES = [1, 2, 3, 4, OUT, IN, RED, BLUE, 0, 1.0, True, "x", None, [1], (1,)]


def outcome(fn, *args):
    """A call's result, or its exception's type and message."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return ("raised", type(exc).__name__, str(exc))


def plain(problem):
    """The same problem without its compiled form: the predicate path."""
    return dataclasses.replace(problem, compiled=None)


@st.composite
def instances(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(0, n * (n - 1) // 2))
    seed = draw(st.integers(0, 10_000))
    graph = LocalGraph(nx.gnm_random_graph(n, m, seed=seed), seed=seed)
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    problem = PROBLEMS[name](draw(st.integers(1, 3)))
    # Candidates come from a solution when there is one (and the draw
    # asks for it), so a bent or missing label sits among valid ones.
    solution = None
    if draw(st.booleans()):
        try:
            solution = solve_exact(plain(problem), graph, max_steps=5_000)
        except SearchBudgetExceeded:
            pass
    labeling = {}
    for v in graph.nodes():
        kind = draw(
            st.sampled_from(["candidate", "candidate", "bent", "missing", "junk", "tuple"])
        )
        if kind == "missing":
            continue
        if kind in ("candidate", "bent"):
            options = problem.candidate_labels(graph, v)
            if not options:
                continue
            label = solution[v] if solution else draw(st.sampled_from(options))
            if kind == "bent" and isinstance(label, tuple) and label:
                # One entry rewritten: a repeated colour, an unbalanced
                # count, or a stray letter.
                at = draw(st.integers(0, len(label) - 1))
                entry = draw(st.one_of(st.sampled_from(label), st.sampled_from(ENTRIES)))
                label = label[:at] + (entry,) + label[at + 1 :]
            labeling[v] = label
            continue
        if kind == "junk":
            labeling[v] = draw(st.sampled_from(ENTRIES + [[1, 2], {"a": 1}]))
            continue
        length = max(0, graph.degree(v) + draw(st.sampled_from([0, 0, 0, -1, 1])))
        entries = st.sampled_from(ENTRIES)
        labeling[v] = tuple(draw(st.lists(entries, min_size=length, max_size=length)))
    return graph, problem, labeling


class TestAgainstThePredicate:
    @settings(max_examples=400, deadline=None)
    @given(instances())
    def test_per_node_verdicts(self, case):
        graph, problem, labeling = case
        for v in graph.nodes() + ["ghost"]:
            assert outcome(check_at, problem, graph, labeling, v) == outcome(
                problem.check, graph, labeling, v
            )

    @settings(max_examples=400, deadline=None)
    @given(instances())
    def test_whole_graph_entry_points(self, case):
        graph, problem, labeling = case
        oracle = plain(problem)
        for fn in (violations, accept_map, is_valid):
            got = outcome(fn, problem, graph, labeling)
            want = outcome(fn, oracle, graph, labeling)
            assert got == want
            if fn is accept_map and got[0] == "ok":
                assert list(got[1]) == list(want[1])

    @settings(max_examples=200, deadline=None)
    @given(instances(), st.randoms(use_true_random=False))
    def test_region_checks(self, case, rng):
        graph, problem, labeling = case
        nodes = graph.nodes()
        region = rng.sample(nodes, rng.randint(0, len(nodes))) + ["ghost"]
        assert outcome(violations, problem, graph, labeling, region) == outcome(
            violations, plain(problem), graph, labeling, region
        )

    def test_complete_valid_labelings_pass(self):
        graph = LocalGraph(grid(6, 7), seed=3)
        for problem in (vertex_coloring(4), balanced_orientation(), edge_coloring(4)):
            solution = solve_exact(problem, graph)
            assert solution is not None
            assert is_valid(problem, graph, solution)
            assert violations(problem, graph, solution) == []
        ring = LocalGraph(cycle(10), seed=2)
        solution = solve_exact(splitting(), ring)
        assert is_valid(splitting(), ring, solution)

    def test_derived_snapshot_rebuilds_reverse_slots(self):
        graph = LocalGraph(cycle(8), seed=1)
        problem = balanced_orientation()
        solution = solve_exact(problem, graph)
        assert is_valid(problem, graph, solution)
        graph.compiled.reverse_slots()
        graph.remove_edge(0, 1)
        graph.add_edge(0, 4)
        assert graph.compiled._np_rev is None
        assert violations(problem, graph, solution) == violations(
            plain(problem), graph, solution
        )


class TestSearch:
    @settings(max_examples=150, deadline=None)
    @given(instances(max_n=7), st.randoms(use_true_random=False))
    def test_first_solution_matches_the_predicate_search(self, case, rng):
        graph, problem, labeling = case
        # Pin some drawn labels, or some labels of a solution when there
        # is one, and let both searches complete the rest.
        try:
            solution = solve_exact(plain(problem), graph, max_steps=20_000)
        except SearchBudgetExceeded:
            solution = None
        source = solution if solution is not None and rng.random() < 0.5 else labeling
        fixed = {v: label for v, label in source.items() if rng.random() < 0.3}
        got = outcome(solve_exact, problem, graph, fixed, None, 20_000)
        want = outcome(solve_exact, plain(problem), graph, fixed, None, 20_000)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=6))
    def test_count_matches_brute_force(self, case):
        graph, problem, _ = case
        nodes = graph.nodes()
        pools = [problem.candidate_labels(graph, v) for v in nodes]
        assume(math.prod(map(len, pools)) <= 4096)
        brute = sum(
            all(problem.check(graph, dict(zip(nodes, combo)), v) for v in nodes)
            for combo in itertools.product(*pools)
        )
        assert count_solutions(problem, graph) == brute


class TestProperByPorts:
    def test_matches_an_edge_scan(self):
        graph = LocalGraph(nx.gnm_random_graph(30, 60, seed=4), seed=4)
        for seed in range(20):
            rng = random.Random(seed)
            coloring = {v: rng.choice([1, 2, 3, 1.0, "a"]) for v in graph.nodes()}
            scan = all(coloring[u] != coloring[v] for u, v in graph.edges())
            assert proper_by_ports(graph, coloring) is scan

    def test_missing_or_unhashable_colour_defers(self):
        graph = LocalGraph(cycle(4))
        assert not proper_by_ports(graph, {0: 1, 1: 2, 2: 1})
        assert not proper_by_ports(graph, {0: 1, 1: 2, 2: 1, 3: [2]})
