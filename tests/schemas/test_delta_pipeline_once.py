"""The Section 6 Delta-coloring stages run once, with unchanged results.

Three kernels of the pipeline were rewritten to do their work once: the
Voronoi clustering (one multi-source BFS instead of one BFS per center),
Linial's reduction step (each node's polynomial built and evaluated once)
and the Lemma 6.7 shift repair (each BFS-tree node checked once instead of
re-simulating the shift for every candidate).  The implementations they
replaced are kept below as references, and the new ones must agree with
them exactly: same assignment, same colors, same shift, same error.
"""

import math
import random
from typing import Dict, List, Optional, Tuple

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.advice import AdviceError
from repro.algorithms import (
    ColoringError,
    coloring_from_ids,
    linial_reduction_step,
    reduce_to_delta_plus_one,
    voronoi_clustering,
)
from repro.algorithms.decomposition import ClusteringError
from repro.graphs import planted_delta_colorable
from repro.local import LocalGraph
from repro.schemas import (
    ClusterColoringSchema,
    DeltaColoringSchema,
    DeltaPlusOneReduction,
    DeltaRepairSchema,
)

# ---------------------------------------------------------------------------
# Reference implementations (the per-center, per-call, per-candidate code)
# ---------------------------------------------------------------------------


def _reference_voronoi(graph, centers, max_radius=None, restrict_to=None):
    """One full BFS per center; keep the least (distance, center id)."""
    allowed = set(restrict_to) if restrict_to is not None else None
    assignment = {}
    best = {}
    for center in centers:
        if allowed is not None and center not in allowed:
            raise ClusteringError(f"center {center!r} outside restricted node set")
        dist = 0
        frontier = [center]
        seen = {center}
        while frontier and (max_radius is None or dist <= max_radius):
            for v in frontier:
                key = (dist, graph.id_of(center))
                if v not in best or key < best[v]:
                    best[v] = key
                    assignment[v] = center
            nxt = []
            for v in frontier:
                for u in graph.graph.neighbors(v):
                    if u in seen:
                        continue
                    if allowed is not None and u not in allowed:
                        continue
                    seen.add(u)
                    nxt.append(u)
            frontier = nxt
            dist += 1
    return assignment


def _smallest_prime_at_least(n):
    candidate = max(2, n)
    while True:
        if all(candidate % p for p in range(2, int(math.isqrt(candidate)) + 1)):
            return candidate
        candidate += 1


def _eval_poly(coeffs, x, q):
    acc = 0
    for coef in reversed(coeffs):
        acc = (acc * x + coef) % q
    return acc


def _reference_linial_step(graph, coloring, delta=None):
    """Every node rebuilds its own and its neighbors' polynomials."""
    c = max(set(coloring.values())) + 1
    if delta is None:
        delta = graph.max_degree
    delta = max(delta, 1)
    best: Optional[Tuple[int, int]] = None
    for k in range(1, max(2, c.bit_length()) + 1):
        q = _smallest_prime_at_least(k * delta + 1)
        while q ** (k + 1) < c:
            q = _smallest_prime_at_least(q + 1)
        if best is None or q < best[1]:
            best = (k, q)
    k, q = best

    def polynomial(color):
        digits = []
        for _ in range(k + 1):
            digits.append(color % q)
            color //= q
        return digits

    new_coloring = {}
    for v in graph.nodes():
        p_v = polynomial(coloring[v])
        neighbor_polys = [polynomial(coloring[u]) for u in graph.neighbors(v)]
        if any(p_u == p_v for p_u in neighbor_polys):
            raise ColoringError("Linial step requires a proper input coloring")
        chosen_x = None
        for x in range(q):
            y = _eval_poly(p_v, x, q)
            if all(_eval_poly(p_u, x, q) != y for p_u in neighbor_polys):
                chosen_x = x
                break
        new_coloring[v] = q * chosen_x + _eval_poly(p_v, chosen_x, q)
    return new_coloring


class _ReferenceRepair(DeltaRepairSchema):
    """Stage 3 with the per-candidate shift: rebuild the path and simulate
    the shift, checking every edge at a changed node."""

    def _repair_by_shift(self, graph, neighbors, working, u, max_radius):
        parents = {u: u}
        frontier = [u]
        depth = 0
        while frontier and depth <= max_radius:
            for x in sorted(frontier, key=graph.id_of):
                if x is not u and self._try_shift(graph, working, u, x, parents):
                    return True
            nxt = []
            for v in frontier:
                for w in graph.neighbors(v):
                    if w not in parents:
                        parents[w] = v
                        nxt.append(w)
            frontier = nxt
            depth += 1
        return False

    @staticmethod
    def _try_shift(graph, working, u, x, parents):
        delta = graph.max_degree
        path = [x]
        while path[-1] != u:
            path.append(parents[path[-1]])
        path.reverse()
        if any(working[p] > delta for p in path[1:]):
            return False
        new = {}
        for a, b in zip(path, path[1:]):
            new[a] = working[b]
        taken = {new.get(w, working[w]) for w in graph.graph.neighbors(x)}
        free = [c for c in range(1, delta + 1) if c not in taken]
        if not free:
            return False
        new[x] = free[0]
        for a in new:
            for b in graph.graph.neighbors(a):
                if new.get(a, working[a]) == new.get(b, working[b]):
                    return False
        working.update(new)
        return True


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def _planted(n, delta, seed):
    graph, _ = planted_delta_colorable(n, delta, seed=seed)
    return LocalGraph(graph, seed=seed + 500)


def _random_proper(g: LocalGraph, seed: int, palette: int) -> Dict:
    """A proper coloring in a random order: each node draws a color below
    ``palette`` and steps up past its colored neighbors' colors."""
    rng = random.Random(seed)
    order = list(g.nodes())
    rng.shuffle(order)
    coloring = {}
    for v in order:
        taken = {coloring[u] for u in g.neighbors(v) if u in coloring}
        color = rng.randrange(palette)
        while color in taken:
            color += 1
        coloring[v] = color
    return coloring


def _oracle(g: LocalGraph, seed: int) -> Dict:
    """A proper (Delta + 1)-coloring from a random permutation of ids."""
    rng = random.Random(seed)
    nodes = list(g.nodes())
    ranks = list(range(1, len(nodes) + 1))
    rng.shuffle(ranks)
    oracle, _ = reduce_to_delta_plus_one(g, dict(zip(nodes, ranks)))
    return oracle


graphs = st.builds(
    _planted,
    st.integers(12, 70),
    st.integers(3, 5),
    st.integers(0, 10_000),
)


# ---------------------------------------------------------------------------
# Voronoi clustering
# ---------------------------------------------------------------------------


class TestVoronoi:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(0, 9999),
        st.one_of(st.none(), st.integers(-1, 6)),
        st.booleans(),
        st.data(),
    )
    def test_matches_per_center_bfs(self, n, seed, max_radius, restrict, data):
        edges = data.draw(st.integers(0, 2 * n))
        g = LocalGraph(nx.gnm_random_graph(n, edges, seed=seed), seed=seed)
        nodes = sorted(g.nodes())
        centers = data.draw(st.lists(st.sampled_from(nodes), max_size=n // 2 + 1))
        restrict_to = None
        if restrict:
            restrict_to = set(data.draw(st.sets(st.sampled_from(nodes)))) | set(centers)
        expected = _reference_voronoi(g, centers, max_radius, restrict_to)
        got = voronoi_clustering(g, centers, max_radius, restrict_to)
        assert got.assignment == expected
        assert got.centers == list(centers)

    @settings(max_examples=25, deadline=None)
    @given(graphs, st.integers(2, 8), st.data())
    def test_matches_on_planted_graphs(self, g, spacing, data):
        nodes = sorted(g.nodes())
        centers = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=12))
        max_radius = data.draw(st.one_of(st.none(), st.integers(0, spacing)))
        expected = _reference_voronoi(g, centers, max_radius)
        assert voronoi_clustering(g, centers, max_radius).assignment == expected

    def test_equidistant_centers_tie_to_smaller_id(self):
        # 0 - 1 - 2 - 3 - 4: node 2 is two hops from both centers, and the
        # restricted run cuts the 0 side off at node 1.
        g = LocalGraph(nx.path_graph(5), seed=3)
        low = min([0, 4], key=g.id_of)
        clustering = voronoi_clustering(g, [4, 0])
        assert clustering.assignment[2] == low
        assert clustering.assignment == _reference_voronoi(g, [4, 0])
        cut = voronoi_clustering(g, [4, 0], restrict_to=[0, 2, 3, 4])
        assert cut.assignment == {0: 0, 2: 4, 3: 4, 4: 4}
        capped = voronoi_clustering(g, [4, 0], max_radius=1)
        assert capped.assignment == {0: 0, 1: 0, 3: 4, 4: 4}

    def test_center_outside_restriction_raises_like_reference(self):
        g = LocalGraph(nx.cycle_graph(8), seed=1)
        with pytest.raises(ClusteringError) as ref:
            _reference_voronoi(g, [0, 5], restrict_to=[0, 1, 2])
        with pytest.raises(ClusteringError) as got:
            voronoi_clustering(g, [0, 5], restrict_to=[0, 1, 2])
        assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# Linial's reduction step
# ---------------------------------------------------------------------------


class TestLinialStep:
    @settings(max_examples=60, deadline=None)
    @given(graphs, st.integers(0, 9999), st.sampled_from([2, 40, 5000, 2**20]))
    def test_matches_reference_on_random_proper_colorings(self, g, seed, palette):
        coloring = _random_proper(g, seed, palette)
        got = linial_reduction_step(g, coloring)
        assert got == _reference_linial_step(g, coloring)
        assert list(got) == list(g.nodes())
        assert all(type(c) is int for c in got.values())

    @settings(max_examples=20, deadline=None)
    @given(graphs, st.integers(1, 9))
    def test_matches_reference_with_explicit_delta(self, g, delta):
        coloring = coloring_from_ids(g)
        delta = max(delta, g.max_degree)
        assert linial_reduction_step(g, coloring, delta) == _reference_linial_step(
            g, coloring, delta
        )

    def test_isolated_nodes_take_the_first_point(self):
        g = LocalGraph(nx.empty_graph(4), seed=2)
        coloring = {v: 3 * v for v in g.nodes()}
        assert linial_reduction_step(g, coloring) == _reference_linial_step(g, coloring)

    @settings(max_examples=20, deadline=None)
    @given(graphs, st.integers(0, 9999))
    def test_improper_input_raises(self, g, seed):
        coloring = _random_proper(g, seed, 30)
        u, v = next(iter(g.edges()))
        coloring[v] = coloring[u]
        with pytest.raises(ColoringError, match="proper input coloring"):
            _reference_linial_step(g, coloring)
        with pytest.raises(ColoringError, match="proper input coloring"):
            linial_reduction_step(g, coloring)


# ---------------------------------------------------------------------------
# Lemma 6.7 shift repair
# ---------------------------------------------------------------------------


def _encode_outcome(stage, g, oracle):
    try:
        return stage.encode(g, oracle)
    except AdviceError as exc:
        return f"AdviceError: {exc}"


class TestShiftRepair:
    @settings(max_examples=60, deadline=None)
    @given(graphs, st.integers(0, 9999), st.sampled_from(["shift", "auto"]))
    def test_encode_matches_reference(self, g, seed, strategy):
        oracle = _oracle(g, seed)
        got = _encode_outcome(DeltaRepairSchema(strategy=strategy), g, oracle)
        expected = _encode_outcome(_ReferenceRepair(strategy=strategy), g, oracle)
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(graphs, st.integers(0, 9999), st.integers(0, 6))
    def test_each_shift_matches_reference(self, g, seed, max_radius):
        # Every bad node in turn, from the same working coloring, while
        # other color-(Delta + 1) nodes are still around.
        oracle = _oracle(g, seed)
        delta = g.max_degree
        neighbors = {v: g.neighbors(v) for v in g.nodes()}
        new, ref = DeltaRepairSchema(), _ReferenceRepair()
        for u in sorted(g.nodes(), key=g.id_of):
            if oracle[u] != delta + 1:
                continue
            got, expected = dict(oracle), dict(oracle)
            assert new._repair_by_shift(g, neighbors, got, u, max_radius) == (
                ref._repair_by_shift(g, neighbors, expected, u, max_radius)
            )
            assert got == expected

    def test_candidate_next_to_a_second_uncolored_node(self):
        # Delta = 3.  x (color 1) is u's only neighbor; x also sees y, a
        # second color-4 node, and z (color 2).  Its taken colors are
        # {1, 4, 2}: three of them, yet 3 is free, because 4 > Delta.
        g = LocalGraph(nx.Graph([("u", "x"), ("x", "y"), ("x", "z")]), seed=1)
        working = {"u": 4, "x": 1, "y": 4, "z": 2}
        neighbors = {v: g.neighbors(v) for v in g.nodes()}
        expected = dict(working)
        assert _ReferenceRepair()._repair_by_shift(g, neighbors, expected, "u", 4)
        assert DeltaRepairSchema()._repair_by_shift(g, neighbors, working, "u", 4)
        assert working == expected == {"u": 1, "x": 3, "y": 4, "z": 2}

    def test_grandparent_may_share_the_candidate_color(self):
        # Delta = 3.  a, then b and d, have no free color; c is the first
        # layer-3 candidate.  c's grandparent a has c's color 1, but a
        # moves to b's old color in the shift, so the shift to c is proper.
        edges = [("u", "a"), ("a", "b"), ("a", "d"), ("b", "c"), ("b", "e"),
                 ("d", "f"), ("d", "g")]
        names = ["u", "a", "b", "d", "c", "e", "f", "g"]
        g = LocalGraph(nx.Graph(edges), ids={v: i + 1 for i, v in enumerate(names)})
        working = {"u": 4, "a": 1, "b": 2, "d": 3, "c": 1, "e": 3, "f": 1, "g": 2}
        neighbors = {v: g.neighbors(v) for v in g.nodes()}
        expected = dict(working)
        assert _ReferenceRepair()._repair_by_shift(g, neighbors, expected, "u", 4)
        assert DeltaRepairSchema()._repair_by_shift(g, neighbors, working, "u", 4)
        assert working == expected
        assert [working[v] for v in "uabc"] == [1, 2, 1, 2]

    def test_no_shift_error_is_unchanged(self):
        # The A4 instances on which the pure shift gives up (seeds 0, 2, 6,
        # 8 and 11 of bench_ablation_repair) raise the same AdviceError.
        failures = 0
        for seed in (0, 2, 6, 8, 11):
            g = _planted(90, 4, seed)
            oracle, _ = reduce_to_delta_plus_one(g, coloring_from_ids(g))
            got = _encode_outcome(DeltaRepairSchema(strategy="shift"), g, oracle)
            expected = _encode_outcome(_ReferenceRepair(strategy="shift"), g, oracle)
            assert got == expected
            failures += isinstance(got, str)
        assert failures == 5

    @pytest.mark.parametrize("strategy", ["shift", "ball", "auto"])
    def test_a4_instances_unchanged(self, strategy):
        for seed in range(12):
            g = _planted(90, 4, seed)
            oracle, _ = reduce_to_delta_plus_one(g, coloring_from_ids(g))
            got = _encode_outcome(DeltaRepairSchema(strategy=strategy), g, oracle)
            expected = _encode_outcome(_ReferenceRepair(strategy=strategy), g, oracle)
            assert got == expected


# ---------------------------------------------------------------------------
# Each stage decoded once per encode
# ---------------------------------------------------------------------------


def _count_decodes(monkeypatch, *classes) -> Dict[str, List[int]]:
    calls: Dict[str, List[int]] = {cls.__name__: [] for cls in classes}
    for cls in classes:
        original = cls.decode

        def spy(self, *args, _original=original, _name=cls.__name__, **kwargs):
            calls[_name].append(1)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "decode", spy)
    return calls


class TestStagesDecodedOnce:
    def test_delta_coloring_encode_decodes_each_stage_once(self, monkeypatch):
        g = _planted(200, 4, 0)
        schema = DeltaColoringSchema()
        calls = _count_decodes(
            monkeypatch, ClusterColoringSchema, DeltaPlusOneReduction, DeltaRepairSchema
        )
        advice = schema.encode(g)
        assert {name: len(c) for name, c in calls.items()} == {
            "ClusterColoringSchema": 1,
            "DeltaPlusOneReduction": 1,
            "DeltaRepairSchema": 0,
        }
        result = schema.decode(g, advice)
        assert {name: len(c) for name, c in calls.items()} == {
            "ClusterColoringSchema": 2,
            "DeltaPlusOneReduction": 2,
            "DeltaRepairSchema": 1,
        }
        assert schema.check_solution(g, result.labeling)

    def test_labeling_handed_forward_is_the_decoded_one(self):
        g = _planted(150, 4, 1)
        pipeline = DeltaColoringSchema()._pipeline
        advice, labeling = pipeline.encode_labeled(g)
        assert advice == pipeline.encode(g)
        assert labeling == pipeline.decode(g, advice).labeling
        inner_advice, inner_labeling = pipeline.first.encode_labeled(g)
        assert inner_labeling == pipeline.decode(g, advice).detail["oracle_labeling"]
