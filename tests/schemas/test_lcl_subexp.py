"""Tests for the Section 4 LCL schemas on sub-exponential growth."""

import random
from collections import Counter

import pytest

from repro.advice import AdviceError, ones_density
from repro.advice.bitstream import bits_to_int, int_to_bits, pack_parts, unpack_parts
from repro.advice.schema import InvalidAdvice
from repro.core.api import default_instance, make_schema
from repro.graphs import cycle, grid
from repro.lcl import (
    is_valid,
    maximal_independent_set,
    vertex_coloring,
)
from repro.local import LocalGraph
from repro.local.compiled import InducedSubgraph
from repro.schemas import (
    LCLSubexpSchema,
    OneBitLCLSchema,
    build_clustering,
    lcl_subexp,
    pinned_nodes,
)

# The smallest clustered 1-bit instance we know of: three clusters (phase
# colors 1, 3 and 4), so phase 3 runs on the graph phase 2 left unchanged.
ONE_BIT_X = 40


def _one_bit_instance():
    return LocalGraph(cycle(300), seed=1), OneBitLCLSchema(
        vertex_coloring(3), x=ONE_BIT_X
    )


def _phase_clusters(monkeypatch, call):
    """The clusters every phase of the clustering returns while ``call()``
    runs."""
    found = []
    original = lcl_subexp._cluster_phase

    def spy(*args):
        clusters = original(*args)
        found.extend(clusters)
        return clusters

    with monkeypatch.context() as patch:
        patch.setattr(lcl_subexp, "_cluster_phase", spy)
        call()
    return found


def _phase_graphs(graph, clusters):
    """Each cluster's phase graph: the nodes no earlier phase took."""
    return {
        c.center: frozenset(graph.nodes()).difference(
            *(k.members for k in clusters if k.color < c.color)
        )
        for c in clusters
    }


@pytest.fixture
def sweeps(monkeypatch):
    """Phase-graph sweeps, counted by (source, phase-graph members)."""
    counts = Counter()
    original = InducedSubgraph.distances

    def spy(self, source, cutoff=None):
        counts[source, frozenset(self.nodes())] += 1
        return original(self, source, cutoff)

    monkeypatch.setattr(InducedSubgraph, "distances", spy)
    return counts


class TestClustering:
    def test_clusters_partition_with_leftovers(self):
        g = LocalGraph(cycle(120), seed=1)
        clustering = build_clustering(g, x=6, r=1)
        regions = clustering.regions()
        covered = set().union(*regions) if regions else set()
        assert covered == set(g.nodes())
        # Regions are pairwise disjoint.
        assert sum(len(r) for r in regions) == g.n

    def test_small_graph_fully_unclustered(self):
        g = LocalGraph(cycle(10), seed=2)
        clustering = build_clustering(g, x=6, r=1)
        assert not clustering.clusters
        assert clustering.unclustered

    def test_alpha_in_lemma_range(self):
        g = LocalGraph(cycle(200), seed=3)
        clustering = build_clustering(g, x=6, r=1)
        assert clustering.clusters
        for c in clustering.clusters:
            assert 6 <= c.alpha <= 12

    def test_x_too_small_rejected(self):
        g = LocalGraph(cycle(30), seed=4)
        with pytest.raises(AdviceError):
            build_clustering(g, x=2, r=1)

    def test_pinned_nodes_are_region_boundary(self):
        g = LocalGraph(cycle(120), seed=5)
        clustering = build_clustering(g, x=6, r=1)
        owner = clustering.region_of()
        pinned = pinned_nodes(g, clustering, 1)
        for v in pinned:
            assert any(
                owner[u] != owner[v] for u in g.ball(v, 1)
            )


class TestSharedPhaseLoop:
    """Encoder and decoders rebuild one clustering, each phase swept once."""

    @pytest.mark.parametrize("n, seed", [(120, 1), (10, 2), (200, 3), (120, 5)])
    def test_variable_length_decode_rebuilds_the_encoders_clusters(
        self, n, seed, monkeypatch
    ):
        g = LocalGraph(cycle(n), seed=seed)
        expected = build_clustering(g, x=6, r=1).clusters
        schema = LCLSubexpSchema(vertex_coloring(3), x=6)
        advice = schema.encode(g)
        rebuilt = _phase_clusters(monkeypatch, lambda: schema.decode(g, advice))
        assert rebuilt == expected

    def test_both_decoders_rebuild_the_clustered_one_bit_instance(
        self, monkeypatch
    ):
        g, schema = _one_bit_instance()
        expected = build_clustering(g, x=ONE_BIT_X, r=1).clusters
        assert len(expected) == 3
        advice = schema.encode(g)
        assert _phase_clusters(monkeypatch, lambda: schema.decode(g, advice)) == expected
        variable = LCLSubexpSchema(vertex_coloring(3), x=ONE_BIT_X)
        packed = variable.encode(g)
        assert _phase_clusters(monkeypatch, lambda: variable.decode(g, packed)) == expected

    def test_one_bit_encode_sweeps_one_clustering_and_one_detection(self, sweeps):
        g, schema = _one_bit_instance()
        build_clustering(g, x=ONE_BIT_X, r=1)
        clustering = Counter(sweeps)
        sweeps.clear()
        advice = schema.encode(g)
        encode = Counter(sweeps)
        sweeps.clear()
        schema.decode(g, advice)
        # The self-check is one center detection, and no sweep is repeated
        # after the clustering is built.
        assert encode == clustering + sweeps

    @pytest.mark.parametrize("one_bit", [True, False])
    def test_decode_sweeps_each_candidate_once_per_phase_graph(self, one_bit, sweeps):
        g, schema = _one_bit_instance()
        if not one_bit:
            schema = LCLSubexpSchema(vertex_coloring(3), x=ONE_BIT_X)
        clusters = build_clustering(g, x=ONE_BIT_X, r=1).clusters
        advice = schema.encode(g)
        sweeps.clear()
        schema.decode(g, advice)
        # Each center's phase distances are computed once ...
        for center, phase_graph in _phase_graphs(g, clusters).items():
            assert sweeps[center, phase_graph] == 1
        # ... and no candidate is swept twice in one phase graph, although
        # the 1-bit decoder runs phases 2 and 3 on one graph.
        assert max(sweeps.values()) == 1


class TestVariableLengthSchema:
    @pytest.mark.parametrize("n", [40, 120, 300])
    def test_three_coloring_cycles(self, n):
        g = LocalGraph(cycle(n), seed=n)
        run = LCLSubexpSchema(vertex_coloring(3), x=6).run(g)
        assert run.valid is True

    def test_mis_on_grid(self):
        g = LocalGraph(grid(9, 9), seed=6)
        run = LCLSubexpSchema(maximal_independent_set(), x=4).run(g)
        assert run.valid is True

    def test_mis_on_cycle(self):
        g = LocalGraph(cycle(150), seed=7)
        run = LCLSubexpSchema(maximal_independent_set(), x=6).run(g)
        assert run.valid is True

    def test_unsolvable_instance_rejected(self):
        g = LocalGraph(cycle(5), seed=8)
        with pytest.raises(AdviceError):
            LCLSubexpSchema(vertex_coloring(2), x=6).encode(g)

    def test_provided_solution_used(self):
        g = LocalGraph(cycle(40), seed=9)
        solution = {v: 1 + v % 2 for v in g.nodes()}
        run = LCLSubexpSchema(
            vertex_coloring(2), x=6, solution=solution
        ).run(g)
        assert run.valid is True

    def test_invalid_solution_rejected(self):
        g = LocalGraph(cycle(40), seed=10)
        bad = {v: 1 for v in g.nodes()}
        with pytest.raises(AdviceError):
            LCLSubexpSchema(vertex_coloring(2), x=6, solution=bad).encode(g)

    def test_r_below_problem_radius_rejected(self):
        with pytest.raises(AdviceError):
            LCLSubexpSchema(vertex_coloring(3), x=6, r=0)

    def test_rounds_bounded_independent_of_n(self):
        # Decode rounds are at most (#phase colors) * O(x); the number of
        # phase colors of a distance-30 coloring on a max-degree-2 graph is
        # at most the ball size 61, for every n.  So rounds stay below a
        # fixed f(Delta, x) bound while n grows.
        x, r = 6, 1
        bound = (2 * 5 * x + 1) * (2 * x + r + 2) + 4 * x + 10
        for n in (150, 300, 600):
            g = LocalGraph(cycle(n), seed=11)
            run = LCLSubexpSchema(vertex_coloring(3), x=x).run(g)
            assert run.valid
            assert run.rounds <= bound

    def test_neighbour_swap_blamed_within_rounds(self):
        # A T-round decode may blame only nodes within T of a fault.  Each
        # probed holder gets its first neighbour's advice; node 171 was
        # once blamed on node 419, 248 hops away, when every region's
        # search re-checked the whole labeling built so far.
        graph, kwargs = default_instance("lcl-subexp", 500, 0)
        schema = make_schema("lcl-subexp", **kwargs)
        advice = schema.encode(graph)
        rounds = schema.decode(graph, advice).rounds
        holders = sorted((v for v in graph.nodes() if advice[v]), key=graph.id_of)
        probed = {171} | set(random.Random(0).sample(holders, 12))
        assert 171 in holders
        blamed = 0
        for v in sorted(probed, key=graph.id_of):
            corrupted = dict(advice)
            corrupted[v] = advice[graph.neighbors(v)[0]]
            try:
                schema.decode(graph, corrupted)
            except InvalidAdvice as exc:
                blamed += 1
                assert graph.distance(v, exc.node) <= rounds, (v, exc.node)
        assert blamed


    def test_decode_runs_a_phase_only_for_held_colours(self, monkeypatch):
        # Rewriting the first center's colour to 65,536 once cost a phase
        # graph for every colour up to it (~1 s instead of ~5 ms).  A phase
        # with no remaining center removes nothing, so the decode must equal
        # the one with that colour moved just past the largest real one.
        graph, kwargs = default_instance("lcl-subexp", 500, 0)
        schema = make_schema("lcl-subexp", **kwargs)
        advice = schema.encode(graph)
        parts = {v: unpack_parts(advice[v], 2) for v in graph.nodes() if advice[v]}
        centers = {v: bits_to_int(c) for v, (c, _) in parts.items() if c}
        first = min(centers, key=graph.id_of)

        def recolored(color):
            corrupted = dict(advice)
            corrupted[first] = pack_parts([int_to_bits(color), parts[first][1]])
            return corrupted

        far = recolored(65_536)
        calls = []
        original = graph.induced

        def spy(nodes):
            calls.append(1)
            return original(nodes)

        with monkeypatch.context() as patch:
            patch.setattr(graph, "induced", spy)
            result = schema.decode(graph, far)
        held = {c for v, c in centers.items() if v != first} | {65_536}
        # One phase graph per held colour, plus the leftover components.
        assert len(calls) == len(held) + 1
        near = schema.decode(graph, recolored(max(centers.values()) + 1))
        assert result.labeling == near.labeling


class TestOneBitSchema:
    def test_unclustered_regime(self):
        g = LocalGraph(cycle(40), seed=12)
        run = OneBitLCLSchema(vertex_coloring(3), x=24).run(g)
        assert run.valid is True
        assert run.schema_type == "uniform-fixed"
        assert ones_density(g, run.advice) == 0.0

    @pytest.mark.slow
    def test_clustered_regime_sparse(self):
        g = LocalGraph(cycle(1400), seed=13)
        run = OneBitLCLSchema(vertex_coloring(3), x=100).run(g)
        assert run.valid is True
        assert run.beta == 1
        assert ones_density(g, run.advice) < 0.15  # sparse!

    @pytest.mark.slow
    def test_clustered_mis(self):
        g = LocalGraph(cycle(1300), seed=14)
        run = OneBitLCLSchema(maximal_independent_set(), x=100).run(g)
        assert run.valid is True

    @pytest.mark.slow
    def test_overlapping_phase_clusters_rejected_near_the_flip(self):
        # Flipping node 1277's bit makes detection find phase-1 centers 1115
        # and 1290, sharing 28 nodes; the encoder never emits that.
        g = LocalGraph(cycle(1400), seed=13)
        schema = OneBitLCLSchema(vertex_coloring(3), x=100)
        advice = schema.encode(g)
        rounds = schema.decode(g, advice).rounds
        flipped = dict(advice)
        flipped[1277] = "1" if advice[1277] == "0" else "0"
        with pytest.raises(InvalidAdvice, match="overlap") as exc:
            schema.decode(g, flipped)
        assert exc.value.node == 1290
        assert g.distance(1277, exc.value.node) <= rounds

    def test_x_too_small_for_code_rejected(self):
        g = LocalGraph(cycle(400), seed=15)
        with pytest.raises(AdviceError):
            OneBitLCLSchema(vertex_coloring(3), x=12).encode(g)


class TestOtherLCLsThroughTheSchema:
    """Theorem 4.1 is problem-generic: feed further catalog LCLs through."""

    def test_sinkless_orientation_on_torus(self):
        from repro.graphs import torus
        from repro.lcl import sinkless_orientation

        g = LocalGraph(torus(8, 8), seed=31)
        run = LCLSubexpSchema(sinkless_orientation(), x=4).run(g)
        assert run.valid is True

    def test_weak_coloring_on_cycle(self):
        from repro.lcl import weak_coloring

        g = LocalGraph(cycle(150), seed=32)
        run = LCLSubexpSchema(weak_coloring(2), x=6).run(g)
        assert run.valid is True

    def test_maximal_matching_on_cycle(self):
        from repro.lcl import maximal_matching

        g = LocalGraph(cycle(120), seed=33)
        run = LCLSubexpSchema(maximal_matching(), x=6).run(g)
        assert run.valid is True


class TestTriangularLattice:
    """A denser sub-exponential-growth family (Delta = 6, odd cycles)."""

    def test_three_coloring_triangular_grid(self):
        from repro.graphs import triangular_grid

        graph = triangular_grid(9, 9)
        g = LocalGraph(graph, seed=35)
        # Planted 3-coloring of the triangular lattice: (row + col) mod 3
        # (all three edge directions change the value).
        side = 9
        solution = {v: 1 + ((v // side) + (v % side)) % 3 for v in g.nodes()}
        run = LCLSubexpSchema(
            vertex_coloring(3), x=4, solution=solution
        ).run(g)
        assert run.valid is True


class TestHexGrid:
    def test_mis_on_hex_grid(self):
        from repro.graphs import hex_grid

        g = LocalGraph(hex_grid(5, 5), seed=36)
        run = LCLSubexpSchema(maximal_independent_set(), x=4).run(g)
        assert run.valid is True
