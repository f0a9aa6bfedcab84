"""Tests for the Pi_v 2-coloring schemas (Section 3.5 running example)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.advice import AdviceError, InvalidAdvice, ones_density
from repro.graphs import cycle, grid, path, random_bipartite_regular
from repro.local import LocalGraph
from repro.schemas import OneBitTwoColoringSchema, TwoColoringSchema


class TestTwoColoringSchema:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: cycle(30),
            lambda: grid(7, 7),
            lambda: path(25),
            lambda: random_bipartite_regular(15, 3, seed=1),
        ],
    )
    def test_valid_on_bipartite_families(self, maker):
        g = LocalGraph(maker(), seed=2)
        run = TwoColoringSchema(spacing=6).run(g)
        assert run.valid is True
        assert run.beta == 1

    def test_rejects_odd_cycle(self):
        g = LocalGraph(cycle(9), seed=3)
        with pytest.raises(AdviceError):
            TwoColoringSchema().encode(g)

    def test_sparser_spacing_fewer_bits_more_rounds(self):
        g = LocalGraph(cycle(200), seed=4)
        tight = TwoColoringSchema(spacing=4).run(g)
        loose = TwoColoringSchema(spacing=20).run(g)
        assert loose.total_advice_bits < tight.total_advice_bits
        assert loose.rounds > tight.rounds
        assert tight.valid and loose.valid

    def test_rounds_bounded_by_spacing(self):
        g = LocalGraph(cycle(100), seed=5)
        run = TwoColoringSchema(spacing=8).run(g)
        assert run.rounds <= 8

    def test_handles_multiple_components(self):
        import networkx as nx

        g = LocalGraph(nx.disjoint_union(cycle(10), grid(4, 4)), seed=6)
        run = TwoColoringSchema(spacing=5).run(g)
        assert run.valid is True

    def test_missing_anchor_detected(self):
        g = LocalGraph(cycle(40), seed=7)
        schema = TwoColoringSchema(spacing=6)
        with pytest.raises(InvalidAdvice):
            schema.decode(g, {v: "" for v in g.nodes()})

    def test_invalid_spacing_rejected(self):
        with pytest.raises(AdviceError):
            TwoColoringSchema(spacing=1)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=30))
    def test_even_cycles_property(self, half):
        g = LocalGraph(cycle(2 * half), seed=half)
        run = TwoColoringSchema(spacing=5).run(g)
        assert run.valid is True


class TestOneBitTwoColoringSchema:
    def test_valid_and_uniform(self):
        g = LocalGraph(cycle(200), seed=1)
        run = OneBitTwoColoringSchema().run(g)
        assert run.valid is True
        assert run.schema_type == "uniform-fixed"
        assert run.beta == 1

    def test_sparse_density(self):
        g = LocalGraph(cycle(400), seed=2)
        run = OneBitTwoColoringSchema(spacing=100).run(g)
        assert run.valid
        assert ones_density(g, run.advice) < 0.1

    def test_spacing_floor_enforced(self):
        schema = OneBitTwoColoringSchema(spacing=3)
        assert schema.spacing >= 2 * OneBitTwoColoringSchema.WINDOW + 3


class TestNearestSources:
    """One-bit 2-coloring finds every node's anchor with one multi-source
    BFS; it must give each node what its own capped BFS gives."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(0, 9999),
        st.integers(0, 6),
        st.data(),
    )
    def test_matches_per_node_bfs(self, n, seed, radius, data):
        import networkx as nx

        from repro.algorithms.decomposition import nearest_centers

        edges = data.draw(st.integers(0, 2 * n))
        g = LocalGraph(nx.gnm_random_graph(n, edges, seed=seed), seed=seed)
        sources = data.draw(st.sets(st.sampled_from(g.nodes()), max_size=n // 2 + 1))
        expected = {}
        for v in g.nodes():
            for distance, layer in enumerate(g.bfs_layers(v, radius)):
                starts = [u for u in layer if u in sources]
                if starts:
                    expected[v] = (min(starts, key=g.id_of), distance)
                    break
        assert nearest_centers(g, sources, radius) == expected


def _reference_repair_advice(schema, graph, advice, sites, radius, labeling):
    """The labeled-path advice patch with one early-exit BFS per region
    node: resync the anchor bits in the region, then plant an anchor on
    each region node (in id order) that sees none within ``spacing - 1``
    hops, counting anchors planted earlier in the sweep."""
    from repro.advice.schema import repair_region

    def sees_anchor(w, reach):
        if patched.get(w, ""):
            return True
        seen, frontier = {w}, [w]
        for _ in range(reach):
            nxt = []
            for x in frontier:
                for y in graph.neighbors(x):
                    if y not in seen:
                        if patched.get(y, ""):
                            return True
                        seen.add(y)
                        nxt.append(y)
            if not nxt:
                return False
            frontier = nxt
        return False

    patched, changed = dict(advice), False
    reach = schema.spacing - 1
    region = repair_region(graph, sites, max(radius, reach))
    for w in region:
        bits = patched.get(w, "")
        want = "1" if labeling.get(w) == 1 else "0"
        if bits and bits != want:
            patched[w] = want
            changed = True
    for w in region:
        if not sees_anchor(w, reach):
            patched[w] = "1" if labeling.get(w) == 1 else "0"
            changed = True
    return patched if changed else None


class TestLabeledRepairAdvice:
    """The labeled advice patch covers the region in one sweep; it must
    plant exactly the anchors the per-node early-exit BFS plants."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(0, 9999),
        st.integers(2, 6),
        st.integers(0, 5),
        st.data(),
    )
    def test_matches_per_node_bfs(self, n, seed, spacing, radius, data):
        import networkx as nx

        raw = nx.bipartite.random_graph(n, n, data.draw(st.floats(0.02, 0.3)), seed=seed)
        g = LocalGraph(raw, seed=seed)
        labeling = {v: 1 + raw.nodes[v]["bipartite"] for v in g.nodes()}
        nodes = g.nodes()
        holders = data.draw(st.sets(st.sampled_from(nodes), max_size=n // 3 + 1))
        advice = {v: "" for v in nodes}
        for v in holders:
            advice[v] = data.draw(st.sampled_from(["0", "1"]))
        sites = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
        schema = TwoColoringSchema(spacing=spacing)
        expected = _reference_repair_advice(schema, g, advice, sites, radius, labeling)
        assert schema.repair_advice(g, advice, sites, radius, labeling) == expected

    def test_planted_anchor_covers_later_region_nodes(self):
        g = LocalGraph(path(40), seed=5)
        labeling = {v: 1 + v % 2 for v in g.nodes()}
        advice = {v: "" for v in g.nodes()}
        schema = TwoColoringSchema(spacing=4)
        sites = [20]
        expected = _reference_repair_advice(schema, g, advice, sites, 6, labeling)
        patched = schema.repair_advice(g, advice, sites, 6, labeling)
        assert patched == expected
        planted = [v for v in g.nodes() if patched[v]]
        # 13 region nodes, but each plant covers its neighbours within 3
        # hops, so far fewer plants are needed than region nodes.
        assert 1 < len(planted) < 13
        assert all(patched[v] == ("1" if labeling[v] == 1 else "0") for v in planted)


class TestMessagePassingDecoder:
    """The explicit synchronous decoder must match the view-based one."""

    import pytest as _pytest

    @_pytest.mark.parametrize("n,spacing", [(24, 6), (40, 8), (60, 10)])
    def test_agrees_with_view_decoder(self, n, spacing):
        from repro.local import run_message_passing
        from repro.schemas import TwoColoringMessagePassing

        g = LocalGraph(cycle(n), seed=n)
        schema = TwoColoringSchema(spacing=spacing)
        advice = schema.encode(g)
        via_views = schema.decode(g, advice)
        via_messages = run_message_passing(
            g, lambda: TwoColoringMessagePassing(spacing), advice=advice
        )
        assert via_messages.outputs == via_views.labeling
        assert via_messages.rounds == via_views.rounds

    def test_no_anchor_raises(self):
        from repro.advice import InvalidAdvice
        from repro.local import run_message_passing
        from repro.schemas import TwoColoringMessagePassing

        g = LocalGraph(cycle(12), seed=1)
        with self._pytest.raises(InvalidAdvice):
            run_message_passing(
                g, lambda: TwoColoringMessagePassing(4), advice={}
            )
