"""``View.holders()`` must list exactly what a scan over the view finds.

A sparse-advice decoder reads the few advice holders of its view through
``holders()`` instead of calling ``advice_of``/``distance``/``id_of`` on
every view node.  On every engine (the scalar gather's and the full and
roots-subset batched gather's ``LazyView``) and through a
:class:`RecordingAdviceMap`, the list must
equal a reference scan over ``view.nodes``, and with the witness recorder
armed it must record what that scan records.  The 2-coloring decoder
built on it must answer exactly as the old full-view scan did: same
labels, same ``InvalidAdvice`` node, same ``AdviceService`` answers.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.advice.schema import InvalidAdvice
from repro.graphs import cycle, grid
from repro.local import LocalGraph, gather_all_views, gather_view, run_view_algorithm
from repro.local.vectorized import gather_ball_batch, gather_views_batched
from repro.local.views import (
    RecordingAdviceMap,
    View,
    mark_order_invariant,
    record_locality_witness,
)
from repro.schemas.two_coloring import TwoColoringSchema, _nearest_anchor_color
from repro.serve import AdviceService


def _scan_holders(view):
    """Reference: every view node with non-empty advice, sorted."""
    return sorted(
        (view.distances[v], view.ids[v], v, view.advice[v])
        for v in view.nodes
        if view.advice.get(v, "")
    )


def _old_nearest_anchor_color(view: View) -> int:
    """The full-view scan the 2-coloring decoder ran before ``holders()``."""
    best = min(
        (
            (view.distance(v), view.id_of(v), v)
            for v in view.nodes
            if view.advice_of(v)
        ),
        default=None,
    )
    if best is None:
        raise InvalidAdvice(
            f"node {view.center!r}: no anchor within {view.radius} hops",
            node=view.center,
        )
    distance, _, anchor = best
    color = 1 if view.advice_of(anchor) == "1" else 2
    return color if distance % 2 == 0 else 3 - color


@st.composite
def _instances(draw):
    n = draw(st.integers(1, 40))
    p = draw(st.floats(0.0, 0.3))
    seed = draw(st.integers(0, 10_000))
    graph = LocalGraph(nx.gnp_random_graph(n, p, seed=seed), seed=seed)
    nodes = graph.nodes()
    held = draw(st.lists(st.sampled_from(nodes), max_size=max(1, n // 4), unique=True))
    advice = {v: "" for v in nodes}
    for v in held:
        advice[v] = draw(st.sampled_from(["0", "1", "01", "110"]))
    radius = draw(st.integers(0, 4))
    return graph, advice, radius


class TestHoldersMatchScan:
    @settings(max_examples=80, deadline=None)
    @given(_instances())
    def test_every_engine_agrees(self, inst):
        graph, advice, radius = inst
        scalar = gather_all_views(graph, radius, advice=advice)
        full = gather_views_batched(graph, radius, advice=advice)
        for v, view in scalar.items():
            expected = _scan_holders(view)
            assert view.holders() == expected
            assert full[v].holders() == expected
            assert full[v].materialize().holders() == expected

    @settings(max_examples=60, deadline=None)
    @given(_instances(), st.data())
    def test_roots_subset_batches(self, inst, data):
        graph, advice, radius = inst
        roots = data.draw(
            st.lists(st.integers(0, graph.n - 1), min_size=1, max_size=graph.n)
        )
        batch = gather_ball_batch(graph, radius, advice=advice, roots=roots)
        nodes = graph.compiled.nodes
        for slot, root in enumerate(roots):
            view = batch.view(slot)
            assert view.holders() == _scan_holders(
                gather_view(graph, nodes[root], radius, advice)
            )
        assert graph.compiled._np_balls is None  # only all-roots sweeps stay

    @settings(max_examples=40, deadline=None)
    @given(_instances())
    def test_through_recording_advice_map(self, inst):
        graph, advice, radius = inst
        recording = RecordingAdviceMap(advice)
        plain = gather_views_batched(graph, radius, advice=advice)
        for v, view in gather_views_batched(graph, radius, advice=recording).items():
            assert view.holders() == plain[v].holders()
        for v, view in gather_all_views(graph, radius, advice=recording).items():
            assert view.holders() == plain[v].holders()

    def test_subset_batch_reads_only_its_balls(self):
        graph = LocalGraph(cycle(200), seed=1)
        advice = {v: ("1" if graph.id_of(v) % 7 == 0 else "") for v in graph.nodes()}
        read = []

        class Spy(dict):
            def get(self, key, default=None):
                read.append(key)
                return super().get(key, default)

        batch = gather_ball_batch(graph, 2, advice=Spy(advice), roots=[0, 100])
        batch.view(0).holders()
        assert len(set(read)) <= 10  # two radius-2 balls of a cycle


class TestHoldersWitness:
    @settings(max_examples=40, deadline=None)
    @given(_instances(), st.booleans())
    def test_records_what_an_advice_of_scan_records(self, inst, batched):
        graph, advice, radius = inst
        gather = gather_views_batched if batched else gather_all_views
        for view in gather(graph, radius, advice=advice).values():
            with record_locality_witness() as rec:
                view.holders()
                via_holders = rec.witness()
            # The scan runs on a plain View, the reference the lazy
            # view's recording must match.
            plain = view.materialize()
            with record_locality_witness() as rec:
                for u in plain.nodes:
                    plain.advice_of(u)
                via_scan = rec.witness()
            assert via_holders == via_scan


def _anchor_free(graph, advice, spacing):
    """Advice with the anchors around the lowest-id node removed."""
    start = min(graph.nodes(), key=graph.id_of)
    stripped = dict(advice)
    for v in graph.ball(start, spacing - 1):
        stripped[v] = ""
    return stripped


class TestNearestAnchorOracle:
    @pytest.mark.parametrize("raw", [grid(9, 9), cycle(120), grid(4, 5)])
    @pytest.mark.parametrize("spacing", [2, 4, 8])
    def test_labels_match_the_old_scan(self, raw, spacing):
        graph = LocalGraph(raw, seed=spacing)
        schema = TwoColoringSchema(spacing=spacing)
        advice = schema.encode(graph)
        old = run_view_algorithm(
            graph, spacing - 1, mark_order_invariant(_old_nearest_anchor_color), advice=advice
        )
        assert schema.decode(graph, advice).labeling == old.outputs

    @pytest.mark.parametrize("raw", [grid(9, 9), cycle(120), grid(4, 5)])
    def test_invalid_advice_names_the_same_node(self, raw):
        graph = LocalGraph(raw, seed=5)
        schema = TwoColoringSchema(spacing=4)
        advice = _anchor_free(graph, schema.encode(graph), 4)
        with pytest.raises(InvalidAdvice) as old:
            run_view_algorithm(graph, 3, _old_nearest_anchor_color, advice=advice)
        with pytest.raises(InvalidAdvice) as new:
            schema.decode(graph, advice)
        assert new.value.node == old.value.node
        assert str(new.value) == str(old.value)

    @settings(max_examples=40, deadline=None)
    @given(_instances())
    def test_every_view_matches_the_old_scan(self, inst):
        graph, advice, radius = inst
        advice = {v: (b[:1] if b else "") for v, b in advice.items()}
        for gather in (gather_all_views, gather_views_batched):
            for view in gather(graph, radius, advice=advice).values():
                try:
                    expected = _old_nearest_anchor_color(view)
                except InvalidAdvice as exc:
                    with pytest.raises(InvalidAdvice) as got:
                        _nearest_anchor_color(view)
                    assert got.value.node == exc.node
                else:
                    assert _nearest_anchor_color(view) == expected

    @pytest.mark.parametrize("raw", [grid(12, 12), cycle(150)])
    def test_advice_service_answers_match_the_old_scan(self, raw):
        graph = LocalGraph(raw, seed=2)
        service = AdviceService(TwoColoringSchema(spacing=6), graph, sample_rate=None)
        nodes = sorted(graph.nodes(), key=graph.id_of)
        batch = {r.node: r.label for r in service.query_batch(nodes)}  # vectorized subset
        single = {v: service.query(v).label for v in nodes[:20]}  # scalar
        service.close()
        for v in nodes:
            view = gather_view(graph, v, service.radius, service.advice)
            assert batch[v] == _old_nearest_anchor_color(view)
            if v in single:
                assert single[v] == batch[v]
