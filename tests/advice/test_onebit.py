"""Tests for the Lemma 9.2 converter (variable-length -> one bit)."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.advice import (
    AdviceError,
    encode_paths,
    encode_payload,
    payload_table,
    read_marker_stream,
    required_window,
    try_decode_stream,
)
from repro.graphs import cycle, grid
from repro.local import LocalGraph


def reference_table(g, bits, window):
    """Per-start reference for :func:`payload_table`: one BFS per 1-node."""
    table = {}
    for start in g.nodes():
        if bits.get(start) != "1":
            continue
        counts = [0] * (window + 1)
        reach = nx.single_source_shortest_path_length(g.graph, start, window)
        for u, d in reach.items():
            if bits.get(u) == "1":
                counts[d] += 1
        if max(counts) > 1:
            continue
        stream = "".join(str(c) for c in counts)
        parsed = try_decode_stream(stream)
        if parsed is not None and "1" not in stream[parsed[1]:]:
            table[start] = parsed[0]
    return table


class TestEncodePaths:
    def test_single_holder_cycle(self):
        g = LocalGraph(cycle(60), seed=1)
        layout = encode_paths(g, {0: "1011"})
        assert set(layout.bits) == set(g.nodes())
        assert all(b in "01" for b in layout.bits.values())
        assert payload_table(g, layout.bits, layout.window) == {0: "1011"}

    def test_two_separated_holders(self):
        g = LocalGraph(cycle(120), seed=2)
        payloads = {0: "01", 60: "10"}
        layout = encode_paths(g, payloads)
        assert payload_table(g, layout.bits, layout.window) == payloads

    def test_interior_nodes_do_not_decode(self):
        g = LocalGraph(cycle(80), seed=3)
        layout = encode_paths(g, {0: "111"})
        decoded = payload_table(g, layout.bits, layout.window)
        assert list(decoded) == [0]

    def test_too_close_holders_rejected(self):
        g = LocalGraph(cycle(40), seed=4)
        with pytest.raises(AdviceError):
            encode_paths(g, {0: "1", 5: "0"})

    def test_component_too_small_rejected(self):
        g = LocalGraph(cycle(10), seed=5)
        with pytest.raises(AdviceError):
            encode_paths(g, {0: "10101010"})

    def test_window_too_small_rejected(self):
        g = LocalGraph(cycle(60), seed=6)
        with pytest.raises(AdviceError):
            encode_paths(g, {0: "1111"}, window=5)

    def test_required_window(self):
        assert required_window({0: ""}) == 9
        assert required_window({0: "1"}) == 13

    def test_on_grid(self):
        g = LocalGraph(grid(20, 20), seed=7)
        payloads = {0: "10", 399: "01"}
        layout = encode_paths(g, payloads)
        assert payload_table(g, layout.bits, layout.window) == payloads

    def test_empty_payload_roundtrip(self):
        g = LocalGraph(cycle(40), seed=8)
        layout = encode_paths(g, {3: ""})
        assert payload_table(g, layout.bits, layout.window) == {3: ""}

    @settings(max_examples=15, deadline=None)
    @given(st.text(alphabet="01", min_size=0, max_size=6), st.integers(0, 10**6))
    def test_roundtrip_property(self, payload, seed):
        g = LocalGraph(cycle(80), seed=seed)
        layout = encode_paths(g, {0: payload})
        assert payload_table(g, layout.bits, layout.window) == {0: payload}


class TestDecoding:
    def test_reader_uniqueness_guard(self):
        counts = [int(b) for b in encode_payload("1")] + [0, 0]
        assert read_marker_stream(counts) == "1"
        counts[3] = 2  # two ones in one sphere, where the code has a 1
        assert read_marker_stream(counts) is None

    def test_table_uniqueness_guard(self):
        g = LocalGraph(cycle(40), seed=9)
        layout = encode_paths(g, {0: "1"})
        bits = dict(layout.bits)
        twin = next(
            v for v in g.nodes()
            if bits[v] == "0" and g.distance(0, v) == 1
        )
        bits[twin] = "1"  # two ones at distance 1 from the holder
        assert 0 not in payload_table(g, bits, layout.window)

    def test_table_requires_one_bit_start(self):
        g = LocalGraph(cycle(40), seed=10)
        layout = encode_paths(g, {0: "1"})
        table = payload_table(g, layout.bits, layout.window)
        assert table == {0: "1"}
        assert all(layout.bits[v] == "1" for v in table)

    def test_trailing_ones_rejected(self):
        g = LocalGraph(cycle(100), seed=12)
        layout = encode_paths(g, {0: "1"}, window=20)
        bits = dict(layout.bits)
        # Plant a stray 1 inside the window but beyond the code.
        stray = next(
            v for v in g.nodes()
            if bits[v] == "0" and 14 <= g.distance(0, v) <= layout.window
        )
        bits[stray] = "1"
        assert 0 not in payload_table(g, bits, layout.window)
        counts = [int(b) for b in encode_payload("1")] + [0, 1, 0]
        assert read_marker_stream(counts) is None

    def test_no_ones_no_payloads(self):
        g = LocalGraph(cycle(30), seed=13)
        assert payload_table(g, {v: "0" for v in g.nodes()}, 13) == {}

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["cycle", "grid"]),
        st.integers(10, 14),
        st.text(alphabet="01", min_size=0, max_size=2),
        st.integers(0, 4),
        st.lists(st.integers(0, 10**6), max_size=6),
        st.integers(0, 10**6),
    )
    def test_table_matches_per_start_reference(
        self, family, size, payload, slack, flips, seed
    ):
        g = LocalGraph(
            cycle(8 * size) if family == "cycle" else grid(size, size),
            seed=seed,
        )
        window = len(encode_payload(payload)) + slack
        layout = encode_paths(g, {0: payload}, window=window)
        bits = dict(layout.bits)
        # Flip bits where they can matter: within reach of the code.
        near = sorted(g.ball(0, window + 1))
        for f in flips:
            v = near[f % len(near)]
            bits[v] = "1" if bits[v] == "0" else "0"
        assert payload_table(g, bits, layout.window) == reference_table(
            g, bits, layout.window
        )


class TestOneBitConversion:
    """The generic Lemma 9.2 wrapper around real schemas."""

    def test_wraps_two_coloring(self):
        from repro.advice import OneBitConversion
        from repro.schemas import TwoColoringSchema

        g = LocalGraph(cycle(300), seed=21)
        wrapped = OneBitConversion(TwoColoringSchema(spacing=40), window=13)
        run = wrapped.run(g)
        assert run.valid is True
        assert run.schema_type == "uniform-fixed"
        assert run.beta == 1

    def test_wraps_cluster_coloring(self):
        from repro.advice import OneBitConversion
        from repro.schemas import ClusterColoringSchema

        g = LocalGraph(cycle(600), seed=22)
        wrapped = OneBitConversion(ClusterColoringSchema(spacing=60), window=41)
        run = wrapped.run(g)
        assert run.valid is True

    def test_decode_needs_window(self):
        from repro.advice import AdviceError, OneBitConversion
        from repro.schemas import TwoColoringSchema

        g = LocalGraph(cycle(300), seed=23)
        wrapped = OneBitConversion(TwoColoringSchema(spacing=40))
        advice = wrapped.encode(g)
        with pytest.raises(AdviceError):
            wrapped.decode(g, advice)

    def test_rejects_crowded_inner_schema(self):
        from repro.advice import AdviceError, OneBitConversion
        from repro.schemas import TwoColoringSchema

        g = LocalGraph(cycle(100), seed=24)
        # Spacing 8 << 2 * window + 2: holders collide.
        wrapped = OneBitConversion(TwoColoringSchema(spacing=8), window=13)
        with pytest.raises(AdviceError):
            wrapped.encode(g)

    def test_rounds_include_extraction(self):
        from repro.advice import OneBitConversion
        from repro.schemas import TwoColoringSchema

        g = LocalGraph(cycle(300), seed=25)
        inner = TwoColoringSchema(spacing=40)
        wrapped = OneBitConversion(inner, window=13)
        advice = wrapped.encode(g)
        wrapped_result = wrapped.decode(g, advice)
        inner_result = inner.decode(g, inner.encode(g))
        assert wrapped_result.rounds == inner_result.rounds + 13

    def test_wraps_only_advice_schemas(self):
        from repro.advice import OneBitConversion

        with pytest.raises(TypeError):
            OneBitConversion(object())
