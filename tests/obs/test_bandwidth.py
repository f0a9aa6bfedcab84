"""Bits-on-wire accounting: measure_bits, policies, meter, flooding."""

import dataclasses
import math

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.api import solve_with_advice
from repro.graphs import cycle, grid
from repro.local import LocalGraph
from repro.obs.bandwidth import (
    CONGEST,
    LOCAL,
    OFF,
    BandwidthExceeded,
    BandwidthMeter,
    BandwidthPolicy,
    BandwidthProfile,
    current_bandwidth_policy,
    flooding_bandwidth,
    id_bits,
    measure_bits,
    parse_policy,
    use_bandwidth_policy,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    histogram_of,
    sorted_histogram,
)


class TestMeasureBits:
    def test_scalars(self):
        assert measure_bits(None) == 1
        assert measure_bits(True) == 1
        assert measure_bits(False) == 1
        assert measure_bits(0) == 2  # sign + one magnitude bit
        assert measure_bits(1) == 2
        assert measure_bits(-1) == 2
        assert measure_bits(255) == 9
        assert measure_bits(3.14) == 64

    def test_bitstrings_cost_their_length(self):
        assert measure_bits("") == 0
        assert measure_bits("0") == 1
        assert measure_bits("0101") == 4

    def test_text_costs_a_byte_per_char(self):
        assert measure_bits("ping") == 32
        assert measure_bits(b"ping") == 32

    def test_containers(self):
        # 2 framing bits + (1 separator + item) per element.
        assert measure_bits(()) == 2
        assert measure_bits((1,)) == 2 + 1 + 2
        assert measure_bits([1, 1]) == 2 + 2 * (1 + 2)
        assert measure_bits({"01": 1}) == 2 + 1 + 2 + 2

    def test_dataclass_sizer_is_cached_per_class(self):
        @dataclasses.dataclass
        class Msg:
            round: int
            label: str

        first = measure_bits(Msg(3, "01"))
        assert first == 2 + (1 + measure_bits(3)) + (1 + 2)
        from repro.obs import bandwidth as bw

        assert Msg in bw._SIZERS  # resolved once, cached by class
        assert measure_bits(Msg(3, "01")) == first

    def test_plain_object_measured_by_attributes(self):
        class Obj:
            def __init__(self):
                self.x = 1

        assert measure_bits(Obj()) == measure_bits({"x": 1})

    def test_deterministic(self):
        payload = ({"a": (1, 2)}, "0110", -7)
        assert measure_bits(payload) == measure_bits(payload)


class TestPolicy:
    def test_capacity_is_budget_times_log_n(self):
        assert id_bits(2) == 1
        assert id_bits(60) == 6
        assert id_bits(1024) == 10
        assert CONGEST(1).capacity(60) == 6
        assert CONGEST(4).capacity(60) == 24
        assert LOCAL.capacity(60) is None
        assert OFF.capacity(60) is None

    def test_records_and_bounded(self):
        assert LOCAL.records and not LOCAL.bounded
        assert CONGEST(2).records and CONGEST(2).bounded
        assert not OFF.records

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            BandwidthPolicy("turbo")
        with pytest.raises(ValueError):
            BandwidthPolicy("congest")  # needs a budget
        with pytest.raises(ValueError):
            BandwidthPolicy("congest", 0)
        with pytest.raises(ValueError):
            BandwidthPolicy("local", 3)  # local takes no budget

    def test_parse_policy(self):
        assert parse_policy("local") == LOCAL
        assert parse_policy("off") == OFF
        assert parse_policy("congest", 4) == CONGEST(4)
        assert parse_policy("CONGEST") == CONGEST(1)
        with pytest.raises(ValueError):
            parse_policy("turbo")

    def test_describe(self):
        assert LOCAL.describe() == "LOCAL"
        assert CONGEST(3).describe() == "CONGEST(B=3)"

    def test_ambient_policy_context(self):
        assert current_bandwidth_policy() == LOCAL
        with use_bandwidth_policy(CONGEST(2)):
            assert current_bandwidth_policy() == CONGEST(2)
            with use_bandwidth_policy(OFF):
                assert current_bandwidth_policy() == OFF
            assert current_bandwidth_policy() == CONGEST(2)
        assert current_bandwidth_policy() == LOCAL

    def test_ambient_policy_rejects_non_policy(self):
        with pytest.raises(TypeError):
            with use_bandwidth_policy("congest"):
                pass


class TestMeter:
    def test_charges_accumulate_per_edge_and_round(self):
        meter = BandwidthMeter(LOCAL, n=8)
        meter.charge(0, 1, 2, 10)
        meter.charge(0, 2, 1, 5)  # same undirected edge, other direction
        meter.charge(1, 1, 2, 7)
        meter.charge(0, 3, 4, 2)
        assert meter.total_bits == 24
        profile = meter.profile(rounds=2)
        assert profile.total_bits == 24
        assert profile.rounds == 2
        assert profile.edges_used == 2
        assert profile.peak_edge_round_bits == 15  # edge (1,2) in round 0
        assert profile.hotspots[0] == {"edge": [1, 2], "bits": 22}

    def test_local_records_over_capacity_without_raising(self):
        meter = BandwidthMeter(LOCAL, n=8)
        meter.charge(0, 1, 2, 10**9)
        assert meter.total_bits == 10**9

    def test_congest_overflow_is_attributed(self):
        policy = CONGEST(2)
        meter = BandwidthMeter(policy, n=8)  # capacity 2 * 3 = 6 bits
        meter.charge(0, 1, 2, 6)
        with pytest.raises(BandwidthExceeded) as info:
            meter.charge(0, 2, 1, 1, node="v")
        exc = info.value
        assert exc.edge == (1, 2)
        assert exc.round_index == 0
        assert exc.bits == 7
        assert exc.capacity == 6
        assert exc.node == "v"
        assert exc.policy == policy
        assert "edge (1, 2)" in str(exc)

    def test_congest_within_capacity_passes(self):
        meter = BandwidthMeter(CONGEST(2), n=8)
        for round_index in range(10):
            meter.charge(round_index, 1, 2, 6)  # exactly at capacity
        assert meter.total_bits == 60

    def test_profile_books_balance(self):
        meter = BandwidthMeter(LOCAL, n=16)
        for r in range(3):
            for (u, v) in ((1, 2), (2, 3), (5, 9)):
                meter.charge(r, u, v, 4 * (r + 1))
        profile = meter.profile(rounds=3)
        assert profile.per_round["sum"] == profile.per_edge["sum"]
        assert profile.per_round["sum"] == profile.total_bits
        assert profile.per_round["count"] == 3
        assert profile.per_edge["count"] == 3


class TestProfile:
    def test_build_rejects_unbalanced_books(self):
        with pytest.raises(AssertionError):
            BandwidthProfile.build(LOCAL, 8, [10], {(1, 2): 9}, 9)

    def test_min_congest_budget(self):
        profile = BandwidthProfile.build(LOCAL, 60, [14], {(1, 2): 14}, 14)
        # peak 14 bits / 6 id bits -> budget 3 rounds it up.
        assert profile.min_congest_budget == 3
        empty = BandwidthProfile.build(LOCAL, 60, [], {}, 0)
        assert empty.min_congest_budget == 1

    def test_as_dict_round_trips_to_json(self):
        import json

        profile = BandwidthProfile.build(
            CONGEST(4), 60, [6, 8], {(1, 2): 14}, 8
        )
        payload = json.loads(json.dumps(profile.as_dict()))
        assert payload["policy"] == "congest"
        assert payload["budget"] == 4
        assert payload["capacity_bits"] == 24
        assert payload["total_bits"] == 14
        assert payload["peak_round"] == [2, 8]


class TestFloodingBandwidth:
    def test_two_node_path_by_hand(self):
        g = LocalGraph(cycle(3), seed=0)
        # n=3: id_bits = 2; every node has degree 2, no advice/input:
        # record = 2 * (1 + 2) = 6 bits.  rounds=1 floods layer 0 only:
        # each node pushes its own record on both edges.
        profile = flooding_bandwidth(g, 1)
        assert profile.total_bits == 6 * 2 * 3
        assert profile.rounds == 1
        assert profile.edges_used == 3
        assert profile.per_round["sum"] == profile.per_edge["sum"]

    def test_advice_and_input_bits_are_charged(self):
        g = LocalGraph(cycle(3), seed=0)
        base = flooding_bandwidth(g, 1)
        v = g.nodes()[0]
        withadv = flooding_bandwidth(g, 1, advice={v: "0101"})
        # v's record grows by 4 bits and is flooded on deg(v)=2 edges.
        assert withadv.total_bits == base.total_bits + 4 * 2

    def test_rounds_beyond_eccentricity_carry_nothing(self):
        g = LocalGraph(cycle(8), seed=0)
        ecc = 4  # cycle(8) eccentricity
        short = flooding_bandwidth(g, ecc + 1)
        long = flooding_bandwidth(g, ecc + 50)
        assert long.total_bits == short.total_bits
        assert long.rounds == ecc + 50
        # the per-round histogram has one zero entry per silent round
        assert long.per_round["count"] == ecc + 50

    def test_independent_of_ambient_engine(self, force_gather):
        g = LocalGraph(grid(6, 6), seed=1)
        profiles, solved = [], []
        for engine in ("scalar", "vectorized"):
            force_gather(engine)
            profiles.append(flooding_bandwidth(g, 3).as_dict())
            run = solve_with_advice("2-coloring", LocalGraph(grid(8, 8), seed=1))
            assert run.telemetry["engine"] == engine
            solved.append(run.bandwidth.as_dict())
        assert profiles[0] == profiles[1]
        assert solved[0] == solved[1]

    def test_off_policy_returns_none(self):
        g = LocalGraph(cycle(4), seed=0)
        assert flooding_bandwidth(g, 2, policy=OFF) is None
        with use_bandwidth_policy(OFF):
            assert flooding_bandwidth(g, 2) is None

    def test_zero_rounds_is_an_empty_profile(self):
        g = LocalGraph(cycle(4), seed=0)
        profile = flooding_bandwidth(g, 0)
        assert profile.total_bits == 0
        assert profile.rounds == 0

    def test_congest_overflow_deterministic(self):
        g = LocalGraph(cycle(12), seed=3)
        local = flooding_bandwidth(g, 3)
        too_small = local.min_congest_budget - 1
        assert too_small >= 1
        captured = []
        for _ in range(2):
            with pytest.raises(BandwidthExceeded) as info:
                flooding_bandwidth(g, 3, policy=CONGEST(too_small))
            exc = info.value
            captured.append((exc.edge, exc.round_index, exc.bits))
        assert captured[0] == captured[1]
        edge, round_index, bits = captured[0]
        assert bits > CONGEST(too_small).capacity(g.n)

    def test_sufficient_congest_budget_matches_local(self):
        g = LocalGraph(cycle(12), seed=3)
        local = flooding_bandwidth(g, 3)
        congest = flooding_bandwidth(
            g, 3, policy=CONGEST(local.min_congest_budget)
        )
        assert congest.total_bits == local.total_bits
        assert congest.per_round == local.per_round
        assert congest.per_edge == local.per_edge


# ---------------------------------------------------------------------------
# The sweep kernel against a per-root networkx reference
# ---------------------------------------------------------------------------


def _geometric_bounds(values):
    peak = int(max(values, default=0))
    bounds, bound = [0.0], 1
    while bound < max(1, peak):
        bounds.append(float(bound))
        bound *= 2
    bounds.append(float(bound))
    return bounds


def _reference_histogram(values, bounds=None):
    bounds = _geometric_bounds(values) if bounds is None else bounds
    hist = Histogram(buckets=bounds)
    for value in values:
        hist.observe(value)
    return hist.snapshot_value()


def _reference_flooding(graph, rounds, advice=None, policy=LOCAL):
    """``as_dict()`` of the flooding accounting, summed layer by layer.

    Every root's layers come from ``nx.single_source_shortest_path_length``
    with ``cutoff = rounds - 1``; edges are taken in CSR ``i < j`` order
    (dense index of the lower endpoint, then neighbor identifier).  Returns
    ``(profile_dict, overflow)`` where ``overflow`` is the attributed
    ``(node, edge, round_index, bits)`` a CONGEST run must raise, or None.
    """
    advice = advice or {}
    n = graph.n
    bits = id_bits(n)
    nodes = graph.nodes()
    index = {v: i for i, v in enumerate(graph.compiled.nodes)}

    def record(v):
        payload = graph.input_of(v)
        return (
            bits * (1 + graph.degree(v))
            + len(advice.get(v, ""))
            + (0 if payload is None else measure_bits(payload))
        )

    layers = {}
    for v in nodes:
        per = [0] * rounds
        lengths = nx.single_source_shortest_path_length(
            graph.graph, v, cutoff=rounds - 1
        )
        for w, d in lengths.items():
            per[d] += record(w)
        layers[v] = per
    round_totals = [
        sum(graph.degree(v) * layers[v][t] for v in nodes) for t in range(rounds)
    ]
    edges = sorted(
        (index[u], graph.id_of(v), u, v)
        for a, b in graph.graph.edges()
        for u, v in ((a, b), (b, a))
        if index[u] < index[v]
    )
    capacity = policy.capacity(n)
    edge_totals, peak, overflow = {}, 0, None
    for t in range(rounds):
        for _, _, u, v in edges:
            load = layers[u][t] + layers[v][t]
            peak = max(peak, load)
            if overflow is None and capacity is not None and load > capacity:
                sender = u if layers[u][t] >= layers[v][t] else v
                key = tuple(sorted((graph.id_of(u), graph.id_of(v))))
                overflow = (sender, key, t + 1, load)
    for _, _, u, v in edges:
        key = tuple(sorted((graph.id_of(u), graph.id_of(v))))
        edge_totals[key] = sum(layers[u]) + sum(layers[v])
    total = sum(round_totals)
    worst = round_totals.index(max(round_totals))
    ranked = sorted(edge_totals.items(), key=lambda item: (-item[1], item[0]))
    profile = {
        "policy": policy.name,
        "budget": policy.budget,
        "capacity_bits": capacity,
        "total_bits": total,
        "rounds": rounds,
        "edges_used": sum(1 for b in edge_totals.values() if b),
        "id_bits": bits,
        "per_round": _reference_histogram(round_totals),
        "per_edge": _reference_histogram(list(edge_totals.values())),
        "peak_round": [worst + 1, round_totals[worst]],
        "peak_edge_round_bits": peak,
        "min_congest_budget": max(1, math.ceil(peak / bits)) if peak else 1,
        "hotspots": [{"edge": list(e), "bits": b} for e, b in ranked[:5]],
    }
    return profile, overflow


@pytest.mark.parametrize("size", [0, 1, 7, 32, 33, 60, 500])
def test_histogram_snapshot_matches_histogram(size):
    """The bulk snapshot equals one ``Histogram.observe`` per value, over
    the bandwidth profile's geometric bounds and the default buckets, for
    mixed values, all-equal values, and with trailing zeros."""
    import random

    import numpy as np

    rng = random.Random(size)
    mixed = [rng.choice((0, 1, 3, 64, 65, rng.randint(0, 5000))) for _ in range(size)]
    equal = [rng.randint(0, 200)] * size
    for values in (mixed, equal):
        for bounds in (_geometric_bounds(values), DEFAULT_BUCKETS):
            expected = _reference_histogram(values, bounds)
            assert histogram_of(values, bounds) == expected
            ordered = sorted(values)
            assert (
                sorted_histogram(np.asarray(ordered), bounds, 0, sum(ordered))
                == expected
            )
            padded = _reference_histogram(values + [0] * 3, bounds)
            assert histogram_of(values, bounds, zeros=3) == padded


_BITSTRINGS = st.text(alphabet="01", max_size=6)
_PAYLOADS = st.one_of(
    st.none(),
    st.integers(-300, 300),
    _BITSTRINGS,
    st.tuples(st.integers(0, 9), _BITSTRINGS),
)


@st.composite
def _flooding_cases(draw):
    """A random simple graph (possibly disconnected, with isolated nodes),
    shuffled identifiers, advice and inputs on some nodes, and a round
    count from 1 to past the diameter."""
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    raw = nx.Graph()
    raw.add_nodes_from(range(n))
    raw.add_edges_from(pair for pair, keep in zip(pairs, picks) if keep)
    inputs = draw(st.dictionaries(st.sampled_from(range(n)), _PAYLOADS))
    graph = LocalGraph(raw, inputs=inputs, seed=draw(st.integers(0, 99)))
    advice = draw(st.dictionaries(st.sampled_from(range(n)), _BITSTRINGS))
    rounds = draw(st.integers(1, n + 3))
    return graph, rounds, advice


def _fresh_copy(graph):
    inputs = {v: graph.input_of(v) for v in graph.nodes()}
    return LocalGraph(graph.graph, ids=graph.ids(), inputs=inputs)


class TestFloodingMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(_flooding_cases())
    def test_every_field_matches_per_root_layers(self, case):
        graph, rounds, advice = case
        expected, _ = _reference_flooding(graph, rounds, advice)
        assert flooding_bandwidth(graph, rounds, advice).as_dict() == expected

    @settings(max_examples=120, deadline=None)
    @given(_flooding_cases())
    def test_congest_overflow_attribution_matches(self, case):
        graph, rounds, advice = case
        local = flooding_bandwidth(graph, rounds, advice)
        assume(local.min_congest_budget > 1)
        policy = CONGEST(local.min_congest_budget - 1)
        _, overflow = _reference_flooding(graph, rounds, advice, policy)
        with pytest.raises(BandwidthExceeded) as info:
            flooding_bandwidth(graph, rounds, advice, policy=policy)
        exc = info.value
        assert (exc.node, exc.edge, exc.round_index, exc.bits) == overflow
        assert exc.capacity == policy.capacity(graph.n)

    @settings(max_examples=60, deadline=None)
    @given(_flooding_cases(), st.integers(1, 17))
    def test_warm_and_smaller_radius_equal_cold(self, case, other):
        graph, rounds, advice = case
        cold = {
            t: flooding_bandwidth(_fresh_copy(graph), t, advice).as_dict()
            for t in (rounds, other)
        }
        # larger first, then smaller, then the larger again warm
        for t in sorted((rounds, other), reverse=True) + [max(rounds, other)]:
            assert flooding_bandwidth(graph, t, advice).as_dict() == cold[t]
        assert flooding_bandwidth(graph, rounds).as_dict() == (
            flooding_bandwidth(_fresh_copy(graph), rounds).as_dict()
        )

    def test_suite_scale_instance_matches_reference(self):
        g = LocalGraph(grid(7, 9), seed=5)
        advice = {v: "01" * (v % 3) for v in g.nodes()}
        for rounds in (1, 4, 30):
            expected, _ = _reference_flooding(g, rounds, advice)
            assert flooding_bandwidth(g, rounds, advice).as_dict() == expected

    def test_memory_is_linear_in_the_balls(self):
        # cycle(500) at T=174 is lcl-subexp's default instance: 500 balls of
        # 347 nodes.  A dense per-depth n x n frontier stack would need
        # hundreds of MB here; the sweep keeps O(sum |ball|).
        import tracemalloc

        g = LocalGraph(cycle(500), seed=0)
        tracemalloc.start()
        try:
            profile = flooding_bandwidth(g, 174)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profile.total_bits > 0
        assert peak < 32 * 2**20, f"peak traced memory {peak / 2**20:.1f} MB"


@st.composite
def _switching_cases(draw):
    """A dense cluster with a path hanging off it (its roots' layers go
    sparse, dense, sparse again), a dense gnp graph or a cycle, with
    isolated nodes before and after it in CSR order, shuffled identifiers,
    advice and inputs on some nodes, a round count from 1 to past the
    diameter, and a root-block size (one block down to single roots)."""
    family = draw(st.sampled_from(["lollipop", "gnp", "cycle"]))
    if family == "lollipop":
        size = draw(st.integers(3, 14))
        base = nx.gnp_random_graph(
            size, draw(st.floats(0.5, 1.0)), seed=draw(st.integers(0, 999))
        )
        tail = draw(st.integers(0, 16))
        nx.add_path(base, [0] + list(range(size, size + tail)))
    elif family == "gnp":
        base = nx.gnp_random_graph(
            draw(st.integers(1, 24)),
            draw(st.floats(0.2, 1.0)),
            seed=draw(st.integers(0, 999)),
        )
    else:
        base = cycle(draw(st.integers(3, 30)))
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    raw = nx.Graph()
    raw.add_nodes_from(range(lead))
    raw.add_edges_from((lead + u, lead + v) for u, v in base.edges())
    raw.add_nodes_from(range(lead, lead + base.number_of_nodes() + trail))
    n = raw.number_of_nodes()
    inputs = draw(st.dictionaries(st.sampled_from(range(n)), _PAYLOADS))
    graph = LocalGraph(raw, inputs=inputs, seed=draw(st.integers(0, 99)))
    advice = draw(st.dictionaries(st.sampled_from(range(n)), _BITSTRINGS))
    rounds = draw(st.integers(1, n + 3))
    block = draw(st.sampled_from([1, 2, 3, 7, 9, 64, n]))
    return graph, rounds, advice, max(1, min(block, n))


class TestStreamingFold:
    """The streaming sweep-and-fold against per-root networkx layers.

    Each root block's layers are folded as they are swept, sparse ones
    by key and dense ones from packed bit rows, and the profile must not
    tell: every field (``peak_round`` and hotspots included) and every
    CONGEST overflow attribution equals the reference, cold and warm,
    over any number of root blocks.
    """

    @settings(max_examples=150, deadline=None)
    @given(_switching_cases())
    def test_every_profile_matches_the_reference(self, case):
        from unittest import mock

        from repro.local import vectorized

        graph, rounds, advice, block = case
        expected, _ = _reference_flooding(graph, rounds, advice)
        with mock.patch.object(vectorized, "_MASK_BUDGET", block * graph.n):
            cold = flooding_bandwidth(graph, rounds, advice).as_dict()
            assert cold == expected
            assert flooding_bandwidth(graph, rounds, advice).as_dict() == expected
            budget = expected["min_congest_budget"]
            if budget > 1:
                policy = CONGEST(budget - 1)
                _, overflow = _reference_flooding(graph, rounds, advice, policy)
                for metered in (graph, _fresh_copy(graph)):  # warm, then cold
                    with pytest.raises(BandwidthExceeded) as info:
                        flooding_bandwidth(metered, rounds, advice, policy=policy)
                    exc = info.value
                    assert (exc.node, exc.edge, exc.round_index, exc.bits) == overflow

    @pytest.mark.parametrize("block", [3, 7, 14])
    def test_a_lollipop_sweep_switches_both_ways(self, monkeypatch, block):
        # The property above is only as strong as the switches it reaches:
        # a block of clique roots starts dense and thins out down the path,
        # and a block of path roots starts sparse and turns dense at the
        # clique.  (With all 26 roots in one block every layer is dense.)
        from repro.local import vectorized

        raw = nx.complete_graph(12)
        nx.add_path(raw, [0] + list(range(12, 26)))
        graph = LocalGraph(raw, seed=2)
        steps = []
        for kind in ("dense", "sparse"):
            real = getattr(vectorized, f"_{kind}_step")

            def spy(*args, real=real, kind=kind):
                steps.append(kind)
                return real(*args)

            monkeypatch.setattr(vectorized, f"_{kind}_step", spy)
        monkeypatch.setattr(vectorized, "_MASK_BUDGET", block * graph.n)
        expected, _ = _reference_flooding(graph, 30)
        assert flooding_bandwidth(graph, 30).as_dict() == expected
        switches = set(zip(steps, steps[1:]))
        assert ("sparse", "dense") in switches and ("dense", "sparse") in switches

    def test_cold_meter_memory_stays_below_the_layer_triples(self):
        # A whole-graph instance: T = 40 is past the diameter of a random
        # 3-regular graph on 2,000 nodes, so every ball is the whole graph
        # and there are n^2 = 4M (root, node, distance) entries.  Held as
        # flat arrays they take over 100 MB; the streaming fold keeps the
        # layer matrix, the packed dense layers and the block scratch.
        import tracemalloc

        graph = LocalGraph(nx.random_regular_graph(3, 2000, seed=1), seed=0)
        graph.compiled.np_csr()
        tracemalloc.start()
        try:
            profile = flooding_bandwidth(graph, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profile.total_bits == 2000 * 2000 * 3 * id_bits(2000) * 4
        assert peak < 64 * 2**20, f"peak traced memory {peak / 2**20:.1f} MB"


class TestSweepReuse:
    """The meter folds the balls a vectorized decode left on the snapshot.

    Every profile must equal the one metered on a fresh copy of the
    graph, whichever balls the snapshot held when the meter ran.
    """

    @staticmethod
    def _decoded(raw, spacing):
        from repro.schemas.two_coloring import TwoColoringSchema

        graph = LocalGraph(raw, seed=3)
        schema = TwoColoringSchema(spacing=spacing)
        advice = schema.encode(graph)
        result = schema.decode(graph, advice)
        assert result.stats.engine == "vectorized"
        return graph, advice, result.rounds

    @staticmethod
    def _cold(graph, rounds, advice):
        return flooding_bandwidth(_fresh_copy(graph), rounds, advice).as_dict()

    def test_stored_radius_above_the_meter_radius_is_folded(self):
        graph, advice, rounds = self._decoded(grid(10, 10), 6)
        sweep = graph.compiled._np_balls
        assert sweep.radius == rounds > rounds - 1
        got = flooding_bandwidth(graph, rounds, advice).as_dict()
        assert graph.compiled._np_balls is sweep  # no second sweep
        assert got == self._cold(graph, rounds, advice)

    def test_stored_radius_below_the_meter_radius_sweeps_again(self):
        graph, advice, _ = self._decoded(grid(10, 10), 3)
        sweep = graph.compiled._np_balls
        assert sweep.radius == 2 and not sweep.covers(8)
        got = flooding_bandwidth(graph, 9, advice).as_dict()
        assert graph.compiled._np_balls.radius == 8
        assert got == self._cold(graph, 9, advice)

    def test_mutated_graph_does_not_see_the_old_balls(self):
        graph, advice, rounds = self._decoded(cycle(100), 6)
        assert graph.compiled._np_balls is not None
        u = min(graph.nodes(), key=graph.id_of)
        v = max(graph.nodes(), key=lambda w: graph.distance(u, w))
        graph.add_edge(u, v)  # a chord shortens the balls around it
        assert graph.compiled._np_balls is None
        got = flooding_bandwidth(graph, rounds, advice).as_dict()
        assert got == self._cold(graph, rounds, advice)

    def test_roots_subset_gather_leaves_the_slot_empty(self):
        from repro.local.vectorized import gather_views_batched
        from repro.schemas.two_coloring import TwoColoringSchema

        graph = LocalGraph(grid(10, 10), seed=3)
        advice = TwoColoringSchema(spacing=6).encode(graph)
        gather_views_batched(graph, 5, advice, roots=list(range(0, 100, 3)))
        assert graph.compiled._np_balls is None
        got = flooding_bandwidth(graph, 6, advice).as_dict()
        assert got == self._cold(graph, 6, advice)


class TestLayerReuse:
    """A meter-only cold call keeps the layers it folded on the snapshot,
    so a later call on the same snapshot folds them without sweeping."""

    @pytest.mark.parametrize(
        "raw",
        [nx.gnp_random_graph(40, 0.4, seed=2), cycle(30), grid(6, 7)],
        ids=["gnp", "cycle", "grid"],
    )
    def test_warm_call_folds_without_a_sweep(self, monkeypatch, raw):
        from repro.local import vectorized

        graph = LocalGraph(raw, seed=4)
        advice = {v: "1" * (graph.id_of(v) % 3) for v in graph.nodes()}
        cases = [(9, advice), (9, None), (4, advice)]
        expected = [
            flooding_bandwidth(_fresh_copy(graph), t, a).as_dict() for t, a in cases
        ]
        sweeps = []
        real = vectorized._block_layers

        def spy(*args):
            sweeps.append(args[2])  # the radius
            return real(*args)

        monkeypatch.setattr(vectorized, "_block_layers", spy)
        assert flooding_bandwidth(graph, 9, advice).as_dict() == expected[0]
        assert sweeps and set(sweeps) == {8}
        held = graph.compiled._np_balls
        del sweeps[:]
        for (rounds, bits), cold in zip(cases, expected):
            assert flooding_bandwidth(graph, rounds, bits).as_dict() == cold
        assert sweeps == []
        assert graph.compiled._np_balls is held
