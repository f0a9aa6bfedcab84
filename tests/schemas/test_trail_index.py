"""The trail-index decoders against per-edge reference walks.

Balanced-orientation and one-bit-orientation decode every edge from one
shared :class:`repro.algorithms.orientation.TrailIndex`.  The references
below are the per-edge decoders they replace: each edge walks its own
trail with :func:`walk_from_edge` up to ``walk_limit`` steps each way.
Both must agree on the labeling, ``rounds``, the ``InvalidAdvice`` node
and message of the first failing edge, and the ``anchor-read`` events.
"""

from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.advice import AdviceError, InvalidAdvice
from repro.advice.bitstream import bits_to_int, int_to_bits
from repro.algorithms import TrailIndex, orientation_to_port_labels, trail_step
from repro.graphs import caterpillar, cycle, disjoint_cycles
from repro.local import LocalGraph
from repro.local.algorithm import LocalityTracker
from repro.obs.trace import NULL_TRACER, Sink, Tracer
from repro.schemas import (
    BalancedOrientationSchema,
    OneBitOrientationSchema,
    walk_from_edge,
)
from repro.schemas import orientation as orientation_module
from repro.schemas.orientation import (
    _canonical_cycle_forward,
    _canonical_open_forward,
)


# ---------------------------------------------------------------------------
# Reference decoders: one walk per edge
# ---------------------------------------------------------------------------


def _walks(graph, v, u, limit):
    """``None`` when the edge's trail is seen whole (canonical edge given
    instead), else the forward and backward walks."""
    fwd, fstat = walk_from_edge(graph, v, u, limit)
    if fstat == "closed":
        return ((v, u) if _canonical_cycle_forward(graph, fwd) else (u, v)), None
    bwd, bstat = walk_from_edge(graph, u, v, limit)
    if fstat == "endpoint" and bstat == "endpoint":
        full = [(b, a) for (a, b) in reversed(bwd[1:])] + fwd
        if len(full) <= limit:
            return ((v, u) if _canonical_open_forward(graph, full) else (u, v)), None
    return None, (fwd, bwd)


def _balanced_anchor(advice, walked):
    for (x, y) in walked:
        bits_x, bits_y = advice.get(x, ""), advice.get(y, "")
        if len(bits_x) == 2 and len(bits_y) == 1:
            tail, head, bit = x, y, bits_x[1]
        elif len(bits_y) == 2 and len(bits_x) == 1:
            tail, head, bit = y, x, bits_y[1]
        else:
            continue
        return ((tail, head) if bit == "1" else (head, tail)), (x, y)
    return None


def reference_balanced(schema, graph, advice, events):
    """``(labels, rounds, oriented)`` or raises ``InvalidAdvice``; the
    anchor reads of the edges decoded so far are appended to ``events``."""
    limit = schema.walk_limit_for(graph)
    tracker = LocalityTracker(graph)
    oriented = set()
    for v, u in graph.edges():
        tracker.charge(limit + 1)
        edge, walks = _walks(graph, v, u, limit)
        if edge is None:
            fwd, bwd = walks
            for direction, walked in (("fwd", fwd), ("bwd", bwd)):
                found = _balanced_anchor(advice, walked)
                if found is None:
                    continue
                chosen, walked_as = found
                events.append((v, chosen[0], direction))
                along = chosen == walked_as
                if direction == "fwd":
                    edge = (v, u) if along else (u, v)
                else:
                    edge = (u, v) if along else (v, u)
                break
            else:
                raise InvalidAdvice(
                    f"edge {{{v!r}, {u!r}}}: no anchor within {limit} trail steps",
                    node=v,
                )
        oriented.add(edge)
    return orientation_to_port_labels(graph, oriented), tracker.rounds, oriented


def _payload_anchor(graph, table, walked, width):
    for (x, y) in walked:
        for node, mate in ((x, y), (y, x)):
            payload = table.get(node)
            if payload is None or len(payload) != width + 1:
                continue
            port = bits_to_int(payload[:width])
            nbrs = graph.neighbors(node)
            if port >= len(nbrs) or nbrs[port] != mate:
                continue
            forward = payload[width] == "1"
            return ((node, mate) if forward else (mate, node)), (x, y)
    return None


def reference_one_bit(schema, graph, table):
    """``(labels, rounds, oriented)`` from a given payload table."""
    limit = schema.walk_limit_for(graph)
    window, width = schema._window(graph), schema._port_width(graph)
    small = schema._small_component_nodes(graph)
    tracker = LocalityTracker(graph)
    oriented = set()
    for v, u in graph.edges():
        if v in small:
            tracker.charge(2 * limit)
            full, status = walk_from_edge(graph, v, u, 2 * graph.m + 2)
            if status == "closed":
                forward = _canonical_cycle_forward(graph, full)
            else:
                back, _ = walk_from_edge(graph, u, v, 2 * graph.m + 2)
                whole = [(b, a) for (a, b) in reversed(back[1:])] + full
                forward = _canonical_open_forward(graph, whole)
            oriented.add((v, u) if forward else (u, v))
            continue
        tracker.charge(limit + window)
        edge, walks = _walks(graph, v, u, limit)
        if edge is None:
            for walked, along_forward in zip(walks, (True, False)):
                found = _payload_anchor(graph, table, walked, width)
                if found is None:
                    continue
                chosen, walked_as = found
                same = chosen == walked_as
                if along_forward:
                    edge = (v, u) if same else (u, v)
                else:
                    edge = (u, v) if same else (v, u)
                break
            else:
                raise InvalidAdvice(
                    f"edge {{{v!r}, {u!r}}}: no payload anchor within {limit} steps",
                    node=v,
                )
        oriented.add(edge)
    return orientation_to_port_labels(graph, oriented), tracker.rounds, oriented


# ---------------------------------------------------------------------------
# Running both sides
# ---------------------------------------------------------------------------


class _Events(Sink):
    def __init__(self):
        self.reads = []

    def emit(self, record):
        if record["kind"] == "event" and record["name"] == "anchor-read":
            attrs = record["attrs"]
            self.reads.append((attrs["node"], attrs["anchor"], attrs["direction"]))


def _outcome(call):
    try:
        return ("ok",) + tuple(call())
    except InvalidAdvice as exc:
        return ("invalid", str(exc), exc.node)


def assert_balanced_matches(schema, graph, advice):
    sink = _Events()
    schema._active_tracer = Tracer(sink)
    try:
        got = _outcome(lambda: _decoded(schema.decode(graph, advice)))
    finally:
        schema._active_tracer = NULL_TRACER
    events = []
    assert got == _outcome(lambda: reference_balanced(schema, graph, advice, events))
    assert sink.reads == events


def _decoded(result):
    return result.labeling, result.rounds, result.detail["oriented_edges"]


def assert_one_bit_matches(schema, graph, table):
    advice = {v: "0" for v in graph.nodes()}
    with mock.patch.object(
        orientation_module, "payload_table", lambda g, a, w: dict(table)
    ):
        got = _outcome(lambda: _decoded(schema.decode(graph, advice)))
    assert got == _outcome(lambda: reference_one_bit(schema, graph, table))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@st.composite
def trail_graphs(draw):
    """Mixed-degree random graphs (open trails from odd-degree nodes),
    unions of cycles (closed trails of every length around the walk
    limit), and both at once (several components, some of them small)."""
    kind = draw(st.sampled_from(("gnm", "cycles", "both")))
    parts = []
    if kind in ("gnm", "both"):
        n = draw(st.integers(3, 28))
        m = draw(st.integers(2, min(3 * n, n * (n - 1) // 2)))
        parts.append(nx.gnm_random_graph(n, m, seed=draw(st.integers(0, 9999))))
    if kind in ("cycles", "both"):
        lengths = draw(st.lists(st.integers(3, 26), min_size=1, max_size=4))
        parts.append(disjoint_cycles(lengths))
    graph = nx.disjoint_union_all(parts) if len(parts) > 1 else parts[0]
    graph.remove_nodes_from(list(nx.isolates(graph)))
    return LocalGraph(graph, seed=draw(st.integers(0, 999)))


_BALANCED_BITS = st.sampled_from(("", "", "", "", "1", "1", "10", "11", "0", "111"))


def _drop_anchor(graph, advice, tail):
    """Clear the anchor whose tail is ``tail`` (and its one-bit heads)."""
    advice = dict(advice)
    advice[tail] = ""
    for u in graph.neighbors(tail):
        if advice.get(u) == "1":
            advice[u] = ""
    return advice


class TestTrailIndex:
    @settings(max_examples=80, deadline=None)
    @given(trail_graphs())
    def test_index_locates_every_directed_edge(self, graph):
        index = TrailIndex(graph)
        seen = set()
        for t, trail in enumerate(index.trails):
            edges = trail.edges()
            for pos, (a, b) in enumerate(edges):
                assert index.locate(a, b) == (t, pos, 1)
                assert index.locate(b, a) == (t, pos, -1)
                seen.add(frozenset((a, b)))
                if pos + 1 < len(edges) or trail.closed:
                    assert trail_step(graph, a, b) == edges[(pos + 1) % len(edges)][1]
                else:
                    assert trail_step(graph, a, b) is None
        assert len(seen) == graph.m


class TestBalancedAgainstWalks:
    @settings(max_examples=150, deadline=None)
    @given(trail_graphs(), st.integers(2, 12), st.data())
    def test_arbitrary_advice(self, graph, walk_limit, data):
        schema = BalancedOrientationSchema(walk_limit=walk_limit)
        advice = {v: data.draw(_BALANCED_BITS) for v in graph.nodes()}
        assert_balanced_matches(schema, graph, advice)

    @settings(max_examples=120, deadline=None)
    @given(trail_graphs(), st.integers(3, 12), st.booleans(), st.data())
    def test_encoded_advice_with_an_anchor_deleted(self, graph, walk_limit, rev, data):
        schema = BalancedOrientationSchema(walk_limit=walk_limit, reverse_trails=rev)
        try:
            advice = schema.encode(graph)
        except AdviceError:
            advice = {v: "" for v in graph.nodes()}
        assert_balanced_matches(schema, graph, advice)
        tails = sorted((v for v, b in advice.items() if len(b) == 2), key=graph.id_of)
        if tails:
            victim = data.draw(st.sampled_from(tails))
            assert_balanced_matches(schema, graph, _drop_anchor(graph, advice, victim))
            # Every anchor of the victim's trail gone: its edges see none.
            trail = next(
                t for t in TrailIndex(graph).trails if victim in t.nodes
            )
            stripped = advice
            for node in trail.nodes:
                if len(stripped.get(node, "")) == 2:
                    stripped = _drop_anchor(graph, stripped, node)
            assert_balanced_matches(schema, graph, stripped)

    def test_anchor_deletion_fires_no_anchor_within(self):
        graph = LocalGraph(cycle(60), seed=1)
        schema = BalancedOrientationSchema(walk_limit=8)
        advice = schema.encode(graph)
        for tail in [v for v, b in advice.items() if len(b) == 2]:
            advice = _drop_anchor(graph, advice, tail)
        with pytest.raises(InvalidAdvice, match="no anchor within 8 trail steps"):
            schema.decode(graph, advice)
        assert_balanced_matches(schema, graph, advice)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_closed_trail_around_the_walk_limit(self, offset):
        # A cycle of length L is one closed trail; walk_limit = L is the
        # last limit at which every edge sees it whole.
        length = 12
        graph = LocalGraph(disjoint_cycles([length, length + 5]), seed=2)
        schema = BalancedOrientationSchema(walk_limit=length + offset)
        try:
            advice = schema.encode(graph)
        except AdviceError:
            advice = {v: "" for v in graph.nodes()}
        assert_balanced_matches(schema, graph, advice)
        assert_balanced_matches(schema, graph, {v: "" for v in graph.nodes()})

    def test_open_trails_on_a_caterpillar(self):
        graph = LocalGraph(caterpillar(30, 3), seed=4)
        schema = BalancedOrientationSchema(walk_limit=6)
        assert_balanced_matches(schema, graph, schema.encode(graph))


@st.composite
def payload_tables(draw, graph, width):
    """Random payloads (valid, wrong-port and wrong-length ones), plus
    some edges whose two endpoints hold payloads pointing at each other."""
    nodes = graph.nodes()
    table = {}
    for v in draw(st.lists(st.sampled_from(nodes), max_size=len(nodes) // 3 + 1)):
        port = draw(st.integers(0, 2**width - 1))
        bits = int_to_bits(port, width) + draw(st.sampled_from("01"))
        table[v] = draw(st.sampled_from((bits, bits, bits, bits[:-1], bits + "0")))
    edges = graph.edges()
    for x, y in draw(st.lists(st.sampled_from(edges), max_size=3)):
        table[x] = int_to_bits(graph.port_of(x, y), width) + draw(st.sampled_from("01"))
        table[y] = int_to_bits(graph.port_of(y, x), width) + draw(st.sampled_from("01"))
    return table


class TestOneBitAgainstWalks:
    @settings(max_examples=150, deadline=None)
    @given(trail_graphs(), st.integers(2, 10), st.data())
    def test_payload_tables(self, graph, walk_limit, data):
        schema = OneBitOrientationSchema(walk_limit=walk_limit)
        table = data.draw(payload_tables(graph, schema._port_width(graph)))
        assert_one_bit_matches(schema, graph, table)

    @pytest.mark.parametrize("forward_x,forward_y", [("0", "1"), ("1", "0"), ("1", "1")])
    def test_mutual_payloads_depend_on_walk_direction(self, forward_x, forward_y):
        # Two payloads on one edge that point at each other: a walker
        # reads the endpoint it leaves first, so the two walk directions
        # of a long cycle can disagree about the anchor.
        graph = LocalGraph(cycle(40), seed=3)
        schema = OneBitOrientationSchema(walk_limit=6)
        width = schema._port_width(graph)
        table = {}
        for x, y in list(graph.edges())[::7]:
            table[x] = int_to_bits(graph.port_of(x, y), width) + forward_x
            table[y] = int_to_bits(graph.port_of(y, x), width) + forward_y
        assert_one_bit_matches(schema, graph, table)

    @pytest.mark.parametrize("lengths", [[5, 9], [5, 9, 40]])
    def test_small_components_orient_canonically(self, lengths):
        graph = LocalGraph(disjoint_cycles(lengths), seed=6)
        schema = OneBitOrientationSchema(walk_limit=8)
        assert len(schema._small_component_nodes(graph)) == 14
        assert_one_bit_matches(schema, graph, {})
