"""Sparse advice for 2-coloring bipartite graphs (the paper's ``Pi_v``).

Section 3.5 uses 2-coloring as the running example of a problem with a
trivially *composable* schema: "we assign 1 bit to a sparse set of nodes
(encoding their color), and to all other nodes we do not assign any bit.
The nodes that have no bit assigned can still recover a 2-coloring by
simple propagation."

The anchors form a ``(spacing, spacing - 1)``-ruling set of each connected
component; a node recovers its color from the parity of its distance to the
nearest anchor (well-defined exactly because the graph is bipartite).
Without advice, 2-coloring is a *global* problem — ``Omega(n)`` rounds on a
path — which is what makes even this baby schema interesting.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import networkx as nx

from ..advice.onebit import encode_paths, payload_table
from ..advice.schema import (
    AdvicePatch,
    AdviceError,
    AdviceMap,
    AdviceSchema,
    DecodeResult,
    InvalidAdvice,
    LocalityContract,
    repair_region,
)
from ..algorithms.decomposition import nearest_centers
from ..algorithms.ruling_set import greedy_ruling_set
from ..local.model import MessagePassingAlgorithm, run_view_algorithm
from ..local.views import View, mark_order_invariant
from ..lcl.catalog import vertex_coloring
from ..local.algorithm import LocalityTracker
from ..local.graph import LocalGraph, Node


def _bipartition(graph: LocalGraph) -> Dict[Node, int]:
    """A proper 2-coloring (colors 1/2) or :class:`AdviceError` if odd cycles."""
    coloring: Dict[Node, int] = {}
    for component in graph.components():
        start = min(component, key=graph.id_of)
        coloring[start] = 1
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in graph.graph.neighbors(v):
                    if u in coloring:
                        if coloring[u] == coloring[v]:
                            raise AdviceError("graph is not bipartite")
                        continue
                    coloring[u] = 3 - coloring[v]
                    nxt.append(u)
            frontier = nxt
    return coloring


class TwoColoringSchema(AdviceSchema):
    """Variable-length sparse schema for bipartite 2-coloring.

    Anchors (one per ``spacing``-ruling-set node) hold a single bit: their
    own color.  ``beta = 1``; bit-holders are arbitrarily sparse as
    ``spacing`` grows; decoding takes ``spacing - 1`` rounds — the
    composability trade-off of Definition 3.4 in its purest form.
    """

    def __init__(self, spacing: int = 8) -> None:
        if spacing < 2:
            raise AdviceError("spacing must be >= 2")
        self.name = "two-coloring"
        self.problem = vertex_coloring(2)
        self.spacing = spacing

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: the view algorithm gathers a radius-(spacing - 1) ball (every
        # node sees an anchor at that distance); beta: one color bit.
        return LocalityContract(radius=self.spacing - 1, advice_bits=1)

    def view_decoder(self):
        # The same decide function decode() runs graph-wide; exposing it
        # lets repro.serve answer per-node queries from a single ball.
        return mark_order_invariant(_nearest_anchor_color)

    def encode(self, graph: LocalGraph) -> AdviceMap:
        coloring = _bipartition(graph)
        advice: AdviceMap = {v: "" for v in graph.nodes()}
        for component in graph.components():
            anchors = greedy_ruling_set(graph, self.spacing, candidates=component)
            for anchor in anchors:
                advice[anchor] = "1" if coloring[anchor] == 1 else "0"
        return advice

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        """Decode as a radius-``spacing - 1`` view algorithm.

        The per-node rule (nearest anchor, ties to the smaller identifier,
        color by distance parity) compares identifiers only by order, so it
        is order-invariant (Section 8).  Every view is still decided
        directly: a view's order signature records every node's rank, so
        on random identifiers almost no two views share one (no hits over
        8116 views on a 46×46 grid plus a 6000-node cycle).
        """
        radius = self.spacing - 1
        result = run_view_algorithm(
            graph,
            radius,
            mark_order_invariant(_nearest_anchor_color),
            advice=advice,
            tracer=self.tracer,
        )
        return DecodeResult(
            labeling=dict(result.outputs),
            rounds=radius if graph.n else 0,
            stats=result.stats,
        )

    def repair_advice(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        sites: Sequence[Node],
        radius: int,
        labeling: Optional[Mapping[Node, int]] = None,
    ) -> Optional[AdviceMap]:
        """Blind (``labeling=None``): scrub malformed anchor bits in the
        balls, and synthesize an anchor on every site left with none.

        The synthesized color may have the wrong parity — that surfaces as
        a verifier violation and is healed by a ball re-solve, which keeps
        the whole repair radius-bounded.

        Given the maintained coloring, re-derive the anchors near a
        mutation from it instead, in two bounded passes over
        ``ball(site, R)`` with ``R = max(radius, spacing - 1)``:

        1. *Resync*: every anchor whose bit disagrees with the maintained
           labeling is rewritten (a ball re-solve may have flipped colors
           around the site; anchors must stay consistent with the unique
           bipartition the labeling witnesses).
        2. *Cover*: every node that lost its last in-range anchor (edge or
           node deletion stretched distances; a fresh node arrived) gets
           one planted, bit taken from the labeling.  Distances only
           change along shortest paths through the mutation site, so any
           node affected lies within ``spacing - 1`` of a site and both
           passes stay radius-bounded.
        """
        patched = AdvicePatch(advice)
        if labeling is None:
            for u in repair_region(graph, sites, radius):
                bits = patched.get(u, "")
                if bits not in ("", "0", "1"):
                    patched[u] = bits[0] if bits[0] in "01" else ""
            for site in sites:
                if not patched.get(site, ""):
                    patched[site] = "0"
            return patched.result()
        reach = self.spacing - 1
        compiled = graph.compiled
        nodes, dist = compiled.nodes, compiled._dist
        indptr, indices = compiled.indptr, compiled.indices
        # Seed ball: the region (within R of a site) plus every node within
        # reach of it, which holds every anchor that covers a region node.
        big = max(radius, reach)
        seed = compiled.bfs_fill_many(
            [compiled.index_of[s] for s in sites], big + reach
        )
        region = sorted(
            (i for i in seed if dist[i] <= big), key=compiled.ids.__getitem__
        )
        # Cover from the anchors: a node is covered once an anchor lies
        # within reach.  Only region nodes are read, and a node ``t`` hops
        # into a path of at most ``reach`` hops from an anchor to a region
        # node lies within ``big + reach - t`` of a site, so the sweep
        # skips every node past that.
        covered = bytearray(compiled.n)
        frontier = [i for i in seed if patched.get(nodes[i], "")]
        for i in frontier:
            covered[i] = 1
        limit = big + reach
        for _ in range(reach):
            limit -= 1
            nxt = []
            for i in frontier:
                for j in indices[indptr[i] : indptr[i + 1]]:
                    if not covered[j] and 0 <= dist[j] <= limit:
                        covered[j] = 1
                        nxt.append(j)
            frontier = nxt
        compiled.reset_scratch(seed)
        for i in region:
            w = nodes[i]
            bits = patched.get(w, "")
            if not bits:
                continue
            want = "1" if labeling.get(w) == 1 else "0"
            if bits != want:
                patched[w] = want
        # Planting on each uncovered region node in id order and covering
        # its reach-ball gives the same anchors as asking, node by node,
        # whether any anchor planted so far is in range.
        for i in region:
            if covered[i]:
                continue
            w = nodes[i]
            patched[w] = "1" if labeling.get(w) == 1 else "0"
            swept = compiled.bfs_fill(i, reach)
            for j in swept:
                covered[j] = 1
            compiled.reset_scratch(swept)
        return patched.result()


def _nearest_anchor_color(view: View) -> int:
    """Color the view's center from the nearest advice-holding anchor.

    Anchors at minimal distance tie-break toward the smaller identifier
    (the order of :meth:`View.holders`); the color is the anchor's bit,
    flipped when the distance is odd.
    """
    holders = view.holders()
    if not holders:
        raise InvalidAdvice(
            f"node {view.center!r}: no anchor within {view.radius} hops",
            node=view.center,
        )
    distance, _, _, bits = holders[0]
    color = 1 if bits == "1" else 2
    return color if distance % 2 == 0 else 3 - color


class OneBitTwoColoringSchema(AdviceSchema):
    """Uniform 1-bit variant of :class:`TwoColoringSchema` (via Lemma 9.2).

    Each anchor's color bit becomes a marker-code payload; all other nodes
    carry ``0``.  The anchors need spacing ``> 2 * window + 2``
    (``window = 13`` for a 1-bit payload), so the effective spacing is
    ``max(spacing, 2 * window + 3)``.
    """

    #: marker-code window for a 1-bit payload: header 8 + word 4 + term 1.
    WINDOW = 13

    def __init__(self, spacing: int = 29) -> None:
        self.name = "one-bit-two-coloring"
        self.problem = vertex_coloring(2)
        self.spacing = max(spacing, 2 * self.WINDOW + 3)

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: anchor search radius plus the marker-code window the payload
        # decode walks; beta: the uniform Lemma 9.2 single bit.
        return LocalityContract(
            radius=self.spacing - 1 + self.WINDOW, advice_bits=1
        )

    def encode(self, graph: LocalGraph) -> AdviceMap:
        coloring = _bipartition(graph)
        payloads: Dict[Node, str] = {}
        for component in graph.components():
            anchors = greedy_ruling_set(graph, self.spacing, candidates=component)
            for anchor in anchors:
                payloads[anchor] = "1" if coloring[anchor] == 1 else "0"
        layout = encode_paths(graph, payloads, window=self.WINDOW)
        return dict(layout.bits)

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        tracker = LocalityTracker(graph)
        tracer = self.tracer
        radius = self.spacing - 1
        tracker.charge(radius + self.WINDOW)
        graph_ = tracker.graph
        # Gather phase: every node locates its nearest decodable anchor
        # payload (the information its radius-(spacing+window) ball holds).
        anchors: Dict[Node, Tuple[str, int]] = {}
        with tracer.span("gather", radius=radius + self.WINDOW, n=graph.n):
            table = payload_table(graph_, advice, self.WINDOW)
            colors = {u: p for u, p in table.items() if len(p) == 1}
            nearest = nearest_centers(graph_, colors, radius)
            for v in graph_.nodes():
                found = nearest.get(v)
                if found is None:
                    raise InvalidAdvice(
                        f"node {v!r}: no anchor payload in range", node=v
                    )
                anchor, distance = found
                if tracer.enabled:
                    tracer.event(
                        "anchor-read", node=v, anchor=anchor, distance=distance
                    )
                anchors[v] = (colors[anchor], distance)
        # Decide phase: distance parity fixes the color.
        labeling: Dict[Node, int] = {}
        with tracer.span("decide", n=graph.n):
            for v, (payload, distance) in anchors.items():
                color = 1 if payload == "1" else 2
                labeling[v] = color if distance % 2 == 0 else 3 - color
        return DecodeResult(labeling=labeling, rounds=tracker.rounds)


class TwoColoringMessagePassing(MessagePassingAlgorithm):
    """The 2-coloring decoder as an explicit message-passing algorithm.

    Anchors (nodes whose advice is non-empty) start a wave carrying
    ``(anchor id, anchor color, distance)``; every node adopts the first
    wave it hears (ties broken by smaller anchor identifier), fixes its
    color by distance parity, and keeps forwarding for the full ``spacing``
    rounds so later ties resolve identically everywhere.  This is the same
    algorithm :meth:`TwoColoringSchema.decode` simulates through view
    semantics; the test suite checks the two agree output-for-output.
    """

    def __init__(self, spacing: int) -> None:
        super().__init__()
        self.spacing = spacing
        self.best = None  # (anchor id, color, distance)

    def init(self, ctx) -> None:
        super().init(ctx)
        if ctx.advice:
            color = 1 if ctx.advice == "1" else 2
            self.best = (ctx.node_id, color, 0)
        if self.spacing <= 1:
            self._finish()

    def send(self, round_index):
        if self.best is None:
            return {}
        return {port: self.best for port in range(self.ctx.degree)}

    def receive(self, round_index, messages):
        for anchor_id, color, distance in messages.values():
            candidate = (anchor_id, color, distance + 1)
            if self.best is None or (
                candidate[2],
                candidate[0],
            ) < (self.best[2], self.best[0]):
                self.best = candidate
        if round_index + 1 >= self.spacing - 1:
            self._finish()

    def _finish(self) -> None:
        if self.best is None:
            raise InvalidAdvice(
                f"node {self.ctx.node!r}: no anchor wave arrived",
                node=self.ctx.node,
            )
        anchor_id, color, distance = self.best
        self.output = color if distance % 2 == 0 else 3 - color
