"""3-coloring 3-colorable graphs with one bit per node (Section 7).

Encoding (Theorem 7.1).  Fix a *greedy* 3-coloring ``phi`` (every node of
color ``i`` has neighbors of all colors ``< i``; any proper coloring
converts by repeatedly lowering colors).  Then:

* every node of color 1 gets bit ``1`` — a *type-1* bit, recognizable
  because color-1 nodes form an independent set, so a type-1 node has **at
  most one** neighbor carrying a ``1``;
* components of the colors-{2,3} subgraph ``G_{2,3}`` of small diameter get
  no further bits: their nodes gather the whole component and 2-color it
  canonically;
* every large component receives, near each node of a ruling set, a
  *type-23 group* of 1-bits built from Lemma 7.2: either a node ``w`` with
  two color-1 neighbors, or an adjacent pair ``x, y`` with no common
  color-1 neighbor — plus a second such set placed on nearby nodes that
  share no color-1 neighbor with (and are not adjacent to) the first.
  Every group node therefore has >= 2 one-bit neighbors (so it is *not*
  type-1), and no color-1 node gains a second one-bit neighbor (so type-1
  bits stay recognizable) — the paper selects the group locations with the
  Lovász Local Lemma; we use greedy selection over candidate locations with
  an explicit global verification.

The **number of connected components** of a group's 1-bits encodes the
parity hint: 1 component = the group's smallest-ID node has color 2;
2 components = color 3.  A large-component node finds the nearest group,
infers the color of its smallest-ID node, and propagates the (unique)
2-coloring of its bipartite component from there.

The paper's constants (``4000 Delta^9`` diameter threshold,
``2000 Delta^9`` ruling spacing, ...) are replaced by ``O(Delta)``-scale
parameters; the encoder *verifies* every property the proofs use and raises
otherwise, so a successful encode certifies decodability.  The paper
conjectures this advice cannot be made sparse: the measured ones-density is
always >= |color-1 class| / n (benchmark E6).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

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
from ..graphs.planted import greedy_recolor, is_greedy_coloring
from ..lcl.catalog import vertex_coloring
from ..lcl.solve import solve_exact
from ..local.algorithm import LocalityTracker
from ..local.compiled import InducedSubgraph
from ..local.graph import LocalGraph, Node


class ThreeColoringSchema(AdviceSchema):
    """Uniform 1-bit advice schema for 3-coloring (Theorem 7.1).

    Parameters
    ----------
    coloring:
        A proper 3-coloring certificate (e.g. the planted one).  When
        omitted, the encoder solves the instance exactly — fine for small
        graphs, exponential in general (3-coloring is NP-hard; the paper's
        encoder is computationally unbounded).
    span / q_radius / ruling_spacing / component_threshold:
        Geometry knobs replacing the paper's ``Delta^9``-scale constants;
        ``None`` picks ``O(Delta)`` defaults.  All required separations are
        *verified* during encoding.
    """

    def __init__(
        self,
        coloring: Optional[Mapping[Node, int]] = None,
        q_radius: int = 2,
        span: Optional[int] = None,
        ruling_spacing: Optional[int] = None,
        component_threshold: Optional[int] = None,
    ) -> None:
        self.name = "three-coloring"
        self.problem = vertex_coloring(3)
        self._coloring = dict(coloring) if coloring is not None else None
        self.q_radius = q_radius
        self._span = span
        self._ruling_spacing = ruling_spacing
        self._component_threshold = component_threshold

    # -- geometry ------------------------------------------------------------

    def span_for(self, delta: int) -> int:
        """Max distance (inside the component) between two nodes of the
        same group: Lemma 7.2 sets sit within ``Delta`` of their center,
        and the second set's center within ``path_offset`` of the first."""
        return self._span if self._span is not None else 4 * delta + 10

    def path_offset_for(self, delta: int) -> int:
        return 2 * delta + 4

    def ruling_spacing_for(self, delta: int) -> int:
        if self._ruling_spacing is not None:
            return self._ruling_spacing
        return 2 * self.span_for(delta) + 4 * self.q_radius + 8

    def component_threshold_for(self, delta: int) -> int:
        if self._component_threshold is not None:
            return self._component_threshold
        return 2 * self.ruling_spacing_for(delta)

    def search_radius_for(self, delta: int) -> int:
        return (
            self.ruling_spacing_for(delta)
            + self.q_radius
            + self.span_for(delta)
        )

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: max over the decoder's charges — the type-1 classification
        # (2), small-component gathering (2 * threshold), and the type-23
        # group search plus span walk; beta: the uniform single bit.
        delta = max(1, graph.max_degree)
        threshold = self.component_threshold_for(delta)
        span = self.span_for(delta)
        search = self.search_radius_for(delta)
        return LocalityContract(
            radius=max(2, 2 * threshold, search + span + 2), advice_bits=1
        )

    # -- encoding ------------------------------------------------------------

    def _greedy_coloring(self, graph: LocalGraph) -> Dict[Node, int]:
        if self._coloring is not None:
            for v in graph.nodes():
                if v not in self._coloring:
                    raise AdviceError(
                        f"supplied coloring does not cover node {v!r}", node=v
                    )
            phi = dict(self._coloring)
        else:
            solved = solve_exact(vertex_coloring(3), graph)
            if solved is None:
                raise AdviceError("graph is not 3-colorable")
            phi = {v: int(c) for v, c in solved.items()}
        for u, v in graph.edges():
            if phi[u] == phi[v]:
                raise AdviceError("supplied coloring is not proper")
        phi = greedy_recolor(graph.graph, phi)
        if not is_greedy_coloring(graph.graph, phi):
            raise AdviceError("failed to greedify the coloring")
        return phi

    @staticmethod
    def _color1_neighbors(
        graph: LocalGraph, phi: Mapping[Node, int], v: Node
    ) -> List[Node]:
        return [u for u in graph.graph.neighbors(v) if phi[u] == 1]

    def _lemma72_set(
        self,
        graph: LocalGraph,
        component: InducedSubgraph,
        phi: Mapping[Node, int],
        v: Node,
        forbidden: Set[Node],
    ) -> Optional[FrozenSet[Node]]:
        """A Lemma 7.2 set near ``v``: ``{w}`` with >= 2 color-1 neighbors,
        or an adjacent pair ``{x, y}`` without a common color-1 neighbor.
        Nodes in ``forbidden`` (and nodes violating the caller's
        share-no-color-1-neighbor constraints, folded into ``forbidden`` by
        the caller) are skipped."""
        delta = max(1, graph.max_degree)
        dist = component.distances(v, cutoff=delta)
        near = sorted(dist, key=lambda x: (dist[x], graph.id_of(x)))
        for w in near:
            if w in forbidden:
                continue
            if len(self._color1_neighbors(graph, phi, w)) >= 2:
                return frozenset({w})
        for x in near:
            if x in forbidden:
                continue
            ones_x = set(self._color1_neighbors(graph, phi, x))
            # G's neighbour order decides which pair wins; ``dist`` holds
            # only component nodes, so it also filters membership.
            for y in graph.graph.neighbors(x):
                if y in forbidden or dist.get(y, delta + 1) > delta:
                    continue
                ones_y = set(self._color1_neighbors(graph, phi, y))
                if not (ones_x & ones_y):
                    return frozenset({x, y})
        return None

    def _build_group(
        self,
        graph: LocalGraph,
        component: InducedSubgraph,
        phi: Mapping[Node, int],
        v: Node,
    ) -> Optional[Tuple[FrozenSet[Node], FrozenSet[Node]]]:
        """Build ``(S_v, S'_v)`` near ``v`` (paper: ``S_v`` from Lemma 7.2,
        ``S'_v`` on a nearby path inside ``T_v``)."""
        first = self._lemma72_set(graph, component, phi, v, forbidden=set())
        if first is None:
            return None
        # T_v: exclude S_v, its G-neighbors, and nodes sharing a color-1
        # neighbor with S_v.
        excluded: Set[Node] = set(first)
        color1_of_first: Set[Node] = set()
        for s in first:
            excluded.update(graph.graph.neighbors(s))
            color1_of_first.update(self._color1_neighbors(graph, phi, s))
        for node in component.nodes():
            if any(
                u in color1_of_first
                for u in self._color1_neighbors(graph, phi, node)
            ):
                excluded.add(node)
        delta = max(1, graph.max_degree)
        offset = self.path_offset_for(delta)
        dist = component.distances(v, cutoff=offset)
        for vp in sorted(dist, key=lambda x: (dist[x], graph.id_of(x))):
            if vp in excluded or dist[vp] < 2:
                continue
            second = self._lemma72_set(
                graph, component, phi, vp, forbidden=excluded
            )
            if second is None:
                continue
            # The pair in `second` must itself avoid a shared color-1
            # neighbor with `first` — guaranteed by `excluded` — and must
            # not be adjacent to `first` — likewise.  Also keep the two
            # sets mutually non-adjacent (distinct components of the
            # group's bits).
            if any(
                graph.graph.has_edge(a, b) for a in first for b in second
            ):
                continue
            return first, second
        return None

    def _ruling_set(
        self, graph: LocalGraph, component: InducedSubgraph, spacing: int
    ) -> List[Node]:
        chosen: List[Node] = []
        blocked: Set[Node] = set()
        for v in sorted(component.nodes(), key=graph.id_of):
            if v in blocked:
                continue
            chosen.append(v)
            blocked.update(component.distances(v, cutoff=spacing - 1))
        return chosen

    def encode(self, graph: LocalGraph) -> AdviceMap:
        phi = self._greedy_coloring(graph)
        delta = max(1, graph.max_degree)
        threshold = self.component_threshold_for(delta)
        span = self.span_for(delta)
        spacing = self.ruling_spacing_for(delta)

        bits: AdviceMap = {
            v: ("1" if phi[v] == 1 else "0") for v in graph.nodes()
        }

        g23 = graph.induced(v for v in graph.nodes() if phi[v] != 1)
        chosen_groups: List[Tuple[FrozenSet[Node], FrozenSet[Node]]] = []
        color1_load: Dict[Node, int] = {}

        for comp_nodes in g23.components():
            component = graph.induced(comp_nodes)
            if component.diameter_at_most(threshold):
                continue  # small component: no group bits
            for r in self._ruling_set(graph, component, spacing):
                group = self._select_group(
                    graph, component, phi, r, chosen_groups, color1_load, span
                )
                if group is None:
                    raise AdviceError(
                        f"no admissible type-23 group near ruling node {r!r}; "
                        "enlarge q_radius or the component threshold"
                    )
                chosen_groups.append(group)
                for s in group[0] | group[1]:
                    for u in self._color1_neighbors(graph, phi, s):
                        color1_load[u] = color1_load.get(u, 0) + 1

        # Assign group bits by the smallest-ID rule.
        for first, second in chosen_groups:
            union = first | second
            s = min(union, key=graph.id_of)
            target = first if s in first else second
            if phi[s] == 2:
                for w in target:
                    bits[w] = "1"
            else:
                for w in union:
                    bits[w] = "1"

        self._verify_encoding(graph, phi, bits, chosen_groups, span)
        return bits

    def _select_group(
        self,
        graph: LocalGraph,
        component: InducedSubgraph,
        phi: Mapping[Node, int],
        r: Node,
        chosen: Sequence[Tuple[FrozenSet[Node], FrozenSet[Node]]],
        color1_load: Mapping[Node, int],
        span: int,
    ) -> Optional[Tuple[FrozenSet[Node], FrozenSet[Node]]]:
        """Greedy replacement for the paper's LLL selection of ``v_{r,C}``:
        try candidate centers near ``r`` until the global constraints hold."""
        dist_r = component.distances(r, cutoff=self.q_radius)
        candidates = sorted(dist_r, key=lambda x: (dist_r[x], graph.id_of(x)))
        taken: Set[Node] = set()
        for g1, g2 in chosen:
            taken |= g1 | g2
        for v in candidates:
            group = self._build_group(graph, component, phi, v)
            if group is None:
                continue
            union = group[0] | group[1]
            if union & taken:
                continue
            # No color-1 node may end up with two one-bit neighbors.
            overload = False
            seen_color1: Set[Node] = set()
            for s in union:
                for u in self._color1_neighbors(graph, phi, s):
                    if color1_load.get(u, 0) >= 1 or u in seen_color1:
                        overload = True
                    seen_color1.add(u)
            if overload:
                continue
            # Stay far from previously chosen groups (in the component).
            if not self._far_from_chosen(component, union, chosen, span):
                continue
            return group
        return None

    @staticmethod
    def _far_from_chosen(
        component: InducedSubgraph,
        union: Set[Node],
        chosen: Sequence[Tuple[FrozenSet[Node], FrozenSet[Node]]],
        span: int,
    ) -> bool:
        others: Set[Node] = set()
        for g1, g2 in chosen:
            others |= g1 | g2
        others = {o for o in others if o in component}
        if not others:
            return True
        limit = 2 * span + 1
        for s in union:
            dist = component.distances(s, cutoff=limit)
            if any(o in dist for o in others):
                return False
        return True

    def _verify_encoding(
        self,
        graph: LocalGraph,
        phi: Mapping[Node, int],
        bits: Mapping[Node, str],
        groups: Sequence[Tuple[FrozenSet[Node], FrozenSet[Node]]],
        span: int,
    ) -> None:
        """Certify every property the decoder relies on."""
        for v in graph.nodes():
            one_neighbors = sum(
                1 for u in graph.graph.neighbors(v) if bits[u] == "1"
            )
            if phi[v] == 1:
                if bits[v] != "1" or one_neighbors > 1:
                    raise AdviceError(
                        f"type-1 bit at {v!r} not recognizable "
                        f"({one_neighbors} one-neighbors)"
                    )
            elif bits[v] == "1" and one_neighbors < 2:
                raise AdviceError(
                    f"group bit at {v!r} would masquerade as type-1"
                )
        for first, second in groups:
            union = first | second
            marked = {w for w in union if bits[w] == "1"}
            pieces = len(graph.induced(marked).components())
            s = min(union, key=graph.id_of)
            expected = 1 if phi[s] == 2 else 2
            if pieces != expected:
                raise AdviceError(
                    f"group at {sorted(union)!r}: {pieces} components, "
                    f"expected {expected}"
                )

    # -- decoding ------------------------------------------------------------

    def repair_advice(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        sites: Sequence[Node],
        radius: int,
        labeling: Optional[Mapping[Node, int]] = None,
    ) -> Optional[AdviceMap]:
        """Blind (``labeling=None``): normalize every bit in the balls to a
        legal single bit.

        The schema's advice is exactly one bit per node, so any erased or
        lengthened string can be coerced to ``"0"`` (the non-member bit).
        A zeroed type-23 group degrades gracefully: the group is simply
        not offered, and the verifier-driven ball re-solve recolors the
        affected component locally.

        Given the maintained coloring, re-sync the bits to it instead.  In
        the type-1 regime (every ``G_{2,3}`` component below the diameter
        threshold — all demo/churn instances), the bit of a node is
        exactly "am I color 1": the color-1 class of a proper coloring is
        independent, so synced bits classify as type-1 precisely there,
        and the remaining components stay bipartite and 2-color
        canonically.  A ball re-solve that shifted colors around the site
        therefore only requires rewriting bits inside the repaired balls;
        everything else decodes verbatim (the Section 6 shift argument).
        """
        patched = AdvicePatch(advice)
        for u in repair_region(graph, sites, radius):
            bits = patched.get(u)
            if labeling is not None:
                want = "1" if labeling.get(u) == 1 else "0"
            elif bits in ("0", "1"):
                continue
            else:
                want = bits[0] if bits and bits[0] in "01" else "0"
            if bits != want:
                patched[u] = want
        return patched.result()

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        tracker = LocalityTracker(graph)
        delta = max(1, graph.max_degree)
        threshold = self.component_threshold_for(delta)
        span = self.span_for(delta)
        search = self.search_radius_for(delta)

        for v in graph.nodes():
            if advice.get(v) not in ("0", "1"):
                raise InvalidAdvice(
                    f"node {v!r} lacks its single advice bit", node=v
                )

        def is_type1(v: Node) -> bool:
            if advice[v] != "1":
                return False
            ones = sum(1 for u in graph.graph.neighbors(v) if advice[u] == "1")
            return ones <= 1

        tracker.charge(2)
        labeling: Dict[Node, int] = {}
        type1 = {v for v in graph.nodes() if is_type1(v)}
        for v in sorted(type1, key=graph.id_of):
            labeling[v] = 1

        g23 = graph.induced(v for v in graph.nodes() if v not in type1)
        for comp_nodes in g23.components():
            component = graph.induced(comp_nodes)
            anchor_color, anchor = self._component_anchor(
                tracker, graph, advice, component, type1, threshold, span, search
            )
            if self.tracer.enabled:
                self.tracer.event(
                    "component-anchor", node=anchor, color=anchor_color,
                    component_size=len(comp_nodes),
                )
            dist = component.distances(anchor)
            for v in comp_nodes:
                if v not in dist:
                    raise InvalidAdvice(
                        "disconnected 2-coloring propagation", node=v
                    )
                labeling[v] = (
                    anchor_color if dist[v] % 2 == 0 else 5 - anchor_color
                )
        return DecodeResult(labeling=labeling, rounds=tracker.rounds)

    def _component_anchor(
        self,
        tracker: LocalityTracker,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        component: InducedSubgraph,
        type1: Set[Node],
        threshold: int,
        span: int,
        search: int,
    ) -> Tuple[int, Node]:
        """The color of one reference node of the component.

        Small components (diameter <= threshold, verified on the gathered
        subgraph) 2-color canonically: smallest-ID node gets color 2.
        Large components read the nearest type-23 group: 1 piece = its
        smallest-ID node has color 2; 2 pieces = color 3.
        """
        if component.diameter_at_most(threshold):
            tracker.charge(2 * threshold)
            anchor = min(component.nodes(), key=graph.id_of)
            return 2, anchor
        tracker.charge(search + span + 2)
        group_bits = {
            v
            for v in component.nodes()
            if advice[v] == "1" and v not in type1
        }
        if not group_bits:
            raise InvalidAdvice(
                "large component without type-23 groups",
                node=min(component.nodes(), key=graph.id_of),
            )
        # Cluster group bits: same group iff within `span` in the component.
        clusters: List[Set[Node]] = []
        unassigned = set(group_bits)
        while unassigned:
            seed = min(unassigned, key=graph.id_of)
            unassigned.discard(seed)
            cluster = {seed}
            frontier = [seed]
            while frontier:
                x = frontier.pop()
                dist = component.distances(x, cutoff=span)
                for other in list(unassigned):
                    if other in dist:
                        unassigned.discard(other)
                        cluster.add(other)
                        frontier.append(other)
            clusters.append(cluster)
        # Each node uses the nearest cluster; all clusters decode
        # consistently, so we just take the first in ID order.
        cluster = min(clusters, key=lambda c: min(graph.id_of(x) for x in c))
        pieces = len(graph.induced(cluster).components())
        anchor = min(cluster, key=graph.id_of)
        color = 2 if pieces == 1 else 3
        return color, anchor
