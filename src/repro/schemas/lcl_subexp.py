"""Any LCL with 1 bit of advice on sub-exponential growth (Section 4).

Construction recap (Theorem 4.1)
--------------------------------
1.  Compute a distance-``5x`` coloring of ``G`` (few colors, by growth).
2.  Process color classes ascending.  At phase ``i``, every still-
    unclustered node ``v`` of color ``i`` that has a node at distance
    exactly ``2x`` in the remaining graph ``G_i`` becomes a *cluster
    center*; its cluster swallows everything within ``alpha_v + r`` of it
    in ``G_i``, where ``alpha_v in {x..2x}`` is the Lemma 4.3 radius whose
    ball dominates its own boundary sphere (``|N_{<=alpha}| >=
    Delta^r |N_{=alpha+r}|`` — *this* is where sub-exponential growth is
    used: borders are tiny relative to ball interiors, so the border's part
    of the solution fits on interior nodes).
3.  Nodes never clustered see their whole remaining component within
    ``2x`` and brute-force it.
4.  A global solution ``l`` of the LCL is *pinned* on every node within
    checkability radius ``r_bar`` of a different region (cluster or
    unclustered component).  Region interiors are completed by exhaustive
    search consistent with the pinned strips.  Pinning makes regions
    independent: an interior node's ``r_bar``-ball never leaves its own
    region plus its pinned strip, and strip-vs-strip constraints are
    satisfied because the strips literally carry ``l``.

Two schemas realize this:

* :class:`LCLSubexpSchema` — variable-length: centers hold their phase
  color, pinned nodes hold their ``l``-label index.  Bit-holders are the
  (sparse, by growth) strips and centers.
* :class:`OneBitLCLSchema` — the paper's uniform 1-bit encoding: each
  center's color rides a marker-coded path (``11110110 (110|1110)* 0``)
  inside ``N_{<=y}(v)``, ``y = x/2``; the pinned strip's labels ride an
  *independent set* of interior nodes.  Path bits always come in runs of
  >= 2 adjacent ones, strip bits are isolated ones — exactly the paper's
  disambiguation rule — and all sphere conditions are evaluated inside the
  phase graph ``G_i``, which is what keeps different clusters' codes from
  interfering.

Encoder and decoders share one phase loop, :func:`_cluster_phase`: each
phase sweeps its candidates once in ``G_i`` and turns the accepted ones
into clusters.  :func:`build_clustering` takes a phase's color class and
keeps the candidates that reach ``2x``; the variable-length decoder keeps
every advised center; the 1-bit decoder keeps the run-one nodes whose
spheres parse to the phase's color, and stops at the first phase with no
candidate reaching ``2x``.  Each cluster carries its phase distances, so
nothing after the phase loop sweeps ``G_i`` again.

The paper's ``x`` is astronomical; ours is a parameter, and the encoder
*verifies* every geometric property the decoder relies on (raising
:class:`AdviceError` when ``x`` is too small for the instance) — so a
successful encode certifies decodability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set

from ..advice.bitstream import (
    CodecError,
    bits_to_int,
    encode_payload,
    int_to_bits,
    pack_parts,
    read_marker_stream,
    unpack_parts,
)
from ..advice.schema import (
    AdvicePatch,
    AdviceError,
    AdviceMap,
    AdviceSchema,
    DecodeResult,
    InvalidAdvice,
    LocalityContract,
    locality_hints,
    repair_region,
)
from ..algorithms.ruling_set import distance_coloring
from ..lcl.problem import Label, LCLProblem
from ..lcl.solve import solve_exact
from ..lcl.verify import is_valid
from ..local.algorithm import LocalityTracker
from ..local.compiled import InducedSubgraph
from ..local.graph import LocalGraph, Node


# ---------------------------------------------------------------------------
# Shared geometry: the phase clustering
# ---------------------------------------------------------------------------


@dataclass
class Cluster:
    """A phase-``color`` cluster: the nodes within ``alpha + r`` of
    ``center`` in its phase graph ``G_i``, whose distances from the center
    (cut at ``2x + r + 1``) are ``dist``."""

    center: Node
    color: int
    alpha: int
    members: Set[Node] = field(default_factory=set)
    dist: Dict[Node, int] = field(default_factory=dict)


@dataclass
class SubexpClustering:
    """The Section 4 clustering: clusters per phase + unclustered regions."""

    clusters: List[Cluster]
    unclustered: List[Set[Node]]

    def regions(self) -> List[Set[Node]]:
        return [c.members for c in self.clusters] + [
            set(r) for r in self.unclustered
        ]

    def region_of(self) -> Dict[Node, int]:
        owner: Dict[Node, int] = {}
        for index, region in enumerate(self.regions()):
            for v in region:
                owner[v] = index
        return owner


def _lemma43_alpha(
    component_dist: Mapping[Node, int], x: int, r: int, delta: int
) -> int:
    """Lemma 4.3 search over ``alpha in {x..2x}`` using precomputed
    distances from the center inside ``G_i``."""
    sizes: Dict[int, int] = {}
    for d in component_dist.values():
        sizes[d] = sizes.get(d, 0) + 1

    def ball(radius: int) -> int:
        return sum(c for d, c in sizes.items() if d <= radius)

    threshold = float(max(1, delta) ** r)
    best_alpha, best_ratio = x, -1.0
    for alpha in range(x, 2 * x + 1):
        sphere = sizes.get(alpha + r, 0)
        if sphere == 0:
            return alpha
        ratio = ball(alpha) / sphere
        if ratio >= threshold:
            return alpha
        if ratio > best_ratio:
            best_alpha, best_ratio = alpha, ratio
    return best_alpha


def _reaches_2x(dist: Mapping[Node, int], x: int) -> bool:
    """Eligibility: the phase graph holds a node at distance exactly ``2x``."""
    return any(d == 2 * x for d in dist.values())


def _cluster_phase(
    graph: LocalGraph,
    sub: InducedSubgraph,
    swept: Dict[Node, Dict[Node, int]],
    candidates: Sequence[Node],
    color: int,
    x: int,
    r: int,
    accept: Callable[[Node, Dict[Node, int]], bool],
) -> List[Cluster]:
    """One phase of the clustering, shared by the encoder and both decoders.

    Each candidate (in identifier order) is swept in the phase graph
    ``sub``, out to ``2x + r + 1``; every candidate ``accept(v, dist)``
    keeps becomes a phase-``color`` cluster with its Lemma 4.3 radius.
    ``swept`` holds the sweeps already made in ``sub`` and gains this
    phase's: a phase that keeps no candidate removes nothing, so its
    caller runs the next phase on the same ``sub`` and ``swept``, and no
    candidate is swept twice in one phase graph.  The callers differ only
    in their candidates, their acceptance rule and when they stop.
    """
    delta = graph.max_degree
    clusters: List[Cluster] = []
    for v in candidates:
        dist = swept.get(v)
        if dist is None:
            dist = swept[v] = sub.distances(v, cutoff=2 * x + r + 1)
        if not accept(v, dist):
            continue
        alpha = _lemma43_alpha(dist, x, r, delta)
        members = {u for u, d in dist.items() if d <= alpha + r}
        clusters.append(Cluster(v, color, alpha, members, dist))
    return clusters


def build_clustering(
    graph: LocalGraph,
    x: int,
    r: int,
    phase_colors: Optional[Mapping[Node, int]] = None,
) -> SubexpClustering:
    """Compute the Section 4 clustering deterministically.

    ``phase_colors`` is the distance-``5x`` coloring; when omitted it is
    recomputed (the greedy coloring is a function of the identifiers, so
    encoder and any caller agree).  Phase ``i``'s candidates are its
    color class; a candidate is kept when it reaches ``2x`` (otherwise it
    joins the unclustered leftovers).
    """
    if x < 4 * r:
        raise AdviceError(
            f"x={x} too small: Lemma 4.3 needs x >= 4r (r={r}); same-phase "
            "cluster disjointness needs x > 2r"
        )
    if phase_colors is None:
        phase_colors = distance_coloring(graph, 5 * x)

    remaining: Set[Node] = set(graph.nodes())
    clusters: List[Cluster] = []
    for color in range(1, max(phase_colors.values(), default=0) + 1):
        phase = _cluster_phase(
            graph,
            graph.induced(remaining),
            {},
            sorted((v for v in remaining if phase_colors[v] == color), key=graph.id_of),
            color,
            x,
            r,
            lambda v, dist: _reaches_2x(dist, x),
        )
        new_members: Set[Node] = set()
        for cluster in phase:
            if cluster.members & new_members:
                raise AdviceError(
                    "same-phase clusters overlap — distance coloring too "
                    "weak for these parameters"
                )
            new_members |= cluster.members
        clusters += phase
        remaining -= new_members
    return SubexpClustering(clusters, graph.induced(remaining).components())


def pinned_nodes(graph: LocalGraph, clustering: SubexpClustering, r_bar: int) -> Set[Node]:
    """Nodes within ``r_bar`` (in G) of a node of a *different* region."""
    owner = clustering.region_of()
    pinned: Set[Node] = set()
    for v in graph.nodes():
        for u in graph.ball(v, r_bar):
            if owner.get(u) != owner.get(v):
                pinned.add(v)
                break
    return pinned


# ---------------------------------------------------------------------------
# Label indexing (advice stores label indices, not labels)
# ---------------------------------------------------------------------------


def _label_width(problem: LCLProblem, graph: LocalGraph, v: Node) -> int:
    count = len(problem.candidate_labels(graph, v))
    return max(1, (max(count - 1, 1)).bit_length())


def _label_to_bits(
    problem: LCLProblem, graph: LocalGraph, v: Node, label: Label
) -> str:
    candidates = problem.candidate_labels(graph, v)
    try:
        index = candidates.index(label)
    except ValueError:
        raise AdviceError(f"label {label!r} of {v!r} not in candidate set")
    return int_to_bits(index, _label_width(problem, graph, v))


def _bits_to_label(
    problem: LCLProblem, graph: LocalGraph, v: Node, bits: str
) -> Label:
    candidates = problem.candidate_labels(graph, v)
    index = bits_to_int(bits)
    if index >= len(candidates):
        raise InvalidAdvice(f"label index {index} out of range at {v!r}", node=v)
    return candidates[index]


def _complete_regions(
    problem: LCLProblem,
    graph: LocalGraph,
    clustering: SubexpClustering,
    fixed: Dict[Node, Label],
    max_steps: int,
) -> Dict[Node, Label]:
    """Solve every region interior consistently with the pinned labels.

    Each region's search sees only the labels within ``2 r`` of its
    interior (``r`` the LCL radius): it checks nodes within ``r`` of the
    interior, and their checks read nothing further out.  So a region
    costs time in its own size, and a bad label is blamed on a region
    near it.
    """
    labeling: Dict[Node, Label] = dict(fixed)
    compiled = graph.compiled
    nodes, index_of = compiled.nodes, compiled.index_of
    reach = 2 * problem.radius
    for region in clustering.regions():
        interior = [v for v in region if v not in fixed]
        if not interior:
            continue
        near = compiled.bfs_fill_many([index_of[v] for v in interior], reach)
        compiled.reset_scratch(near)
        solved = solve_exact(
            problem,
            graph,
            fixed={nodes[i]: labeling[nodes[i]] for i in near if nodes[i] in labeling},
            restrict_to=interior,
            max_steps=max_steps,
        )
        if solved is None:
            raise InvalidAdvice(
                "region completion failed — advice inconsistent with problem",
                node=min(interior, key=graph.id_of),
            )
        labeling.update({v: solved[v] for v in interior})
    return labeling


def _global_solution(
    problem: LCLProblem,
    graph: LocalGraph,
    supplied: Optional[Mapping[Node, Label]],
    max_steps: int,
) -> Dict[Node, Label]:
    """The solution ``l`` the encoders pin: ``supplied`` if given, else an
    exhaustive search's; either way checked valid."""
    if supplied is not None:
        solution = dict(supplied)
    else:
        solved = solve_exact(problem, graph, max_steps=max_steps)
        if solved is None:
            raise AdviceError(f"{problem.name} has no solution on this graph")
        solution = solved
    if not is_valid(problem, graph, solution):
        raise AdviceError("supplied solution is invalid")
    return solution


# ---------------------------------------------------------------------------
# Variable-length schema
# ---------------------------------------------------------------------------


class LCLSubexpSchema(AdviceSchema):
    """Variable-length Section 4 schema: centers hold their phase color,
    pinned strip nodes hold their solution label index."""

    def __init__(
        self,
        problem: LCLProblem,
        x: int = 6,
        r: Optional[int] = None,
        solution: Optional[Mapping[Node, Label]] = None,
        max_solver_steps: int = 2_000_000,
    ) -> None:
        self.name = f"lcl-subexp[{problem.name}]"
        self.problem = problem
        self.x = x
        self.r = r if r is not None else problem.radius
        if self.r < problem.radius:
            raise AdviceError("r must be >= the problem's checkability radius")
        self._solution = dict(solution) if solution is not None else None
        self.max_solver_steps = max_solver_steps

    def _phase_bound(self, graph: LocalGraph) -> int:
        # Cluster colors come from the distance-5x coloring; its palette
        # bounds the decoder's phase count.
        colors = distance_coloring(graph, 5 * self.x)
        return max(colors.values(), default=1) or 1

    def _advice_bits_bound(self, graph: LocalGraph) -> int:
        # pack_parts of [color part, label part]: each part costs
        # 2 * len + 1 bits with its unary prefix.
        color_width = max(1, self._phase_bound(graph).bit_length())
        label_width = max(
            (_label_width(self.problem, graph, v) for v in graph.nodes()),
            default=1,
        )
        return (2 * color_width + 1) + (2 * label_width + 1)

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        return LocalityContract(
            radius=self._phase_bound(graph) * (2 * self.x + self.r + 2)
            + 2 * (2 * self.x),
            advice_bits=self._advice_bits_bound(graph),
        )

    @locality_hints(advice_bits="_advice_bits_bound")
    def encode(self, graph: LocalGraph) -> AdviceMap:
        solution = _global_solution(
            self.problem, graph, self._solution, self.max_solver_steps
        )
        clustering = build_clustering(graph, self.x, self.r)
        strip = pinned_nodes(graph, clustering, self.problem.radius)
        advice: AdviceMap = {v: "" for v in graph.nodes()}
        centers = {c.center: c.color for c in clustering.clusters}
        for v in graph.nodes():
            color_part = int_to_bits(centers[v]) if v in centers else ""
            label_part = (
                _label_to_bits(self.problem, graph, v, solution[v])
                if v in strip
                else ""
            )
            if color_part or label_part:
                advice[v] = pack_parts([color_part, label_part])
        return advice

    def repair_advice(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        sites: Sequence[Node],
        radius: int,
        labeling: Optional[Mapping[Node, object]] = None,
    ) -> Optional[AdviceMap]:
        """Blank unparseable packed strings in the balls; the decoder
        treats a blank as "no center / no pinned label here" and the
        region completion re-derives the lost labels by brute force."""
        patched = AdvicePatch(advice)
        for u in repair_region(graph, sites, radius):
            packed = patched.get(u, "")
            if not packed:
                continue
            try:
                unpack_parts(packed, 2)
            except CodecError:
                patched[u] = ""
        return patched.result()

    @locality_hints(phases="_phase_bound")
    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        tracker = LocalityTracker(graph)
        centers: Dict[Node, int] = {}
        labels: Dict[Node, Label] = {}
        for v in graph.nodes():
            packed = advice.get(v, "")
            if not packed:
                continue
            try:
                color_part, label_part = unpack_parts(packed, 2)
            except CodecError as exc:
                raise InvalidAdvice(
                    f"corrupt packed advice at {v!r}", node=v
                ) from exc
            if color_part:
                centers[v] = bits_to_int(color_part)
            if label_part:
                labels[v] = _bits_to_label(self.problem, graph, v, label_part)
        # Rebuild the encoder's clustering: a center is whoever the advice
        # says is one, so every candidate is kept.  A phase with no
        # remaining center removes nothing, so only the colours some
        # remaining center holds get a phase (and a phase graph).
        remaining: Set[Node] = set(graph.nodes())
        clusters: List[Cluster] = []
        for color in sorted({c for c in centers.values() if c >= 1}):
            held = sorted(
                (v for v, c in centers.items() if c == color and v in remaining),
                key=graph.id_of,
            )
            if not held:
                continue
            phase = _cluster_phase(
                graph,
                graph.induced(remaining),
                {},
                held,
                color,
                self.x,
                self.r,
                lambda v, dist: True,
            )
            clusters += phase
            for cluster in phase:
                remaining -= cluster.members
        clustering = SubexpClustering(
            clusters, graph.induced(remaining).components()
        )
        labeling = _complete_regions(
            self.problem, graph, clustering, labels, self.max_solver_steps
        )
        # Locality: phases * (cluster radius + solving broadcast).
        phases = max((c.color for c in clustering.clusters), default=1)
        tracker.charge(phases * (2 * self.x + self.r + 2) + 2 * (2 * self.x))
        return DecodeResult(labeling=labeling, rounds=tracker.rounds)


# ---------------------------------------------------------------------------
# Uniform 1-bit schema (Theorem 4.1 proper)
# ---------------------------------------------------------------------------


class OneBitLCLSchema(AdviceSchema):
    """The paper's single-bit encoding for LCLs on sub-exponential growth.

    * Cluster colors ride marker-coded paths inside ``N_{<= y}(center)``
      (``y = x // 2``), read off the BFS spheres of the center *within the
      phase graph* ``G_i``; all path one-bits sit in runs of >= 2.
    * Pinned-strip labels ride an independent set ``Z'`` of interior
      cluster nodes (isolated one-bits), read back in identifier order.
    * Unclustered regions carry no bits and brute-force their components.

    The encoder verifies run/isolation discipline, sphere uniqueness, and
    decodes its own output before returning.
    """

    def __init__(
        self,
        problem: LCLProblem,
        x: int = 24,
        r: Optional[int] = None,
        solution: Optional[Mapping[Node, Label]] = None,
        max_solver_steps: int = 5_000_000,
    ) -> None:
        self.name = f"one-bit-lcl[{problem.name}]"
        self.problem = problem
        self.x = x
        self.y = x // 2
        self.r = r if r is not None else problem.radius
        self._solution = dict(solution) if solution is not None else None
        self.max_solver_steps = max_solver_steps

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        # T: per-phase cost times the degree-scale phase count charged by
        # the decoder; beta: one marker-code bit per node (Lemma 9.2).
        return LocalityContract(
            radius=(graph.max_degree + 2) * (2 * self.x + self.r + 2),
            advice_bits=1,
        )

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def _run_ones(graph: LocalGraph, bits: Mapping[Node, str]) -> Set[Node]:
        """One-bit nodes with an adjacent one-bit node (path bits)."""
        return {
            v
            for v in graph.nodes()
            if bits.get(v) == "1"
            and any(bits.get(u) == "1" for u in graph.graph.neighbors(v))
        }

    def _carriers(
        self, graph: LocalGraph, cluster: Cluster, bits: Mapping[Node, str]
    ) -> List[Node]:
        """The ordered carrier set ``Z'`` for a cluster.

        ``Z`` = nodes within ``alpha`` of the center (phase-graph distance)
        that neither carry a run-one-bit nor neighbor one; ``Z'`` = greedy
        independent set of ``Z`` in identifier order (independence in G).
        """
        run_ones = self._run_ones(graph, bits)
        inner = {v for v, d in cluster.dist.items() if d <= cluster.alpha}
        blocked: Set[Node] = set()
        for v in sorted(inner, key=graph.id_of):
            if v in run_ones:
                blocked.add(v)
                blocked.update(graph.graph.neighbors(v))
        z = sorted((v for v in inner if v not in blocked), key=graph.id_of)
        z_prime: List[Node] = []
        taken: Set[Node] = set()
        for v in z:
            if v in taken:
                continue
            z_prime.append(v)
            taken.add(v)
            taken.update(graph.graph.neighbors(v))
        return z_prime

    # -- encoding ------------------------------------------------------------

    def encode(self, graph: LocalGraph) -> AdviceMap:
        solution = _global_solution(
            self.problem, graph, self._solution, self.max_solver_steps
        )
        clustering = build_clustering(graph, self.x, self.r)
        bits: AdviceMap = {v: "0" for v in graph.nodes()}

        # 1. marker-coded cluster colors on paths.
        for cluster in clustering.clusters:
            code = encode_payload(int_to_bits(cluster.color))
            if len(code) > self.y:
                raise AdviceError(
                    f"x={self.x} too small: color code needs {len(code)} "
                    f"nodes but y={self.y}"
                )
            path = self._sphere_path(graph, cluster, len(code))
            for node, bit in zip(path, code):
                if bit == "1":
                    bits[node] = "1"

        # 2. pinned-strip labels on independent interior sets.
        pinned = pinned_nodes(graph, clustering, self.problem.radius)
        for cluster in clustering.clusters:
            payload = "".join(
                _label_to_bits(self.problem, graph, w, solution[w])
                for w in sorted(cluster.members & pinned, key=graph.id_of)
            )
            carriers = self._carriers(graph, cluster, bits)
            if len(carriers) < len(payload):
                raise AdviceError(
                    f"cluster at {cluster.center!r}: {len(carriers)} carrier "
                    f"nodes for {len(payload)} payload bits — increase x "
                    "(Lemma 4.3 needs more growth headroom)"
                )
            for node, bit in zip(carriers, payload):
                if bit == "1":
                    bits[node] = "1"

        self._verify(graph, clustering, bits)
        return bits

    def _sphere_path(
        self, graph: LocalGraph, cluster: Cluster, length: int
    ) -> List[Node]:
        """A path ``v_1..v_length`` with ``v_j`` at phase-distance ``j-1``
        from the center, inside ``N_{<= y}``."""
        dist = cluster.dist
        target_d = length - 1
        candidates = [w for w, d in dist.items() if d == target_d]
        if not candidates:
            raise AdviceError(
                f"cluster at {cluster.center!r} has no node at phase-"
                f"distance {target_d}"
            )
        # Walk back from the closest-ID candidate along decreasing distance.
        end = min(candidates, key=graph.id_of)
        path = [end]
        while dist[path[-1]] > 0:
            v = path[-1]
            prev = min(
                (
                    u
                    for u in graph.graph.neighbors(v)
                    if dist.get(u) == dist[v] - 1
                ),
                key=graph.id_of,
            )
            path.append(prev)
        return list(reversed(path))

    # -- verification ----------------------------------------------------------

    def _verify(
        self,
        graph: LocalGraph,
        clustering: SubexpClustering,
        bits: Mapping[Node, str],
    ) -> None:
        detected = self._detect_clustering(graph, bits)
        decoded = {(c.center, c.color) for c in detected.clusters}
        expected = {(c.center, c.color) for c in clustering.clusters}
        if decoded != expected:
            raise AdviceError(
                "center detection mismatch: "
                f"decoded {sorted(decoded)!r} vs "
                f"expected {sorted(expected)!r}; increase x"
            )
        result = self._decode_bits(graph, bits, detected)
        if not is_valid(self.problem, graph, result):
            raise AdviceError("self-check decode produced an invalid solution")

    # -- decoding ------------------------------------------------------------

    def _detect_clustering(
        self, graph: LocalGraph, bits: Mapping[Node, str]
    ) -> SubexpClustering:
        """Rebuild the clustering phase by phase from the raw bits (the
        paper's S').

        Phase ``i``'s candidates are the remaining run-one nodes; one is a
        center when it reaches ``2x`` and its spheres parse to ``i``.  A
        phase that finds no center leaves the phase graph as it was, so the
        next phase reuses its graph and sweeps; the loop stops at a phase
        where no candidate even reached ``2x``, since every later phase
        would find none either.  Two clusters of one phase that overlap
        (the encoder's never do) raise :class:`InvalidAdvice` at the later
        center.
        """
        run_ones = self._run_ones(graph, bits)
        remaining: Set[Node] = set(graph.nodes())
        sub, swept = graph.induced(remaining), {}
        candidates = sorted(run_ones, key=graph.id_of)
        clusters: List[Cluster] = []
        color = 0
        eligible = False

        def accept(v: Node, dist: Dict[Node, int]) -> bool:
            nonlocal eligible
            if not _reaches_2x(dist, self.x):
                return False
            eligible = True
            return self._parse_center(dist, run_ones) == color

        while True:
            color += 1
            eligible = False
            found = _cluster_phase(
                graph, sub, swept, candidates, color, self.x, self.r, accept
            )
            if found:
                taken: Set[Node] = set()
                for cluster in found:
                    # The encoder's clusters of one phase are disjoint;
                    # overlapping ones can only come from corrupted bits.
                    if not cluster.members.isdisjoint(taken):
                        raise InvalidAdvice(
                            f"phase-{color} clusters overlap — corrupt advice",
                            node=cluster.center,
                        )
                    taken |= cluster.members
                clusters += found
                remaining -= taken
                sub, swept = graph.induced(remaining), {}
                candidates = sorted(remaining & run_ones, key=graph.id_of)
                continue
            if not eligible:
                break
            if color > graph.n + 1:
                raise InvalidAdvice(
                    "runaway phase loop — corrupt advice",
                    node=min(remaining, key=graph.id_of),
                )
        return SubexpClustering(clusters, graph.induced(remaining).components())

    def _parse_center(
        self, dist: Mapping[Node, int], run_ones: Set[Node]
    ) -> Optional[int]:
        """Parse a color code off the phase-graph spheres of a candidate.

        Requires: at most one run-one per sphere up to ``x``; spheres
        ``y+1..x`` free of run-ones; the stream parses as a marker code with
        all-zero tail.
        """
        counts = [0] * (self.x + 1)
        for w, d in dist.items():
            if d <= self.x and w in run_ones:
                counts[d] += 1
        if any(counts[self.y + 1 :]):
            return None
        payload = read_marker_stream(counts)
        if not payload:
            return None
        return bits_to_int(payload)

    def _decode_bits(
        self,
        graph: LocalGraph,
        bits: Mapping[Node, str],
        clustering: SubexpClustering,
    ) -> Dict[Node, Label]:
        """Read the strips back off the carrier sets of the detected
        clustering, then complete every region."""
        pinned = pinned_nodes(graph, clustering, self.problem.radius)
        fixed: Dict[Node, Label] = {}
        for cluster in clustering.clusters:
            strip = sorted(cluster.members & pinned, key=graph.id_of)
            carriers = self._carriers(graph, cluster, bits)
            widths = [_label_width(self.problem, graph, w) for w in strip]
            needed = sum(widths)
            if len(carriers) < needed:
                raise InvalidAdvice(
                    "carrier set shorter than payload", node=cluster.center
                )
            stream = "".join(
                "1" if bits.get(c) == "1" else "0" for c in carriers[:needed]
            )
            offset = 0
            for w, width in zip(strip, widths):
                fixed[w] = _bits_to_label(
                    self.problem, graph, w, stream[offset : offset + width]
                )
                offset += width
        return _complete_regions(
            self.problem, graph, clustering, fixed, self.max_solver_steps
        )

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        tracker = LocalityTracker(graph)
        for v in graph.nodes():
            if advice.get(v) not in ("0", "1"):
                raise InvalidAdvice(
                    f"node {v!r} lacks its single advice bit", node=v
                )
        labeling = self._decode_bits(
            graph, advice, self._detect_clustering(graph, advice)
        )
        # Locality: the paper's 2^{O(x)} = O(1) bound; we report the
        # per-phase cost times a degree-scale phase count.
        tracker.charge((graph.max_degree + 2) * (2 * self.x + self.r + 2))
        return DecodeResult(labeling=labeling, rounds=tracker.rounds)
