"""Radius-``r`` views and order-invariance.

In the LOCAL model with unbounded messages, everything a node can learn in
``T`` rounds is its *radius-T view*: the subgraph induced by its ball of
radius ``T``, together with the identifiers, input labels, and (here) advice
bits inside the ball.  A ``T``-round algorithm is therefore exactly a
function from views to outputs; :mod:`repro.local.model` exploits this
equivalence.

Section 8 of the paper converts advice algorithms into *order-invariant*
ones — algorithms whose output depends only on the relative order of the
identifiers in the view, not their numeric values.  :func:`View.canonical`
computes the order-normalized form on which such algorithms operate, and
:func:`View.order_signature` produces a hashable key so order-invariant
algorithms can be realized as finite lookup tables
(:mod:`repro.lower_bounds.order_invariant`).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.trace import as_tracer
from ..perf import SimStats
from .graph import LocalGraph, Node


class GlobalKnowledge(NamedTuple):
    """Non-local facts the LOCAL model grants every node up front (§3.2).

    A decoder that reads these is *not* a pure function of its radius-T
    view anymore: the same ball embedded in a different host graph decodes
    differently.  That is sometimes legitimate (the model does hand nodes
    ``n`` and ``Delta``), but it must be declared — see
    :func:`uses_global_knowledge` and rule LOC001 of
    :mod:`repro.analysis`.
    """

    n: int
    max_degree: int


class GlobalKnowledgeUse(NamedTuple):
    """One recorded disclosure of global graph facts to a view consumer.

    ``schema`` names the advice schema whose decode was in flight when the
    disclosure happened (stamped by :meth:`repro.advice.AdviceSchema.run`),
    or ``""`` when the access happened outside any schema run — it makes
    lint and certify findings schema-addressable.
    """

    center: Node
    attr: str
    via: str
    schema: str = ""


class _KnowledgeRecorder:
    """Counts (and optionally collects) global-knowledge disclosures.

    ``total`` is always maintained; event objects are only materialized
    while a :func:`track_global_knowledge` block is active, so the hot
    path stays one integer increment.  ``owner`` carries the name of the
    schema currently decoding (set by the schema run driver) so collected
    events are attributed to it.
    """

    __slots__ = ("total", "_events", "owner")

    def __init__(self) -> None:
        self.total = 0
        self._events: Optional[List[GlobalKnowledgeUse]] = None
        self.owner: Optional[str] = None

    def record(self, view: "View", attr: str, via: str) -> None:
        self.total += 1
        if self._events is not None:
            self._events.append(
                GlobalKnowledgeUse(
                    center=view.center,
                    attr=attr,
                    via=via,
                    schema=self.owner or "",
                )
            )


GLOBAL_KNOWLEDGE_RECORDER = _KnowledgeRecorder()


@contextmanager
def track_global_knowledge() -> Iterator[List[GlobalKnowledgeUse]]:
    """Collect every global-knowledge access made while the block runs.

    Used by the dynamic half of the locality linter
    (:mod:`repro.analysis.fuzz`) to catch decoders that read ``n`` or
    ``Delta`` through a view at runtime, including through the deprecated
    ``View.graph_n`` / ``View.graph_max_degree`` attributes.
    """
    recorder = GLOBAL_KNOWLEDGE_RECORDER
    previous = recorder._events
    events: List[GlobalKnowledgeUse] = []
    recorder._events = events
    try:
        yield events
    finally:
        recorder._events = previous


class LocalityWitness(NamedTuple):
    """Tight dynamic witness of one decode: what was *actually* touched.

    ``radius`` is the deepest view layer any accessor reached, and
    ``advice_bits`` the longest advice string fetched — lower bounds on
    the true ``(T, beta)`` that the static certifier's upper bounds
    (:mod:`repro.analysis.locality`) must dominate.
    """

    radius: int
    advice_bits: int
    view_accesses: int
    advice_reads: int


class _WitnessRecorder:
    """Shadows :class:`View` accessors and advice reads during a decode.

    Follows the :data:`GLOBAL_KNOWLEDGE_RECORDER` idiom: a module-level
    instance whose hot path is a single ``_active`` check, armed only
    inside a :func:`record_locality_witness` block.
    """

    __slots__ = (
        "_active",
        "max_depth",
        "max_advice_bits",
        "view_accesses",
        "advice_reads",
    )

    def __init__(self) -> None:
        self._active = False
        self.reset()

    def reset(self) -> None:
        self.max_depth = 0
        self.max_advice_bits = 0
        self.view_accesses = 0
        self.advice_reads = 0

    def record_view(self, view: "View", v: Node) -> None:
        self.view_accesses += 1
        depth = view.distances.get(v)
        if depth is not None and depth > self.max_depth:
            self.max_depth = depth

    def record_advice(self, bits: str) -> None:
        self.advice_reads += 1
        if len(bits) > self.max_advice_bits:
            self.max_advice_bits = len(bits)

    def record_scan(self, view: "View") -> None:
        """Record what ``view.advice_of(v)`` over every view node records."""
        advice = view.advice
        for v in view.nodes:
            self.record_view(view, v)
            self.record_advice(advice.get(v, ""))

    def witness(self, rounds: int = 0) -> LocalityWitness:
        """The witness so far; ``rounds`` folds in the decoder's honest
        round accounting (tracker charges use actual instance data, so
        they are part of what the run demonstrably needed)."""
        return LocalityWitness(
            radius=max(self.max_depth, rounds),
            advice_bits=self.max_advice_bits,
            view_accesses=self.view_accesses,
            advice_reads=self.advice_reads,
        )


LOCALITY_WITNESS_RECORDER = _WitnessRecorder()


@contextmanager
def record_locality_witness() -> Iterator[_WitnessRecorder]:
    """Arm the witness recorder for the duration of a decode.

    Not reentrant: nested blocks would clobber each other's counters, and
    sub-decodes (composed schemas) are *meant* to accumulate into the
    enclosing witness, so the certifier wraps exactly one top-level decode
    per block.
    """
    recorder = LOCALITY_WITNESS_RECORDER
    recorder.reset()
    recorder._active = True
    try:
        yield recorder
    finally:
        recorder._active = False


class RecordingAdviceMap(Mapping[Node, str]):
    """Read-shadowing proxy over an advice map.

    Every bit-string fetched through it — direct indexing, ``.get``, or
    iteration of ``.items()``/``.values()`` — is reported to the witness
    recorder, so the dynamic cross-check sees advice reads made by
    tracker-style decoders that never build a :class:`View`.
    """

    def __init__(
        self,
        advice: Mapping[Node, str],
        recorder: Optional[_WitnessRecorder] = None,
    ) -> None:
        self._advice = advice
        self._recorder = recorder if recorder is not None else LOCALITY_WITNESS_RECORDER

    def __getitem__(self, v: Node) -> str:
        bits = self._advice[v]
        self._recorder.record_advice(bits)
        return bits

    def __iter__(self) -> Iterator[Node]:
        return iter(self._advice)

    def __len__(self) -> int:
        return len(self._advice)


def uses_global_knowledge(reason: str):
    """Waive rule LOC001 for a decoder that legitimately needs ``n``/``Delta``.

    The justification string is mandatory and is rendered in lint reports;
    an empty reason is rejected here and flagged by the static pass.
    """
    if not isinstance(reason, str) or not reason.strip():
        raise ValueError(
            "uses_global_knowledge requires a non-empty justification string"
        )

    def decorate(fn):
        waivers = dict(getattr(fn, "_lint_waivers", {}))
        waivers["LOC001"] = reason
        fn._lint_waivers = waivers
        return fn

    return decorate


@dataclass(frozen=True)
class View:
    """The radius-``radius`` view of ``center`` in a :class:`LocalGraph`.

    Attributes
    ----------
    center:
        The node whose view this is.
    radius:
        The view radius (= number of LOCAL rounds spent gathering it).
    nodes:
        All nodes within distance ``radius`` of ``center``.
    edges:
        Edges of the induced subgraph *visible* to the node: every edge with
        at least one endpoint at distance ``< radius`` (a node at the
        boundary of the ball has not yet told the center about its incident
        edges).
    ids:
        Identifier of every node in the view.
    inputs:
        Input label of every node in the view (``None`` when absent).
    advice:
        Advice bit-string of every node in the view (``""`` when absent).
    distances:
        Hop distance from ``center`` for every node in the view.

    Sparse-advice decoders read the few advice holders through
    :meth:`holders`, which returns them sorted by ``(distance, id)``; a
    batch-gathered view answers it from one batch column, without
    building a per-node dict.
    """

    center: Node
    radius: int
    nodes: FrozenSet[Node]
    edges: FrozenSet[Tuple[Node, Node]]
    ids: Mapping[Node, int]
    inputs: Mapping[Node, object]
    advice: Mapping[Node, str]
    distances: Mapping[Node, int]
    _graph_n: int = 0
    _graph_max_degree: int = 0

    # -- global knowledge (gated) ----------------------------------------------

    def global_knowledge(self) -> GlobalKnowledge:
        """Explicitly read the non-local facts ``(n, Delta)``.

        Every call is recorded (see :func:`track_global_knowledge`), and
        the static pass requires callers inside view decoders to carry a
        :func:`uses_global_knowledge` waiver — reading ``n`` or ``Delta``
        makes the decoder's output depend on more than its radius-T view.
        """
        GLOBAL_KNOWLEDGE_RECORDER.record(self, "global_knowledge", "accessor")
        return GlobalKnowledge(n=self._graph_n, max_degree=self._graph_max_degree)

    @property
    def graph_n(self) -> int:
        """Deprecated shim for the old ungated field; use
        :meth:`global_knowledge` (with a waiver) instead."""
        warnings.warn(
            "View.graph_n is deprecated; use View.global_knowledge().n "
            "under a uses_global_knowledge waiver",
            DeprecationWarning,
            stacklevel=2,
        )
        GLOBAL_KNOWLEDGE_RECORDER.record(self, "graph_n", "deprecated-attribute")
        return self._graph_n

    @property
    def graph_max_degree(self) -> int:
        """Deprecated shim kept for the schemas that legitimately need
        ``Delta``; records usage like :meth:`global_knowledge`."""
        warnings.warn(
            "View.graph_max_degree is deprecated; use "
            "View.global_knowledge().max_degree under a "
            "uses_global_knowledge waiver",
            DeprecationWarning,
            stacklevel=2,
        )
        GLOBAL_KNOWLEDGE_RECORDER.record(
            self, "graph_max_degree", "deprecated-attribute"
        )
        return self._graph_max_degree

    # -- basic queries ---------------------------------------------------------

    def id_of(self, v: Node) -> int:
        if LOCALITY_WITNESS_RECORDER._active:
            LOCALITY_WITNESS_RECORDER.record_view(self, v)
        return self.ids[v]

    def input_of(self, v: Node) -> object:
        if LOCALITY_WITNESS_RECORDER._active:
            LOCALITY_WITNESS_RECORDER.record_view(self, v)
        return self.inputs.get(v)

    def advice_of(self, v: Node) -> str:
        bits = self.advice.get(v, "")
        if LOCALITY_WITNESS_RECORDER._active:
            LOCALITY_WITNESS_RECORDER.record_view(self, v)
            LOCALITY_WITNESS_RECORDER.record_advice(bits)
        return bits

    def distance(self, v: Node) -> int:
        if LOCALITY_WITNESS_RECORDER._active:
            LOCALITY_WITNESS_RECORDER.record_view(self, v)
        return self.distances[v]

    def holders(self) -> List[Tuple[int, int, Node, str]]:
        """``(distance, id, node, bits)`` of every view node with non-empty
        advice, sorted (nearest first, ties to the smaller identifier).

        The witness recorder sees the same reads as an ``advice_of`` scan
        over the whole view: finding the holders reads every node's advice.
        """
        if LOCALITY_WITNESS_RECORDER._active:
            LOCALITY_WITNESS_RECORDER.record_scan(self)
        return self._holders()

    def _holders(self) -> List[Tuple[int, int, Node, str]]:
        distances, ids, advice = self.distances, self.ids, self.advice
        return sorted(
            (distances[v], ids[v], v, bits)
            for v in self.nodes
            if (bits := advice.get(v, ""))
        )

    def has_edge(self, u: Node, v: Node) -> bool:
        if LOCALITY_WITNESS_RECORDER._active:
            LOCALITY_WITNESS_RECORDER.record_view(self, u)
            LOCALITY_WITNESS_RECORDER.record_view(self, v)
        return (u, v) in self.edges or (v, u) in self.edges

    def _adjacency(self) -> Dict[Node, List[Node]]:
        """Identifier-ordered adjacency of the visible edges, built once.

        Cached outside the frozen dataclass fields (it is derived from
        ``edges``/``ids``, so it does not participate in equality/hash).
        """
        adj = getattr(self, "_adj_cache", None)
        if adj is None:
            adj = {v: [] for v in self.nodes}
            for a, b in self.edges:
                adj[a].append(b)
                adj[b].append(a)
            ids = self.ids
            for lst in adj.values():
                lst.sort(key=ids.__getitem__)
            object.__setattr__(self, "_adj_cache", adj)
        return adj

    def neighbors(self, v: Node) -> List[Node]:
        """Neighbors of ``v`` visible in the view, in identifier order."""
        result = list(self._adjacency().get(v, ()))
        if LOCALITY_WITNESS_RECORDER._active:
            LOCALITY_WITNESS_RECORDER.record_view(self, v)
            for u in result:
                LOCALITY_WITNESS_RECORDER.record_view(self, u)
        return result

    def degree(self, v: Node) -> int:
        if LOCALITY_WITNESS_RECORDER._active:
            LOCALITY_WITNESS_RECORDER.record_view(self, v)
        return len(self._adjacency().get(v, ()))

    def nodes_sorted(self) -> List[Node]:
        return sorted(self.nodes, key=lambda v: self.ids[v])

    # -- order invariance --------------------------------------------------------

    def canonical(self) -> "View":
        """Replace identifiers by their rank (1-based) within the view.

        Two views that are order-isomorphic (same structure, same relative
        identifier order, same inputs and advice) have equal canonical
        forms, so an order-invariant algorithm is exactly a function of
        ``canonical()``.
        """
        order = self.nodes_sorted()
        rank = {v: i + 1 for i, v in enumerate(order)}
        # Rename the nodes themselves to their ranks: node names carry the
        # original identifier assignment, so keeping them would make two
        # order-isomorphic views canonically unequal.
        return View(
            center=rank[self.center],
            radius=self.radius,
            nodes=frozenset(rank.values()),
            edges=frozenset(
                (min(rank[u], rank[v]), max(rank[u], rank[v]))
                for u, v in self.edges
            ),
            ids={r: r for r in rank.values()},
            inputs={rank[v]: x for v, x in self.inputs.items() if v in rank},
            advice={rank[v]: a for v, a in self.advice.items() if v in rank},
            distances={rank[v]: d for v, d in self.distances.items()},
            _graph_n=self._graph_n,
            _graph_max_degree=self._graph_max_degree,
        )

    def order_signature(self) -> Tuple:
        """A hashable, node-name-independent key of the canonical view.

        Nodes are renamed to their identifier *rank*; the signature lists,
        per rank, the distance from the center, the input, the advice, and
        the ranks of visible neighbors.  Two views have equal signatures iff
        they are order-isomorphic, which is the equivalence relation under
        which order-invariant algorithms (Section 8) must behave
        identically.
        """
        cached = getattr(self, "_sig_cache", None)
        if cached is not None:
            return cached
        order = self.nodes_sorted()
        rank = {v: i + 1 for i, v in enumerate(order)}
        adj = self._adjacency()
        rows = []
        for v in order:
            nbrs = tuple(sorted(rank[u] for u in adj.get(v, ())))
            rows.append(
                (
                    rank[v],
                    self.distances[v],
                    _freeze(self.inputs.get(v)),
                    self.advice.get(v, ""),
                    nbrs,
                )
            )
        signature = (self.radius, rank[self.center], tuple(rows))
        object.__setattr__(self, "_sig_cache", signature)
        return signature


def _freeze(value: object) -> object:
    """Best-effort conversion of an input label to something hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(x) for x in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(x) for x in value))
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def gather_view(
    graph: LocalGraph,
    center: Node,
    radius: int,
    advice: Optional[Mapping[Node, str]] = None,
) -> View:
    """Collect the radius-``radius`` view of ``center``.

    This is the information a node holds after ``radius`` rounds of
    unbounded-message LOCAL communication: the ball, identifiers, inputs and
    advice within it, and all edges except those joining two nodes on the
    boundary sphere (those are invisible — neither endpoint's incident-edge
    list has reached the center in time).
    """
    compiled = graph.compiled
    return _view_from_compiled(
        graph, compiled, compiled.index_of[center], radius, advice or {}, None
    )


def _view_from_compiled(
    graph: LocalGraph,
    compiled,
    center_idx: int,
    radius: int,
    advice: Mapping[Node, str],
    stats,
) -> View:
    """One integer-frontier sweep producing the :class:`View` of a node.

    Works entirely on CSR indices and the reusable distance scratch; the
    only per-node allocations are the output dicts of the view itself.
    """
    nodes_arr = compiled.nodes
    ids_arr = compiled.ids
    indptr, indices = compiled.indptr, compiled.indices
    order = compiled.bfs_fill(center_idx, radius)
    dist = compiled._dist

    distances: Dict[Node, int] = {}
    ids: Dict[Node, int] = {}
    for i in order:
        v = nodes_arr[i]
        distances[v] = dist[i]
        ids[v] = ids_arr[i]
    edges = set()
    for i in order:
        if dist[i] >= radius:
            continue
        vi = ids_arr[i]
        v = nodes_arr[i]
        for k in range(indptr[i], indptr[i + 1]):
            j = indices[k]
            if dist[j] >= 0:
                u = nodes_arr[j]
                edges.add((v, u) if vi < ids_arr[j] else (u, v))
    compiled.reset_scratch(order)
    if stats is not None:
        stats.views_gathered += 1
        stats.bfs_node_visits += len(order)

    inputs = graph._inputs
    return View(
        center=nodes_arr[center_idx],
        radius=radius,
        nodes=frozenset(distances),
        edges=frozenset(edges),
        ids=ids,
        inputs={v: inputs.get(v) for v in distances},
        advice={v: advice.get(v, "") for v in distances},
        distances=distances,
        _graph_n=graph.n,
        _graph_max_degree=graph.max_degree,
    )


def gather_all_views(
    graph: LocalGraph,
    radius: int,
    advice: Optional[Mapping[Node, str]] = None,
    stats=None,
    tracer=None,
    roots: Optional[Sequence[int]] = None,
) -> Dict[Node, View]:
    """Compute the radius-``radius`` view of every node in ``roots``.

    ``roots`` are dense CSR indices, as in
    :func:`repro.local.vectorized.gather_views_batched` (default: every
    node).  Equivalent to ``{v: gather_view(graph, v, radius, advice) for
    v in graph.nodes()}`` (the test suite cross-checks exact :class:`View`
    equality), but runs all BFS sweeps over the compiled CSR arrays with
    shared scratch buffers instead of ``n`` independent networkx
    traversals.  ``stats`` (a :class:`repro.perf.SimStats`) accumulates
    views gathered and BFS node-visits when provided; ``tracer`` (a
    :class:`repro.obs.Tracer`) wraps the sweep in a ``gather`` span stamped
    with the same counters (:meth:`repro.perf.SimStats.span`).
    """
    compiled = graph.compiled
    advice = advice or {}
    if stats is None:
        stats = SimStats()
    if roots is None:
        roots = range(compiled.n)
    with stats.span(
        as_tracer(tracer), "gather", radius=radius, n=compiled.n, engine="scalar"
    ):
        return {
            compiled.nodes[i]: _view_from_compiled(
                graph, compiled, i, radius, advice, stats
            )
            for i in roots
        }


def mark_order_invariant(decide):
    """Declare a view-decision function order-invariant (Section 8).

    Order-invariant functions depend only on the *relative* order of the
    identifiers in the view, so order-isomorphic views (equal
    :meth:`View.order_signature`) must get identical outputs — which is
    what makes ``run_view_algorithm(..., memoize=True)`` sound.  The mark
    is a declaration that ``repro lint`` (ORD001/ORD002) and ``repro lint
    --fuzz`` check; it does not switch memoization on.
    """
    decide.order_invariant = True
    return decide


def is_marked_order_invariant(decide) -> bool:
    """Whether ``decide`` was declared via :func:`mark_order_invariant`."""
    return bool(getattr(decide, "order_invariant", False))
