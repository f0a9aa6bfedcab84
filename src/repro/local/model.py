"""Synchronous LOCAL-model execution engines.

Two equivalent semantics are provided:

* :func:`run_view_algorithm` — the *view* semantics: a ``T``-round algorithm
  is a function from radius-``T`` views to outputs.  This is the semantics
  under which the paper's round bounds are stated, and the one the advice
  schemas use.

* :func:`run_message_passing` — the explicit synchronous message-passing
  semantics: per round, every node sends one (arbitrarily large) message per
  incident edge, receives its neighbors' messages, and updates its state.

The two are equivalent in the LOCAL model because messages are unbounded:
``T`` rounds of flooding deliver exactly the radius-``T`` view.
:class:`GatherAlgorithm` implements that flooding explicitly, and the test
suite cross-checks the two engines against each other.

Bandwidth is a *policy over this one engine*, not a fork
(:mod:`repro.obs.bandwidth`): under :data:`repro.obs.bandwidth.LOCAL`
every message's canonical bit size is metered per ``(edge, round)`` and
merely recorded; under ``CONGEST(B)`` the same meter enforces the
``B·⌈log n⌉`` per-edge-per-round cap and overflow raises an attributed
:class:`repro.obs.bandwidth.BandwidthExceeded`; ``OFF`` restores the
meter-free fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..obs.bandwidth import (
    BandwidthMeter,
    BandwidthPolicy,
    current_bandwidth_policy,
    measure_bits,
)
from ..obs.trace import NULL_TRACER
from ..perf import SimStats
from .graph import LocalGraph, Node
from .views import View, gather_all_views


class SimulationError(RuntimeError):
    """Raised when a simulated algorithm violates the model's contract."""


# ---------------------------------------------------------------------------
# Gather selection
# ---------------------------------------------------------------------------

#: A gather call with at least this many roots — every node in a
#: whole-graph run, the batch in an ``AdviceService`` query — runs the
#: ``vectorized`` sweep; below it the ``scalar`` per-root BFS, where the
#: numpy sweep's fixed per-call cost (array setup, mask allocation)
#: outweighs its per-root win.
AUTO_VECTORIZE_MIN_NODES = 64


def resolve_engine(roots: int) -> str:
    """The gather a call over ``roots`` roots runs: ``scalar`` or ``vectorized``.

    The root count is the only input; both gathers return equal views
    and charge equal work counters (see :func:`gather_views`).
    """
    return "vectorized" if roots >= AUTO_VECTORIZE_MIN_NODES else "scalar"


def gather_views(
    graph: LocalGraph,
    radius: int,
    advice: Optional[Mapping[Node, str]] = None,
    roots: Optional[Sequence[int]] = None,
    stats=None,
    tracer=None,
) -> Dict[Node, View]:
    """Radius-``radius`` views of ``roots`` (dense indices; default: all nodes).

    Runs :func:`repro.local.views.gather_all_views` or
    :func:`repro.local.vectorized.gather_views_batched`, whichever
    :func:`resolve_engine` picks for the root count.
    """
    count = graph.n if roots is None else len(roots)
    if resolve_engine(count) == "vectorized":
        from .vectorized import gather_views_batched as gather
    else:
        gather = gather_all_views
    return gather(
        graph, radius, advice=advice, stats=stats, tracer=tracer, roots=roots
    )


@dataclass
class RunResult:
    """Outcome of a LOCAL simulation.

    Attributes
    ----------
    outputs:
        Mapping ``node -> output``.
    rounds:
        Number of synchronous rounds consumed.  For view algorithms this is
        the gathering radius; for message passing it is the number of
        executed rounds until every node halted.
    stats:
        :class:`repro.perf.SimStats` counters for the run (views
        gathered, cache hits, BFS node-visits).
    """

    outputs: Dict[Node, object]
    rounds: int
    stats: Optional[SimStats] = None

    def output_of(self, v: Node) -> object:
        return self.outputs[v]


@dataclass
class NodeContext:
    """Initial knowledge of a node in the LOCAL model (Section 3.2).

    A node knows its identifier, its degree, ``n``, ``Delta``, its input
    label, and (in the advice setting) its advice bit-string — nothing else.
    """

    node: Node
    node_id: int
    degree: int
    n: int
    max_degree: int
    input: object = None
    advice: str = ""


# ---------------------------------------------------------------------------
# View semantics
# ---------------------------------------------------------------------------

ViewFunction = Callable[[View], object]


def run_view_algorithm(
    graph: LocalGraph,
    radius: int,
    decide: ViewFunction,
    advice: Optional[Mapping[Node, str]] = None,
    memoize: bool = False,
    tracer=None,
) -> RunResult:
    """Run the ``radius``-round view algorithm ``decide`` on every node.

    The views come from :func:`gather_views`: the ``vectorized`` sweep for
    graphs of at least :data:`AUTO_VECTORIZE_MIN_NODES` nodes, else the
    ``scalar`` per-root BFS.  The outputs do not depend on which gather ran
    (the test suite pins bit-identical labelings).

    By default every view is decided directly.  With ``memoize=True``
    order-isomorphic views are decided once and answered from a cache keyed
    on :meth:`View.order_signature`, which is sound exactly for
    order-invariant algorithms (Section 8: their output may depend only on
    the relative identifier order in the view).  The signature costs more
    than most decisions, so only callers that re-decide the same few
    neighbourhoods opt in; :func:`repro.local.views.mark_order_invariant`
    declares the property but does not switch the cache on.
    ``RunResult.stats`` reports views gathered, cache hits/misses, BFS
    node-visits, and which engine ran.
    """
    if radius < 0:
        raise SimulationError("radius must be non-negative")
    if tracer is None:
        tracer = NULL_TRACER
    tracing = tracer.enabled
    stats = SimStats(engine=resolve_engine(graph.n))
    with stats.span(
        tracer,
        "run_view_algorithm",
        radius=radius,
        n=graph.n,
        memoize=memoize,
        engine=stats.engine,
    ):
        views = gather_views(graph, radius, advice, stats=stats, tracer=tracer)
        outputs: Dict[Node, object] = {}
        with stats.span(tracer, "decide", n=len(views)):
            if memoize:
                cache: Dict[object, object] = {}
                for v, view in views.items():
                    key = view.order_signature()
                    if key in cache:
                        stats.view_cache_hits += 1
                        outputs[v] = cache[key]
                        if tracing:
                            tracer.event("decide", node=v, cached=True)
                    else:
                        stats.view_cache_misses += 1
                        stats.decide_calls += 1
                        result = decide(view)
                        cache[key] = result
                        outputs[v] = result
                        if tracing:
                            tracer.event("decide", node=v, cached=False)
            elif tracing:
                for v, view in views.items():
                    stats.decide_calls += 1
                    outputs[v] = decide(view)
                    tracer.event("decide", node=v, cached=False)
            else:
                # Hot path: one dict comprehension, one bulk counter add.
                outputs.update((v, decide(view)) for v, view in views.items())
                stats.decide_calls += len(views)
    return RunResult(outputs=outputs, rounds=radius, stats=stats)


# ---------------------------------------------------------------------------
# Message-passing semantics
# ---------------------------------------------------------------------------


class MessagePassingAlgorithm:
    """Base class for explicit synchronous message-passing node algorithms.

    Lifecycle per node: :meth:`init` once, then per round :meth:`send`
    followed by :meth:`receive`.  A node halts by setting :attr:`output`
    (checked after ``receive``); once every node has halted the run stops.
    Messages are per-port: ``send`` returns ``{port_index: message}`` and
    ``receive`` gets ``{port_index: message}`` for the ports on which a
    neighbor sent something this round.
    """

    def __init__(self) -> None:
        self.ctx: Optional[NodeContext] = None
        self.output: object = _UNSET

    # -- hooks -------------------------------------------------------------

    def init(self, ctx: NodeContext) -> None:
        self.ctx = ctx

    def send(self, round_index: int) -> Dict[int, object]:
        return {}

    def receive(self, round_index: int, messages: Dict[int, object]) -> None:
        raise NotImplementedError

    # -- state -------------------------------------------------------------

    @property
    def halted(self) -> bool:
        return self.output is not _UNSET


class _Unset:
    def __repr__(self) -> str:  # pragma: no cover
        return "<unset>"


_UNSET = _Unset()

#: the single fate of a message on a fault-free wire: deliver this round.
_DELIVER_NOW = (0,)


def run_message_passing(
    graph: LocalGraph,
    factory: Callable[[], MessagePassingAlgorithm],
    advice: Optional[Mapping[Node, str]] = None,
    max_rounds: int = 10_000,
    trace: Optional["MessageTrace"] = None,
    tracer=None,
    faults=None,
    policy: Optional[BandwidthPolicy] = None,
) -> RunResult:
    """Run a synchronous message-passing algorithm until all nodes halt.

    Pass a :class:`MessageTrace` to record per-round message counts — the
    LOCAL model ignores message *size*, but a trace makes the communication
    pattern of a protocol inspectable (used by the protocol tests and the
    examples to show where traffic concentrates).  ``tracer`` (a
    :class:`repro.obs.Tracer`) additionally records a
    ``run_message_passing`` span with one ``round`` event per executed
    round carrying the messages delivered in it.

    ``faults`` (a :class:`repro.faults.inject.NetworkFaults`) injects
    message and crash faults: every sent message is routed through
    ``faults.fate(round, sender_id, port)`` (drop / duplicate / delay),
    and nodes listed by ``faults.crashes_at(round)`` fail-stop — they
    output ``faults.crash_output``, stop sending, and stop receiving
    (in-flight messages to them are discarded).  ``faults=None`` keeps
    the fault-free fast path byte-identical to before.

    ``policy`` (default: the ambient
    :func:`repro.obs.bandwidth.current_bandwidth_policy`) selects the
    bandwidth accounting: every message is sized once per round through
    :func:`repro.obs.bandwidth.measure_bits` and charged to its
    ``(edge, round)`` in a :class:`repro.obs.bandwidth.BandwidthMeter`.
    ``local`` records (``stats.bits_on_wire`` / ``stats.bandwidth``),
    ``congest`` additionally raises
    :class:`repro.obs.bandwidth.BandwidthExceeded` the moment an edge
    exceeds ``B·⌈log n⌉`` bits in one round, and ``off`` skips metering.
    Fault interaction is pinned by the fault tests: a dropped message
    still counts at its send round, a duplicated one counts twice, and a
    delayed one counts in its delivery round.
    """
    advice = advice or {}
    if tracer is None:
        tracer = NULL_TRACER
    tracing = tracer.enabled
    n = graph.n
    delta = graph.max_degree
    nodes = graph.nodes()
    stats = SimStats()
    if policy is None:
        policy = current_bandwidth_policy()
    meter = BandwidthMeter(policy, n) if policy.records else None
    with stats.span(tracer, "run_message_passing", n=n) as run_span:
        algos: Dict[Node, MessagePassingAlgorithm] = {}
        for v in nodes:
            algo = factory()
            algo.init(
                NodeContext(
                    node=v,
                    node_id=graph.id_of(v),
                    degree=graph.degree(v),
                    n=n,
                    max_degree=delta,
                    input=graph.input_of(v),
                    advice=advice.get(v, ""),
                )
            )
            algos[v] = algo

        # Precompute the port tables once: port-ordered neighbor lists plus,
        # for each directed port (v, p) -> u, the reverse port of v at u.
        # The seed re-sorted neighbors and linearly scanned port_of per
        # delivered message.
        compiled = graph.compiled
        nbrs_at: Dict[Node, List[Node]] = {}
        rev_port: Dict[Node, List[int]] = {}
        for v in nodes:
            nbrs = compiled.neighbors(v)
            nbrs_at[v] = nbrs
            rev_port[v] = [compiled.port_of(u, v) for u in nbrs]

        sender_ids: Dict[Node, int] = {}
        # delivery round -> [(target, port, msg, sender_id, bits)]
        pending: Dict[int, List] = {}
        if faults is not None or meter is not None:
            sender_ids = {v: graph.id_of(v) for v in nodes}

        rounds = 0
        while not all(algo.halted for algo in algos.values()):
            if rounds >= max_rounds:
                raise SimulationError(
                    f"no termination within {max_rounds} rounds"
                )
            if faults is not None:
                for v in faults.crashes_at(rounds):
                    algo = algos[v]
                    if not algo.halted:
                        algo.output = faults.crash_output
            delivered_before = stats.messages_delivered
            outboxes = {
                v: (algos[v].send(rounds) if not algos[v].halted else {})
                for v in nodes
            }
            inboxes: Dict[Node, Dict[int, object]] = {v: {} for v in nodes}
            if faults is not None:
                for target, in_port, message, from_id, mbits in pending.pop(
                    rounds, ()
                ):
                    if meter is not None:
                        # Delayed messages are charged in the round the
                        # wire actually carries them to the receiver.
                        meter.charge(
                            rounds,
                            from_id,
                            sender_ids[target],
                            mbits,
                            node=target,
                        )
                    if not algos[target].halted:
                        inboxes[target][in_port] = message
                        stats.messages_delivered += 1
            # One payload object is often fanned out on every port
            # (GatherAlgorithm broadcasts its whole state); size each
            # distinct object once per round.
            sized: Dict[int, int] = {}
            for v in nodes:
                nbrs = nbrs_at[v]
                back = rev_port[v]
                for port, message in outboxes[v].items():
                    if not 0 <= port < len(nbrs):
                        raise SimulationError(
                            f"node {v!r} sent on invalid port {port}"
                        )
                    if faults is None and meter is None:
                        # The historical meter-free LOCAL fast path.
                        inboxes[nbrs[port]][back[port]] = message
                        stats.messages_delivered += 1
                        continue
                    target = nbrs[port]
                    if meter is None:
                        mbits = 0
                    else:
                        mbits = sized.get(id(message))
                        if mbits is None:
                            mbits = measure_bits(message)
                            sized[id(message)] = mbits
                    if faults is None:
                        fates = _DELIVER_NOW
                    else:
                        fates = faults.fate(rounds, sender_ids[v], port)
                        if meter is not None and not fates:
                            # Dropped in transit: the sender still put
                            # it on the wire in its send round.
                            meter.charge(
                                rounds,
                                sender_ids[v],
                                sender_ids[target],
                                mbits,
                                node=v,
                            )
                    for delay in fates:
                        if delay <= 0:
                            if meter is not None:
                                meter.charge(
                                    rounds,
                                    sender_ids[v],
                                    sender_ids[target],
                                    mbits,
                                    node=v,
                                )
                            if faults is None or not algos[target].halted:
                                inboxes[target][back[port]] = message
                                stats.messages_delivered += 1
                        else:
                            pending.setdefault(rounds + delay, []).append(
                                (
                                    target,
                                    back[port],
                                    message,
                                    sender_ids[v],
                                    mbits,
                                )
                            )
            if trace is not None:
                trace.record_round(outboxes)
            if tracing:
                tracer.event(
                    "round",
                    round=rounds,
                    messages=stats.messages_delivered - delivered_before,
                )
            for v in nodes:
                if not algos[v].halted:
                    algos[v].receive(rounds, inboxes[v])
            rounds += 1
        if meter is not None:
            stats.bits_on_wire = meter.total_bits
            stats.bandwidth = meter.profile(rounds)
        run_span.set(rounds=rounds)

    return RunResult(
        outputs={v: a.output for v, a in algos.items()}, rounds=rounds, stats=stats
    )


class MessageTrace:
    """Per-round communication statistics of a message-passing run.

    ``messages_per_round[t]`` counts the messages sent in round ``t``;
    ``sent_by[v]`` totals the messages node ``v`` sent across the run.
    """

    def __init__(self) -> None:
        self.messages_per_round: List[int] = []
        self.sent_by: Dict[Node, int] = {}

    def record_round(self, outboxes: Mapping[Node, Mapping[int, object]]) -> None:
        total = 0
        for v, outbox in outboxes.items():
            count = len(outbox)
            total += count
            if count:
                self.sent_by[v] = self.sent_by.get(v, 0) + count
        self.messages_per_round.append(total)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_per_round)

    @property
    def peak_round(self) -> int:
        """The round with the most traffic (0 when nothing was sent)."""
        if not self.messages_per_round or self.total_messages == 0:
            return 0
        return max(
            range(len(self.messages_per_round)),
            key=self.messages_per_round.__getitem__,
        )


# ---------------------------------------------------------------------------
# The flooding algorithm proving the two semantics equivalent
# ---------------------------------------------------------------------------


class GatherAlgorithm(MessagePassingAlgorithm):
    """Message-passing realization of view gathering.

    In each round every node broadcasts everything it knows (node records
    and edge records).  After ``radius`` rounds the accumulated knowledge is
    exactly the radius-``radius`` view, and ``decide`` is applied to it.
    Used by the test suite to certify :func:`run_view_algorithm` against the
    explicit semantics.
    """

    def __init__(self, radius: int, decide: ViewFunction) -> None:
        super().__init__()
        self.radius = radius
        self.decide = decide
        # node_id -> (input, advice, degree, distance lower bound)
        self.known_nodes: Dict[int, Dict[str, object]] = {}
        self.known_edges: set = set()

    def init(self, ctx: NodeContext) -> None:
        super().init(ctx)
        self.known_nodes[ctx.node_id] = {
            "input": ctx.input,
            "advice": ctx.advice,
            "distance": 0,
        }
        if self.radius == 0:
            self._finish()

    def send(self, round_index: int) -> Dict[int, object]:
        payload = (dict(self.known_nodes), set(self.known_edges), self.ctx.node_id)
        return {port: payload for port in range(self.ctx.degree)}

    def receive(self, round_index: int, messages: Dict[int, object]) -> None:
        for nodes, edges, sender_id in messages.values():
            self.known_edges.add(tuple(sorted((self.ctx.node_id, sender_id))))
            self.known_edges.update(edges)
            for node_id, record in nodes.items():
                new_distance = record["distance"] + 1
                existing = self.known_nodes.get(node_id)
                if existing is None or new_distance < existing["distance"]:
                    self.known_nodes[node_id] = {
                        "input": record["input"],
                        "advice": record["advice"],
                        "distance": new_distance,
                    }
        if round_index + 1 >= self.radius:
            self._finish()

    def _finish(self) -> None:
        in_range = {
            node_id: rec
            for node_id, rec in self.known_nodes.items()
            if rec["distance"] <= self.radius
        }
        edges = frozenset(
            (a, b)
            for a, b in self.known_edges
            if a in in_range and b in in_range
            and min(in_range[a]["distance"], in_range[b]["distance"]) < self.radius
        )
        view = View(
            center=self.ctx.node_id,
            radius=self.radius,
            nodes=frozenset(in_range),
            edges=edges,
            ids={node_id: node_id for node_id in in_range},
            inputs={node_id: rec["input"] for node_id, rec in in_range.items()},
            advice={node_id: rec["advice"] for node_id, rec in in_range.items()},
            distances={node_id: rec["distance"] for node_id, rec in in_range.items()},
            _graph_n=self.ctx.n,
            _graph_max_degree=self.ctx.max_degree,
        )
        self.output = self.decide(view)
