"""Advice schemas (Definition 3.2 of the paper).

A ``(G, Pi, beta, T)``-advice schema is a function ``f`` mapping each graph
``G`` to a labeling of its nodes with bit-strings of length at most
``beta``, together with a ``T``-round LOCAL algorithm ``A`` that, given the
labeled graph, outputs a valid solution of ``Pi``.

Three schema types are distinguished (Definition 3.2): *uniform
fixed-length* (every node gets the same length), *subset fixed-length*
(some nodes get a fixed length, the rest get the empty string), and
*variable-length* (arbitrary per-node lengths).  :func:`classify_schema_type`
computes the type of a concrete advice map.

Encoders here are centralized (the advice-giving prover is computationally
unbounded); decoders report their LOCAL round complexity, measured honestly
through :class:`repro.local.LocalityTracker`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..lcl.problem import Label, LCLProblem
from ..lcl.verify import violations
from ..local.algorithm import LocalityTracker
from ..local.graph import LocalGraph, Node
from ..local.views import GLOBAL_KNOWLEDGE_RECORDER, track_global_knowledge
from ..obs.bandwidth import (
    BandwidthExceeded,
    BandwidthProfile,
    current_bandwidth_policy,
    flooding_bandwidth,
)
from ..obs.failure import (
    FailureReport,
    build_bandwidth_report,
    build_error_report,
    build_violation_reports,
)
from ..obs.metrics import DEFAULT_BUCKETS, histogram_of
from ..obs.robustness import RobustnessReport
from ..obs.trace import NULL_TRACER, Tracer
from ..perf import SimStats

AdviceMap = Dict[Node, str]


@dataclass(frozen=True)
class LocalityContract:
    """Declared locality budget of a schema on one instance (Def. 3.2).

    ``radius`` is the decode radius ``T`` and ``advice_bits`` the per-node
    advice length bound ``beta`` the schema *claims* for the given graph.
    The claim is audited by :mod:`repro.analysis.locality`: a static pass
    over the decoder/encoder ASTs must certify the same numbers
    (``declared == certified``), and a dynamic witness run must stay within
    them (``witness <= certified``).  Both quantities may depend on the
    instance (e.g. through ``Delta`` or ``n``), which is why the contract
    is a function of the graph rather than a class constant.
    """

    radius: int
    advice_bits: int

    def as_dict(self) -> Dict[str, int]:
        return {"radius": self.radius, "advice_bits": self.advice_bits}


def locality_hints(**hints: object):
    """Declare bounds for names the static locality pass cannot evaluate.

    Applied to a schema's ``decode`` or ``encode``.  Each keyword names a
    local variable of the decorated function whose value is data-dependent
    (so the abstract interpreter widens it to ⊤); the hint supplies a sound
    upper bound as either

    - a string naming a method on the schema, called as ``method(graph)``, or
    - a callable invoked as ``hint(schema, graph)``.

    Two keys are special: ``"rounds"`` bounds the returned
    ``DecodeResult.rounds`` when its expression is unevaluable, and
    ``"advice_bits"`` bounds the encoder's per-node advice length.  Hints
    are part of the audited contract — the certifier records which hints a
    certificate leaned on, and the dynamic witness cross-check catches a
    hint that under-declares.
    """

    def decorate(fn):
        existing = dict(getattr(fn, "_locality_hints", {}))
        existing.update(hints)
        fn._locality_hints = existing
        return fn

    return decorate


class AdviceError(RuntimeError):
    """Raised when encoding is impossible or decoding detects corruption.

    Raisers that know *which* node failed pass it as ``node=`` so failure
    attribution (:mod:`repro.obs.failure`) can pinpoint it in the report.
    """

    def __init__(self, *args: object, node: object = None) -> None:
        super().__init__(*args)
        self.node = node


class InvalidAdvice(AdviceError):
    """Raised by validating decoders when the advice does not decode to a
    valid solution (e.g. after corruption)."""


def validate_advice_map(
    graph: LocalGraph, advice: Mapping[Node, str], complete: bool = False
) -> None:
    """Raise :class:`AdviceError` unless the map is well-formed.

    Every label must be a bit-string, and every key must name a node of
    ``graph`` — a stray key means the encoder (or an injected fault)
    addressed a node that does not exist, which no LOCAL decoder could
    ever read.

    With ``complete=True`` every node must also *have* an entry (possibly
    empty).  The churn runtime uses this to catch a freshly inserted node
    whose advice was never provisioned: the failure surfaces as a
    structured :class:`InvalidAdvice` with node attribution instead of a
    ``KeyError`` leaking out of whichever decoder touches the hole first.
    """
    members = set(graph.nodes())
    for v in advice:
        if v not in members:
            raise AdviceError(f"advice key {v!r} is not a node of the graph", node=v)
    if complete:
        for v in members:
            if v not in advice:
                raise InvalidAdvice(f"node {v!r} has no advice entry", node=v)
    for v in members:
        bits = advice.get(v, "")
        if any(b not in "01" for b in bits):
            raise AdviceError(
                f"advice of {v!r} is not a bit-string: {bits!r}", node=v
            )


def repair_region(
    graph: LocalGraph, sites: Sequence[Node], radius: int
) -> List[Node]:
    """The nodes an advice-repair hook may rewrite, in id order: every node
    within ``radius`` of a site (one multi-source sweep)."""
    compiled = graph.compiled
    region = compiled.bfs_fill_many([compiled.index_of[s] for s in sites], radius)
    compiled.reset_scratch(region)
    nodes = compiled.nodes
    return [nodes[i] for i in sorted(region, key=compiled.ids.__getitem__)]


class AdvicePatch:
    """The edits of one :meth:`AdviceSchema.repair_advice` call.

    Reads (:meth:`get`) see the edits made so far; the advice map is
    copied on the first write only, since most calls write nothing.
    :meth:`result` is the patched map, a new dict the caller owns, or
    ``None`` when nothing was written.
    """

    __slots__ = ("_advice", "_copy")

    def __init__(self, advice: Mapping[Node, str]) -> None:
        self._advice = advice
        self._copy: Optional[AdviceMap] = None

    def get(self, v: Node, default: Optional[str] = None) -> Optional[str]:
        current = self._advice if self._copy is None else self._copy
        return current.get(v, default)

    def __setitem__(self, v: Node, bits: str) -> None:
        if self._copy is None:
            self._copy = dict(self._advice)
        self._copy[v] = bits

    def result(self) -> Optional[AdviceMap]:
        return self._copy


def classify_schema_type(graph: LocalGraph, advice: Mapping[Node, str]) -> str:
    """One of ``"uniform-fixed"``, ``"subset-fixed"``, ``"variable"``."""
    lengths = {len(advice.get(v, "")) for v in graph.nodes()}
    if len(lengths) <= 1:
        # A single length class — including the empty graph, which is
        # vacuously uniform (every one of its zero nodes has equal length).
        return "uniform-fixed"
    positive = {l for l in lengths if l > 0}
    if lengths == positive | {0} and len(positive) == 1:
        return "subset-fixed"
    return "variable"


def beta_of(graph: LocalGraph, advice: Mapping[Node, str]) -> int:
    """The schema length bound ``beta`` realized by this advice map."""
    return max((len(advice.get(v, "")) for v in graph.nodes()), default=0)


def total_bits(graph: LocalGraph, advice: Mapping[Node, str]) -> int:
    """Total advice bits across all nodes."""
    return sum(len(advice.get(v, "")) for v in graph.nodes())


@dataclass
class DecodeResult:
    """Output of a schema decoder: the solution plus its locality cost.

    Decoders built on the simulation engine also hand back the engine's
    :class:`~repro.perf.SimStats` so the counters survive into
    ``SchemaRun.telemetry`` instead of dying at ``RunResult``.
    """

    labeling: Dict[Node, Label]
    rounds: int
    detail: Dict[str, object] = field(default_factory=dict)
    stats: Optional[SimStats] = None


@dataclass
class SchemaRun:
    """Full encode→decode→verify record (what the benchmarks report).

    ``telemetry`` is built from this record alone when the run finishes:
    the paper's observables (β, rounds, the per-node advice-length
    histogram, ``violations_total``), the engine's
    :class:`~repro.perf.SimStats` counters and cache hit rate, the
    bits-on-wire accounting, and, on a robust run, the fault and repair
    counts of its report (see ``docs/observability.md``).  ``failures``
    holds one :class:`~repro.obs.FailureReport` per violating node (the
    first few) when verification rejects the decoded labeling.
    """

    schema_name: str
    advice: AdviceMap
    result: DecodeResult
    schema_type: str
    beta: int
    total_advice_bits: int
    n: int
    max_degree: int
    valid: Optional[bool] = None
    #: nodes the verifier rejected (0 when unchecked or valid); on a robust
    #: run, those of the first decoded labeling, before any repair.
    violations: int = 0
    telemetry: Dict[str, object] = field(default_factory=dict)
    failures: List[FailureReport] = field(default_factory=list)
    #: bits-on-wire accounting of the decode under the ambient
    #: :class:`repro.obs.bandwidth.BandwidthPolicy` — the engine meter's
    #: profile when the decoder ran message passing, else the
    #: flooding-equivalent accounting of its ``T`` rounds; ``None`` only
    #: under the ``off`` policy.
    bandwidth: Optional[BandwidthProfile] = None
    #: set by the robust runner (:mod:`repro.faults`): the
    #: :class:`repro.obs.robustness.RobustnessReport` of the run, if any.
    robustness: Optional[RobustnessReport] = None

    @property
    def bits_per_node(self) -> float:
        return self.total_advice_bits / max(1, self.n)

    @property
    def rounds(self) -> int:
        return self.result.rounds


class AdviceSchema(abc.ABC):
    """Base class for concrete advice schemas.

    Subclasses implement :meth:`encode` (centralized, unbounded) and
    :meth:`decode` (a LOCAL algorithm; must account rounds via the supplied
    tracker or report them in the returned :class:`DecodeResult`).
    """

    name: str = "advice-schema"
    #: the LCL (or predicate) the schema solves, when applicable
    problem: Optional[LCLProblem] = None
    #: tracer of the run in flight (set by :meth:`run`); subclasses emit
    #: targeted events through :attr:`tracer` without changing signatures
    _active_tracer: Optional[Tracer] = None

    @abc.abstractmethod
    def encode(self, graph: LocalGraph) -> AdviceMap:
        """Compute the advice labeling for ``graph``."""

    @abc.abstractmethod
    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        """Recover a solution from the labeled graph (LOCAL algorithm)."""

    def encode_labeled(
        self, graph: LocalGraph
    ) -> Tuple[AdviceMap, Dict[Node, Label]]:
        """:meth:`encode`, plus the labeling :meth:`decode` recovers from it.

        A composed encoder needs its first stage's solution as the oracle
        of the next stage (Lemma 9.1).  Composed schemas override this to
        hand their labeling forward instead of decoding their own output
        again, so no stage of a chain is decoded twice per encode.
        """
        advice = self.encode(graph)
        return advice, self.decode(graph, advice).labeling

    # -- per-view decoding (the serving path) --------------------------------

    def view_decoder(self) -> Optional[Callable]:
        """The per-view decide function behind :meth:`decode`, if any.

        Schemas whose decode is a view algorithm (gather a radius-``T``
        ball, decide from the :class:`~repro.local.views.View` alone)
        return that decide function here; it is what lets
        :class:`repro.serve.AdviceService` answer a single ``query(node)``
        by gathering only the node's ball — O(Δ^T) work, independent of
        ``n`` — instead of re-running :meth:`decode` over the whole graph.
        The function must produce the same label :meth:`decode` would for
        every node.
        ``None`` (the default) means the schema has no per-view decoder
        and cannot be served query-at-a-time.
        """
        return None

    # -- locality contract ---------------------------------------------------

    def locality_contract(self, graph: LocalGraph) -> Optional[LocalityContract]:
        """The declared ``(T, beta)`` budget on ``graph``, or ``None``.

        Returning ``None`` means the schema makes no claim and the
        certifier (:mod:`repro.analysis.locality`) reports it as
        uncontracted.  All registered schemas declare a contract; the
        certifier checks it against an independent static bound and a
        dynamic witness run.
        """
        return None

    # -- observability -------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        """The tracer of the ongoing :meth:`run` (no-op outside one).

        ``encode``/``decode`` implementations emit schema-specific events
        via ``self.tracer.event(...)`` — guarded by ``self.tracer.enabled``
        when the payload is costly to build — and the base class wraps the
        calls themselves in ``encode``/``decode``/``verify`` spans.
        """
        return self._active_tracer or NULL_TRACER

    def find_violations(
        self, graph: LocalGraph, labeling: Mapping[Node, Label]
    ) -> List[Node]:
        """Nodes violating the solution, for failure attribution.

        Defaults to the attached LCL's per-node check; schemas whose
        :meth:`check_solution` tests a non-LCL predicate should override
        this too if they want per-node attribution.
        """
        if self.problem is None:
            return []
        return violations(self.problem, graph, labeling)

    # -- robustness hooks ----------------------------------------------------

    def repair_problem(self, graph: LocalGraph) -> Optional[LCLProblem]:
        """The LCL the robust runner verifies and ball-repairs against.

        Defaults to :attr:`problem`.  Schemas whose target LCL depends on
        the instance (Delta-coloring needs ``Delta = max_degree``) override
        this; returning ``None`` disables label-level ball repair and the
        runner falls through to advice-level strategies.
        """
        return self.problem

    def repair_advice(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        sites: Sequence[Node],
        radius: int,
        labeling: Optional[Mapping[Node, Label]] = None,
    ) -> Optional[AdviceMap]:
        """Schema-specific advice patch around ``sites``.

        Both repair runtimes call this one hook.  The robust runner calls
        it blind (``labeling=None``) when :meth:`decode` raised an
        :class:`AdviceError` attributed to a node, with ``sites=[node]``:
        scrub or synthesize bits so the next decode gets further.  The
        churn runner calls it after a topology mutation with the
        *post-mutation* graph, the surviving sites anchoring the event
        (edge endpoints, an inserted node and its attachments, or a
        deleted node's former neighbors) and the maintained valid
        ``labeling`` — the Section 6 ball/shift argument lets
        implementations re-derive fresh bits for the balls from it,
        leaving all other advice verbatim.

        Either way, bits may only be rewritten inside
        :func:`repair_region` — the union of ``graph.ball(site, radius)``
        — so repair stays a local operation.  Return the patched map, or
        ``None`` when no patch is needed or offered (the runner then keeps
        the old bits or escalates).  A returned map is a new dict that the
        caller owns: it may keep and mutate it without copying, so it must
        never be ``advice`` itself.
        """
        return None

    # -- common driver -------------------------------------------------------

    def run(
        self,
        graph: LocalGraph,
        check: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> SchemaRun:
        """Encode, decode, and (optionally) verify on ``graph``.

        With a ``tracer``, the run emits the span tree
        ``schema_run → encode / decode (→ gather/decide) / verify``; the
        returned run's ``telemetry`` holds the paper's observables, built
        from the finished run.  A decoder exception gains a
        ``failure_report`` attribute before propagating; an invalid
        labeling populates ``SchemaRun.failures``.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        previous = self._active_tracer
        self._active_tracer = tracer
        try:
            with tracer.span("schema_run", schema=self.name, n=graph.n) as run_span:
                with tracer.span("encode", schema=self.name) as encode_span:
                    advice = self.encode(graph)
                    if tracer.enabled:
                        encode_span.set(total_bits=total_bits(graph, advice))
                validate_advice_map(graph, advice)
                with tracer.span("decode", schema=self.name) as decode_span:
                    # Attribute global-knowledge disclosures made by this
                    # decode to the schema, and keep the collected events
                    # so failure reports can carry them.
                    previous_owner = GLOBAL_KNOWLEDGE_RECORDER.owner
                    GLOBAL_KNOWLEDGE_RECORDER.owner = self.name
                    try:
                        with track_global_knowledge() as knowledge_uses:
                            try:
                                result = self.decode(graph, advice)
                            except AdviceError as exc:
                                exc.failure_report = build_error_report(
                                    self.name,
                                    graph,
                                    advice,
                                    exc,
                                    ring=tracer.ring(),
                                    knowledge_uses=knowledge_uses,
                                )
                                raise
                    finally:
                        GLOBAL_KNOWLEDGE_RECORDER.owner = previous_owner
                    decode_span.set(rounds=result.rounds)

                def verify(run: SchemaRun) -> None:
                    if not check:
                        return
                    with tracer.span("verify", schema=self.name) as verify_span:
                        run.valid = self.check_solution(graph, result.labeling)
                        if not run.valid:
                            bad = self.find_violations(graph, result.labeling)
                            run.violations = len(bad)
                            run.failures = build_violation_reports(
                                self.name,
                                graph,
                                advice,
                                result.labeling,
                                bad,
                                result.rounds,
                                ring=tracer.ring(),
                                knowledge_uses=knowledge_uses,
                            )
                        verify_span.set(
                            valid=run.valid, violations=len(run.failures)
                        )

                run = self._finish_run(graph, advice, result, tracer, verify)
                if tracer.enabled:
                    run_span.set(
                        valid=run.valid,
                        beta=run.beta,
                        rounds=run.rounds,
                        bits_per_node=round(run.bits_per_node, 6),
                    )
            return run
        finally:
            self._active_tracer = previous

    def _finish_run(
        self,
        graph: LocalGraph,
        advice: AdviceMap,
        result: DecodeResult,
        tracer: Tracer,
        verify: Callable[[SchemaRun], None],
    ) -> SchemaRun:
        """The tail every run finishes through, plain or fault-injected.

        Builds the record of ``advice`` and the decode ``result`` it gave,
        meters it under the ambient policy (:meth:`_account_bandwidth`),
        lets ``verify(run)`` fill in ``valid``, ``violations``,
        ``failures`` and any robustness report, then builds the telemetry
        from the finished record (:meth:`_build_telemetry`).
        """
        run = SchemaRun(
            schema_name=self.name,
            advice=advice,
            result=result,
            schema_type=classify_schema_type(graph, advice),
            beta=beta_of(graph, advice),
            total_advice_bits=total_bits(graph, advice),
            n=graph.n,
            max_degree=graph.max_degree,
        )
        run.bandwidth = self._account_bandwidth(graph, run, tracer)
        verify(run)
        run.telemetry = self._build_telemetry(run)
        return run

    def _account_bandwidth(
        self,
        graph: LocalGraph,
        run: SchemaRun,
        tracer: Tracer,
    ) -> Optional[BandwidthProfile]:
        """Attach the run's bits-on-wire accounting under the ambient policy.

        Decoders that executed :func:`repro.local.run_message_passing`
        already carry the engine meter's profile on ``result.stats`` and
        keep it; everything else (the nine centrally-decoded schemas, and
        view-semantics decodes on any engine) gets the flooding-equivalent
        accounting of its ``T`` rounds — a pure function of
        ``(graph, rounds, advice)``, so telemetry stays bit-identical
        across engines.  A CONGEST overflow gains an attributed
        ``failure_report`` before propagating, mirroring decode errors.
        """
        policy = current_bandwidth_policy()
        stats = run.result.stats
        profile = stats.bandwidth if stats is not None else None
        if profile is None:
            if not policy.records:
                return None
            with tracer.span(
                "bandwidth", schema=self.name, policy=policy.describe()
            ) as bw_span:
                try:
                    profile = flooding_bandwidth(
                        graph, run.rounds, run.advice, policy
                    )
                except BandwidthExceeded as exc:
                    exc.failure_report = build_bandwidth_report(
                        self.name,
                        graph,
                        run.advice,
                        exc,
                        rounds_hint=run.rounds,
                        ring=tracer.ring(),
                    )
                    raise
                if stats is not None:
                    stats.bits_on_wire = profile.total_bits
                    stats.bandwidth = profile
                bw_span.set(bits_on_wire=profile.total_bits)
        return profile

    def _build_telemetry(self, run: SchemaRun) -> Dict[str, object]:
        """The run's metrics (Def. 3.2 footprint), read off the record alone.

        The advice-length histogram is one bulk snapshot over
        :data:`~repro.obs.metrics.DEFAULT_BUCKETS` (nodes absent from the
        map carry no advice and count as 0); a robust run adds its
        report's fault and repair counts
        (:meth:`~repro.obs.robustness.RobustnessReport.metrics`).  The
        engine counters come from ``run.result.stats`` alone (zeros when
        the decoder ran no engine), so they are the same ints the run's
        trace spans were stamped with.
        """
        report = run.robustness
        metrics: Dict[str, object] = {
            "advice_bits_per_node": histogram_of(
                map(len, run.advice.values()),
                DEFAULT_BUCKETS,
                run.n - len(run.advice),
            ),
            "beta": run.beta,
            "rounds": run.rounds,
            "violations_total": run.violations,
        }
        if report is not None:
            metrics.update(report.metrics())
        telemetry = dict(sorted(metrics.items()))
        stats = run.result.stats if run.result.stats is not None else SimStats()
        telemetry.update(stats.as_dict())
        if run.bandwidth is not None:
            # Decoders without engine stats still get the schema-level
            # bits-on-wire accounting.
            telemetry["bits_on_wire"] = run.bandwidth.total_bits
            telemetry["bandwidth"] = run.bandwidth.as_dict()
        telemetry.update(
            bits_per_node=run.bits_per_node,
            total_advice_bits=run.total_advice_bits,
            schema_type=run.schema_type,
            n=run.n,
            max_degree=run.max_degree,
        )
        if report is not None:
            telemetry["robustness"] = {
                "injected": report.injected_count,
                "detected": report.detected,
                "locally_repaired": report.locally_repaired,
                "escalated": report.escalated,
            }
        return telemetry

    def check_solution(self, graph: LocalGraph, labeling: Mapping[Node, Label]) -> bool:
        """Validity check; defaults to the attached LCL's local checks."""
        if self.problem is None:
            raise NotImplementedError(
                f"{self.name} has no attached problem; override check_solution"
            )
        return not violations(self.problem, graph, labeling)


class OracleSchema(abc.ABC):
    """A schema for ``Pi_2`` that assumes an oracle solution of ``Pi_1``.

    This is the second ingredient of the composability framework
    (Section 1.8): composing an :class:`AdviceSchema` for ``Pi_1`` with an
    :class:`OracleSchema` for ``Pi_2``-given-``Pi_1`` yields an
    :class:`AdviceSchema` for ``Pi_2`` (see
    :func:`repro.advice.compose.compose`).
    """

    name: str = "oracle-schema"
    problem: Optional[LCLProblem] = None

    def locality_contract(self, graph: LocalGraph) -> Optional[LocalityContract]:
        """Declared ``(T, beta)`` budget; see :meth:`AdviceSchema.locality_contract`."""
        return None

    @abc.abstractmethod
    def encode(
        self, graph: LocalGraph, oracle: Mapping[Node, Label]
    ) -> AdviceMap:
        """Advice for ``Pi_2`` when the decoder will be handed ``oracle``."""

    @abc.abstractmethod
    def decode(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        oracle: Mapping[Node, Label],
    ) -> DecodeResult:
        """Recover a ``Pi_2`` solution from advice plus the oracle solution."""


class FunctionSchema(AdviceSchema):
    """Adapter: build a schema from two plain functions (used in tests and
    by the composition machinery)."""

    def __init__(
        self,
        name: str,
        encode: Callable[[LocalGraph], AdviceMap],
        decode: Callable[[LocalGraph, Mapping[Node, str]], DecodeResult],
        problem: Optional[LCLProblem] = None,
    ) -> None:
        self.name = name
        self._encode = encode
        self._decode = decode
        self.problem = problem

    def encode(self, graph: LocalGraph) -> AdviceMap:
        return self._encode(graph)

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        return self._decode(graph, advice)
