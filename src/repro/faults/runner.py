"""The repair stages, and the self-healing robust runner built on them.

Both repair runtimes — :class:`RobustRunner` here, which heals one
fault-injected run, and :class:`repro.dynamic.ChurnRunner`, which keeps a
``(graph, advice, labeling)`` triple valid under live mutations — are
short drivers over the same stages:

1. **Advice patch** — the schema's one
   :meth:`~repro.advice.schema.AdviceSchema.repair_advice` hook rewrites
   bits inside bounded balls around the damage: blind scrubbing around a
   decode error's node, or a resync to the maintained labeling around a
   mutation's sites.  The robust runner follows a patch that does not
   converge with a radius-bounded *advice re-request* — re-fetching the
   prover's bits for one escalating ball — before re-decoding.
2. **Ball re-solve** (:func:`resolve_balls`) — verifier violations are
   clustered, and each cluster's ball is brute-forced against the LCL with
   the surrounding annulus pinned (:func:`repro.lcl.solve.solve_exact` —
   the same primitive the Section 4 encoder uses, and the generic form of
   the Section 6 Delta-repair ball recoloring), at escalating radii.
   Escalation stops at the first radius where a search exhausts its step
   budget: a larger ball is a harder search.
3. **Escalate** (:func:`escalate`) — only when every radius-bounded
   strategy is exhausted: a global re-solve (a fresh decode of the clean
   advice, or a full re-encode under churn), made once: every input it
   reads is fixed, so a retry would repeat it.  A failed attempt is a
   clean recorded failure, never a loop.

Every stage appends its attempts to one :class:`RepairAction` list, and
each runner counts the repair metrics from that finished list
(:func:`~repro.obs.robustness.record_repairs`).  :func:`cold_verdict` is
the plain decode both campaigns judge advice by.

Soundness of the ball re-solve: clusters are merged aggressively enough
that each repair ball's annulus contains no *other* cluster's violations,
and the catalog predicates are monotone under refinement, so a patch that
satisfies the solver is exact — it can only remove violations, never leak
new ones past the annulus.  That is why :func:`resolve_balls` re-checks
only its residual bad list between radii, never the whole graph.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..advice.schema import (
    AdviceError,
    AdviceMap,
    DecodeResult,
    AdviceSchema,
    SchemaRun,
    validate_advice_map,
)
from ..lcl.problem import Label, LCLProblem
from ..lcl.solve import SearchBudgetExceeded, solve_exact
from ..lcl.verify import violations
from ..local.graph import LocalGraph, Node
from ..obs.failure import build_error_report, build_violation_reports
from ..obs.metrics import MetricsRegistry
from ..obs.robustness import (
    ADVICE_PATCH,
    ADVICE_REFETCH,
    BALL_RESOLVE,
    GLOBAL_RESOLVE,
    RepairAction,
    RobustnessReport,
    record_repairs,
)
from ..obs.trace import NULL_TRACER, Tracer
from .inject import FaultInjector
from .plan import FaultPlan

T = TypeVar("T")


def _clusters(
    graph: LocalGraph, bad: Sequence[Node], threshold: int
) -> List[List[Node]]:
    """Group violating nodes whose graph distance is <= ``threshold``.

    BFS out to ``threshold`` from each bad node; nodes reaching each other
    merge.  The threshold is chosen by the caller so that one cluster's
    repair annulus can never contain another cluster's violations.
    """
    bad = sorted(bad, key=graph.id_of)
    compiled = graph.compiled
    index = {compiled.index_of[v]: i for i, v in enumerate(bad)}
    parent = list(range(len(bad)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i, v in enumerate(bad):
        reached = compiled.bfs_fill(compiled.index_of[v], threshold)
        compiled.reset_scratch(reached)
        for j in reached:
            if j in index:
                union(i, index[j])
    groups: Dict[int, List[Node]] = {}
    for i, v in enumerate(bad):
        groups.setdefault(find(i), []).append(v)
    return [groups[r] for r in sorted(groups)]


def resolve_balls(
    graph: LocalGraph,
    problem: LCLProblem,
    labeling: Mapping[Node, Label],
    bad: Sequence[Node],
    *,
    max_radius: int,
    max_steps: int,
    actions: List[RepairAction],
    tracer: Tracer = NULL_TRACER,
) -> Tuple[Dict[Node, Label], List[Node], int]:
    """Heal the violations ``bad`` by brute-forcing escalating balls.

    Radii run ``r0 + (0, 1, 2, 4, 8)`` for the LCL radius ``r0``, capped
    at ``max(max_radius, r0)``.  At each radius the bad nodes are
    clustered and every cluster's ball is re-solved with a width-``2 r0``
    annulus held fixed.  ``max_steps`` bounds each backtracking search;
    exhausting it fails that attempt and ends the escalation once the
    radius is finished.  A larger ball is a harder search, so an exhausted
    budget (unlike a proven ``None``) says a larger radius will not help;
    the residual goes straight back to the caller's advice-level stages.
    Each attempt appends a :data:`BALL_RESOLVE` action to ``actions``.

    Returns the patched copy of ``labeling``, the residual violations
    (a subset of ``bad``; see the module docstring for why no other node
    can break) and the largest radius of a successful re-solve (0 if
    none).
    """
    labeling = dict(labeling)
    bad = list(bad)
    compiled = graph.compiled
    nodes, dist = compiled.nodes, compiled._dist
    r0 = problem.radius
    cap = max(max_radius, r0)
    radii = sorted({min(cap, r0 + step) for step in (0, 1, 2, 4, 8)} | {cap})
    used = 0
    exhausted = False
    for radius in radii:
        if not bad or exhausted:
            break
        threshold = 2 * (radius + 2 * r0) + 1
        for cluster in _clusters(graph, bad, threshold):
            # One sweep from the cluster: the interior is every node within
            # ``radius`` of it, the annulus held fixed the next ``2 r0``
            # layers.
            swept = compiled.bfs_fill_many(
                [compiled.index_of[v] for v in cluster], radius + 2 * r0
            )
            interior = [nodes[i] for i in swept if dist[i] <= radius]
            fixed = {
                nodes[i]: labeling[nodes[i]]
                for i in swept
                if dist[i] > radius and nodes[i] in labeling
            }
            compiled.reset_scratch(swept)
            try:
                with tracer.span(
                    "repair", kind=BALL_RESOLVE, radius=radius, cluster=len(cluster)
                ):
                    solution = solve_exact(
                        problem,
                        graph,
                        fixed=fixed,
                        restrict_to=sorted(interior, key=graph.id_of),
                        max_steps=max_steps,
                    )
            except SearchBudgetExceeded:
                solution = None
                exhausted = True
            seed_node = min(cluster, key=graph.id_of)
            if solution is None:
                actions.append(RepairAction(BALL_RESOLVE, seed_node, radius, False))
                continue
            for w in interior:
                labeling[w] = solution[w]
            used = max(used, radius)
            actions.append(RepairAction(BALL_RESOLVE, seed_node, radius, True))
        bad = violations(problem, graph, labeling, nodes=bad)
    return labeling, bad, used


def escalate(
    attempt: Callable[[], Tuple[T, bool]],
    *,
    label: str,
    actions: List[RepairAction],
    tracer: Tracer = NULL_TRACER,
) -> Tuple[Optional[T], bool]:
    """The global fallback: call ``attempt`` once.

    ``attempt()`` returns ``(result, valid)`` or raises
    :class:`AdviceError`.  The call records one :data:`GLOBAL_RESOLVE`
    action whose detail is ``label``, followed by the outcome when it
    failed (raised, or decoded invalid).  There is no retry: an attempt is
    a deterministic function of the graph and the advice or encoder, so a
    second one would repeat the first.  Returns ``(result, valid)``, with
    ``result`` ``None`` when the attempt raised.
    """
    try:
        with tracer.span("repair", kind=GLOBAL_RESOLVE):
            result, ok = attempt()
    except AdviceError as exc:
        result, ok, detail = None, False, f"{label} raised {type(exc).__name__}"
    else:
        detail = label if ok else f"{label} decoded invalid"
    actions.append(RepairAction(GLOBAL_RESOLVE, None, -1, success=ok, detail=detail))
    return result, ok


def cold_verdict(
    schema: AdviceSchema, graph: LocalGraph, advice: Mapping[Node, str]
) -> Tuple[str, Optional[str]]:
    """What a plain, non-healing decode of ``advice`` does.

    Returns ``(verdict, detail)`` with ``verdict`` one of ``"valid"``,
    ``"invalid-labeling"`` (the verifier rejects the decoded labeling),
    ``"decode-error"`` (a clean :class:`AdviceError` rejection) or
    ``"unexpected-error"`` (the decoder or verifier leaked any other
    exception).  ``detail`` names the exception, else it is ``None``.
    """
    try:
        labeling = schema.decode(graph, dict(advice)).labeling
    except AdviceError as exc:
        return "decode-error", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # decoder leaked a non-advice exception
        return "unexpected-error", f"{type(exc).__name__}: {exc}"
    try:
        ok = bool(schema.check_solution(graph, labeling))
    except Exception as exc:
        return "unexpected-error", f"{type(exc).__name__}: {exc}"
    return ("valid" if ok else "invalid-labeling"), None


class RobustRunner:
    """Encode → inject → decode → verify → locally repair → report.

    When every radius-bounded stage fails, the global fallback makes one
    fresh decode of the clean advice.  If that fails too, the run is a
    clean give-up: the report carries ``gave_up=True`` and summarizes as
    ``"gave-up"``.  The run finishes through the schema's own tail
    (:meth:`~repro.advice.schema.AdviceSchema._finish_run`), so it is
    metered and reported like a plain :meth:`AdviceSchema.run`.

    Parameters
    ----------
    schema:
        The :class:`AdviceSchema` to run.
    max_ball_radius:
        Largest label-repair ball radius before escalating past
        ball re-solve.
    patch_radii / refetch_radii:
        Escalation schedules for the advice-level strategies.
    max_decode_attempts:
        Bound on re-decode attempts during advice-level healing.
    max_solver_steps:
        Backtracking budget per ball re-solve.  Exhausting it is a
        failed attempt, not an error, and stops the ball re-solve after
        that radius: the run moves on to the advice refetch.
    """

    def __init__(
        self,
        schema: AdviceSchema,
        max_ball_radius: int = 10,
        patch_radii: Sequence[int] = (2, 8),
        refetch_radii: Sequence[int] = (2, 4, 8, 16, 32, 64),
        max_decode_attempts: int = 16,
        max_solver_steps: int = 200_000,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.schema = schema
        self.max_ball_radius = max_ball_radius
        self.patch_radii = tuple(patch_radii)
        self.refetch_radii = tuple(refetch_radii)
        self.max_decode_attempts = max_decode_attempts
        self.max_solver_steps = max_solver_steps
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- entry point ---------------------------------------------------------

    def run(
        self,
        graph: LocalGraph,
        plan: Optional[FaultPlan] = None,
        check: bool = True,
        advice: Optional[Mapping[Node, str]] = None,
    ) -> SchemaRun:
        """One fault-injected, self-healed schema run.

        ``advice`` short-circuits the encode step with a precomputed clean
        advice map (the chaos campaign encodes once per schema and replays
        many fault plans against it).
        """
        schema = self.schema
        tracer, registry = self.tracer, self.registry
        report = RobustnessReport(
            schema_name=schema.name, seed=plan.seed if plan is not None else None
        )
        previous = schema._active_tracer
        schema._active_tracer = tracer
        try:
            with tracer.span("robust_run", schema=schema.name, n=graph.n) as span:
                with tracer.span("encode", schema=schema.name):
                    clean = (
                        {v: advice.get(v, "") for v in graph.nodes()}
                        if advice is not None
                        else schema.encode(graph)
                    )
                validate_advice_map(graph, clean)
                working: AdviceMap = {v: clean.get(v, "") for v in graph.nodes()}
                if plan is not None and plan.wants_advice_faults:
                    with tracer.span("inject", schema=schema.name):
                        injector = FaultInjector(plan)
                        working, injected = injector.corrupt_advice(graph, clean)
                        report.injected = [f.as_dict() for f in injected]
                        registry.counter("faults_injected_total").inc(
                            len(injected)
                        )
                        if tracer.enabled:
                            for fault in injected:
                                tracer.event("fault-injected", **fault.as_dict())

                # Every repair stage appends to report.actions; the metrics are
                # derived from that one list, also when a stage raises.
                try:
                    result, working = self._decode_with_healing(
                        graph, clean, working, report
                    )
                    labeling: Dict[Node, Label] = dict(result.labeling)
                    failures = []
                    valid: Optional[bool] = None
                    if check:
                        problem = schema.repair_problem(graph)
                        with tracer.span("verify", schema=schema.name):
                            valid = self._valid(graph, labeling)
                            bad = (
                                []
                                if valid
                                else self._violations(graph, problem, labeling)
                            )
                        report.initial_violations = len(bad)
                        if not valid:
                            report.detected = True
                            failures = build_violation_reports(
                                schema.name,
                                graph,
                                working,
                                labeling,
                                bad,
                                result.rounds,
                                ring=tracer.ring(),
                            )
                            if problem is not None and bad:
                                labeling, bad, _ = resolve_balls(
                                    graph,
                                    problem,
                                    labeling,
                                    bad,
                                    max_radius=self.max_ball_radius,
                                    max_steps=self.max_solver_steps,
                                    actions=report.actions,
                                    tracer=tracer,
                                )
                                valid = self._valid(graph, labeling)
                            if not valid:
                                labeling, working, valid = self._refetch_and_redecode(
                                    graph, clean, working, labeling, bad, report
                                )
                            if not valid:
                                labeling, working, valid = self._global_fallback(
                                    graph, clean, report
                                )
                finally:
                    record_repairs(registry, report.actions)
                if report.detected:
                    registry.counter("faults_detected_total").inc()
                if report.escalated:
                    registry.counter("repairs_global_total").inc()
                report.final_valid = bool(valid) if check else True

                def finish(run: SchemaRun) -> int:
                    run.valid = valid
                    run.failures = failures
                    run.robustness = report
                    return report.initial_violations

                run = schema._finish_run(
                    graph,
                    working,
                    replace(result, labeling=labeling, detail=dict(result.detail)),
                    registry,
                    tracer,
                    finish,
                )
                run.telemetry["robustness"] = {
                    "injected": report.injected_count,
                    "detected": report.detected,
                    "locally_repaired": report.locally_repaired,
                    "escalated": report.escalated,
                }
                if tracer.enabled:
                    span.set(
                        valid=run.valid,
                        injected=report.injected_count,
                        detected=report.detected,
                        escalated=report.escalated,
                    )
                return run
        finally:
            schema._active_tracer = previous

    # -- validity helpers ----------------------------------------------------

    def _valid(self, graph: LocalGraph, labeling: Mapping[Node, Label]) -> bool:
        return bool(self.schema.check_solution(graph, labeling))

    def _violations(
        self,
        graph: LocalGraph,
        problem: Optional[LCLProblem],
        labeling: Mapping[Node, Label],
    ) -> List[Node]:
        if problem is None:
            return []
        return sorted(violations(problem, graph, labeling), key=graph.id_of)

    # -- decode with advice-level healing ------------------------------------

    def _decode_strategies(self) -> Iterator[Tuple[str, int]]:
        for radius in self.patch_radii:
            yield ADVICE_PATCH, radius
        for radius in self.refetch_radii:
            yield ADVICE_REFETCH, radius

    def _decode_with_healing(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        working: AdviceMap,
        report: RobustnessReport,
    ) -> Tuple[DecodeResult, AdviceMap]:
        """Decode, healing attributed errors with escalating advice repair."""
        schema, tracer, registry = self.schema, self.tracer, self.registry
        strategies: Dict[Node, Iterator[Tuple[str, int]]] = {}
        advice_actions: List[RepairAction] = []
        globally_reset = False
        while True:
            report.decode_attempts += 1
            try:
                with tracer.span(
                    "decode", schema=schema.name, attempt=report.decode_attempts
                ):
                    result = schema.decode(graph, working)
                # Decode converged: the patches that got us here worked.
                for action in advice_actions:
                    action.success = True
                return result, working
            except AdviceError as exc:
                report.detected = True
                report.decode_errors += 1
                registry.counter("decode_errors_total").inc()
                failure = build_error_report(
                    schema.name, graph, working, exc, ring=tracer.ring()
                )
                node = failure.node
                if tracer.enabled:
                    tracer.event(
                        "decode-error",
                        node=node,
                        attempt=report.decode_attempts,
                        error=failure.error,
                    )
                if globally_reset:
                    # Clean advice still fails to decode: a schema bug, not
                    # corruption — surface it instead of looping.
                    raise
                localized = node is not None and graph.graph.has_node(node)
                if (
                    not localized
                    or report.decode_attempts >= self.max_decode_attempts
                ):
                    working = self._global_decode_fallback(graph, clean, report)
                    globally_reset = True
                    continue
                patched = self._next_advice_patch(
                    graph, clean, working, node, strategies, advice_actions, report
                )
                if patched is None:
                    working = self._global_decode_fallback(graph, clean, report)
                    globally_reset = True
                else:
                    working = patched

    def _next_advice_patch(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        working: AdviceMap,
        node: Node,
        strategies: Dict[Node, Iterator[Tuple[str, int]]],
        advice_actions: List[RepairAction],
        report: RobustnessReport,
    ) -> Optional[AdviceMap]:
        """The next escalation step for ``node``; None when exhausted."""
        schedule = strategies.setdefault(node, self._decode_strategies())
        for kind, radius in schedule:
            if kind == ADVICE_PATCH:
                patched = self.schema.repair_advice(graph, working, [node], radius)
            else:
                patched = self._refetch_ball(graph, clean, working, node, radius)
            if patched is None or patched == working:
                continue
            action = RepairAction(kind, node, radius, success=False)
            advice_actions.append(action)
            report.actions.append(action)
            return dict(patched)
        return None

    def _refetch_ball(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        working: Mapping[Node, str],
        node: Node,
        radius: int,
    ) -> Optional[AdviceMap]:
        """Re-request the prover's bits for one ball (None if no diff)."""
        ball = graph.ball(node, radius)
        if all(working.get(u, "") == clean.get(u, "") for u in ball):
            return None
        patched = dict(working)
        for u in ball:
            patched[u] = clean.get(u, "")
        return patched

    def _global_decode_fallback(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        report: RobustnessReport,
    ) -> AdviceMap:
        report.escalated = True
        action = RepairAction(GLOBAL_RESOLVE, None, -1, success=True, detail="decode")
        report.actions.append(action)
        return {v: clean.get(v, "") for v in graph.nodes()}

    # -- advice re-request + re-decode ---------------------------------------

    def _refetch_and_redecode(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        working: AdviceMap,
        labeling: Dict[Node, Label],
        bad: List[Node],
        report: RobustnessReport,
    ) -> Tuple[Dict[Node, Label], AdviceMap, bool]:
        """Residual violations: re-request advice around them and re-decode."""
        schema = self.schema
        anchors = bad if bad else sorted(graph.nodes(), key=graph.id_of)[:1]
        for radius in self.refetch_radii:
            patched = dict(working)
            changed = False
            for v in anchors:
                ball_patch = self._refetch_ball(graph, clean, patched, v, radius)
                if ball_patch is not None:
                    patched = ball_patch
                    changed = True
            if not changed:
                continue
            try:
                with self.tracer.span(
                    "repair", kind=ADVICE_REFETCH, radius=radius
                ):
                    redecoded = schema.decode(graph, patched)
            except AdviceError:
                continue
            candidate = dict(redecoded.labeling)
            if self._valid(graph, candidate):
                seed_node = anchors[0] if anchors else None
                report.actions.append(
                    RepairAction(ADVICE_REFETCH, seed_node, radius, True)
                )
                return candidate, patched, True
            report.actions.append(
                RepairAction(
                    ADVICE_REFETCH,
                    anchors[0] if anchors else None,
                    radius,
                    False,
                )
            )
        return labeling, working, False

    # -- global fallback -----------------------------------------------------

    def _global_fallback(
        self,
        graph: LocalGraph,
        clean: Mapping[Node, str],
        report: RobustnessReport,
    ) -> Tuple[Dict[Node, Label], AdviceMap, bool]:
        """One fresh decode of the clean advice, which the run then carries;
        a failed attempt gives up cleanly (``report.gave_up``)."""
        report.escalated = True
        fresh = {v: clean.get(v, "") for v in graph.nodes()}

        def attempt() -> Tuple[Dict[Node, Label], bool]:
            labeling = dict(self.schema.decode(graph, fresh).labeling)
            return labeling, self._valid(graph, labeling)

        labeling, valid = escalate(
            attempt, label="verify", actions=report.actions, tracer=self.tracer
        )
        report.gave_up = not valid
        return labeling if labeling is not None else {}, fresh, valid
