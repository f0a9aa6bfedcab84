"""The churn runner: local advice maintenance under live mutations.

:class:`ChurnRunner` owns a ``(graph, advice, labeling)`` triple that it
keeps *jointly valid* while the graph mutates in place.  Each applied
:class:`~repro.dynamic.plan.Mutation` is treated as a localized fault, in
the Section 6 ball/shift sense, and healed by the repair stages of
:mod:`repro.faults.runner` — the same ones the robust runner uses:

1. **Local label repair** — verify only the balls around the mutation
   sites; violations are healed by :func:`~repro.faults.runner
   .resolve_balls` (the pre-mutation labeling was valid and the LCL
   predicate has bounded radius, so any residual violation lives near a
   site).
2. **Advice patch** — the schema's
   :meth:`~repro.advice.schema.AdviceSchema.repair_advice` hook, handed
   the maintained labeling, re-derives fresh bits for the affected balls
   from it, leaving every other node's advice verbatim.
3. **Escalate** — only when locality fails: one full re-encode through
   :func:`~repro.faults.runner.escalate`; a failed re-encode is a clean
   recorded failure, never a loop.

Every step emits :class:`~repro.obs.robustness.RepairAction` /
:class:`~repro.obs.robustness.MutationRecord` records and the churn metrics
(``mutations_*``, ``reencode_fallbacks_total``, and ``repairs_local_total``
/ ``repair_radius`` counted from each finished record's actions).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..advice.schema import (
    AdviceMap,
    AdviceSchema,
    repair_region,
    validate_advice_map,
)
from ..faults.runner import escalate, resolve_balls
from ..lcl.problem import Label, LCLProblem
from ..lcl.verify import violations
from ..local.graph import LocalGraph, Node
from ..obs.metrics import MetricsRegistry
from ..obs.robustness import (
    ADVICE_PATCH,
    RESOLVED_FAILED,
    RESOLVED_LOCAL,
    RESOLVED_NOOP,
    RESOLVED_REENCODE,
    MutationRecord,
    RepairAction,
    local_repairs,
    record_repairs,
)
from ..obs.trace import NULL_TRACER, Tracer
from .plan import Mutation


class ChurnError(RuntimeError):
    """Raised when the runner cannot bootstrap a valid initial state."""


class ChurnRunner:
    """Maintain a valid ``(graph, advice, labeling)`` triple under churn.

    Parameters
    ----------
    schema:
        The :class:`AdviceSchema` whose advice is being served.
    graph:
        The live graph; the runner mutates it in place via the
        :class:`LocalGraph` mutator API (which epoch-invalidates every
        topology cache).
    max_ball_radius:
        Largest label-repair ball radius before escalating to re-encode.
    max_solver_steps:
        Backtracking budget per ball re-solve.  Exhausting it stops the
        ball re-solve after that radius, leaving the re-encode fallback,
        which makes one attempt per mutation; a failed one marks the
        mutation ``failed``.
    """

    def __init__(
        self,
        schema: AdviceSchema,
        graph: LocalGraph,
        max_ball_radius: int = 8,
        max_solver_steps: int = 200_000,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.schema = schema
        self.graph = graph
        self.max_ball_radius = max_ball_radius
        self.max_solver_steps = max_solver_steps
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else MetricsRegistry()
        self.applied = 0
        self._bootstrap()

    def _bootstrap(self) -> None:
        """Initial encode + decode + verify; the serving state starts valid."""
        schema, graph = self.schema, self.graph
        with self.tracer.span("churn_bootstrap", schema=schema.name, n=graph.n):
            (self.advice, self.labeling), ok = self._fresh_state()
        if not ok:
            raise ChurnError(f"bootstrap decode of {schema.name} is invalid")
        self.problem: Optional[LCLProblem] = schema.repair_problem(graph)

    def _apply_topology(self, mutation: Mutation) -> List[Node]:
        """Mutate the graph; return the surviving anchor sites."""
        graph = self.graph
        kind = mutation.kind
        if kind == "edge-insert":
            graph.add_edge(mutation.u, mutation.v)
            return [mutation.u, mutation.v]
        if kind == "edge-delete":
            graph.remove_edge(mutation.u, mutation.v)
            return [mutation.u, mutation.v]
        if kind == "node-insert":
            graph.add_node(mutation.node, neighbors=mutation.neighbors)
            self.advice[mutation.node] = ""
            return [mutation.node] + list(mutation.neighbors)
        # node-delete
        dropped = graph.remove_node(mutation.node)
        self.advice.pop(mutation.node, None)
        self.labeling.pop(mutation.node, None)
        return sorted(dropped, key=graph.id_of)

    def _fresh_state(self) -> Tuple[Tuple[AdviceMap, Dict[Node, Label]], bool]:
        """A full encode, validate and decode, and whether the decoded
        labeling verifies: the bootstrap, and the one re-encode attempt of
        :func:`escalate`."""
        advice = dict(self.schema.encode(self.graph))
        for v in self.graph.nodes():
            advice.setdefault(v, "")
        validate_advice_map(self.graph, advice, complete=True)
        labeling = dict(self.schema.decode(self.graph, advice).labeling)
        return (advice, labeling), bool(
            self.schema.check_solution(self.graph, labeling)
        )

    def apply(self, mutation: Mutation, full_check: bool = False) -> MutationRecord:
        """Apply one mutation and restore the serving invariant.

        With ``full_check=True`` the record's validity bit comes from a
        whole-graph verify (what the campaign asserts per step); the
        default verifies only the affected region, which is the bounded
        amount of work the locality argument licenses.
        """
        schema, graph, registry = self.schema, self.graph, self.registry
        record = MutationRecord(index=self.applied, mutation=mutation)
        self.applied += 1
        kind_key = mutation.kind.replace("-", "_")
        registry.counter("mutations_total").inc()
        registry.counter(f"mutations_{kind_key}_total").inc()
        try:
            with self.tracer.span(
                "churn_apply", schema=schema.name, kind=mutation.kind
            ) as span:
                old_problem = self.problem
                sites = self._apply_topology(mutation)
                self.problem = problem = schema.repair_problem(graph)

                residual: List[Node] = []
                label_radius = 0
                if problem is not None:
                    if old_problem is not None and repr(old_problem) != repr(problem):
                        # A global parameter shifted (e.g. Delta dropped and the
                        # palette shrank): region checks are no longer sound,
                        # fall back to a whole-graph sweep.
                        bad = sorted(
                            violations(problem, graph, self.labeling, nodes=graph.nodes()),
                            key=graph.id_of,
                        )
                    else:
                        bad = violations(
                            problem,
                            graph,
                            self.labeling,
                            nodes=repair_region(graph, sites, 2 * problem.radius),
                        )
                    if bad:
                        self.labeling, residual, label_radius = resolve_balls(
                            graph,
                            problem,
                            self.labeling,
                            bad,
                            max_radius=self.max_ball_radius,
                            max_steps=self.max_solver_steps,
                            actions=record.actions,
                            tracer=self.tracer,
                        )
                elif any(v not in self.labeling for v in sites):
                    # No label-level repair possible; force escalation below.
                    residual = [v for v in sites if v not in self.labeling]

                if not residual:
                    # Wide enough to cover the ball-re-solve interior: bad nodes
                    # sit within 2*r of a site and repairs reach label_radius
                    # further out.
                    r0 = problem.radius if problem is not None else 1
                    hook_radius = max(2 * r0, label_radius + 2 * r0)
                    patched = schema.repair_advice(
                        graph, self.advice, sites, hook_radius, self.labeling
                    )
                    if patched is not None:
                        self.advice = patched
                        seed_node = sites[0] if sites else None
                        record.actions.append(
                            RepairAction(
                                ADVICE_PATCH, seed_node, hook_radius, True, detail="churn"
                            )
                        )
                    for v in sites:
                        self.advice.setdefault(v, "")

                if residual:
                    registry.counter("reencode_fallbacks_total").inc()
                    state, ok = escalate(
                        self._fresh_state,
                        label="reencode",
                        actions=record.actions,
                        tracer=self.tracer,
                    )
                    if ok:
                        self.advice, self.labeling = state
                    record.resolved_by = RESOLVED_REENCODE if ok else RESOLVED_FAILED
                elif local_repairs(record.actions):
                    record.resolved_by = RESOLVED_LOCAL
                else:
                    record.resolved_by = RESOLVED_NOOP

                if record.resolved_by == RESOLVED_FAILED:
                    record.valid = False
                elif full_check or record.resolved_by == RESOLVED_REENCODE:
                    record.valid = bool(schema.check_solution(graph, self.labeling))
                elif problem is not None:
                    # With no bad node nothing was relabelled, so the check
                    # would rerun the first one verbatim (same sites, radius
                    # and labeling).
                    region = repair_region(
                        graph, sites, max(label_radius, problem.radius) + problem.radius
                    )
                    record.valid = not bad or not violations(
                        problem, graph, self.labeling, nodes=region
                    )
                else:
                    record.valid = True
                if self.tracer.enabled:
                    span.set(resolved_by=record.resolved_by, valid=record.valid)
        finally:
            record_repairs(registry, record.actions)
        return record
