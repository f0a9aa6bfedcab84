"""Repair reporting: what the self-healing and churn runners did and why.

Both repair runtimes record their work as one list of
:class:`RepairAction` attempts, and everything else is derived from it:

- a fault-injected run (:mod:`repro.faults`) produces a
  :class:`RobustnessReport`: every injected fault, whether the corruption
  was *detected* (decoder raised or the verifier rejected), the actions
  with their escalation radii, and whether the run healed locally or had
  to fall back to a global re-solve;
- an applied churn mutation (:mod:`repro.dynamic`) produces a
  :class:`MutationRecord`: the actions that restored the ``(graph,
  advice)`` pair, what ultimately resolved it, and whether the
  post-mutation labeling verified;
- a seeded campaign of either kind is one :class:`CampaignResult` over
  the flat ``as_dict()`` records of its runs or mutations.

:func:`local_repairs` is the one definition of repair work: successful
actions of a :data:`LOCAL_KINDS` kind.  The repair-radius histograms and
the ``repairs_local_total`` / ``repair_radius`` telemetry of a robust run
(:meth:`RobustnessReport.metrics`) all count exactly those actions.
Records are deterministic given the plan seed: two runs of the same plan
emit byte-identical ``as_dict()`` payloads, which the chaos tests and the
zero-tolerance baselines pin.

The repair-locality doctrine (see ``docs/robustness.md``): an action counts
as *local* when all the state it rewrites — output labels or advice bits —
lies inside a radius-bounded ball around the failure; the *global* fallback
is a fresh re-encode, the one unbounded centralized operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

from .metrics import DEFAULT_BUCKETS, histogram_of

if TYPE_CHECKING:
    from ..dynamic.plan import Mutation

#: RepairAction kinds, in escalation order.
BALL_RESOLVE = "ball-resolve"
ADVICE_PATCH = "advice-patch"
ADVICE_REFETCH = "advice-refetch"
GLOBAL_RESOLVE = "global-resolve"

#: The kinds that count as *local* repair (radius-bounded rewrites).
LOCAL_KINDS = (BALL_RESOLVE, ADVICE_PATCH, ADVICE_REFETCH)

#: How a mutation ended up being resolved, in escalation order.
RESOLVED_NOOP = "noop"  # nothing broke: advice + labels stayed valid verbatim
RESOLVED_LOCAL = "local"  # radius-bounded label repair and/or advice patch
RESOLVED_REENCODE = "reencode"  # global fallback: full re-encode + decode
RESOLVED_FAILED = "failed"  # re-encode budget exhausted; pair left invalid

#: One campaign record or checkpoint: a JSON-ready dict with a ``"schema"``.
Record = Dict[str, object]


@dataclass
class RepairAction:
    """One repair attempt of the robust or churn runner.

    ``kind`` is one of :data:`BALL_RESOLVE` (brute-force re-solve of the
    labels in a ball, Section 4's "complete by brute force" reused as a
    repair primitive), :data:`ADVICE_PATCH` (a schema-specific rewrite of
    the advice bits near the failure, e.g. synthesizing a fresh anchor),
    :data:`ADVICE_REFETCH` (re-requesting the prover's bits for one ball),
    or :data:`GLOBAL_RESOLVE` (the non-local fallback: full re-encode).
    """

    kind: str
    node: object
    radius: int
    success: bool
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "node": repr(self.node),
            "radius": self.radius,
            "success": self.success,
            "detail": self.detail,
        }


def local_repairs(actions: Iterable[RepairAction]) -> List[RepairAction]:
    """The successful radius-bounded repair actions among ``actions``."""
    return [a for a in actions if a.success and a.kind in LOCAL_KINDS]


def repair_radius_hist(actions: Iterable[RepairAction]) -> Dict[int, int]:
    """radius -> number of successful local repairs at that radius."""
    hist: Dict[int, int] = {}
    for action in local_repairs(actions):
        hist[action.radius] = hist.get(action.radius, 0) + 1
    return dict(sorted(hist.items()))


def _hist_json(actions: Iterable[RepairAction]) -> Dict[str, int]:
    return {str(r): c for r, c in repair_radius_hist(actions).items()}


@dataclass
class RobustnessReport:
    """Outcome record of one fault-injected, self-healed schema run."""

    schema_name: str
    seed: Optional[int] = None
    #: the plan asked for advice faults (even if none found a bit to hit).
    advice_faulted: bool = False
    #: injected fault records (``InjectedFault.as_dict()`` payloads).
    injected: List[Dict[str, object]] = field(default_factory=list)
    #: did the runner notice anything wrong (decode error or violation)?
    detected: bool = False
    decode_errors: int = 0
    decode_attempts: int = 0
    #: violations of the first successfully decoded labeling.
    initial_violations: int = 0
    actions: List[RepairAction] = field(default_factory=list)
    #: the run fell back to a global re-solve.
    escalated: bool = False
    #: the global fallback itself exhausted its retry budget.
    gave_up: bool = False
    final_valid: bool = False

    @property
    def injected_count(self) -> int:
        return len(self.injected)

    @property
    def locally_repaired(self) -> int:
        """Successful radius-bounded repair actions."""
        return len(local_repairs(self.actions))

    @property
    def repaired_locally(self) -> bool:
        """Healed without ever resorting to the global fallback."""
        return self.detected and self.final_valid and not self.escalated

    @property
    def repair_radius_hist(self) -> Dict[int, int]:
        """radius -> number of successful local repairs at that radius."""
        return repair_radius_hist(self.actions)

    def metrics(self) -> Dict[str, object]:
        """The fault and repair keys of the run's telemetry.

        A key is present only when its event happened: advice faults were
        planned (``faults_injected_total`` counts those that landed), a
        detection, decode errors, a global escalation, and successful
        local repairs (their count and ``repair_radius`` histogram).
        """
        out: Dict[str, object] = {}
        if self.advice_faulted:
            out["faults_injected_total"] = len(self.injected)
        if self.detected:
            out["faults_detected_total"] = 1
        if self.decode_errors:
            out["decode_errors_total"] = self.decode_errors
        if self.escalated:
            out["repairs_global_total"] = 1
        local = local_repairs(self.actions)
        if local:
            out["repairs_local_total"] = len(local)
            out["repair_radius"] = histogram_of(
                (a.radius for a in local), DEFAULT_BUCKETS
            )
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema_name,
            "seed": self.seed,
            "injected": list(self.injected),
            "injected_count": self.injected_count,
            "detected": self.detected,
            "decode_errors": self.decode_errors,
            "decode_attempts": self.decode_attempts,
            "initial_violations": self.initial_violations,
            "actions": [a.as_dict() for a in self.actions],
            "locally_repaired": self.locally_repaired,
            "repaired_locally": self.repaired_locally,
            "escalated": self.escalated,
            "gave_up": self.gave_up,
            "repair_radius_hist": _hist_json(self.actions),
            "final_valid": self.final_valid,
        }

    def summary(self) -> str:
        """One human-readable line (what the chaos CLI prints per run)."""
        if not self.injected and not self.detected:
            status = "clean"
        elif not self.detected:
            status = "masked"
        elif self.gave_up:
            status = "gave-up"
        elif self.escalated:
            status = "escalated"
        elif self.final_valid:
            status = "repaired-locally"
        else:
            status = "UNREPAIRED"
        radii = ",".join(
            f"r{r}×{c}" for r, c in self.repair_radius_hist.items()
        )
        return (
            f"{self.schema_name}: {status} "
            f"(injected={self.injected_count}, detected={self.detected}, "
            f"attempts={self.decode_attempts}, repairs=[{radii}])"
        )


@dataclass
class MutationRecord:
    """Outcome record for one applied churn mutation.

    ``mutation`` is the applied (frozen) :class:`~repro.dynamic.plan.Mutation`
    itself; its JSON summary is built only by :meth:`as_dict`, so a
    record kept in memory costs no more than its actions.
    """

    index: int
    mutation: "Mutation"
    actions: List[RepairAction] = field(default_factory=list)
    resolved_by: str = RESOLVED_NOOP
    #: post-mutation labeling verified valid (checked every step).
    valid: bool = False

    @property
    def local(self) -> bool:
        """Absorbed without the global re-encode fallback."""
        return self.valid and self.resolved_by in (RESOLVED_NOOP, RESOLVED_LOCAL)

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "mutation": self.mutation.describe(),
            "actions": [a.as_dict() for a in self.actions],
            "resolved_by": self.resolved_by,
            "local": self.local,
            "repair_radius_hist": _hist_json(self.actions),
            "valid": self.valid,
        }


@dataclass
class CampaignResult:
    """Aggregated outcome of one seeded repair campaign (chaos or churn).

    ``records`` holds one flat dict per event — a fault-injected run or an
    applied mutation — each with a ``"schema"`` and a str-keyed
    ``"repair_radius_hist"``; ``checkpoints`` holds cold-decode verdicts
    ``{"schema", "step", "ok"[, "detail"]}``.  The campaign module supplies
    ``aggregate``, its summary of a list of records, and ``accept``, the
    bar every schema's summary must clear.  Each summary also carries the
    summed ``repair_radius_hist`` and, when the campaign took any, its
    checkpoint counts.
    """

    params: Dict[str, object]
    aggregate: Callable[[Sequence[Record]], Dict[str, object]]
    accept: Callable[[Dict[str, object]], bool]
    records: List[Record] = field(default_factory=list)
    checkpoints: List[Record] = field(default_factory=list)

    def _summary(
        self, records: Sequence[Record], checkpoints: Sequence[Record]
    ) -> Dict[str, object]:
        out = self.aggregate(records)
        hist: Dict[str, int] = {}
        for r in records:
            for radius, count in r["repair_radius_hist"].items():  # type: ignore[union-attr]
                hist[radius] = hist.get(radius, 0) + count
        out["repair_radius_hist"] = {k: hist[k] for k in sorted(hist, key=int)}
        if checkpoints:
            out["checkpoints"] = len(checkpoints)
            out["checkpoint_failures"] = sum(1 for c in checkpoints if not c["ok"])
        return out

    @property
    def totals(self) -> Dict[str, object]:
        return self._summary(self.records, self.checkpoints)

    @property
    def per_schema(self) -> Dict[str, Dict[str, object]]:
        names = sorted({str(r["schema"]) for r in self.records})
        return {
            name: self._summary(
                [r for r in self.records if r["schema"] == name],
                [c for c in self.checkpoints if c["schema"] == name],
            )
            for name in names
        }

    @property
    def ok(self) -> bool:
        """Every checkpoint re-decoded and every schema met the bar."""
        return all(bool(c["ok"]) for c in self.checkpoints) and all(
            self.accept(summary) for summary in self.per_schema.values()
        )

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "params": dict(self.params),
            "totals": self.totals,
            "per_schema": self.per_schema,
            "ok": self.ok,
            "runs": list(self.records),
        }
        if self.checkpoints:
            out["checkpoints"] = list(self.checkpoints)
        return out
