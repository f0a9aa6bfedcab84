"""Churn reporting: what the dynamic runtime did to absorb each mutation.

Each applied :class:`repro.dynamic.Mutation` yields a
:class:`MutationRecord` — the :class:`RepairAction` sequence that restored
the ``(graph, advice)`` pair, what ultimately resolved it, and whether the
post-mutation labeling verified.  A :class:`ChurnReport` aggregates one stream per schema.  Both
are deterministic given the plan seed: two runs of the same plan emit
byte-identical ``as_dict()`` payloads, which the churn baseline pins at
zero tolerance.

Locality doctrine matches :mod:`repro.obs.robustness`: a mutation counts
as *locally absorbed* when every repair action that resolved it was
radius-bounded (:data:`~repro.obs.robustness.LOCAL_KINDS`); the full
re-encode fallback is the one global operation and is budgeted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .robustness import LOCAL_KINDS, RepairAction

#: How a mutation ended up being resolved, in escalation order.
RESOLVED_NOOP = "noop"  # nothing broke: advice + labels stayed valid verbatim
RESOLVED_LOCAL = "local"  # radius-bounded label repair and/or advice patch
RESOLVED_REENCODE = "reencode"  # global fallback: full re-encode + decode
RESOLVED_FAILED = "failed"  # re-encode budget exhausted; pair left invalid


@dataclass
class MutationRecord:
    """Outcome record for one applied mutation."""

    index: int
    mutation: Dict[str, object]
    actions: List[RepairAction] = field(default_factory=list)
    resolved_by: str = RESOLVED_NOOP
    #: post-mutation labeling verified valid (checked every step).
    valid: bool = False

    @property
    def local(self) -> bool:
        """Absorbed without the global re-encode fallback."""
        return self.valid and self.resolved_by in (RESOLVED_NOOP, RESOLVED_LOCAL)

    @property
    def repair_radius(self) -> int:
        """Largest radius among successful local repair actions (0 if none)."""
        radii = [
            a.radius for a in self.actions if a.success and a.kind in LOCAL_KINDS
        ]
        return max(radii, default=0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "mutation": dict(self.mutation),
            "actions": [a.as_dict() for a in self.actions],
            "resolved_by": self.resolved_by,
            "local": self.local,
            "repair_radius": self.repair_radius,
            "valid": self.valid,
        }


@dataclass
class ChurnReport:
    """Aggregate record of one mutation stream against one schema."""

    schema_name: str
    seed: Optional[int] = None
    records: List[MutationRecord] = field(default_factory=list)

    @property
    def mutations(self) -> int:
        return len(self.records)

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.records:
            kind = str(r.mutation.get("kind"))
            out[kind] = out.get(kind, 0) + 1
        return dict(sorted(out.items()))

    @property
    def repairs_local(self) -> int:
        """Mutations absorbed by bounded-radius repair (incl. no-ops)."""
        return sum(1 for r in self.records if r.local)

    @property
    def reencode_fallbacks(self) -> int:
        return sum(1 for r in self.records if r.resolved_by == RESOLVED_REENCODE)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if not r.valid)

    @property
    def local_rate(self) -> float:
        return self.repairs_local / self.mutations if self.records else 1.0

    @property
    def repair_radius_hist(self) -> Dict[int, int]:
        """radius -> mutations whose largest successful local repair used it."""
        hist: Dict[int, int] = {}
        for r in self.records:
            if r.local and r.resolved_by == RESOLVED_LOCAL:
                hist[r.repair_radius] = hist.get(r.repair_radius, 0) + 1
        return dict(sorted(hist.items()))

    @property
    def all_valid(self) -> bool:
        return all(r.valid for r in self.records)

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema_name,
            "seed": self.seed,
            "mutations": self.mutations,
            "counts": self.counts,
            "repairs_local": self.repairs_local,
            "reencode_fallbacks": self.reencode_fallbacks,
            "failures": self.failures,
            "local_rate": round(self.local_rate, 6),
            "repair_radius_hist": {
                str(r): c for r, c in self.repair_radius_hist.items()
            },
            "all_valid": self.all_valid,
            "records": [r.as_dict() for r in self.records],
        }

    def summary(self) -> str:
        """One human-readable line (what the churn CLI prints per schema)."""
        radii = ",".join(f"r{r}×{c}" for r, c in self.repair_radius_hist.items())
        status = "ok" if self.all_valid else "INVALID"
        return (
            f"{self.schema_name}: {status} "
            f"(mutations={self.mutations}, local={self.repairs_local}, "
            f"reencode={self.reencode_fallbacks}, rate={self.local_rate:.1%}, "
            f"repairs=[{radii}])"
        )
