"""Churn-tolerant serving: advice maintenance under live graph mutations.

The paper's Section 6 ball/shift repair argument treats a topology change
as a *local* event: the advice of nodes far from the mutation site stays
valid verbatim, so a bounded-radius patch suffices.  This package turns
that argument into a runtime:

- :mod:`repro.dynamic.plan` — frozen, validated :class:`Mutation` /
  :class:`MutationPlan` logs (mirroring :class:`repro.faults.FaultPlan`)
  plus seeded family-preserving plan generators.
- :mod:`repro.dynamic.runner` — :class:`ChurnRunner`, which maintains a
  valid ``(graph, advice, labeling)`` triple across a mutation stream via
  the repair stages it shares with :class:`repro.faults.RobustRunner`:
  local label repair → schema advice patch, escalating to a bounded-retry
  full re-encode only when locality fails.
- :mod:`repro.dynamic.campaign` — the seeded churn campaign driven by
  ``python -m repro churn``.
"""

from .plan import (
    MUTATION_KINDS,
    ColoredChurnModel,
    Mutation,
    MutationPlan,
    MutationPlanError,
    generate_mutation_plan,
)
from .runner import ChurnRunner
from .campaign import run_churn_campaign

__all__ = [
    "MUTATION_KINDS",
    "ChurnRunner",
    "ColoredChurnModel",
    "Mutation",
    "MutationPlan",
    "MutationPlanError",
    "generate_mutation_plan",
    "run_churn_campaign",
]
