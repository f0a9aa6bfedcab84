"""Seeded corruption campaigns: chaos-test every registered schema.

:func:`run_campaign` replays many independently seeded
:class:`~repro.faults.plan.FaultPlan`\\ s (bit flips, erasures,
truncations; up to ``max_faults`` per run) against every schema in the
registry, establishes the *ground truth* of each corruption with a plain
(non-healing) decode (:func:`~repro.faults.runner.cold_verdict`), then runs the :class:`~repro.faults.runner
.RobustRunner` and cross-checks its report:

- ``decode-error`` / ``invalid-labeling`` ground truths are *harmful* —
  the runner must detect them (the ISSUE's 100%-detection criterion);
- ``masked`` corruptions decode to a valid solution anyway and count
  against nothing;
- any ground-truth exception other than ``AdviceError`` is an
  ``unexpected-error`` — a decoder leaking internals, which fails the
  campaign outright.

The records land in one :class:`~repro.obs.robustness.CampaignResult`
with this module's per-run aggregate.  Every record derives from
``_mix(seed, "campaign", i)``, so a campaign is bit-reproducible from its
seed: same inputs, byte-identical ``as_dict()``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..advice.schema import AdviceSchema
from ..local.graph import LocalGraph
from ..obs.metrics import MetricsRegistry
from ..obs.robustness import CampaignResult, Record
from .inject import FaultInjector, _mix
from .plan import FaultPlan
from .runner import RobustRunner, cold_verdict

#: Corruption kinds the campaign samples from.
KINDS: Tuple[str, ...] = ("flip", "erase", "truncate")

#: Ground truths that the robust runner is required to detect.
HARMFUL = ("decode-error", "invalid-labeling")


def _plan_for(kind: str, k: int, seed: int) -> FaultPlan:
    if kind == "flip":
        return FaultPlan(seed=seed, advice_flips=k)
    if kind == "erase":
        return FaultPlan(seed=seed, advice_erasures=k)
    if kind == "truncate":
        return FaultPlan(seed=seed, advice_truncations=k)
    raise ValueError(f"unknown corruption kind {kind!r}")


def _aggregate(records: Sequence[Record]) -> Dict[str, object]:
    harmful = [r for r in records if r["ground_truth"] in HARMFUL]
    detected = [r for r in harmful if r["detected"]]
    local = [r for r in harmful if r["repaired_locally"]]
    return {
        "runs": len(records),
        "harmful": len(harmful),
        "masked": sum(1 for r in records if r["ground_truth"] == "masked"),
        "unexpected_errors": sum(
            1 for r in records if r["ground_truth"] == "unexpected-error"
        ),
        "detected": len(detected),
        "detection_rate": (
            len(detected) / len(harmful) if harmful else 1.0
        ),
        "repaired_locally": len(local),
        "local_repair_rate": (
            len(local) / len(harmful) if harmful else 1.0
        ),
        "escalated": sum(1 for r in harmful if r["escalated"]),
        "invalid_final": sum(1 for r in records if not r["final_valid"]),
    }


def _accept(summary: Dict[str, object]) -> bool:
    """100% detection, no unrepaired runs, no leaked exceptions."""
    return (
        summary["unexpected_errors"] == 0
        and summary["detection_rate"] == 1.0
        and summary["invalid_final"] == 0
    )


def run_campaign(
    runs: int = 200,
    seed: int = 0,
    schemas: Optional[Sequence[str]] = None,
    n: int = 64,
    max_faults: int = 4,
    kinds: Sequence[str] = KINDS,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> CampaignResult:
    """Run a seeded corruption campaign across the schema registry.

    Each schema's demo instance (:func:`repro.core.api.default_instance`)
    is built and cleanly encoded once; every campaign run then corrupts a
    copy of that clean advice under its own derived seed.  ``progress``
    (if given) is called with each record as it lands — the chaos CLI uses
    it for a live line per run.  Raises :class:`ValueError` for
    ``runs < 1``, ``max_faults < 1`` or empty ``kinds``.
    """
    from ..core import api  # local import: core.api -> faults would cycle

    if runs < 1:
        raise ValueError("campaign runs must be >= 1")
    if max_faults < 1:
        raise ValueError("max_faults must be >= 1")
    if not kinds:
        raise ValueError("no corruption kinds to sample")

    names = list(schemas) if schemas else api.available_schemas()
    if not names:
        raise ValueError("no schemas to campaign over")
    instances: Dict[str, Tuple[LocalGraph, AdviceSchema, Dict, RobustRunner]] = {}
    for name in names:
        graph, kwargs = api.default_instance(name, n, seed=seed)
        schema = api.make_schema(name, **kwargs)
        clean = schema.encode(graph)
        runner = RobustRunner(schema, registry=registry)
        instances[name] = (graph, schema, clean, runner)

    records: List[Record] = []
    for i in range(runs):
        name = names[i % len(names)]
        graph, schema, clean, runner = instances[name]
        run_seed = _mix(seed, "campaign", i)
        rng = random.Random(run_seed)
        kind = kinds[rng.randrange(len(kinds))]
        k = rng.randint(1, max_faults)
        plan = _plan_for(kind, k, run_seed)
        corrupted, injected = FaultInjector(plan).corrupt_advice(graph, clean)
        verdict, detail = cold_verdict(schema, graph, corrupted)
        ground = "masked" if verdict == "valid" else verdict
        report = runner.run(graph, plan, advice=clean).robustness
        record: Record = {
            "run": i,
            "schema": name,
            "kind": kind,
            "k": k,
            "seed": run_seed,
            "injected": len(injected),
            "ground_truth": ground,
            "detected": report.detected,
            "repaired_locally": report.repaired_locally,
            "escalated": report.escalated,
            "final_valid": report.final_valid,
            "repair_radius_hist": {
                str(r): c for r, c in report.repair_radius_hist.items()
            },
        }
        if ground == "unexpected-error":
            record["error"] = detail
        records.append(record)
        if progress is not None:
            progress(record)

    params = {
        "runs": runs,
        "seed": seed,
        "schemas": names,
        "n": n,
        "max_faults": max_faults,
        "kinds": list(kinds),
    }
    return CampaignResult(params, _aggregate, _accept, records)
