"""Seeded churn campaigns: sustain a mutation stream on flagship instances.

:func:`run_churn_campaign` generates one family-preserving
:class:`~repro.dynamic.plan.MutationPlan` per flagship instance
(2-coloring on a grid, 3-coloring on a planted 3-colorable graph), feeds
it through a :class:`~repro.dynamic.runner.ChurnRunner`, and asserts the
serving invariant *after every mutation* with a whole-graph verify.
Periodic decode checkpoints additionally re-decode the maintained advice
from scratch (:func:`~repro.faults.runner.cold_verdict`) — the labeling
being valid is necessary but not sufficient; the *advice* is the serving
artifact and must stay decodable too.

Each mutation's record lands in one
:class:`~repro.obs.robustness.CampaignResult` with this module's
per-mutation aggregate.  Everything derives from the campaign seed (the
``_mix`` idiom of :mod:`repro.faults.campaign`), so two runs emit
byte-identical ``as_dict()`` payloads — the churn baseline pins this at
zero tolerance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..advice.schema import AdviceSchema
from ..faults.runner import cold_verdict
from ..local.graph import LocalGraph
from ..obs.robustness import RESOLVED_REENCODE, CampaignResult, Record
from .plan import ColoredChurnModel, generate_mutation_plan
from .runner import ChurnRunner

#: Instances the campaign exercises by default: the two schemas whose
#: mutation hooks re-derive advice from the maintained labeling.
FLAGSHIPS: Tuple[str, ...] = ("2-coloring", "3-coloring")


def flagship_instance(
    name: str, n: int, seed: int
) -> Tuple[LocalGraph, AdviceSchema, ColoredChurnModel]:
    """``(graph, schema, guard model)`` for one flagship churn instance.

    The guard model's coloring doubles as the family-membership witness:
    bipartition classes for the grid, the planted certificate (shifted to
    ``0..k-1``) for the 3-colorable instance.
    """
    from ..graphs import grid, planted_three_colorable
    from ..schemas.three_coloring import ThreeColoringSchema
    from ..schemas.two_coloring import TwoColoringSchema

    if name == "2-coloring":
        side = max(4, int(round(n**0.5)))
        graph = LocalGraph(grid(side, side), seed=seed)
        return graph, TwoColoringSchema(), ColoredChurnModel(graph, k=2)
    if name == "3-coloring":
        raw, cert = planted_three_colorable(max(n, 40), seed=seed)
        graph = LocalGraph(raw, seed=seed)
        guard = {v: cert[v] - 1 for v in raw.nodes()}
        model = ColoredChurnModel(graph, k=3, coloring=guard)
        return graph, ThreeColoringSchema(coloring=dict(cert)), model
    raise KeyError(f"unknown flagship {name!r}; available: {FLAGSHIPS}")


def _refresh_certificate(schema: AdviceSchema, model: ColoredChurnModel) -> None:
    """Keep a certificate-carrying schema's cert in step with the guard.

    The 3-coloring encoder starts from a planted certificate; after churn
    the original cert no longer covers inserted nodes, so the re-encode
    fallback would fail spuriously.  The guard coloring *is* a maintained
    proper coloring of the current graph — hand it over (shifted back to
    ``1..k``).
    """
    if getattr(schema, "_coloring", None) is not None:
        schema._coloring = {v: c + 1 for v, c in model.coloring.items()}


def _aggregate(records: Sequence[Record]) -> Dict[str, object]:
    mutations = len(records)
    local = sum(1 for r in records if r["local"])
    counts: Dict[str, int] = {}
    for r in records:
        kind = str(r["mutation"]["kind"])  # type: ignore[index]
        counts[kind] = counts.get(kind, 0) + 1
    return {
        "mutations": mutations,
        "counts": dict(sorted(counts.items())),
        "repairs_local": local,
        "reencode_fallbacks": sum(
            1 for r in records if r["resolved_by"] == RESOLVED_REENCODE
        ),
        "failures": sum(1 for r in records if not r["valid"]),
        "local_rate": round(local / mutations, 6) if mutations else 1.0,
    }


def run_churn_campaign(
    mutations: int = 500,
    seed: int = 0,
    schemas: Optional[Sequence[str]] = None,
    n: int = 64,
    decode_every: int = 50,
    min_local_rate: float = 0.95,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> CampaignResult:
    """Run a seeded churn campaign over the flagship instances.

    Per schema: generate a ``mutations``-step family-preserving plan,
    bootstrap a :class:`ChurnRunner`, apply the stream with
    ``full_check=True`` (whole-graph verify after *every* mutation), and
    re-decode the advice from scratch every ``decode_every`` steps and
    after the last one (``decode_every=0``: after the last one only).
    Raises :class:`ValueError` for negative ``mutations`` or
    ``decode_every``.  The campaign is ok when every mutation and
    checkpoint ended valid and every schema's local-repair rate meets
    ``min_local_rate``.  ``progress`` (if given) receives each mutation
    record as it lands — the churn CLI uses it for a live line per step.
    """
    if mutations < 0:
        raise ValueError("mutation count must be >= 0")
    if decode_every < 0:
        raise ValueError("decode_every must be >= 0")
    names = list(schemas) if schemas else list(FLAGSHIPS)
    steps = {mutations}  # checkpoint after these mutation counts
    if decode_every:
        steps.update(range(decode_every, mutations + 1, decode_every))
    records: List[Record] = []
    checkpoints: List[Record] = []
    for name in names:
        graph, schema, plan_model = flagship_instance(name, n, seed)
        plan = generate_mutation_plan(
            graph, mutations, seed=seed, model=plan_model
        )
        # A fresh guard replays the plan step by step so the maintained
        # coloring tracks the *current* topology (the plan generator's
        # model already sits at the final state).
        _, _, replay = flagship_instance(name, n, seed)
        runner = ChurnRunner(schema, graph)
        for step, mutation in enumerate(plan.mutations, start=1):
            replay.apply(mutation)
            _refresh_certificate(schema, replay)
            record = {"schema": name, **runner.apply(mutation, full_check=True).as_dict()}
            records.append(record)
            if progress is not None:
                progress(record)
            if step in steps:
                verdict, detail = cold_verdict(schema, runner.graph, runner.advice)
                checkpoint: Record = {"schema": name, "step": step, "ok": verdict == "valid"}
                if verdict != "valid":
                    checkpoint["detail"] = detail or verdict
                checkpoints.append(checkpoint)
    params = {
        "mutations": mutations,
        "seed": seed,
        "schemas": names,
        "n": n,
        "decode_every": decode_every,
        "min_local_rate": min_local_rate,
    }

    def accept(summary: Dict[str, object]) -> bool:
        local, total = summary["repairs_local"], summary["mutations"]
        rate = local / total if total else 1.0  # type: ignore[operator]
        return summary["failures"] == 0 and rate >= min_local_rate

    return CampaignResult(params, _aggregate, accept, records, checkpoints)
