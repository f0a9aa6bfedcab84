"""Satellite: every schema x corruption kind behaves, never leaks.

For each registered schema and each corruption kind, a plain decode of
corrupted advice must end in exactly one of three sanctioned outcomes:

- a valid solution (the corruption was masked),
- an invalid labeling the verifier catches (detected downstream), or
- an :class:`~repro.advice.AdviceError` (clean decode-time rejection).

Anything else — a ``KeyError`` from a decoder internals, an
``IndexError`` from the bitstream — is a leak.  And in every case the
:class:`~repro.faults.RobustRunner` must end the run with a valid
labeling.
"""

import pytest

from repro.core.api import (
    available_schemas,
    default_instance,
    make_schema,
    solve_with_advice,
)
from repro.faults import FaultInjector, FaultPlan, RobustRunner
from repro.faults.campaign import KINDS, _plan_for
from repro.faults.runner import cold_verdict

N = 48


@pytest.fixture(scope="module")
def instances():
    built = {}
    for name in available_schemas():
        graph, kwargs = default_instance(name, N, seed=0)
        schema = make_schema(name, **kwargs)
        built[name] = (graph, schema, schema.encode(graph))
    return built


@pytest.mark.parametrize("name", available_schemas())
@pytest.mark.parametrize("kind", KINDS)
def test_corruption_never_leaks_and_always_heals(instances, name, kind):
    graph, schema, clean = instances[name]
    outcomes = set()
    for seed in range(3):
        plan = _plan_for(kind, k=2, seed=seed)
        corrupted, injected = FaultInjector(plan).corrupt_advice(graph, clean)
        ground, error = cold_verdict(schema, graph, corrupted)
        assert ground != "unexpected-error", (
            f"{name} leaked a non-advice exception under {kind}: {error}"
        )
        outcomes.add(ground)
        run = RobustRunner(schema).run(graph, plan, advice=clean)
        assert run.valid, f"{name} ended invalid after {kind} (seed {seed})"
        report = run.robustness
        assert len(report.injected) == len(injected)
        if ground in ("decode-error", "invalid-labeling"):
            assert report.detected, (
                f"{name} failed to detect a harmful {kind} (seed {seed})"
            )
    assert outcomes  # at least one seed actually injected something


def test_delta_coloring_cluster_color_clash_heals():
    # Flipped cluster colors can make two adjacent clusters share a color;
    # the decoder must reject that as an attributed advice error (which the
    # runner heals) rather than leak Linial's ColoringError.
    graph, kwargs = default_instance("delta-coloring", 200, seed=0)
    run = solve_with_advice(
        "delta-coloring", graph, fault_plan=FaultPlan(seed=7, advice_flips=4), **kwargs
    )
    assert run.valid
    assert run.robustness.detected
