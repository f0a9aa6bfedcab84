"""Gather-independence: every schema, both gathers, identical labelings.

The acceptance bar of the vectorized gather: all registered schemas
produce **bit-identical** labelings on the ``scalar`` and the
``vectorized`` branch of the root-count rule, the gather that ran lands
in ``SchemaRun.telemetry``, and the work profile's totals equal the
telemetry counters exactly on each branch — per-span counter shares sum
to the engine totals regardless of which gather stamped them.  The
``force_gather`` fixture picks the branch.
"""

import pytest

from repro.core.api import (
    available_schemas,
    default_instance,
    make_schema,
    solve_with_advice,
)
from repro.graphs import grid
from repro.local import LocalGraph, run_view_algorithm
from repro.obs.profile import WorkProfile, profile_run
from repro.perf import WORK_COUNTERS
from repro.schemas.two_coloring import TwoColoringSchema
from repro.serve import AdviceService

ENGINES = ["scalar", "vectorized"]


def _solve(name, seed=11):
    graph, kwargs = default_instance(name, 64, seed=seed)
    return solve_with_advice(name, graph, **kwargs)


@pytest.mark.parametrize("name", available_schemas())
def test_labelings_bit_identical_across_engines(name, force_gather):
    runs = {}
    for engine in ENGINES:
        force_gather(engine)
        runs[engine] = _solve(name)
    assert all(run.valid for run in runs.values())
    reference = runs["scalar"].result.labeling
    for engine in ENGINES[1:]:
        assert runs[engine].result.labeling == reference, engine


def test_engine_recorded_in_telemetry(force_gather):
    # two-coloring decodes through run_view_algorithm, so its telemetry
    # must name the gather that actually ran.
    for engine in ENGINES:
        force_gather(engine)
        assert _solve("2-coloring").telemetry["engine"] == engine


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", available_schemas())
def test_reconcile_balances_on_every_engine(engine, name, force_gather):
    force_gather(engine)
    graph, kwargs = default_instance(name, 64, seed=5)
    schema = make_schema(name, **kwargs)
    run, profile = profile_run(schema, graph)
    for counter in WORK_COUNTERS:
        assert profile.total(counter) == run.telemetry[counter], counter


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("batch", [1, 80])
def test_service_and_run_charge_equal_work(batch, engine, force_gather):
    # Both call sites share one gather helper, so a served root costs the
    # views and BFS visits its view costs in a whole-graph run.
    force_gather(engine)
    graph = LocalGraph(grid(12, 12), seed=0)
    service = AdviceService(TwoColoringSchema(spacing=8), graph, sample_rate=1.0)
    run = run_view_algorithm(
        graph, service.radius, lambda view: len(view.nodes), advice=service.advice
    )
    assert run.stats.engine == engine
    assert run.stats.views_gathered == graph.n
    assert run.stats.bfs_node_visits == sum(run.outputs.values())

    roots = sorted(graph.nodes(), key=graph.id_of)[:batch]
    service.query_batch(roots)
    profile = WorkProfile.from_records(service.tracer.ring().records)
    [gather] = profile.by_name("gather")
    assert gather.attrs["engine"] == engine
    assert service.stats.views_gathered == batch
    assert service.stats.bfs_node_visits == sum(run.outputs[v] for v in roots)
    service.close()
