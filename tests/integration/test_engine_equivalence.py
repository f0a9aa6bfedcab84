"""Engine-independence: every schema, every engine, identical labelings.

The acceptance bar of the vectorized engine: all registered schemas
produce **bit-identical** labelings under ``scalar`` and
``vectorized``, engine choice lands in
``SchemaRun.telemetry``, and the work profile's totals equal the
telemetry counters exactly on every engine — per-span counter shares sum
to the engine totals regardless of which engine stamped them.
"""

import pytest

from repro.core.api import (
    available_schemas,
    default_instance,
    make_schema,
    solve_with_advice,
)
from repro.local import use_engine
from repro.local.model import current_engine
from repro.obs.profile import profile_run
from repro.perf import WORK_COUNTERS

ENGINES = ["scalar", "vectorized"]


def _solve(name, engine, seed=11):
    graph, kwargs = default_instance(name, 64, seed=seed)
    return solve_with_advice(name, graph, engine=engine, **kwargs)


@pytest.mark.parametrize("name", available_schemas())
def test_labelings_bit_identical_across_engines(name):
    runs = {engine: _solve(name, engine) for engine in ENGINES}
    assert all(run.valid for run in runs.values())
    reference = runs["scalar"].result.labeling
    for engine in ENGINES[1:]:
        assert runs[engine].result.labeling == reference, engine


def test_engine_recorded_in_telemetry():
    # two-coloring decodes through run_view_algorithm, so its telemetry
    # must name the engine that actually ran.
    run = _solve("2-coloring", "vectorized")
    assert run.telemetry["engine"] == "vectorized"
    run = _solve("2-coloring", "scalar")
    assert run.telemetry["engine"] == "scalar"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", available_schemas())
def test_reconcile_balances_on_every_engine(engine, name):
    graph, kwargs = default_instance(name, 64, seed=5)
    schema = make_schema(name, **kwargs)
    with use_engine(engine):
        run, profile = profile_run(schema, graph)
    for counter in WORK_COUNTERS:
        assert profile.total(counter) == run.telemetry[counter], counter


def test_use_engine_scopes_and_restores():
    assert current_engine() == "auto"
    with use_engine("scalar"):
        assert current_engine() == "scalar"
        with use_engine("vectorized"):
            assert current_engine() == "vectorized"
        assert current_engine() == "scalar"
    assert current_engine() == "auto"


def test_unknown_engine_rejected():
    from repro.local import SimulationError
    from repro.serve import AdviceService, ServeError

    graph, kwargs = default_instance("2-coloring", 16, seed=0)
    # "parallel" named the process-pool engine, which no longer exists
    for engine in ("warp-drive", "parallel"):
        with pytest.raises(SimulationError):
            with use_engine(engine):
                pass  # pragma: no cover
        with pytest.raises(SimulationError):
            solve_with_advice("2-coloring", graph, engine=engine, **kwargs)
        with pytest.raises(ServeError):
            AdviceService(
                make_schema("2-coloring", **kwargs), graph, engine=engine
            )
