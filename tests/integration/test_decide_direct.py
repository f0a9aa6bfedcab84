"""Solve and serve decide every view directly.

Order signatures belong to the Section 8 lookup-table construction and to
callers that opt into ``memoize=True``; the default decode and serve paths
must never compute one.  Each test makes ``View.order_signature`` raise and
drives a path end to end, on the gather the root count picks (``auto``)
and on each branch forced.
"""

import pytest

from repro.core.api import solve_with_advice
from repro.graphs import grid
from repro.local import LocalGraph
from repro.local.views import View
from repro.schemas.two_coloring import TwoColoringSchema
from repro.serve import AdviceService


@pytest.fixture
def no_signatures(monkeypatch):
    def refuse(self):
        raise AssertionError("order_signature computed on a default path")

    monkeypatch.setattr(View, "order_signature", refuse)


@pytest.mark.parametrize("engine", ["auto", "scalar", "vectorized"])
def test_solve_decides_without_signatures(no_signatures, force_gather, engine):
    force_gather(engine)
    graph = LocalGraph(grid(24, 24), seed=0)
    run = solve_with_advice("2-coloring", graph)
    assert run.valid
    stats = run.result.stats
    assert stats.decide_calls == graph.n
    assert stats.view_cache_hits == stats.view_cache_misses == 0


@pytest.mark.parametrize("engine", ["auto", "scalar", "vectorized"])
def test_service_answers_without_signatures(no_signatures, force_gather, engine):
    force_gather(engine)
    graph = LocalGraph(grid(24, 24), seed=0)
    service = AdviceService(TwoColoringSchema(spacing=8), graph)
    nodes = sorted(graph.nodes(), key=graph.id_of)
    cold = solve_with_advice("2-coloring", LocalGraph(grid(24, 24), seed=0))
    expected = cold.result.labeling
    assert service.query(nodes[0]).label == expected[nodes[0]]
    for result in service.query_batch(nodes[:64]):
        assert result.label == expected[result.node]
    service.close()
