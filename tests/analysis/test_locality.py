"""The locality certifier: declared == static >= witness, per schema.

The certificate chain has two failure directions with different costs.
An *understated* contract (static > declared) means the paper-facing
(T, beta) columns lie, so LOC101/LOC102 must reject it — pinned here on
the seeded over-reaching fixture.  An *unsound* static pass (witness >
static) would let a decoder quietly out-reach its certified radius, so
the dominance invariants are asserted over every registered schema on
its standard instance.
"""

import json
from typing import Dict, Mapping

import pytest

from repro.advice.schema import (
    AdviceMap,
    AdviceSchema,
    DecodeResult,
    LocalityContract,
)
from repro.analysis.fixtures import overreaching_instance
from repro.analysis.locality import (
    LocalityCertificate,
    certify_all,
    certify_main,
    certify_schema,
    infer_static_bounds,
)
from repro.core.api import available_schemas
from repro.graphs.generators import cycle
from repro.local.algorithm import LocalityTracker
from repro.local.graph import LocalGraph, Node


@pytest.fixture(scope="module")
def certificates():
    """One certification sweep over the registry's standard instances."""
    return {c.schema: c for c in certify_all(n=64, seed=3)}


class TestRegistryCertifies:
    def test_every_schema_has_a_certificate(self, certificates):
        assert set(certificates) == set(available_schemas())

    def test_every_schema_passes(self, certificates):
        failed = {
            name: [f.format() for f in cert.findings]
            for name, cert in certificates.items()
            if not cert.passed
        }
        assert failed == {}

    def test_declared_equals_static(self, certificates):
        for cert in certificates.values():
            assert cert.declared_radius == cert.static_radius, cert.schema
            assert (
                cert.declared_advice_bits == cert.static_advice_bits
            ), cert.schema

    def test_witness_dominated_by_static(self, certificates):
        for cert in certificates.values():
            assert cert.witness_radius is not None, cert.schema
            assert cert.witness_radius <= cert.static_radius, cert.schema
            assert (
                cert.witness_advice_bits <= cert.static_advice_bits
            ), cert.schema


class TestFixtureRejection:
    def test_overreaching_fixture_fails_both_rules(self):
        schema, graph = overreaching_instance()
        cert = certify_schema("overreaching-fixture", schema, graph)
        assert not cert.passed
        rules = {f.rule for f in cert.findings}
        assert {"LOC101", "LOC102"} <= rules

    def test_findings_attributed_to_fixture_source(self):
        schema, graph = overreaching_instance()
        cert = certify_schema("overreaching-fixture", schema, graph)
        for finding in cert.findings:
            assert finding.path.endswith("fixtures.py"), finding.format()
            assert "OverreachingSchema" in finding.function

    def test_static_pass_alone_catches_the_fixture(self):
        # The gate must not depend on the dynamic run: a dishonest
        # contract is rejected even with run_dynamic=False.
        schema, graph = overreaching_instance()
        cert = certify_schema(
            "overreaching-fixture", schema, graph, run_dynamic=False
        )
        rules = {f.rule for f in cert.findings}
        assert {"LOC101", "LOC102"} <= rules

    def test_static_bounds_on_fixture_are_the_true_costs(self):
        schema, graph = overreaching_instance()
        bounds = infer_static_bounds(schema, graph)
        assert bounds.radius == 3
        assert bounds.advice_bits == 3


class _UnboundedSchema(AdviceSchema):
    """A decoder whose traversal depends on runtime data: no closed form."""

    def __init__(self) -> None:
        self.name = "unbounded-fixture"
        self.problem = None

    def locality_contract(self, graph: LocalGraph) -> LocalityContract:
        return LocalityContract(radius=1, advice_bits=1)

    def encode(self, graph: LocalGraph) -> AdviceMap:
        return {v: "1" for v in graph.nodes()}

    def decode(
        self, graph: LocalGraph, advice: Mapping[Node, str]
    ) -> DecodeResult:
        tracker = LocalityTracker(graph)
        labeling: Dict[Node, int] = {}
        for v in graph.nodes():
            bits = advice.get(v, "")
            tracker.charge(len(bits))  # data-dependent: not bounded
            labeling[v] = 0
        return DecodeResult(labeling=labeling, rounds=tracker.rounds)


class TestUnboundedTraversal:
    def test_loc103_when_no_bound_closes(self):
        schema = _UnboundedSchema()
        graph = LocalGraph(cycle(8))
        bounds = infer_static_bounds(schema, graph)
        assert bounds.radius is None
        cert = certify_schema("unbounded-fixture", schema, graph)
        assert any(f.rule == "LOC103" for f in cert.findings)


class TestCertificateShape:
    def test_frozen(self, certificates):
        cert = next(iter(certificates.values()))
        with pytest.raises(Exception):
            cert.schema = "other"

    def test_as_dict_round_trips_through_json(self, certificates):
        for cert in certificates.values():
            blob = json.loads(json.dumps(cert.as_dict()))
            assert blob["passed"] is True
            assert blob["schema"] == cert.schema
            assert blob["declared_radius"] == cert.declared_radius
            assert blob["findings"] == []

    def test_format_row_states_the_verdict(self, certificates):
        for cert in certificates.values():
            row = cert.format_row()
            assert "[ok]" in row
            assert cert.schema in row

    def test_failed_certificate_formats_fail(self):
        schema, graph = overreaching_instance()
        cert = certify_schema("overreaching-fixture", schema, graph)
        row = cert.format_row()
        assert "[FAIL]" in row
        assert not cert.passed


class TestCli:
    def test_selftest_exit_zero(self, capsys):
        assert certify_main(["--selftest"]) == 0
        out = capsys.readouterr().out
        assert "LOC101" in out and "LOC102" in out
        assert "[ok]" in out.splitlines()[-1]

    def test_json_output_parses(self, capsys):
        assert certify_main(["--schema", "2-coloring", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert len(blob) == 1
        assert blob[0]["schema"] == "2-coloring"
        assert blob[0]["passed"] is True

    def test_text_output_summarizes(self, capsys):
        assert certify_main(["--schema", "2-coloring"]) == 0
        out = capsys.readouterr().out
        assert "1/1 schemas certified" in out


class TestSharedMemo:
    def test_freed_schema_address_never_serves_a_stale_bound(self):
        # Decoders build temporary sub-schemas that the interpreter frees;
        # a later schema can then land at a freed address.  A memo keyed
        # on bare ids handed it the freed schema's bound.
        from repro.analysis.locality import _infer_radius
        from repro.schemas import TwoColoringSchema

        graph = LocalGraph(cycle(64), seed=3)
        spacings = range(8, 38)
        want = {
            s: infer_static_bounds(TwoColoringSchema(spacing=s), graph).radius
            for s in spacings
        }
        assert len(set(want.values())) == len(spacings)
        memo: dict = {}
        stale = []
        for i in range(400):
            s = spacings[i % len(spacings)]
            got = _infer_radius(TwoColoringSchema(spacing=s), graph, memo)
            if got != want[s]:
                stale.append((s, got))
        assert stale == []


class TestSourceChangedSinceImport:
    """``inspect.getsource`` reads the file on disk; after an edit, the
    imported function's first line points into other code."""

    @staticmethod
    def _edited_source(func):
        # What the lines at a decoder's old position hold after an edit.
        return "def _moved_here(self, graph, advice):\n    return None\n"

    def test_stale_source_is_reported_as_such(self, monkeypatch):
        import inspect

        from repro.analysis.locality import SourceChangedError
        from repro.schemas import TwoColoringSchema

        schema = TwoColoringSchema()
        graph = LocalGraph(cycle(16), seed=3)
        monkeypatch.setattr(inspect, "getsource", self._edited_source)
        with pytest.raises(SourceChangedError, match="changed since import"):
            infer_static_bounds(schema, graph)
        cert = certify_schema("two-coloring", schema, graph)
        messages = [f.message for f in cert.findings]
        assert not cert.passed
        assert any("changed since import" in m for m in messages), messages
        assert any("TwoColoringSchema.decode" in m for m in messages), messages
        assert not any("not statically bounded" in m for m in messages), messages
        assert cert.static_radius is None and cert.static_advice_bits is None
