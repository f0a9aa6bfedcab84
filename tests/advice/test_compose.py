"""Tests for schema composition (Lemma 9.1) and composability checks."""

import pytest

from repro.advice import (
    AdviceError,
    FunctionSchema,
    check_composability,
    compose,
    compose_chain,
)
from repro.advice.schema import AdviceMap, DecodeResult, OracleSchema
from repro.graphs import cycle
from repro.lcl import vertex_coloring
from repro.local import LocalGraph


def _anchor_two_coloring():
    """Pi_1: 2-coloring via a single anchored bit (needs even cycles)."""

    def encode(graph):
        anchor = min(graph.nodes(), key=graph.id_of)
        return {v: ("1" if v == anchor else "") for v in graph.nodes()}

    def decode(graph, advice):
        anchor = next(v for v in graph.nodes() if advice.get(v))
        labeling = {
            v: 1 + int(graph.distance(anchor, v)) % 2 for v in graph.nodes()
        }
        return DecodeResult(labeling=labeling, rounds=graph.n // 2)

    return FunctionSchema("anchored-2col", encode, decode, vertex_coloring(2))


class _ShiftColoring(OracleSchema):
    """Pi_2 given Pi_1: re-label colors with an advice-chosen offset."""

    def __init__(self):
        self.name = "shift"
        self.problem = vertex_coloring(2)

    def encode(self, graph, oracle):
        anchor = min(graph.nodes(), key=graph.id_of)
        return {v: ("1" if v == anchor else "") for v in graph.nodes()}

    def decode(self, graph, advice, oracle):
        shift = 1  # the single advice bit says "swap the two colors"
        labeling = {v: 3 - oracle[v] for v in graph.nodes()}
        return DecodeResult(labeling=labeling, rounds=1)


class TestCompose:
    def test_composed_schema_solves(self):
        g = LocalGraph(cycle(12), seed=1)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        run = composed.run(g)
        assert run.valid is True

    def test_rounds_add(self):
        g = LocalGraph(cycle(12), seed=2)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        result = composed.decode(g, composed.encode(g))
        assert (
            result.rounds
            == result.detail["first_rounds"] + result.detail["second_rounds"]
        )

    def test_advice_merging_is_self_delimiting(self):
        g = LocalGraph(cycle(8), seed=3)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        advice = composed.encode(g)
        holders = [v for v in g.nodes() if advice[v]]
        assert holders  # the anchor carries two packed parts
        # Non-holders carry nothing at all.
        assert all(advice[v] == "" for v in g.nodes() if v not in holders)

    def test_corrupt_packed_advice_raises(self):
        g = LocalGraph(cycle(8), seed=4)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        advice = composed.encode(g)
        holder = next(v for v in g.nodes() if advice[v])
        broken = dict(advice)
        broken[holder] = broken[holder][:-1]  # truncate the packing
        with pytest.raises(AdviceError):
            composed.decode(g, broken)

    def test_compose_chain(self):
        g = LocalGraph(cycle(10), seed=5)
        chained = compose_chain(
            _anchor_two_coloring(), _ShiftColoring(), _ShiftColoring()
        )
        run = chained.run(g)
        assert run.valid is True
        assert "∘" in chained.name

    def test_chain_encode_decodes_each_stage_once(self):
        # A k-stage chain nests composed schemas; each level hands its
        # labeling up, so one encode decodes stages 1..k-1 once each and
        # stage k not at all.
        decodes = {"first": 0, "second": 0, "third": 0}
        anchored = _anchor_two_coloring()

        def counted_decode(graph, advice):
            decodes["first"] += 1
            return anchored.decode(graph, advice)

        class _Counted(_ShiftColoring):
            def __init__(self, key):
                super().__init__()
                self.key = key

            def decode(self, graph, advice, oracle):
                decodes[self.key] += 1
                return super().decode(graph, advice, oracle)

        first = FunctionSchema(
            "anchored-2col", anchored.encode, counted_decode, vertex_coloring(2)
        )
        chained = compose_chain(first, _Counted("second"), _Counted("third"))
        g = LocalGraph(cycle(10), seed=5)
        advice = chained.encode(g)
        assert decodes == {"first": 1, "second": 1, "third": 0}
        result = chained.decode(g, advice)
        assert decodes == {"first": 2, "second": 2, "third": 1}
        handed, labeling = chained.encode_labeled(g)
        assert decodes == {"first": 3, "second": 3, "third": 2}
        assert handed == advice
        assert labeling == result.labeling

    def test_composed_oracle_is_first_schemas_output(self):
        g = LocalGraph(cycle(8), seed=6)
        first = _anchor_two_coloring()
        composed = compose(first, _ShiftColoring())
        result = composed.decode(g, composed.encode(g))
        direct = first.decode(g, first.encode(g)).labeling
        assert result.detail["oracle_labeling"] == direct


class TestMutationRepair:
    def test_node_deletion_patches_first_layer_and_keeps_framing(self):
        # Under churn, the composed hook must unpack both payload layers,
        # let the Pi_1 schema repair its slice, and re-pack without
        # disturbing the Pi_2 layer or the pack_parts framing.
        from repro.advice.bitstream import pack_parts, unpack_parts
        from repro.schemas.two_coloring import TwoColoringSchema

        g = LocalGraph(cycle(12), seed=3)
        composed = compose(TwoColoringSchema(), _ShiftColoring())
        advice = dict(composed.encode(g))

        victim = 6
        sites = g.remove_node(victim)
        advice.pop(victim, None)
        # Strip the Pi_1 layer so the hook has anchors to replant.
        before_part2 = {}
        for v in list(advice):
            packed = advice[v]
            part2 = unpack_parts(packed, 2)[1] if packed else ""
            before_part2[v] = part2
            advice[v] = pack_parts(["", part2]) if part2 else ""

        patched = composed.repair_advice(g, advice, sites, 6)
        assert patched is not None
        replanted = False
        for v in g.nodes():
            packed = patched.get(v, "")
            if not packed:
                assert before_part2[v] == ""
                continue
            part1, part2 = unpack_parts(packed, 2)  # framing preserved
            assert part2 == before_part2[v]  # Pi_2 layer untouched
            replanted = replanted or bool(part1)
        assert replanted  # the Pi_1 slice was actually repaired

    def test_corrupt_packing_near_site_is_blanked(self):
        g = LocalGraph(cycle(10), seed=1)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        advice = dict(composed.encode(g))
        holder = next(v for v in g.nodes() if advice[v])
        advice[holder] = advice[holder][:-1]  # truncate the packing
        patched = composed.repair_advice(g, advice, [holder], 2)
        assert patched is not None
        assert patched[holder] == ""

    def test_corrupt_packing_outside_every_ball_stays_verbatim(self):
        # Bits may only change inside ball(site, radius): a corrupt
        # packing far from the site is not the hook's to touch.
        g = LocalGraph(cycle(40), seed=1)
        composed = compose(_anchor_two_coloring(), _ShiftColoring())
        advice = dict(composed.encode(g))
        inside, outside = 1, 23
        assert inside in g.ball(0, 2) and outside not in g.ball(0, 2)
        advice[inside] = "1"  # truncated length prefix
        advice[outside] = "1"
        patched = composed.repair_advice(g, advice, [0], 2)
        assert patched is not None
        assert patched[inside] == ""
        assert patched[outside] == advice[outside]
        assert {v for v in g.nodes() if patched[v] != advice[v]} <= set(g.ball(0, 2))


class TestComposabilityCheck:
    def test_sparse_holders_pass(self):
        g = LocalGraph(cycle(40), ids={v: v + 1 for v in range(40)})
        advice = {v: "" for v in g.nodes()}
        for v in (0, 20):
            advice[v] = "11"
        assert check_composability(g, advice, alpha=5, gamma0=1, c=4.0, gamma=2)

    def test_crowded_holders_fail(self):
        g = LocalGraph(cycle(40))
        advice = {v: "" for v in g.nodes()}
        for v in (0, 1, 2):
            advice[v] = "1"
        assert not check_composability(
            g, advice, alpha=5, gamma0=1, c=2.0, gamma=2
        )

    def test_beta_bound_enforced(self):
        g = LocalGraph(cycle(40))
        advice = {v: "" for v in g.nodes()}
        advice[0] = "1" * 50  # way over c * alpha / gamma^3
        assert not check_composability(
            g, advice, alpha=5, gamma0=2, c=1.0, gamma=2
        )


class TestComposabilityWitness:
    """Declaring Lemma 5.1's parameters as a witness and sweeping it."""

    def test_orientation_witness_sweep(self):
        from repro.advice import ComposabilityWitness
        from repro.schemas import composable_orientation_schema

        witness = ComposabilityWitness(
            gamma0=2,
            A=lambda c, gamma: max(
                int(gamma**3 * 2 / max(c, 1e-9)), gamma**3 * 2
            ),
            T=lambda alpha, delta: max(2, delta) ** (12 * alpha),
        )
        c, gamma = 1.0, 2
        alpha = witness.A(c, gamma)
        schema = composable_orientation_schema(c, gamma, alpha)
        g = LocalGraph(cycle(40 * alpha), seed=7)
        advice = schema.encode(g)
        assert check_composability(
            g, advice, alpha=alpha, gamma0=witness.gamma0, c=c, gamma=gamma
        )
        # The declared T bound dwarfs the measured rounds, as it should.
        assert schema.decode(g, advice).rounds <= witness.T(alpha, 2)
