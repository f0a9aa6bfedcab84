"""Composition of advice schemas (Lemma 9.1 of the paper).

Given (1) a schema solving ``Pi_1`` and (2) a schema solving ``Pi_2``
*assuming an oracle* for ``Pi_1``, composition yields a schema solving
``Pi_2`` outright: the encoder runs the ``Pi_1`` decode itself (decoders are
deterministic, so encoder and decoder reconstruct the same oracle), then
asks the second schema for advice relative to that oracle, and merges the
two advice maps with the self-delimiting packing of
:func:`repro.advice.bitstream.pack_parts`.

A chain ``compose_chain(s1, o2, ..., ok)`` nests composed schemas.  Each
level hands its stage labeling to the level above
(:meth:`ComposedSchema.encode_labeled`), so one encode decodes every stage
but the last exactly once; the last stage's labeling is the decoder's job.
Unpacking is lossless, so the labeling handed forward is the one the
decoder rebuilds from the packed advice.

Composability in the formal sense of Definition 3.4 additionally constrains
*where* bits may sit (at most ``gamma_0`` holders per alpha-ball, each
holding ``<= c * alpha / gamma^3`` bits).  :func:`check_composability`
measures a concrete advice map against those constraints;
:class:`ComposabilityWitness` records a schema family's claimed parameters
so benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..lcl.problem import Label
from ..local.graph import LocalGraph, Node
from .bitstream import CodecError, pack_parts, unpack_parts
from .schema import (
    AdvicePatch,
    AdviceMap,
    AdviceSchema,
    DecodeResult,
    InvalidAdvice,
    LocalityContract,
    OracleSchema,
    repair_region,
)
from .sparsity import max_holders_in_ball


class ComposedSchema(AdviceSchema):
    """``compose(first, second)``: a ``Pi_2`` schema from a ``Pi_1`` schema
    and a ``Pi_2``-given-``Pi_1`` oracle schema."""

    def __init__(
        self,
        first: AdviceSchema,
        second: OracleSchema,
        name: Optional[str] = None,
    ) -> None:
        self.first = first
        self.second = second
        self.name = name or f"{second.name}∘{first.name}"
        self.problem = second.problem

    def locality_contract(self, graph: LocalGraph) -> Optional[LocalityContract]:
        """Contracts compose additively: the decoder runs both stages in
        sequence, and the encoder packs both payloads with the ``2b + 1``
        self-delimiting overhead of :func:`pack_parts` per part."""
        first = self.first.locality_contract(graph)
        second = self.second.locality_contract(graph)
        if first is None or second is None:
            return None
        return LocalityContract(
            radius=first.radius + second.radius,
            advice_bits=(2 * first.advice_bits + 1) + (2 * second.advice_bits + 1),
        )

    def encode(self, graph: LocalGraph) -> AdviceMap:
        """Pack both stages' advice.  The oracle comes from ``first``'s
        :meth:`~repro.advice.schema.AdviceSchema.encode_labeled`, so each
        stage inside ``first`` is decoded once and ``second`` not at all."""
        advice1, oracle = self.first.encode_labeled(graph)
        advice2 = self.second.encode(graph, oracle)
        merged: AdviceMap = {}
        for v in graph.nodes():
            parts = [advice1.get(v, ""), advice2.get(v, "")]
            merged[v] = pack_parts(parts) if any(parts) else ""
        return merged

    def encode_labeled(self, graph: LocalGraph) -> Tuple[AdviceMap, Dict[Node, Label]]:
        """:meth:`encode`, plus the ``Pi_2`` labeling :meth:`decode` would
        return: ``second`` decoded once on its own advice and the oracle
        ``first`` handed forward, instead of both stages decoded again."""
        advice1, oracle = self.first.encode_labeled(graph)
        advice2 = self.second.encode(graph, oracle)
        labeling = self.second.decode(graph, advice2, oracle).labeling
        merged: AdviceMap = {}
        for v in graph.nodes():
            parts = [advice1.get(v, ""), advice2.get(v, "")]
            merged[v] = pack_parts(parts) if any(parts) else ""
        return merged, labeling

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]) -> DecodeResult:
        advice1: AdviceMap = {}
        advice2: AdviceMap = {}
        for v in graph.nodes():
            packed = advice.get(v, "")
            if not packed:
                advice1[v] = ""
                advice2[v] = ""
                continue
            try:
                part1, part2 = unpack_parts(packed, 2)
            except Exception as exc:  # CodecError and friends
                raise InvalidAdvice(
                    f"corrupt composed advice at {v!r}", node=v
                ) from exc
            advice1[v] = part1
            advice2[v] = part2
        result1 = self.first.decode(graph, advice1)
        result2 = self.second.decode(graph, advice2, result1.labeling)
        return DecodeResult(
            labeling=result2.labeling,
            rounds=result1.rounds + result2.rounds,
            detail={
                "first_rounds": result1.rounds,
                "second_rounds": result2.rounds,
                "oracle_labeling": result1.labeling,
            },
        )

    def repair_advice(
        self,
        graph: LocalGraph,
        advice: Mapping[Node, str],
        sites: Sequence[Node],
        radius: int,
        labeling: Optional[Mapping[Node, object]] = None,
    ) -> Optional[AdviceMap]:
        """Structure-preserving repair of packed composed advice.

        Within :func:`repair_region` only: blank packings that no longer
        parse, let ``first`` repair its ``Pi_1`` slice through its own
        hook, then re-pack with the original :func:`pack_parts` framing.
        ``first`` always repairs blind — a maintained ``labeling`` solves
        ``Pi_2``, so it is not forwarded.  An empty string reads as "no
        parts at either level", which every layer of the composition
        accepts, so blanking is always a safe (if lossy) local rewrite;
        missing anchors that result are caught by the verifier and healed
        downstream.  Nodes outside the balls keep their bytes verbatim.
        """
        region = repair_region(graph, sites, radius)
        patched = AdvicePatch(advice)
        parts = {}
        for v in region:
            packed = advice.get(v, "")
            try:
                parts[v] = unpack_parts(packed, 2) if packed else ["", ""]
            except CodecError:
                parts[v] = ["", ""]
                patched[v] = ""
        advice1 = {v: part1 for v, (part1, _) in parts.items()}
        patched1 = self.first.repair_advice(graph, advice1, sites, radius)
        if patched1 is not None:
            for v in region:
                part1, part2 = patched1.get(v, ""), parts[v][1]
                if part1 != advice1[v]:
                    patched[v] = pack_parts([part1, part2]) if part1 or part2 else ""
        return patched.result()


def compose(first: AdviceSchema, second: OracleSchema) -> ComposedSchema:
    """Lemma 9.1, binary form."""
    return ComposedSchema(first, second)


def compose_chain(first: AdviceSchema, *rest: OracleSchema) -> AdviceSchema:
    """Left fold of :func:`compose` over a pipeline of oracle schemas.

    ``compose_chain(s1, o2, o3)`` solves ``o3``'s problem using ``o2``'s
    solution, which in turn used ``s1``'s — the "schemas as subroutines"
    workflow of Section 1.8.
    """
    schema: AdviceSchema = first
    for oracle_schema in rest:
        schema = ComposedSchema(schema, oracle_schema)
    return schema


# ---------------------------------------------------------------------------
# Definition 3.4 measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComposabilityWitness:
    """Claimed parameters of a composable schema family (Definition 3.4).

    ``gamma0``: the ball-holder bound; ``A(c, gamma)``: the minimum alpha;
    ``T(alpha, delta)``: the decode round bound.  Benchmarks instantiate a
    schema at several ``(c, gamma, alpha)`` triples and call
    :func:`check_composability` on the advice it produced.
    """

    gamma0: int
    A: Callable[[float, int], int]
    T: Callable[[int, int], int]


def check_composability(
    graph: LocalGraph,
    advice: Mapping[Node, str],
    alpha: int,
    gamma0: int,
    c: float,
    gamma: int,
) -> bool:
    """Does this advice map satisfy the Definition 3.4 constraints?

    * at most ``gamma0`` bit-holding nodes in every alpha-radius ball, and
    * every node holds at most ``beta <= c * alpha / gamma^3`` bits.
    """
    holders, _ = max_holders_in_ball(graph, advice, alpha)
    if holders > gamma0:
        return False
    beta_bound = c * alpha / (gamma**3)
    beta = max((len(advice.get(v, "")) for v in graph.nodes()), default=0)
    return beta <= beta_bound
