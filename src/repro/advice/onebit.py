"""Variable-length sparse advice -> uniform 1-bit advice (Lemma 9.2).

The paper's conversion lemma turns a variable-length schema whose
bit-holding nodes are few and far apart into a schema handing every node a
*single* bit.  The mechanism (used verbatim inside Section 4 and echoed in
Sections 6–7) writes each holder's bit-string along a shortest path starting
at the holder, using the self-delimiting marker code of
:mod:`repro.advice.bitstream`; every node off the paths gets ``0``.

Decoding exploits shortest paths: when ``P = (p_0, p_1, ...)`` is a
shortest path from ``p_0``, node ``p_j`` is at distance exactly ``j`` from
``p_0``, so the stream can be *read off the BFS spheres* of the start node —
``s_j = 1`` iff the sphere at distance ``j`` contains a 1-bit node.  The
sphere-uniqueness condition (at most one 1-node per sphere, paper Section 4,
"Decoding the clustering") plus the header/terminator structure make genuine
starts parse and interior nodes fail.  The encoder *verifies* these
conditions globally and raises when the caller placed holders too close
together, so a successful encode certifies decodability.

Decoding takes two rounds.  Round A (:func:`payload_table`): every 1-node
parses its own radius-``window`` stream, once.  Round B: every node looks
the payloads of its ball up in that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..algorithms.bfs import path_at_distance
from ..local.graph import LocalGraph, Node
from .bitstream import encode_payload, read_marker_stream
from .schema import AdviceError, AdviceMap, AdviceSchema


@dataclass
class OneBitLayout:
    """Result of laying variable-length payloads out as single bits.

    ``bits`` maps *every* node to ``"0"`` or ``"1"`` (a uniform fixed-length
    1-bit advice map).  ``window`` is the scan radius both sides agree on.
    """

    bits: AdviceMap
    window: int

    def ones(self) -> int:
        return sum(1 for b in self.bits.values() if b == "1")


def required_window(payloads: Mapping[Node, str]) -> int:
    """Smallest window accommodating every payload's marker code."""
    return max((len(encode_payload(p)) for p in payloads.values()), default=1)


def encode_paths(
    graph: LocalGraph,
    payloads: Mapping[Node, str],
    window: Optional[int] = None,
) -> OneBitLayout:
    """Lay out ``payloads`` (holder -> bit-string) as one bit per node.

    Requirements on the caller (checked, not assumed):

    * every holder must have some node at distance ``len(code) - 1`` (its
      component is large enough to host the path);
    * holders must be separated: within distance ``window`` of a holder,
      the only 1-bits are its own code path.  Callers achieve this by
      placing holders on a ruling set of spacing ``>= 2 * window + 2`` —
      exactly what composability (Definition 3.4) provides.

    Raises :class:`AdviceError` when a requirement fails.
    """
    codes = {v: encode_payload(p) for v, p in payloads.items()}
    needed = max((len(c) for c in codes.values()), default=1)
    if window is None:
        window = needed
    if window < needed:
        raise AdviceError(f"window {window} < longest code {needed}")

    bits: AdviceMap = {v: "0" for v in graph.nodes()}
    for holder in sorted(codes, key=graph.id_of):
        code = codes[holder]
        path = path_at_distance(graph.graph, holder, len(code) - 1)
        if path is None:
            raise AdviceError(
                f"holder {holder!r}: component too small for a "
                f"{len(code)}-node code path"
            )
        for node, bit in zip(path, code):
            if bit == "1":
                bits[node] = "1"

    _verify_layout(graph, codes, bits, window)
    return OneBitLayout(bits=bits, window=window)


def _verify_layout(
    graph: LocalGraph,
    codes: Mapping[Node, str],
    bits: Mapping[Node, str],
    window: int,
) -> None:
    """Certify decodability: every holder's stream reads back its own code.

    Each code path is a shortest path from its holder, so this holds iff
    the spheres around the holder carry exactly its code — at most one
    1-node per sphere, zeros beyond.
    """
    table = payload_table(graph, bits, window)
    for holder, code in codes.items():
        payload = table.get(holder)
        if payload is None or encode_payload(payload) != code:
            raise AdviceError(
                f"holder {holder!r}: its spheres do not read back its code; "
                f"holders are too close together for window {window}"
            )


def payload_table(
    graph: LocalGraph, bits: Mapping[Node, str], window: int
) -> Dict[Node, str]:
    """Round A of the decode: every 1-node parses its own marker stream.

    One batched radius-``window`` gather over the 1-nodes, one
    ``bincount`` of 1-bits per ``(start, distance)``, and
    :func:`~repro.advice.bitstream.read_marker_stream` per row.  Returns
    ``start -> payload`` for every start whose stream parses; interior
    path nodes fail the reader (see module docstring), so each payload
    appears once, at its genuine start.  Round B is a lookup: a node
    finds the payloads in its ball by looking its ball's nodes up here.
    """
    import numpy as np

    from ..local.vectorized import gather_ball_batch

    compiled = graph.compiled
    nodes = compiled.nodes
    ones = np.fromiter(
        (bits.get(v) == "1" for v in nodes), dtype=bool, count=compiled.n
    )
    roots = np.flatnonzero(ones)
    batch = gather_ball_batch(graph, window, roots=roots)
    depth = window + 1
    owner = np.repeat(np.arange(roots.size), np.diff(batch.ball_indptr))
    hit = ones[batch.ball_nodes]
    counts = np.bincount(
        owner[hit] * depth + batch.ball_dists[hit],
        minlength=roots.size * depth,
    ).reshape(roots.size, depth)
    table: Dict[Node, str] = {}
    for i, row in zip(roots.tolist(), counts.tolist()):
        payload = read_marker_stream(row)
        if payload is not None:
            table[nodes[i]] = payload
    return table


class OneBitConversion(AdviceSchema):
    """Lemma 9.2 as a generic wrapper: variable-length schema -> 1 bit/node.

    Wraps any :class:`~repro.advice.schema.AdviceSchema` whose encoder
    produces *separated* holders (pairwise distance ``> 2 * window + 2``;
    :func:`encode_paths` verifies this and raises otherwise).  The wrapped
    encoder lays each holder's bit-string out as a marker-coded path; the
    wrapped decoder re-extracts the variable-length advice from the single
    bits and delegates to the original decoder, charging the extra
    ``window`` rounds the extraction costs.

    This is the library realization of the paper's "then, again as a black
    box, we convert such a schema into a uniform fixed-length schema that
    uses a single bit per node".
    """

    def __init__(self, inner, window: Optional[int] = None) -> None:
        if not isinstance(inner, AdviceSchema):
            raise TypeError("OneBitConversion wraps an AdviceSchema")
        self.inner = inner
        self.name = f"one-bit[{inner.name}]"
        self.problem = inner.problem
        self._window = window

    def window_for(self, payloads: Mapping[Node, str]) -> int:
        return self._window or required_window(payloads)

    def encode(self, graph: LocalGraph):
        inner_advice = self.inner.encode(graph)
        payloads = {v: bits for v, bits in inner_advice.items() if bits}
        layout = encode_paths(graph, payloads, window=self.window_for(payloads))
        return dict(layout.bits)

    def decode(self, graph: LocalGraph, advice: Mapping[Node, str]):
        window = self._window
        if window is None:
            # Decoders only see the advice, so the scan radius must be
            # agreed up front — both sides construct with the same window.
            raise AdviceError(
                "OneBitConversion needs an explicit window to decode "
                "(pass window= at construction; both sides must agree)"
            )
        reconstructed: Dict[Node, str] = {v: "" for v in graph.nodes()}
        reconstructed.update(payload_table(graph, advice, window))
        result = self.inner.decode(graph, reconstructed)
        result.rounds += window
        return result

    def check_solution(self, graph: LocalGraph, labeling) -> bool:
        return self.inner.check_solution(graph, labeling)

    def find_violations(self, graph: LocalGraph, labeling):
        return self.inner.find_violations(graph, labeling)
