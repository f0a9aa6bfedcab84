"""The Section 5 orientation decoder as explicit message passing.

:class:`BalancedOrientationSchema` simulates its decoder through the view
semantics (each node inspects its trail out to ``walk_limit``).  This
module implements the same decoder as a genuine synchronous protocol, the
way it would run on real hardware:

* **round 0** — neighbors exchange identifiers (ports are sorted by
  neighbor identifier, so the partner pairing becomes locally computable);
* **probe phase** (``<= walk_limit`` rounds) — every node launches one
  probe per incident directed edge; a probe arriving at ``b`` along
  ``a -> b`` is forwarded to ``partner_b(a)``, accumulating the walked
  edge list, the identifiers, and the advice bits it passes; a probe halts
  on trail endpoints, on closing its cycle, or on exhausting its budget;
* **echo phase** (``<= walk_limit`` rounds) — halted probes retrace their
  recorded path back to the origin;
* **decision** — the origin applies exactly the schema's rules (canonical
  direction for fully-seen trails, anchor bits otherwise) using only the
  information its probes carried home; every node outputs at the fixed
  final round ``2 * walk_limit + 3`` (a node may be done with its own
  probes earlier but must stay up to forward other nodes' traffic).

The test suite asserts the protocol's outputs equal
:meth:`BalancedOrientationSchema.decode`'s, edge for edge, which certifies
that the view-based simulation is an honest stand-in for a distributed
execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..advice.schema import InvalidAdvice
from ..local.graph import LocalGraph, Node
from ..local.model import MessagePassingAlgorithm, run_message_passing

Edge = Tuple[int, int]  # identifier pairs inside probe records


@dataclass
class _Probe:
    """A trail walker owned by ``origin`` (an identifier)."""

    origin: int
    #: (port index at the origin, walk direction tag): "fwd" probes
    #: walk(v, u), "bwd" probes walk(u, v), both owned by v.
    key: Tuple[int, str]
    #: directed edges walked so far, as identifier pairs
    edges: List[Edge]
    #: advice bits of every node the probe has visited
    advice: Dict[int, str]
    #: appends still allowed (mirrors walk_from_edge's max_steps)
    budget: int
    status: str = "walking"  # walking | endpoint | closed | truncated
    #: identifiers to retrace during the echo phase
    trail_home: List[int] = field(default_factory=list)


def _partner_id(sorted_neighbor_ids: Sequence[int], via: int) -> Optional[int]:
    """The paired port of ``via`` among the given sorted neighbor ids."""
    port = sorted_neighbor_ids.index(via)
    if port == len(sorted_neighbor_ids) - 1 and len(sorted_neighbor_ids) % 2 == 1:
        return None
    mate = port + 1 if port % 2 == 0 else port - 1
    return sorted_neighbor_ids[mate]


def _canonical_cycle_forward_ids(cycle_edges: Sequence[Edge]) -> bool:
    star = min(cycle_edges, key=lambda e: (min(e), max(e)))
    return star[0] < star[1]


def _canonical_open_forward_ids(full_edges: Sequence[Edge]) -> bool:
    return full_edges[0][0] < full_edges[-1][1]


def _find_anchor_ids(
    advice: Mapping[int, str], walked: Sequence[Edge]
) -> Optional[Tuple[Edge, Edge]]:
    for (x, y) in walked:
        bits_x = advice.get(x, "")
        bits_y = advice.get(y, "")
        if len(bits_x) == 2 and len(bits_y) == 1:
            tail, head, dir_bit = x, y, bits_x[1]
        elif len(bits_y) == 2 and len(bits_x) == 1:
            tail, head, dir_bit = y, x, bits_y[1]
        else:
            continue
        oriented = (tail, head) if dir_bit == "1" else (head, tail)
        return oriented, (x, y)
    return None


def decide_edge_orientation(
    my_id: int,
    neighbor_id: int,
    fwd: Sequence[Edge],
    fstat: str,
    bwd: Sequence[Edge],
    bstat: str,
    advice: Mapping[int, str],
    walk_limit: int,
) -> bool:
    """Mirror of ``BalancedOrientationSchema.decode``'s per-edge rule on
    identifiers.

    Returns whether the edge is oriented ``my_id -> neighbor_id``.
    """
    if fstat == "closed":
        return _canonical_cycle_forward_ids(fwd)
    if fstat == "endpoint" and bstat == "endpoint":
        full = [(b, a) for (a, b) in reversed(list(bwd)[1:])] + list(fwd)
        if len(full) <= walk_limit:
            return _canonical_open_forward_ids(full)
    found = _find_anchor_ids(advice, fwd)
    if found is not None:
        oriented, walked_as = found
        return oriented == walked_as
    found = _find_anchor_ids(advice, bwd)
    if found is not None:
        oriented, walked_as = found
        return oriented != walked_as
    raise InvalidAdvice(
        f"edge ({my_id}, {neighbor_id}): no anchor within {walk_limit} steps"
    )


class OrientationMessagePassing(MessagePassingAlgorithm):
    """Probe/echo protocol computing the per-port orientation labels."""

    def __init__(self, walk_limit: int) -> None:
        super().__init__()
        self.walk_limit = walk_limit
        self.final_round = 2 * walk_limit + 3
        self.neighbor_ids: Dict[int, int] = {}  # port -> neighbor id
        self.sorted_ids: List[int] = []
        self.results: Dict[Tuple[int, str], _Probe] = {}
        self.pending: List[Tuple[int, _Probe]] = []  # (destination id, probe)

    # -- launch --------------------------------------------------------------

    def _launch_probes(self) -> None:
        me = self.ctx.node_id
        for direction in ("fwd", "bwd"):
            for port, nid in enumerate(self.sorted_ids):
                probe = _Probe(
                    origin=me,
                    key=(port, direction),
                    edges=[],
                    advice={me: self.ctx.advice},
                    budget=self.walk_limit,
                )
                if direction == "fwd":
                    # walk(me, nid): record the first edge, deliver to nid.
                    probe.edges.append((me, nid))
                    probe.trail_home = [me]
                    self._queue(nid, probe)
                else:
                    # walk(nid, me): the first edge (nid -> me) ends here;
                    # continue via my own pairing immediately (one append).
                    probe.edges.append((nid, me))
                    nxt = _partner_id(self.sorted_ids, nid)
                    if nxt is None:
                        probe.status = "endpoint"
                        self.results[probe.key] = probe
                        continue
                    if (me, nxt) == probe.edges[0]:
                        probe.status = "closed"  # 2-cycle: impossible in
                        self.results[probe.key] = probe  # simple graphs
                        continue
                    probe.edges.append((me, nxt))
                    probe.budget -= 1
                    probe.trail_home = [me]
                    self._queue(nxt, probe)

    def _queue(self, destination_id: int, probe: _Probe) -> None:
        self.pending.append((destination_id, probe))

    # -- protocol ------------------------------------------------------------

    def send(self, round_index: int) -> Dict[int, object]:
        if round_index == 0:
            return {
                port: ("id", self.ctx.node_id)
                for port in range(self.ctx.degree)
            }
        outbox: Dict[int, List[_Probe]] = {}
        for destination_id, probe in self.pending:
            port = self.sorted_ids.index(destination_id)
            # Port order == sorted-id order by the LocalGraph convention.
            outbox.setdefault(port, []).append(probe)
        self.pending = []
        return {port: ("probes", probes) for port, probes in outbox.items()}

    def receive(self, round_index: int, messages: Dict[int, object]) -> None:
        if round_index == 0:
            for port, (_tag, nid) in messages.items():
                self.neighbor_ids[port] = nid
            self.sorted_ids = sorted(self.neighbor_ids.values())
            self._launch_probes()
        else:
            for _port, (tag, probes) in messages.items():
                for probe in probes:
                    if probe.status == "walking":
                        self._advance(probe)
                    else:
                        self._echo(probe)
        if round_index >= self.final_round:
            self._finalize()

    def _advance(self, probe: _Probe) -> None:
        """The probe just arrived here along its last recorded edge."""
        me = self.ctx.node_id
        came_from = probe.edges[-1][0]
        probe.advice[me] = self.ctx.advice
        if probe.budget <= 0:
            probe.status = "truncated"
            self._echo(probe)
            return
        nxt = _partner_id(self.sorted_ids, came_from)
        if nxt is None:
            probe.status = "endpoint"
            self._echo(probe)
            return
        if (me, nxt) == probe.edges[0]:
            probe.status = "closed"
            self._echo(probe)
            return
        probe.edges.append((me, nxt))
        probe.budget -= 1
        probe.trail_home.append(me)
        self._queue(nxt, probe)

    def _echo(self, probe: _Probe) -> None:
        me = self.ctx.node_id
        if me == probe.origin:
            self.results[probe.key] = probe
            return
        if not probe.trail_home:
            raise InvalidAdvice("echo lost its way — protocol bug")
        self._queue(probe.trail_home.pop(), probe)

    def _finalize(self) -> None:
        expected = 2 * self.ctx.degree
        if len(self.results) < expected:
            raise InvalidAdvice(
                f"node {self.ctx.node!r}: only {len(self.results)} of "
                f"{expected} probes returned by the final round"
            )
        labels: List[int] = []
        for port, nid in enumerate(self.sorted_ids):
            fwd_probe = self.results[(port, "fwd")]
            bwd_probe = self.results[(port, "bwd")]
            advice: Dict[int, str] = {}
            advice.update(bwd_probe.advice)
            advice.update(fwd_probe.advice)
            forward = decide_edge_orientation(
                self.ctx.node_id,
                nid,
                fwd_probe.edges,
                fwd_probe.status,
                bwd_probe.edges,
                bwd_probe.status,
                advice,
                self.walk_limit,
            )
            labels.append(1 if forward else -1)
        self.output = tuple(labels)


def run_orientation_protocol(
    graph: LocalGraph,
    advice: Mapping[Node, str],
    walk_limit: int,
    max_rounds: int = 100_000,
):
    """Execute the probe/echo protocol; returns a RunResult whose outputs
    are per-port orientation tuples, like the schema decoder's labeling."""
    return run_message_passing(
        graph,
        lambda: OrientationMessagePassing(walk_limit),
        advice=advice,
        max_rounds=max_rounds,
    )
