"""Bits-on-wire accounting: LOCAL vs CONGEST as policies over one engine.

The LOCAL model ignores message size; CONGEST caps every edge at
``B * ceil(log2 n)`` bits per round (Peleg's standard parameterization,
``B = 1`` unless stated).  The engine historically simulated LOCAL only,
which made communication *invisible*: the Def. 3.2 telemetry (β, rounds,
bits per node) had no bits-on-wire column, and nothing could say whether
a schema's decoder would survive a bandwidth-bounded network.

This module makes the model split explicit and observable:

* :func:`measure_bits` — the canonical bit-size encoder for message
  payloads (ints, bit-strings, tuples, dataclasses, ...), with the
  type→sizer resolution cached per message class;
* :class:`BandwidthPolicy` — :data:`LOCAL` (unbounded, record only),
  :func:`CONGEST` (``B·⌈log n⌉`` bits per edge per round, overflow is a
  hard error) and :data:`OFF` (no metering at all, for overhead A/B);
  the ambient policy flows through :func:`use_bandwidth_policy`;
* :class:`BandwidthMeter` — per-``(edge, round)`` charging used by
  :func:`repro.local.run_message_passing`; a CONGEST overflow raises a
  :class:`BandwidthExceeded` attributed to node/edge/round/bits;
* :class:`BandwidthProfile` — the aggregate: total bits-on-wire,
  per-round and per-edge histograms (p50/p95 via
  :meth:`repro.obs.metrics.Histogram.quantile`), hotspot edges, and the
  minimal CONGEST budget that would have fit the run;
* :func:`flooding_bandwidth` — the *flooding-equivalent* accounting for
  view-semantics runs: a ``T``-round LOCAL algorithm is realized
  canonically by incremental flooding (each node forwards, in round
  ``t``, the records it learned in round ``t-1``, i.e. its distance-
  ``(t-1)`` layer), so its bits-on-wire is a pure function of
  ``(graph, T, advice)`` — independent of which gather (scalar or
  vectorized) produced the outputs.

Canonical record encoding (what one node's flooded record costs): its
identifier (``⌈log n⌉`` bits), its port-ordered adjacency list
(``deg·⌈log n⌉`` bits — enough to reconstruct every ball edge), its
advice bit-string verbatim, and its input through :func:`measure_bits`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, is_dataclass
from itertools import repeat
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .metrics import histogram_of, sorted_histogram

__all__ = [
    "BandwidthExceeded",
    "BandwidthMeter",
    "BandwidthPolicy",
    "BandwidthProfile",
    "CONGEST",
    "LOCAL",
    "OFF",
    "current_bandwidth_policy",
    "flooding_bandwidth",
    "id_bits",
    "measure_bits",
    "parse_policy",
    "use_bandwidth_policy",
]


def id_bits(n: int) -> int:
    """Bits of one identifier in an ``n``-node graph: ``max(1, ⌈log2 n⌉)``."""
    return max(1, math.ceil(math.log2(max(2, int(n)))))


# ---------------------------------------------------------------------------
# The canonical bit-size encoder
# ---------------------------------------------------------------------------

_BITSTRING_CHARS = frozenset("01")


def _size_none(_: object) -> int:
    return 1


def _size_bool(_: object) -> int:
    return 1


def _size_int(value: int) -> int:
    # Sign bit plus magnitude; zero still occupies one bit on the wire.
    return 1 + max(1, abs(value).bit_length())


def _size_float(_: float) -> int:
    return 64


def _size_complex(_: complex) -> int:
    return 128


def _size_str(value: str) -> int:
    # Advice labels are bit-strings and cost exactly their length; any
    # other text is charged one byte per character.
    if not value:
        return 0
    if _BITSTRING_CHARS.issuperset(value):
        return len(value)
    return 8 * len(value)


def _size_bytes(value: bytes) -> int:
    return 8 * len(value)


def _size_sequence(value) -> int:
    # Two framing bits for the container, one separator bit per element.
    return 2 + sum(1 + measure_bits(item) for item in value)


def _size_mapping(value) -> int:
    return 2 + sum(
        1 + measure_bits(k) + measure_bits(v) for k, v in value.items()
    )


#: ``type -> sizer`` dispatch table.  Unknown classes are resolved once by
#: :func:`_resolve_sizer` and cached here — "cached per message class".
_SIZERS: Dict[type, Callable[[object], int]] = {
    type(None): _size_none,
    bool: _size_bool,
    int: _size_int,
    float: _size_float,
    complex: _size_complex,
    str: _size_str,
    bytes: _size_bytes,
    bytearray: _size_bytes,
    tuple: _size_sequence,
    list: _size_sequence,
    set: _size_sequence,
    frozenset: _size_sequence,
    dict: _size_mapping,
}


def _resolve_sizer(cls: type) -> Callable[[object], int]:
    """Build (once per class) the sizer for a user-defined message class."""
    if is_dataclass(cls):
        names = tuple(f.name for f in fields(cls))
        return lambda obj: 2 + sum(
            1 + measure_bits(getattr(obj, name)) for name in names
        )
    for base, sizer in (
        (bool, _size_bool),
        (int, _size_int),
        (float, _size_float),
        (str, _size_str),
        ((bytes, bytearray), _size_bytes),
        (dict, _size_mapping),
        ((tuple, list, set, frozenset), _size_sequence),
    ):
        if issubclass(cls, base):  # type: ignore[arg-type]
            return sizer
    if hasattr(cls, "__dict__") or not hasattr(cls, "__slots__"):
        return lambda obj: _size_mapping(vars(obj))
    slots = tuple(
        name
        for klass in cls.__mro__
        for name in getattr(klass, "__slots__", ())
    )
    return lambda obj: 2 + sum(
        1 + measure_bits(getattr(obj, name))
        for name in slots
        if hasattr(obj, name)
    )


def measure_bits(obj: object) -> int:
    """Canonical bit size of one message payload (deterministic, total).

    Ints cost sign + magnitude, bit-strings their length, other text one
    byte per character, containers two framing bits plus one separator
    bit per element, dataclasses and plain objects their attribute dict.
    The type→sizer resolution is cached per class, so repeated messages
    of one protocol's message class pay a single dict lookup.
    """
    sizer = _SIZERS.get(type(obj))
    if sizer is None:
        sizer = _resolve_sizer(type(obj))
        _SIZERS[type(obj)] = sizer
    return sizer(obj)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandwidthPolicy:
    """How much may cross one edge in one round, and what to do about it.

    ``local`` records everything and bounds nothing; ``congest`` caps
    every edge at ``budget·⌈log2 n⌉`` bits per round and raises
    :class:`BandwidthExceeded` on overflow; ``off`` skips metering
    entirely (the A/B arm of the overhead benchmark).
    """

    name: str
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.name not in ("local", "congest", "off"):
            raise ValueError(
                f"unknown bandwidth policy {self.name!r}; "
                "expected 'local', 'congest', or 'off'"
            )
        if self.name == "congest":
            if self.budget is None or int(self.budget) < 1:
                raise ValueError("CONGEST requires an integer budget >= 1")
        elif self.budget is not None:
            raise ValueError(f"policy {self.name!r} takes no budget")

    @property
    def records(self) -> bool:
        """Whether runs under this policy account bits at all."""
        return self.name != "off"

    @property
    def bounded(self) -> bool:
        return self.name == "congest"

    def capacity(self, n: int) -> Optional[int]:
        """Per-``(edge, round)`` bit cap on an ``n``-node graph (None = ∞)."""
        if self.name != "congest":
            return None
        return int(self.budget) * id_bits(n)

    def describe(self) -> str:
        if self.name == "congest":
            return f"CONGEST(B={self.budget})"
        return self.name.upper()


LOCAL = BandwidthPolicy("local")
OFF = BandwidthPolicy("off")


def CONGEST(budget: int = 1) -> BandwidthPolicy:
    """The ``B·⌈log n⌉``-bits-per-edge-per-round policy (default ``B=1``)."""
    return BandwidthPolicy("congest", int(budget))


def parse_policy(name: str, budget: Optional[int] = None) -> BandwidthPolicy:
    """CLI-friendly constructor: ``parse_policy("congest", 4)``."""
    name = name.lower()
    if name == "congest":
        return CONGEST(budget if budget is not None else 1)
    if name == "local":
        return LOCAL
    if name == "off":
        return OFF
    raise ValueError(
        f"unknown bandwidth policy {name!r}; expected local/congest/off"
    )


#: ambient policy for runs that don't pass one explicitly.
_POLICY_VAR: ContextVar[BandwidthPolicy] = ContextVar(
    "repro_bandwidth_policy", default=LOCAL
)


@contextmanager
def use_bandwidth_policy(policy: BandwidthPolicy) -> Iterator[None]:
    """Set the ambient :class:`BandwidthPolicy` for runs within the block."""
    if not isinstance(policy, BandwidthPolicy):
        raise TypeError(f"expected a BandwidthPolicy, got {policy!r}")
    token = _POLICY_VAR.set(policy)
    try:
        yield
    finally:
        _POLICY_VAR.reset(token)


def current_bandwidth_policy() -> BandwidthPolicy:
    """The ambient policy (:data:`LOCAL` unless a caller chose otherwise)."""
    return _POLICY_VAR.get()


# ---------------------------------------------------------------------------
# Overflow
# ---------------------------------------------------------------------------


class BandwidthExceeded(RuntimeError):
    """A CONGEST edge carried more bits in one round than its capacity.

    Attributed: ``node`` (the sending endpoint), ``edge`` (identifier
    pair, low id first), ``round_index``, ``bits`` (the edge's load in
    that round after the overflowing charge), and ``capacity``.  The
    schema layer attaches a ``failure_report``
    (:func:`repro.obs.failure.build_bandwidth_report`) before the
    exception propagates.
    """

    def __init__(
        self,
        *,
        node: object = None,
        edge: Optional[Tuple[int, int]] = None,
        round_index: Optional[int] = None,
        bits: Optional[int] = None,
        capacity: Optional[int] = None,
        policy: Optional[BandwidthPolicy] = None,
    ) -> None:
        label = policy.describe() if policy is not None else "CONGEST"
        super().__init__(
            f"{label}: edge {edge} carried {bits} bits in round "
            f"{round_index}, over the {capacity}-bit per-edge-per-round cap"
        )
        self.node = node
        self.edge = edge
        self.round_index = round_index
        self.bits = bits
        self.capacity = capacity
        self.policy = policy
        self.failure_report = None


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _geometric_buckets(peak: int) -> Tuple[float, ...]:
    """Power-of-two bucket bounds covering ``0..peak`` (bits span decades)."""
    bounds: List[float] = [0.0]
    bound = 1
    while bound < max(1, peak):
        bounds.append(float(bound))
        bound *= 2
    bounds.append(float(bound))
    return tuple(bounds)


@dataclass
class BandwidthProfile:
    """Aggregate bits-on-wire record of one run under one policy.

    ``per_round`` / ``per_edge`` are histogram snapshots (count, sum,
    p50/p95, min/max over per-round totals and per-edge run totals);
    ``hotspots`` ranks the heaviest edges; ``peak_edge_round_bits`` is
    the single worst ``(edge, round)`` load, and ``min_congest_budget``
    the smallest integer ``B`` for which ``CONGEST(B)`` would have fit
    the whole run.  Internal consistency is exact by construction:
    ``sum(per-round totals) == sum(per-edge totals) == total_bits``.
    """

    policy: str
    budget: Optional[int]
    capacity_bits: Optional[int]
    total_bits: int
    rounds: int
    edges_used: int
    id_bits: int
    per_round: Dict[str, object]
    per_edge: Dict[str, object]
    peak_round: Tuple[int, int]
    peak_edge_round_bits: int
    min_congest_budget: int
    hotspots: List[Dict[str, object]]

    @classmethod
    def build(
        cls,
        policy: BandwidthPolicy,
        n: int,
        round_totals: Sequence[int],
        edge_totals: Mapping[Tuple[int, int], int],
        peak_edge_round_bits: int,
    ) -> "BandwidthProfile":
        """Fold a per-round series and a per-edge mapping of run totals."""
        import numpy as np

        round_totals = list(round_totals)
        keys = sorted(edge_totals)
        edge_bits = np.fromiter(map(edge_totals.__getitem__, keys), np.int64, len(keys))
        total, edge_sum = sum(round_totals), int(edge_bits.sum())
        if total != edge_sum:  # pragma: no cover - construction invariant
            raise AssertionError(
                f"bandwidth books don't balance: per-round sum {total} != "
                f"per-edge sum {edge_sum}"
            )
        return cls._fold(
            policy, n, round_totals, 0, keys, edge_bits, peak_edge_round_bits
        )

    @classmethod
    def _fold(
        cls,
        policy: BandwidthPolicy,
        n: int,
        round_prefix: List[int],
        zero_rounds: int,
        edge_keys: Sequence[Tuple[int, int]],
        edge_bits,
        peak_edge_round_bits: int,
    ) -> "BandwidthProfile":
        """The profile of ``round_prefix`` followed by ``zero_rounds``
        silent rounds, and of the array ``edge_bits`` (run total of edge
        ``edge_keys[e]``, keys ascending; the bits sum to the same total).
        """
        total = sum(round_prefix)
        # Heaviest first, lowest edge on ties: a stable sort by descending
        # bits.  Read backwards, the sorted bits are the per-edge
        # histogram's input.
        order = (-edge_bits).argsort(kind="stable")
        ascending = edge_bits.take(order[::-1])
        peak_edge = int(ascending[-1]) if len(ascending) else 0
        per_edge = sorted_histogram(
            ascending, _geometric_buckets(peak_edge), 0, total
        )
        bits = id_bits(n)
        peak_round = (0, 0)
        if round_prefix:
            peak = max(round_prefix)
            peak_round = (round_prefix.index(peak) + 1, peak)
        elif zero_rounds:
            peak_round = (1, 0)
        return cls(
            policy=policy.name,
            budget=policy.budget,
            capacity_bits=policy.capacity(n),
            total_bits=total,
            rounds=len(round_prefix) + zero_rounds,
            edges_used=len(edge_keys) - per_edge["buckets"].get("le_0", 0),
            id_bits=bits,
            per_round=histogram_of(
                round_prefix,
                _geometric_buckets(max(round_prefix, default=0)),
                zero_rounds,
            ),
            per_edge=per_edge,
            peak_round=peak_round,
            peak_edge_round_bits=peak_edge_round_bits,
            min_congest_budget=max(
                1, math.ceil(peak_edge_round_bits / bits)
            ) if peak_edge_round_bits else 1,
            hotspots=[
                {"edge": list(edge_keys[e]), "bits": int(b)}
                for e, b in zip(order[:5].tolist(), ascending[:-6:-1].tolist())
            ],
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "budget": self.budget,
            "capacity_bits": self.capacity_bits,
            "total_bits": self.total_bits,
            "rounds": self.rounds,
            "edges_used": self.edges_used,
            "id_bits": self.id_bits,
            "per_round": self.per_round,
            "per_edge": self.per_edge,
            "peak_round": list(self.peak_round),
            "peak_edge_round_bits": self.peak_edge_round_bits,
            "min_congest_budget": self.min_congest_budget,
            "hotspots": self.hotspots,
        }


# ---------------------------------------------------------------------------
# The meter (message-passing engine)
# ---------------------------------------------------------------------------


class BandwidthMeter:
    """Charges message bits to ``(edge, round)`` under one policy.

    Fault-interaction semantics (pinned by the fault tests): a *dropped*
    message is still charged at its send round — the sender put it on
    the wire; a *duplicated* message is charged twice (send round and
    the copy's delivery round); a *delayed* message is charged in its
    delivery round.  The engine encodes all three by calling
    :meth:`charge` once per delivery offset (and once at the send round
    for an empty fate).
    """

    __slots__ = (
        "policy",
        "n",
        "capacity",
        "total_bits",
        "_round_bits",
        "_edge_bits",
        "_edge_round_bits",
    )

    def __init__(self, policy: BandwidthPolicy, n: int) -> None:
        self.policy = policy
        self.n = n
        self.capacity = policy.capacity(n)
        self.total_bits = 0
        self._round_bits: Dict[int, int] = {}
        self._edge_bits: Dict[Tuple[int, int], int] = {}
        self._edge_round_bits: Dict[Tuple[Tuple[int, int], int], int] = {}

    def charge(
        self,
        round_index: int,
        sender_id: int,
        receiver_id: int,
        bits: int,
        node: object = None,
    ) -> None:
        """Account ``bits`` on the (undirected) edge in ``round_index``."""
        edge = (
            (sender_id, receiver_id)
            if sender_id <= receiver_id
            else (receiver_id, sender_id)
        )
        key = (edge, round_index)
        load = self._edge_round_bits.get(key, 0) + bits
        self._edge_round_bits[key] = load
        self.total_bits += bits
        self._round_bits[round_index] = (
            self._round_bits.get(round_index, 0) + bits
        )
        self._edge_bits[edge] = self._edge_bits.get(edge, 0) + bits
        if self.capacity is not None and load > self.capacity:
            raise BandwidthExceeded(
                node=node,
                edge=edge,
                round_index=round_index,
                bits=load,
                capacity=self.capacity,
                policy=self.policy,
            )

    def profile(self, rounds: Optional[int] = None) -> BandwidthProfile:
        """Fold the charges into a :class:`BandwidthProfile`.

        ``rounds`` pads the per-round series to the run's executed round
        count; late deliveries past it extend the series further.
        """
        highest = max(self._round_bits, default=-1) + 1
        span = max(int(rounds or 0), highest)
        round_totals = [self._round_bits.get(t, 0) for t in range(span)]
        return BandwidthProfile.build(
            self.policy,
            self.n,
            round_totals,
            self._edge_bits,
            max(self._edge_round_bits.values(), default=0),
        )


# ---------------------------------------------------------------------------
# Flooding-equivalent accounting for view-semantics runs
# ---------------------------------------------------------------------------


def _flood_cache(graph, compiled):
    """The compiled graph's structure-only flooding arrays.

    Nothing here depends on advice or policy, so it is built once per
    compiled graph (the snapshot a mutation derives starts without it):
    the edge tails, heads and identifier keys in key order, the degrees,
    and the base record bits (``id_bits·(1 + deg)`` plus the input
    payload).  The balls or layers are not kept here: :func:`_layer_bits`
    reads them from the snapshot's ``_np_balls`` slot.
    """
    state = compiled._np_flood
    if state is None:
        import numpy as np

        n = compiled.n
        indptr, indices, ids = compiled.np_csr()
        rows = np.repeat(np.arange(n), np.diff(indptr))
        upper = rows < indices
        tails, heads = rows[upper], indices[upper]
        lo = np.minimum(ids[tails], ids[heads])
        hi = np.maximum(ids[tails], ids[heads])
        # Edges in identifier-key order (the hotspot tie-break);
        # ``csr_index`` maps each back to its CSR ``i < j`` position (the
        # overflow tie-break).
        by_key = np.lexsort((hi, lo))
        bits = id_bits(n)
        state = {
            "tails": tails[by_key],
            "heads": heads[by_key],
            "edge_keys": list(zip(lo[by_key].tolist(), hi[by_key].tolist())),
            "csr_index": by_key,
            "deg": np.diff(indptr).astype(np.float64),
            "base": np.asarray(
                [
                    bits * (1 + compiled.degrees[i])
                    + (
                        0
                        if (payload := graph.input_of(node)) is None
                        else measure_bits(payload)
                    )
                    for i, node in enumerate(compiled.nodes)
                ],
                dtype=np.float64,
            ),
        }
        compiled._np_flood = state
    return state


def _layer_bits(graph, radius: int, rec):
    """``M[i, d]``: record bits of the nodes at distance exactly ``d`` from ``i``.

    Layers do not depend on the radius they were swept at, so the
    snapshot's stored balls of at least ``radius`` (or whole components)
    are folded as they are: a
    :class:`~repro.local.vectorized.BallSweep` that an all-roots gather
    left there (usually the decode's own), or the
    :class:`~repro.local.vectorized.LayerSweep` of an earlier meter call.
    Otherwise this sweeps the BFS layers of every node
    (:func:`~repro.local.vectorized.sweep_layers`), folds the layers
    straight into ``M`` without grouping them into per-root balls, and
    stores them in place of the balls.  Either fold is ``O(Σ|ball|)``.
    ``M`` is never wider than the deepest layer.
    """
    compiled = graph.compiled
    sweep = compiled._np_balls
    if sweep is None or not sweep.covers(radius):
        from ..local.vectorized import sweep_layers

        sweep = sweep_layers(graph, radius)
        compiled._np_balls = sweep
    return sweep.fold(rec)[:, : radius + 1]


def flooding_bandwidth(
    graph,
    rounds: int,
    advice: Optional[Mapping[object, str]] = None,
    policy: Optional[BandwidthPolicy] = None,
) -> Optional[BandwidthProfile]:
    """Bits-on-wire of the canonical flooding realization of a ``T``-round run.

    A ``T``-round LOCAL algorithm is executed canonically by incremental
    flooding (the message-passing realization
    :class:`repro.local.GatherAlgorithm` proves equivalent to view
    gathering): in round ``t`` node ``u`` forwards on every port the
    records it learned in round ``t-1`` — the nodes at distance exactly
    ``t-1`` from ``u``.  The resulting accounting is a pure function of
    ``(graph, rounds, advice)``, so every execution engine reports the
    same bits-on-wire for the same run.  It is computed from the layer
    matrix ``M`` of :func:`_layer_bits`: round ``t`` carries
    ``Σ_u deg(u)·M[u, t-1]``, and edge ``{u, v}`` carries
    ``M[u, t-1] + M[v, t-1]`` in round ``t``.

    Under a ``congest`` policy the per-``(edge, round)`` loads are
    checked against ``B·⌈log n⌉`` and the earliest overflow (lowest
    round, then lowest edge in CSR ``i < j`` order, charged to the
    heavier sender, lower dense index on ties) raises an attributed
    :class:`BandwidthExceeded` — deterministically, since nothing here
    depends on engine or iteration order.  Returns ``None`` under
    :data:`OFF`, and an all-zero profile for ``rounds == 0``.
    """
    policy = policy if policy is not None else current_bandwidth_policy()
    if not policy.records:
        return None
    compiled = graph.compiled
    n = compiled.n
    rounds = max(0, int(rounds))
    if n == 0 or rounds == 0:
        return BandwidthProfile.build(policy, n, [0] * rounds, {}, 0)

    import numpy as np

    state = _flood_cache(graph, compiled)
    rec = state["base"]
    if advice:
        lengths = map(len, map(advice.get, compiled.nodes, repeat("")))
        rec = rec + np.fromiter(lengths, np.float64, n)
    layers = _layer_bits(graph, min(rounds - 1, n), rec)

    # Every round past the deepest ball layer carries nothing.
    round_prefix = (state["deg"] @ layers).astype(np.int64).tolist()

    tails, heads = state["tails"], state["heads"]
    loads = layers.take(tails, axis=0)
    loads += layers.take(heads, axis=0)
    peak_edge_round = int(loads.max()) if loads.size else 0

    capacity = policy.capacity(n)
    if capacity is not None and peak_edge_round > capacity:
        over = loads > capacity
        d = int(np.argmax(over.any(axis=0)))
        hit = np.flatnonzero(over[:, d])
        e = int(hit[np.argmin(state["csr_index"][hit])])
        i, j = int(tails[e]), int(heads[e])
        raise BandwidthExceeded(
            node=compiled.nodes[i if layers[i, d] >= layers[j, d] else j],
            edge=state["edge_keys"][e],
            round_index=d + 1,
            bits=int(loads[e, d]),
            capacity=capacity,
            policy=policy,
        )

    # A row of `loads` holds one edge's per-round bits; its sum is the
    # edge's run total.
    return BandwidthProfile._fold(
        policy,
        n,
        round_prefix,
        rounds - len(round_prefix),
        state["edge_keys"],
        loads.sum(axis=1),
        peak_edge_round,
    )
