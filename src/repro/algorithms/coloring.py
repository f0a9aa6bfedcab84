"""Distributed coloring building blocks.

The Delta-coloring pipeline of Section 6 composes three classical
ingredients, all implemented here:

* Linial's one-round color reduction (Lemma 6.4 cites Linial 1992): given a
  proper ``c``-coloring, one communication round yields an
  ``O(Delta^2 log c)``-coloring, and iterating reaches ``O(Delta^2)``.
  We implement the polynomial construction over a prime field.
* Color-class scheduling: given a proper ``c``-coloring, iterate over color
  classes (each is an independent set) letting every class pick greedily in
  one round — this reduces to ``Delta + 1`` colors in ``c`` rounds, and also
  solves (deg+1)-list coloring (the Theorem 6.8 primitive; we reproduce its
  role, not its ``O(sqrt(Delta log Delta))`` running time).
* Centralized greedy colorings used by encoders.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..lcl.compiled import proper_by_ports
from ..local.graph import LocalGraph, Node


class ColoringError(ValueError):
    """Raised when input colorings are improper or palettes too small."""


# ---------------------------------------------------------------------------
# Validation / centralized helpers
# ---------------------------------------------------------------------------


def is_proper(graph: LocalGraph, coloring: Mapping[Node, int]) -> bool:
    """No edge is monochromatic.

    One port comparison (:func:`repro.lcl.compiled.proper_by_ports`)
    settles a proper colouring; anything else reruns the edge scan, which
    decides and reports exactly as before.
    """
    if proper_by_ports(graph, coloring):
        return True
    return all(coloring[u] != coloring[v] for u, v in graph.edges())


def assert_proper(graph: LocalGraph, coloring: Mapping[Node, int]) -> None:
    """Raise :class:`ColoringError` on any monochromatic edge."""
    if proper_by_ports(graph, coloring):
        return
    bad = [(u, v) for u, v in graph.edges() if coloring[u] == coloring[v]]
    if bad:
        raise ColoringError(f"coloring not proper on {len(bad)} edges, e.g. {bad[0]!r}")


def greedy_coloring(
    graph: LocalGraph, order: Optional[Sequence[Node]] = None
) -> Dict[Node, int]:
    """Centralized greedy coloring in identifier order (colors from 1)."""
    if order is None:
        order = sorted(graph.nodes(), key=graph.id_of)
    coloring: Dict[Node, int] = {}
    for v in order:
        taken = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        color = 1
        while color in taken:
            color += 1
        coloring[v] = color
    return coloring


def coloring_from_ids(graph: LocalGraph) -> Dict[Node, int]:
    """The trivial proper n^c-coloring: every node's color is its identifier."""
    return {v: graph.id_of(v) for v in graph.nodes()}


def num_colors(coloring: Mapping[Node, int]) -> int:
    """Number of distinct colors in use."""
    return len(set(coloring.values()))


# ---------------------------------------------------------------------------
# Linial's one-round reduction
# ---------------------------------------------------------------------------


def _smallest_prime_at_least(n: int) -> int:
    candidate = max(2, n)
    while True:
        if all(candidate % p for p in range(2, int(math.isqrt(candidate)) + 1)):
            return candidate
        candidate += 1


def _root_ceil(c: int, e: int) -> int:
    """The least integer ``r >= 1`` with ``r ** e >= c`` (exact, any size)."""
    lo, hi = 1, 1 << (c.bit_length() // e + 1)  # hi ** e > c
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**e >= c:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _linial_parameters(c: int, delta: int) -> Tuple[int, int]:
    """The ``(k, q)`` of a Linial step on a ``c``-colour palette.

    Picks the degree ``k`` minimizing the output palette size ``q^2``,
    where ``q`` is the smallest prime that both exceeds ``k * Delta`` (so
    a good evaluation point exists) and satisfies ``q^{k+1} >= c`` (so
    every colour encodes), i.e. the smallest prime at least
    ``max(k * Delta + 1, ceil(c^{1/(k+1)}))``.  The first ``k`` wins ties.
    """
    best: Optional[Tuple[int, int]] = None
    for k in range(1, max(2, c.bit_length()) + 1):
        q = _smallest_prime_at_least(max(k * delta + 1, _root_ceil(c, k + 1)))
        if best is None or q < best[1]:
            best = (k, q)
    assert best is not None
    return best


def _digits_base(value: int, base: int, length: int) -> List[int]:
    digits = []
    for _ in range(length):
        digits.append(value % base)
        value //= base
    return digits


def linial_reduction_step(
    graph: LocalGraph, coloring: Mapping[Node, int], delta: Optional[int] = None
) -> Dict[Node, int]:
    """One round of Linial's color reduction.

    Each node encodes its current color (a value in ``[0, c)``) as the
    coefficient vector of a polynomial of degree ``k`` over the field
    ``F_q``, where ``q`` is the smallest prime with ``q > k * Delta`` and
    ``q^{k+1} >= c``.  Distinct colors give distinct polynomials; two
    distinct degree-``k`` polynomials agree on at most ``k`` points, so
    among the ``q > k * Delta`` evaluation points some ``x`` has
    ``p_v(x) != p_u(x)`` for all ``<= Delta`` neighbors ``u``.  The new
    color ``q * x + p_v(x)`` lies in ``[0, q^2)`` and is proper.

    This reduces ``c`` colors to ``O((Delta log_Delta c)^2)`` in one round;
    iterating reaches ``O(Delta^2)`` in ``O(log* c)`` rounds
    (:func:`linial_coloring`).
    """
    values = set(coloring.values())
    c = max(values) + 1
    if delta is None:
        delta = graph.max_degree
    delta = max(delta, 1)

    k, q = _linial_parameters(c, delta)

    import numpy as np

    # One coefficient vector per node.  Then the evaluation points go up
    # one at a time: each p_v(x) is evaluated once, by Horner over all
    # nodes together (values stay below q^2, so int64 is exact), and only
    # the ports of nodes still without a good point are compared.
    compiled = graph.compiled
    indptr, indices, _ = compiled.np_csr()
    n = compiled.n
    coeffs = np.array(
        [_digits_base(coloring[v], q, k + 1) for v in compiled.nodes], dtype=np.int64
    ).reshape(n, k + 1)
    tails = np.repeat(np.arange(n), np.diff(indptr))
    heads = np.asarray(indices, dtype=np.int64)
    if np.all(coeffs[tails] == coeffs[heads], axis=1).any():
        raise ColoringError("Linial step requires a proper input coloring")
    colors = np.full(n, -1, dtype=np.int64)
    for x in range(q):
        at_x = np.zeros(n, dtype=np.int64)
        for j in range(k, -1, -1):
            at_x = (at_x * x + coeffs[:, j]) % q
        clashed = np.zeros(n, dtype=bool)
        clashed[tails[at_x[tails] == at_x[heads]]] = True
        good = ~clashed & (colors < 0)
        colors[good] = q * x + at_x[good]
        pending = colors[tails] < 0
        if not pending.any():
            break
        tails, heads = tails[pending], heads[pending]
    # q > k * Delta guarantees a good x exists for proper inputs.
    assert (colors >= 0).all()
    return dict(zip(compiled.nodes, colors.tolist()))


def linial_coloring(
    graph: LocalGraph,
    start: Optional[Mapping[Node, int]] = None,
    max_rounds: int = 64,
) -> Tuple[Dict[Node, int], int]:
    """Iterate :func:`linial_reduction_step` until the palette stops shrinking.

    Returns ``(coloring, rounds_used)``.  Starting from the identifier
    coloring this lands on ``O(Delta^2)`` colors after ``O(log* n)`` rounds.
    """
    coloring = dict(start) if start is not None else coloring_from_ids(graph)
    rounds = 0
    while rounds < max_rounds:
        reduced = linial_reduction_step(graph, coloring)
        rounds += 1
        if max(reduced.values()) >= max(coloring.values()):
            break
        coloring = reduced
    return coloring, rounds


# ---------------------------------------------------------------------------
# Color-class scheduling: c colors -> Delta + 1 colors, list coloring
# ---------------------------------------------------------------------------


def reduce_to_delta_plus_one(
    graph: LocalGraph, coloring: Mapping[Node, int]
) -> Tuple[Dict[Node, int], int]:
    """Reduce a proper ``c``-coloring to ``Delta + 1`` colors.

    Rounds = number of input color classes above ``Delta + 1``: in each
    round the (independent) class of nodes with the currently largest color
    re-picks the smallest color unused in its neighborhood, which is always
    ``<= Delta + 1``.  Returns ``(coloring, rounds)``.
    """
    assert_proper(graph, coloring)
    delta = graph.max_degree
    result = dict(coloring)
    rounds = 0
    for color in sorted({c for c in result.values() if c > delta + 1}, reverse=True):
        batch = [v for v in graph.nodes() if result[v] == color]
        updates = {}
        for v in batch:
            taken = {result[u] for u in graph.neighbors(v)}
            new = 1
            while new in taken:
                new += 1
            updates[v] = new
        result.update(updates)
        rounds += 1
    assert_proper(graph, result)
    return result, rounds


def list_coloring(
    graph: LocalGraph,
    palettes: Mapping[Node, Sequence[int]],
    schedule: Mapping[Node, int],
) -> Tuple[Dict[Node, int], int]:
    """(deg+1)-list coloring scheduled by a proper coloring.

    This is the primitive of Theorem 6.8 (Fraigniaud et al. 2016; Barenboim
    et al. 2022; Maus & Tonoyan 2022).  Our implementation runs in
    ``O(colors-of-schedule)`` rounds rather than the theorem's
    ``O(sqrt(Delta log Delta))`` — the *output* contract is identical and
    that is what the Section 6 schema composes; EXPERIMENTS.md records the
    substitution.

    Requires ``|palettes[v]| >= deg(v) + 1`` and ``schedule`` proper.

    Returns ``(coloring, rounds)``.
    """
    assert_proper(graph, schedule)
    for v in graph.nodes():
        if len(set(palettes[v])) < graph.degree(v) + 1:
            raise ColoringError(
                f"palette of {v!r} smaller than deg+1 "
                f"({len(set(palettes[v]))} < {graph.degree(v) + 1})"
            )
    result: Dict[Node, int] = {}
    rounds = 0
    for color in sorted(set(schedule.values())):
        batch = [v for v in graph.nodes() if schedule[v] == color]
        for v in batch:  # batch is independent: simultaneous is safe
            taken = {result[u] for u in graph.neighbors(v) if u in result}
            choice = next(c for c in palettes[v] if c not in taken)
            result[v] = choice
        rounds += 1
    return result, rounds
