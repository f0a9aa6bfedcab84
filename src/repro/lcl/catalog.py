"""Catalog of concrete LCL problems used throughout the reproduction.

These are the standard examples the paper cites as LCLs on bounded-degree
graphs: vertex coloring, edge coloring, maximal independent set, maximal
matching, sinkless orientation, plus the orientation/splitting problems of
Section 5.

Per-port conventions: for problems whose outputs live on node-edge pairs
(orientations, edge colorings, splittings), the label of ``v`` is a tuple
with one entry per port of ``v`` (ports sorted by neighbor identifier).
Orientations use ``+1`` for "outgoing from v" and ``-1`` for "incoming";
edge consistency demands the two endpoints disagree in sign.

Proper vertex coloring, (almost-)balanced orientation, edge coloring and
splitting also carry a compiled form of their check
(:mod:`repro.lcl.compiled`); the predicates here stay their definition.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from ..local.graph import LocalGraph, Node
from .compiled import PortCheck, ProperColoringCheck
from .problem import Label, Labeling, LCLProblem, port_label

OUT = 1
IN = -1


# ---------------------------------------------------------------------------
# Vertex coloring
# ---------------------------------------------------------------------------


def vertex_coloring(k: int) -> LCLProblem:
    """Proper vertex ``k``-coloring with colors ``1..k`` (radius 1)."""
    colors = tuple(range(1, k + 1))

    def check(graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
        mine = labeling.get(v)
        if mine not in colors:
            return False
        return all(
            labeling.get(u) is None or labeling[u] != mine for u in graph.neighbors(v)
        )

    def candidates(graph: LocalGraph, v: Node) -> Sequence[Label]:
        return colors

    return LCLProblem(
        name=f"{k}-coloring",
        radius=1,
        check=check,
        candidates=candidates,
        compiled=ProperColoringCheck(colors),
    )


def list_coloring_from_input() -> LCLProblem:
    """Vertex coloring where each node's palette is its input label.

    A node's input must be a sequence of allowed colors; validity means the
    output color is from the node's own list and proper across edges.  This
    is the (deg+1)-list-coloring shape used in the Delta-coloring pipeline.
    """

    def check(graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
        mine = labeling.get(v)
        palette = graph.input_of(v)
        if palette is None or mine not in tuple(palette):
            return False
        return all(
            labeling.get(u) is None or labeling[u] != mine for u in graph.neighbors(v)
        )

    def candidates(graph: LocalGraph, v: Node) -> Sequence[Label]:
        palette = graph.input_of(v)
        return tuple(palette) if palette is not None else ()

    return LCLProblem(
        name="list-coloring", radius=1, check=check, candidates=candidates
    )


# ---------------------------------------------------------------------------
# Independence / domination
# ---------------------------------------------------------------------------


def maximal_independent_set() -> LCLProblem:
    """MIS: labels in {0, 1}; 1-nodes independent, 0-nodes dominated (radius 1)."""

    def check(graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
        mine = labeling.get(v)
        if mine not in (0, 1):
            return False
        nbrs = graph.neighbors(v)
        nbr_labels = [labeling.get(u) for u in nbrs]
        if mine == 1:
            return all(l != 1 for l in nbr_labels if l is not None)
        # A 0-node must see a 1; only claim a violation once fully labeled.
        if any(l is None for l in nbr_labels):
            return True
        return 1 in nbr_labels

    def candidates(graph: LocalGraph, v: Node) -> Sequence[Label]:
        return (0, 1)

    return LCLProblem(name="MIS", radius=1, check=check, candidates=candidates)


def maximal_matching() -> LCLProblem:
    """Maximal matching: label = matched port index or ``None`` marker ``-1``.

    Validity (radius 1): if ``v`` points at port ``p`` towards ``u``, then
    ``u`` points back at ``v``; and no two adjacent nodes may both be
    unmatched (maximality).
    """

    def check(graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
        mine = labeling.get(v)
        if mine is None:
            return False
        nbrs = graph.neighbors(v)
        if mine != -1:
            if not isinstance(mine, int) or not 0 <= mine < len(nbrs):
                return False
            partner = nbrs[mine]
            theirs = labeling.get(partner)
            if theirs is not None and (
                theirs == -1 or graph.neighbor_at_port(partner, theirs) != v
            ):
                return False
            return True
        # Unmatched: every fully-labeled neighbor must be matched.
        for u in nbrs:
            theirs = labeling.get(u)
            if theirs == -1:
                return False
        return True

    def candidates(graph: LocalGraph, v: Node) -> Sequence[Label]:
        return tuple(range(graph.degree(v))) + (-1,)

    return LCLProblem(
        name="maximal-matching", radius=1, check=check, candidates=candidates
    )


# ---------------------------------------------------------------------------
# Orientations (per-port +-1 tuples)
# ---------------------------------------------------------------------------


def _orientation_tuples(degree: int) -> List[Tuple[int, ...]]:
    return list(itertools.product((OUT, IN), repeat=degree))


def _orientation_consistent(graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
    mine = labeling.get(v)
    if not isinstance(mine, tuple) or len(mine) != graph.degree(v):
        return False
    if any(entry not in (OUT, IN) for entry in mine):
        return False
    for u in graph.neighbors(v):
        theirs = labeling.get(u)
        if theirs is None:
            continue
        if port_label(graph, labeling, v, u) == port_label(graph, labeling, u, v):
            return False
    return True


def sinkless_orientation() -> LCLProblem:
    """Sinkless orientation: every node of degree >= 3 has an outgoing edge."""

    def check(graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
        if not _orientation_consistent(graph, labeling, v):
            return False
        mine = labeling[v]
        if graph.degree(v) >= 3 and OUT not in mine:
            return False
        return True

    def candidates(graph: LocalGraph, v: Node) -> Sequence[Label]:
        return _orientation_tuples(graph.degree(v))

    return LCLProblem(
        name="sinkless-orientation", radius=1, check=check, candidates=candidates
    )


def balanced_orientation(strict: bool = False) -> LCLProblem:
    """(Almost-)balanced orientation, the problem of Section 5.

    Each node must satisfy ``|indeg - outdeg| <= 1``; with ``strict=True``
    even-degree nodes must satisfy ``indeg == outdeg`` exactly (the paper's
    Lemma 5.1 setting where all degrees are even).
    """

    def check(graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
        if not _orientation_consistent(graph, labeling, v):
            return False
        mine = labeling[v]
        out = sum(1 for entry in mine if entry == OUT)
        inn = len(mine) - out
        if strict and len(mine) % 2 == 0:
            return out == inn
        return abs(out - inn) <= 1

    def candidates(graph: LocalGraph, v: Node) -> Sequence[Label]:
        degree = graph.degree(v)
        want_balance = degree % 2 == 0
        tuples = _orientation_tuples(degree)
        return [
            t
            for t in tuples
            if abs(2 * sum(1 for e in t if e == OUT) - degree)
            <= (0 if want_balance else 1)
        ]

    name = "balanced-orientation" if strict else "almost-balanced-orientation"
    # ``strict`` changes nothing the check can see: ``out - inn`` has the
    # parity of the degree, so ``|out - inn| <= 1`` already forces
    # ``out == inn`` at even degree.  Both forms compile to one balance test.
    return LCLProblem(
        name=name,
        radius=1,
        check=check,
        candidates=candidates,
        compiled=PortCheck((OUT, IN), agree=False, distinct=False, own_first=False),
    )


# ---------------------------------------------------------------------------
# Edge colorings / splittings (per-port tuples)
# ---------------------------------------------------------------------------


def edge_coloring(k: int) -> LCLProblem:
    """Proper edge ``k``-coloring: per-port colors, consistent across edges."""
    colors = tuple(range(1, k + 1))

    def check(graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
        mine = labeling.get(v)
        if not isinstance(mine, tuple) or len(mine) != graph.degree(v):
            return False
        if any(c not in colors for c in mine):
            return False
        if len(set(mine)) != len(mine):
            return False
        for u in graph.neighbors(v):
            if labeling.get(u) is None:
                continue
            if port_label(graph, labeling, v, u) != port_label(graph, labeling, u, v):
                return False
        return True

    def candidates(graph: LocalGraph, v: Node) -> Sequence[Label]:
        return list(itertools.permutations(colors, graph.degree(v)))

    return LCLProblem(
        name=f"{k}-edge-coloring",
        radius=1,
        check=check,
        candidates=candidates,
        compiled=PortCheck(colors, agree=True, distinct=True, own_first=True),
    )


RED = "red"
BLUE = "blue"


def splitting() -> LCLProblem:
    """The splitting problem of Section 5: 2-color the edges red/blue such
    that every (even-degree) node has equally many red and blue edges."""

    def check(graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
        mine = labeling.get(v)
        degree = graph.degree(v)
        if not isinstance(mine, tuple) or len(mine) != degree:
            return False
        if any(c not in (RED, BLUE) for c in mine):
            return False
        reds = sum(1 for c in mine if c == RED)
        if degree % 2 == 0 and reds * 2 != degree:
            return False
        if degree % 2 == 1 and abs(2 * reds - degree) != 1:
            return False
        for u in graph.neighbors(v):
            if labeling.get(u) is None:
                continue
            if port_label(graph, labeling, v, u) != port_label(graph, labeling, u, v):
                return False
        return True

    def candidates(graph: LocalGraph, v: Node) -> Sequence[Label]:
        degree = graph.degree(v)
        half = degree // 2
        out = []
        for reds in ({half} if degree % 2 == 0 else {half, half + 1}):
            for positions in itertools.combinations(range(degree), reds):
                label = [BLUE] * degree
                for p in positions:
                    label[p] = RED
                out.append(tuple(label))
        return out

    return LCLProblem(
        name="splitting",
        radius=1,
        check=check,
        candidates=candidates,
        compiled=PortCheck((RED, BLUE), agree=True, distinct=False, own_first=True),
    )


def weak_coloring(k: int) -> LCLProblem:
    """Weak ``k``-coloring: every non-isolated node has at least one
    neighbor with a *different* color (radius 1).

    A classic Naor–Stockmeyer-era LCL: unlike proper coloring it is
    solvable in constant time on odd-degree graphs without advice, which
    makes it a useful easy baseline for the Section 4 schema.
    """
    colors = tuple(range(1, k + 1))

    def check(graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
        mine = labeling.get(v)
        if mine not in colors:
            return False
        nbrs = graph.neighbors(v)
        if not nbrs:
            return True
        nbr_labels = [labeling.get(u) for u in nbrs]
        if any(l is None for l in nbr_labels):
            return True  # optimistic while partially labeled
        return any(l != mine for l in nbr_labels)

    def candidates(graph: LocalGraph, v: Node) -> Sequence[Label]:
        return colors

    return LCLProblem(
        name=f"weak-{k}-coloring", radius=1, check=check, candidates=candidates
    )
