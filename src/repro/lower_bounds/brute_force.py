"""The Section 8 reduction, made measurable.

Section 8's intuition: if an LCL ``Pi`` is solvable with ``beta`` bits of
advice per node by a local algorithm ``A``, then a centralized algorithm
solves ``Pi`` by trying all ``2^{beta n}`` advice assignments, decoding
each with ``A``, and checking the output — total time
``2^{beta n} * n * s(n)``, where ``s(n)`` is the cost of simulating ``A``
at one node.  The order-invariance conversion bounds ``s(n)`` by a
constant (finite lookup table), so ETH (no ``2^{o(n)}`` algorithm for,
e.g., 3-SAT-shaped LCLs) forbids constant-bit advice for all LCLs on
general graphs.

This module implements the search itself so benchmark E2 can *measure* the
``2^n`` cost curve, plus a concrete 1-bit decoder for 3-coloring cycles
that the search succeeds on (a miniature of "advice exists => brute force
finds it").
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..lcl.problem import LCLProblem
from ..lcl.verify import is_valid
from ..local.graph import LocalGraph, Node
from ..local.model import ViewFunction, run_view_algorithm
from ..local.views import View, mark_order_invariant


@dataclass
class SearchOutcome:
    """Result of a brute-force advice search."""

    advice: Optional[Dict[Node, str]]
    labeling: Optional[Dict[Node, object]]
    assignments_tried: int
    seconds: float

    @property
    def found(self) -> bool:
        return self.advice is not None


def brute_force_advice_search(
    problem: LCLProblem,
    graph: LocalGraph,
    radius: int,
    decoder: ViewFunction,
    beta: int = 1,
    max_assignments: Optional[int] = None,
) -> SearchOutcome:
    """Try every ``beta``-bit-per-node advice assignment until one decodes
    to a valid solution of ``problem``.

    This is exactly the centralized algorithm of the Section 8 reduction.
    Time grows as ``2^{beta n}`` — benchmark E2's series.
    """
    nodes = graph.nodes()
    alphabet = ["".join(bits) for bits in itertools.product("01", repeat=beta)]
    start = time.perf_counter()
    tried = 0
    for combo in itertools.product(alphabet, repeat=len(nodes)):
        tried += 1
        if max_assignments is not None and tried > max_assignments:
            break
        advice = dict(zip(nodes, combo))
        try:
            result = run_view_algorithm(graph, radius, decoder, advice=advice)
        except Exception:
            continue  # a decoder may reject nonsense advice outright
        if is_valid(problem, graph, result.outputs):
            return SearchOutcome(
                advice=advice,
                labeling=dict(result.outputs),
                assignments_tried=tried,
                seconds=time.perf_counter() - start,
            )
    return SearchOutcome(
        advice=None,
        labeling=None,
        assignments_tried=tried,
        seconds=time.perf_counter() - start,
    )


def reduction_cost_model(n: int, beta: int, s_per_node: float) -> float:
    """The paper's ``2^{beta n} * n * s(n)`` cost formula."""
    return (2 ** (beta * n)) * n * s_per_node


def parity_cycle_decoder(window: int) -> ViewFunction:
    """A 1-bit-advice decoder for 3-coloring cycles.

    Interpretation of the advice: nodes with bit ``1`` ("marks") take color
    3.  An unmarked node walks its segment in both directions to the two
    bounding marks, anchors at the mark with the *smaller identifier*, and
    2-colors by the parity of its segment distance to the anchor — so a
    whole segment colors consistently (``1, 2, 1, 2, ...`` away from the
    anchor) regardless of its length, and valid advice exists on every
    cycle with an independent, window-dense mark set.  The brute-force
    search discovers such assignments without being told any of this.
    """

    def walk_to_mark(view: View, prev, cur) -> Optional[Tuple[object, int]]:
        distance = 1
        while view.advice_of(cur) != "1":
            nexts = [u for u in view.neighbors(cur) if u != prev]
            if not nexts:
                return None  # ran out of view (or hit a path end)
            prev, cur = cur, nexts[0]
            distance += 1
            if distance > 2 * window + 2:
                return None
        return cur, distance

    def decide(view: View) -> int:
        center = view.center
        if view.advice_of(center) == "1":
            return 3
        nbrs = view.neighbors(center)
        hits = [
            h
            for h in (walk_to_mark(view, center, u) for u in nbrs)
            if h is not None
        ]
        if not hits:
            # No mark in sight: the validity check will reject this advice.
            return 1
        if len(hits) == 1 or hits[0][0] == hits[1][0]:
            distance = min(h[1] for h in hits)
        else:
            anchor = min(hits, key=lambda h: view.id_of(h[0]))
            distance = anchor[1]
        return 1 if distance % 2 == 1 else 2

    decide.__name__ = f"parity_cycle_decoder[{window}]"
    # The decoder compares identifiers only by order (min-id anchor), so it
    # is order-invariant.  The search still decides every view directly:
    # each run_view_algorithm call sees each cycle neighbourhood once, so a
    # signature memo would never hit.
    return mark_order_invariant(decide)
