"""Order-invariant algorithms (Section 8's key technical tool).

Section 8 shows that any advice algorithm can be replaced by an
*order-invariant* one — an algorithm whose output depends only on the
relative order of the identifiers in its view, not their numeric values —
via a Ramsey-type argument à la Naor–Stockmeyer.  The payoff: on
bounded-degree graphs an order-invariant ``T``-round algorithm is a
**finite lookup table** from order-canonical views to outputs, so its
simulation cost per node is ``O(1)`` and the brute-force advice search of
:mod:`repro.lower_bounds.brute_force` runs in ``2^n * n * O(1)`` — the
running time the ETH reduction needs to bound.

We realize the conversion constructively by *rank canonicalization*
(:func:`canonicalize`): identifiers in the view are replaced by their
ranks before the base algorithm runs.  For any algorithm, the result is
order-invariant by construction; for algorithms that were already correct
under every order-preserving re-identification (the hypothesis the Ramsey
argument manufactures), correctness is preserved — the test suite checks
both halves on our schema decoders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from ..local.graph import LocalGraph, Node
from ..local.model import RunResult, ViewFunction, run_view_algorithm
from ..local.views import View, gather_all_views, mark_order_invariant


def canonicalize(decide: ViewFunction) -> ViewFunction:
    """Wrap ``decide`` so it sees rank-canonical identifiers only.

    The wrapped algorithm is order-invariant: two order-isomorphic views
    produce identical inputs to ``decide``.  It is marked as such
    (:func:`repro.local.mark_order_invariant`), so a run may pass
    ``memoize=True`` to :func:`repro.local.run_view_algorithm` and decide
    each order class once.
    """

    def wrapped(view: View) -> object:
        return decide(view.canonical())

    wrapped.__name__ = f"order_invariant[{getattr(decide, '__name__', 'fn')}]"
    return mark_order_invariant(wrapped)


def is_order_invariant(
    graph: LocalGraph,
    radius: int,
    decide: ViewFunction,
    advice: Optional[Mapping[Node, str]] = None,
    id_maps: Optional[List[Mapping[Node, int]]] = None,
) -> bool:
    """Empirical order-invariance check.

    Re-runs ``decide`` under order-preserving re-identifications (default:
    doubling and affine-shifting all identifiers) and compares outputs.
    A ``False`` answer is conclusive; ``True`` is evidence, not proof.
    """
    baseline = run_view_algorithm(graph, radius, decide, advice=advice).outputs
    if id_maps is None:
        ids = graph.ids()
        id_maps = [
            {v: 2 * i for v, i in ids.items()},
            {v: 3 * i + 7 for v, i in ids.items()},
            {v: i**2 + i for v, i in ids.items()},  # monotone for i >= 1
        ]
    for mapping in id_maps:
        renamed = LocalGraph(
            graph.graph,
            ids=mapping,
            inputs={v: graph.input_of(v) for v in graph.nodes()},
        )
        outputs = run_view_algorithm(renamed, radius, decide, advice=advice).outputs
        if outputs != baseline:
            return False
    return True


@dataclass
class LookupTable:
    """A finite-table representation of an order-invariant algorithm.

    ``learn`` populates the table from observed (view, output) pairs;
    ``decide`` answers from the table.  Conflicting outputs for
    order-isomorphic views mean the source algorithm was *not* order
    invariant — :class:`OrderInvarianceViolation` is raised, which is how
    the tests certify invariance on concrete graph families.
    """

    table: Dict[Tuple, object] = field(default_factory=dict)
    misses: int = 0

    def learn(self, view: View, output: object) -> None:
        key = view.order_signature()
        if key in self.table and self.table[key] != output:
            raise OrderInvarianceViolation(
                f"two order-isomorphic views produced {self.table[key]!r} "
                f"and {output!r}"
            )
        self.table[key] = output

    def decide(self, view: View) -> object:
        key = view.order_signature()
        if key not in self.table:
            self.misses += 1
            raise KeyError("view not in lookup table")
        return self.table[key]

    def __len__(self) -> int:
        return len(self.table)


class OrderInvarianceViolation(AssertionError):
    pass


def build_lookup_table(
    graphs: List[LocalGraph],
    radius: int,
    decide: ViewFunction,
    advice_per_graph: Optional[List[Optional[Mapping[Node, str]]]] = None,
) -> LookupTable:
    """Tabulate an (order-invariant) algorithm over sample graphs.

    The table's size is the empirical count of distinct order-canonical
    views — finite and independent of ``n`` on bounded-degree families,
    which is the quantitative heart of the Section 8 reduction (benchmark
    E2 reports how the table size saturates as ``n`` grows).
    """
    table = LookupTable()
    if advice_per_graph is None:
        advice_per_graph = [None] * len(graphs)
    for graph, advice in zip(graphs, advice_per_graph):
        for view in gather_all_views(graph, radius, advice=advice).values():
            table.learn(view, decide(view))
    return table


def run_lookup_table(
    graph: LocalGraph,
    radius: int,
    table: LookupTable,
    advice: Optional[Mapping[Node, str]] = None,
) -> RunResult:
    """Execute a lookup table as a LOCAL algorithm.

    The table is order-invariant by construction (it is keyed on order
    signatures), so the run opts into view memoization: order-isomorphic
    views hit the engine's cache before the table is even consulted.
    """
    return run_view_algorithm(graph, radius, table.decide, advice=advice, memoize=True)
