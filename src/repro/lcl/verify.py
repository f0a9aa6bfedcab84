"""Distributed verification of LCL solutions.

An LCL solution is valid iff every node's radius-``r`` neighborhood is
valid — this is what makes the problems *locally checkable* and underpins
the paper's corollary that every advice schema yields a locally checkable
proof (Section 1.2): to verify, recover the solution from the advice and run
exactly this check.

These functions are the one way the rest of the package runs that check.
For a problem with a compiled form (:mod:`repro.lcl.compiled`) a
whole-graph verify is one numpy pass over the CSR ports, and a region
check walks each node's CSR row; the problem's predicate answers for
problems without one, and for every node whose neighbourhood holds a label
the compiled form cannot read exactly.  Verdicts, their order and the
exceptions raised are the predicate's either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..local.graph import LocalGraph, Node
from .problem import Labeling, LCLProblem

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def check_at(problem: LCLProblem, graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
    """``problem.is_valid_at(graph, labeling, v)``, from the compiled
    per-node form when the problem has one and it can answer."""
    form = problem.compiled
    if form is not None:
        compiled = graph.compiled
        i = compiled.index_of.get(v)
        if i is not None:
            verdict = form.valid_at(compiled, labeling, i)
            if verdict is not None:
                return verdict
    return problem.is_valid_at(graph, labeling, v)


def _verdicts(
    problem: LCLProblem, graph: LocalGraph, labeling: Labeling
) -> Optional[Tuple[List[Node], np.ndarray, np.ndarray]]:
    """``(nodes, ok, unsure)`` of the compiled whole-graph form, in graph
    order, or ``None`` for a problem without one."""
    if problem.compiled is None:
        return None
    compiled = graph.compiled
    nodes = compiled.nodes
    ok, unsure = problem.compiled.verdicts(compiled, [labeling.get(v) for v in nodes])
    return nodes, ok, unsure


def _settled(
    problem: LCLProblem, graph: LocalGraph, labeling: Labeling
) -> Optional[Tuple[List[Node], np.ndarray]]:
    """Every node's verdict, in graph order, or ``None`` for a problem
    without a compiled form.  Unsure nodes are asked of the predicate in
    graph order, so the first exception is the one a node-by-node sweep
    would raise."""
    found = _verdicts(problem, graph, labeling)
    if found is None:
        return None
    nodes, ok, unsure = found
    for i in unsure.nonzero()[0].tolist():
        ok[i] = problem.is_valid_at(graph, labeling, nodes[i])
    return nodes, ok


def violations(
    problem: LCLProblem,
    graph: LocalGraph,
    labeling: Labeling,
    nodes: Optional[Iterable[Node]] = None,
) -> List[Node]:
    """Nodes whose radius-``r`` neighborhood violates the constraint.

    Without ``nodes``, every node of ``graph`` is checked and the result is
    in graph order.  With ``nodes`` (a region check of a repair runtime),
    only those are checked, in the order given, and a node counts as
    violating when it is unlabeled or when its check raises ``KeyError``.
    """
    if nodes is not None:
        bad: List[Node] = []
        for v in nodes:
            if v not in labeling:
                bad.append(v)
                continue
            try:
                if not check_at(problem, graph, labeling, v):
                    bad.append(v)
            except KeyError:
                bad.append(v)
        return bad
    settled = _settled(problem, graph, labeling)
    if settled is None:
        return [v for v in graph.nodes() if not problem.is_valid_at(graph, labeling, v)]
    nodes, ok = settled
    return [nodes[i] for i in (~ok).nonzero()[0].tolist()]


def is_valid(problem: LCLProblem, graph: LocalGraph, labeling: Labeling) -> bool:
    """Global validity = local validity everywhere."""
    found = _verdicts(problem, graph, labeling)
    if found is None:
        return all(problem.is_valid_at(graph, labeling, v) for v in graph.nodes())
    nodes, ok, unsure = found
    # A sweep stops at the first rejecting node: unsure nodes before the
    # first sure rejection are asked in order, later ones never.
    for i in (~ok | unsure).nonzero()[0].tolist():
        if not unsure[i] or not problem.is_valid_at(graph, labeling, nodes[i]):
            return False
    return True


def assert_valid(problem: LCLProblem, graph: LocalGraph, labeling: Labeling) -> None:
    """Raise ``AssertionError`` with the offending nodes if invalid."""
    bad = violations(problem, graph, labeling)
    if bad:
        raise AssertionError(
            f"{problem.name}: invalid at {len(bad)} nodes, e.g. {bad[:5]!r}"
        )


def accept_map(
    problem: LCLProblem, graph: LocalGraph, labeling: Labeling
) -> Dict[Node, bool]:
    """Per-node accept/reject decisions of the distributed verifier."""
    settled = _settled(problem, graph, labeling)
    if settled is None:
        return {v: problem.is_valid_at(graph, labeling, v) for v in graph.nodes()}
    nodes, ok = settled
    return dict(zip(nodes, ok.tolist()))
