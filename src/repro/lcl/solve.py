"""Exact (exponential-time) LCL solving for small regions.

The Section 4 schema completes solutions "inside each cluster by brute
force": the cluster center knows the cluster's topology and the advice-fixed
labels on the border, and searches for any completion.  The encoder side of
several schemas similarly needs *some* global solution.  Both are served by
the backtracking solver here.

The solver relies on the catalog predicates being *monotone under
refinement*: a predicate may only report a violation that no completion of
the partial labeling could fix (unlabeled neighbors are treated
optimistically).  All catalog problems satisfy this, which makes incremental
pruning sound.  For a problem with a compiled form
(:mod:`repro.lcl.compiled`) the search goes further: such a check is a
test of a node's own label plus one symmetric test per edge, so labeling
``v`` can only make ``v``'s own check fail, and each step runs that one
check over ``v``'s labeled neighbours instead of re-checking ``v``'s ball.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from ..local.graph import LocalGraph, Node
from .problem import Label, LCLProblem
from .verify import check_at, is_valid


class SearchBudgetExceeded(RuntimeError):
    """Raised when the backtracking search exceeds its step budget."""


def _bfs_order(graph: LocalGraph, nodes: Sequence[Node]) -> List[Node]:
    """Order ``nodes`` so that consecutive nodes are close (better pruning)."""
    todo = set(nodes)
    order: List[Node] = []
    while todo:
        start = min(todo, key=graph.id_of)
        queue = deque([start])
        seen = {start}
        while queue:
            v = queue.popleft()
            if v in todo:
                order.append(v)
                todo.discard(v)
            for u in graph.neighbors(v):
                if u not in seen and (u in todo or any(w in todo for w in graph.neighbors(u))):
                    seen.add(u)
                    queue.append(u)
    return order


def _assignments(
    problem: LCLProblem,
    graph: LocalGraph,
    labeling: Dict[Node, Label],
    order: Sequence[Node],
    max_steps: int,
) -> Iterator[Dict[Node, Label]]:
    """Yield ``labeling`` each time the backtracking search completes it.

    ``order`` is labeled in turn; every candidate tried is one step of the
    ``max_steps`` budget.  A candidate stays only if every labeled node
    whose ``r``-ball contains it still passes its check; with a compiled
    form that is ``v``'s own check (see the module docstring), since every
    label in the search already passed one.  ``labeling`` is extended in
    place, so a caller that keeps a yielded labeling must stop iterating.
    Iterative, so regions may exceed Python's recursion limit.
    """
    radius, is_valid_at = problem.radius, problem.is_valid_at
    compiled = graph.compiled
    # One search re-checks the same balls at every step; the table lives
    # as long as the search, so it never outlives a topology change.
    balls: Dict[Node, List[Node]] = {}

    def consistent_after(v: Node) -> bool:
        if problem.compiled is not None:
            return check_at(problem, graph, labeling, v)
        ball = balls.get(v)
        if ball is None:
            ball = balls[v] = compiled.ball(v, radius)
        for u in ball:
            if u in labeling and not is_valid_at(graph, labeling, u):
                return False
        return True

    if not order:
        yield labeling
        return
    steps = 0
    # One candidate iterator per labeled position: the search's stack.
    stack: List[Iterator[Label]] = [iter(problem.candidate_labels(graph, order[0]))]
    while stack:
        v = order[len(stack) - 1]
        for label in stack[-1]:
            steps += 1
            if steps > max_steps:
                raise SearchBudgetExceeded(
                    f"{problem.name}: exceeded {max_steps} backtracking steps"
                )
            labeling[v] = label
            if consistent_after(v):
                break
            del labeling[v]
        else:
            # No candidate fits v: retract the previous node's label.
            stack.pop()
            if stack:
                del labeling[order[len(stack) - 1]]
            continue
        if len(stack) == len(order):
            yield labeling
            del labeling[v]
        else:
            stack.append(iter(problem.candidate_labels(graph, order[len(stack)])))


def solve_exact(
    problem: LCLProblem,
    graph: LocalGraph,
    fixed: Optional[Mapping[Node, Label]] = None,
    restrict_to: Optional[Iterable[Node]] = None,
    max_steps: int = 2_000_000,
) -> Optional[Dict[Node, Label]]:
    """Find a labeling of ``restrict_to`` consistent with ``fixed``.

    Parameters
    ----------
    problem:
        The LCL to solve.
    graph:
        The host graph.  Validity is checked in ``graph`` (so labels of
        ``fixed`` nodes outside ``restrict_to`` constrain the solution).
    fixed:
        Pre-assigned labels that must be respected (the advice-decoded
        border labels in the Section 4 schema).  Every fixed label is
        copied and checked before the search starts, so callers pass only
        the labels the search's checks can read: those within ``2 r`` of
        ``restrict_to`` for the LCL radius ``r``.  A fixed label further
        out costs time, and a fault there is blamed on this search.
    restrict_to:
        The nodes to label.  Defaults to all unlabeled nodes.  Local checks
        are run at every labeled node; nodes that remain unlabeled are
        treated optimistically, so the caller is responsible for a final
        global check once every region is completed.
    max_steps:
        Backtracking-step budget; exceeding it raises
        :class:`SearchBudgetExceeded` (it never silently returns ``None``).

    Returns
    -------
    The combined labeling (``fixed`` plus assignments), or ``None`` when no
    completion exists.
    """
    labeling: Dict[Node, Label] = dict(fixed or {})
    if restrict_to is None:
        targets = [v for v in graph.nodes() if v not in labeling]
    else:
        targets = [v for v in restrict_to if v not in labeling]
    # Fixed labels must themselves be consistent before we search.
    for v in labeling:
        if not check_at(problem, graph, labeling, v):
            return None
    order = _bfs_order(graph, targets)
    return next(_assignments(problem, graph, labeling, order, max_steps), None)


def count_solutions(
    problem: LCLProblem,
    graph: LocalGraph,
    max_steps: int = 2_000_000,
) -> int:
    """Count complete valid labelings (for tiny graphs / tests only)."""
    nodes = graph.nodes()
    # A complete labeling still gets the global check (handles maximality).
    return sum(
        is_valid(problem, graph, labeling)
        for labeling in _assignments(
            problem, graph, {}, _bfs_order(graph, nodes), max_steps
        )
    )
