"""Locally checkable labeling (LCL) problems.

Following Section 3.3 of the paper, an LCL problem is a tuple
``(Sigma_in, Sigma_out, C, r)``: finite input/output alphabets, a
checkability radius ``r``, and a finite constraint set ``C`` of valid
labeled radius-``r`` neighborhoods.  A labeling solves the problem iff the
radius-``r`` neighborhood of *every* node looks valid.

Representation choices
----------------------
* Outputs live on *node-edge pairs* in the paper.  We represent the output
  of node ``v`` as a single label that may be a tuple with one entry per
  incident port (ports = incident edges sorted by neighbor identifier), so
  orientations and edge colorings fit the same interface as vertex
  colorings.
* The finite constraint set ``C`` is represented *intensionally*, as a
  predicate ``check(graph, labeling, center)`` that inspects only the
  radius-``r`` ball of ``center``.  For the bounded-degree graphs the paper
  considers, such a predicate and an explicit finite set are
  interchangeable.  The predicate is the definition of the problem and
  the oracle every faster form is tested against.
* A problem may also carry a ``compiled`` form of the same check over a
  snapshot's dense CSR indices (:mod:`repro.lcl.compiled`): one numpy pass
  for a whole-graph verify, and a per-node walk of the CSR row for region
  checks and the brute-force search.  The catalog builds one for proper
  vertex coloring, (almost-)balanced orientation, edge coloring and
  splitting.  The entry points of :mod:`repro.lcl.verify` and
  :mod:`repro.lcl.solve` choose it when present and fall back to the
  predicate wherever it cannot read a label exactly, so a verdict never
  depends on which form answered.
* ``candidates(graph, v)`` enumerates the finite set of labels node ``v``
  could output, enabling exhaustive solving of small clusters — exactly the
  "complete the solution inside the cluster by brute force" step of the
  Section 4 schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from ..local.graph import LocalGraph, Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .compiled import CompiledCheck

Label = Hashable
Labeling = Mapping[Node, Label]
CheckFn = Callable[[LocalGraph, Labeling, Node], bool]
CandidatesFn = Callable[[LocalGraph, Node], Sequence[Label]]


class LCLError(ValueError):
    """Raised for ill-formed LCL definitions or labelings."""


@dataclass(frozen=True)
class LCLProblem:
    """An LCL problem ``(Sigma_in, Sigma_out, C, r)`` in predicate form.

    Attributes
    ----------
    name:
        Human-readable problem name.
    radius:
        The checkability radius ``r``: validity of a labeling at ``v`` may
        depend only on labels within distance ``r`` of ``v``.
    check:
        Predicate deciding whether the radius-``r`` neighborhood of a node
        is validly labeled.  It must only read labels of nodes within
        distance ``radius`` of the center (enforced probabilistically by the
        test suite, not at runtime).
    candidates:
        Enumerator of the finite label set a node may output.  The set may
        depend on the node's degree and input (e.g. per-port tuples).
    compiled:
        Optional :class:`~repro.lcl.compiled.CompiledCheck` deciding the
        same constraint over CSR indices.  It must agree with ``check``
        wherever it answers; it is radius 1 by construction.
    """

    name: str
    radius: int
    check: CheckFn
    candidates: CandidatesFn
    compiled: Optional["CompiledCheck"] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise LCLError("checkability radius must be >= 1")
        if self.compiled is not None and self.radius != 1:
            raise LCLError("a compiled check has radius 1")

    def is_valid_at(self, graph: LocalGraph, labeling: Labeling, v: Node) -> bool:
        """Is the radius-``r`` neighborhood of ``v`` validly labeled?

        Always the predicate, never the compiled form: this is the oracle.
        Callers that check many nodes go through :mod:`repro.lcl.verify`.
        """
        return self.check(graph, labeling, v)

    def candidate_labels(self, graph: LocalGraph, v: Node) -> List[Label]:
        return list(self.candidates(graph, v))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LCLProblem({self.name!r}, radius={self.radius})"


def require_complete(labeling: Labeling, nodes: Iterable[Node]) -> None:
    """Raise :class:`LCLError` unless every node carries a label."""
    missing = [v for v in nodes if v not in labeling or labeling[v] is None]
    if missing:
        raise LCLError(f"labeling misses {len(missing)} nodes, e.g. {missing[0]!r}")


def port_label(
    graph: LocalGraph, labeling: Labeling, v: Node, u: Node
) -> Optional[Label]:
    """The per-port entry of ``v``'s label on the edge towards ``u``.

    Convenience for edge-labeled problems whose node labels are tuples with
    one entry per port.  Returns ``None`` when ``v`` is unlabeled.
    """
    label = labeling.get(v)
    if label is None:
        return None
    if not isinstance(label, tuple):
        raise LCLError(f"label of {v!r} is not a per-port tuple: {label!r}")
    return label[graph.port_of(v, u)]
