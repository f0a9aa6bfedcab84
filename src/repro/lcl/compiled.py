"""Compiled forms of the catalog LCL checks, over a snapshot's CSR indices.

An :class:`~repro.lcl.problem.LCLProblem`'s closure ``check(graph,
labeling, v)`` defines the problem, and it stays the oracle.  It is also
slow in bulk: every call builds ``graph.neighbors(v)`` as a node list and
looks each neighbour up through the graph.  A :class:`CompiledCheck`
decides the same constraint over the dense indices of a
:class:`~repro.local.compiled.CompiledGraph`, in two forms:

* **whole graph** — :meth:`CompiledCheck.verdicts` reads every label once
  into arrays (vertex colours as interned int codes, per-port tuples as
  one flat array aligned to the CSR slots) and returns one verdict per
  dense index from a few numpy passes over the ports;
* **per node** — :meth:`CompiledCheck.valid_at` walks
  ``indices[indptr[i]:indptr[i + 1]]`` directly and builds no neighbour
  list.

**Shape.**  Every compiled check has radius 1 and is a conjunction of a
test of the node's own label and one *symmetric* test per incident edge,
between the two colours or the two port entries of that edge.  So in a
search that keeps every labeled node valid, labeling ``v`` can only make
``v``'s own check fail (:mod:`repro.lcl.solve` relies on this).

**Exactness.**  A compiled form answers only where it reads the labels
exactly as the closure does.  An unhashable label or entry, or a per-port
label that is not a tuple of the node's degree, makes it defer: the whole
graph form reports that node and its neighbours as *unsure*, and the
per-node form returns ``None``.  The caller then asks the closure, so
every verdict, and every ``LCLError``, ``IndexError`` or ``KeyError``, is
the closure's.  Unlabeled neighbours are optimistic, and an unlabeled node
fails.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..local.compiled import CompiledGraph
from ..local.graph import LocalGraph, Node

# numpy is imported where it is used, so ``import repro`` stays numpy-free.
if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Per-node read states of a whole-graph pass.
_READ, _UNLABELED, _UNREADABLE = 0, 1, 2


def _row_any(mask: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per row of the CSR: is ``mask`` set at any of its slots?"""
    return _row_counts(mask, indptr) > 0


def _row_counts(mask: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per row of the CSR: how many of its slots have ``mask`` set.

    ``np.add.reduceat`` returns the start element for an empty row, and
    needs every start inside the array, so the slots get one zero of
    padding and empty rows are zeroed afterwards.
    """
    import numpy as np

    starts = indptr[:-1]
    padded = np.zeros(len(mask) + 1, dtype=np.int32)
    padded[:-1] = mask
    counts = np.add.reduceat(padded, starts)
    counts[starts == indptr[1:]] = 0
    return counts


def same_colour_ports(compiled: CompiledGraph, codes: np.ndarray) -> np.ndarray:
    """Per CSR slot: do the port's tail and head hold the same code?

    The one port comparison behind properness: the vertex-colouring check
    and :func:`repro.algorithms.coloring.is_proper` both read it.
    """
    import numpy as np

    indptr, indices, _ = compiled.np_csr()
    return np.repeat(codes, np.diff(indptr)) == codes[indices]


def proper_by_ports(graph: LocalGraph, coloring: Mapping[Node, object]) -> bool:
    """Does one port comparison prove ``coloring`` proper?

    ``True`` when every node has a hashable colour and no port joins two
    equal colours.  ``False`` means some edge is monochromatic, or some
    node has no (hashable) colour; the caller then runs its own edge scan
    to decide and to report exactly as before.
    """
    import numpy as np

    compiled = graph.compiled
    table: Dict[Hashable, int] = {}
    try:
        codes = np.fromiter(
            (table.setdefault(coloring[v], len(table)) for v in compiled.nodes),
            dtype=np.int64,
            count=compiled.n,
        )
    except (KeyError, TypeError):
        return False
    return not same_colour_ports(compiled, codes).any()


class CompiledCheck:
    """A radius-1 catalog check over dense CSR indices (see module doc)."""

    def verdicts(
        self, compiled: CompiledGraph, labels: Sequence[object]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ok, unsure)``: boolean verdicts per dense index.

        ``labels[i]`` is the label of ``compiled.nodes[i]`` (``None`` when
        unlabeled).  ``ok[i]`` is the closure's verdict wherever
        ``unsure[i]`` is false; unsure nodes must be asked of the closure.
        """
        raise NotImplementedError

    def valid_at(
        self, compiled: CompiledGraph, labeling: Mapping[Node, object], i: int
    ) -> Optional[bool]:
        """The closure's verdict at dense index ``i``, or ``None`` when a
        label in the neighbourhood cannot be read exactly."""
        raise NotImplementedError


class ProperColoringCheck(CompiledCheck):
    """Proper vertex colouring from a fixed palette (``vertex_coloring``)."""

    def __init__(self, colors: Sequence[int]) -> None:
        self.colors = tuple(colors)
        self._palette = {c: code for code, c in enumerate(self.colors)}

    def _codes(
        self, labels: Sequence[object]
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(codes, in_palette, unreadable)`` per node; unlabeled and
        unreadable nodes get code -1, and ``unreadable`` is ``None`` when
        every label was read."""
        import numpy as np

        n = len(labels)
        try:
            # Common case: every node holds a palette colour.
            codes = np.fromiter(
                map(self._palette.__getitem__, labels), dtype=np.int64, count=n
            )
            return codes, np.ones(n, dtype=bool), None
        except (KeyError, TypeError):
            pass
        table: Dict[Hashable, int] = {}
        out: List[int] = []
        unreadable = np.zeros(n, dtype=bool)
        for i, label in enumerate(labels):
            if label is None:
                out.append(-1)
                continue
            try:
                out.append(table.setdefault(label, len(table)))
            except TypeError:
                unreadable[i] = True
                out.append(-1)
        codes = np.asarray(out, dtype=np.int64)
        # One False past the interned labels: code -1 indexes it.
        allowed = np.fromiter(
            chain((key in self.colors for key in table), (False,)),
            dtype=bool,
            count=len(table) + 1,
        )
        return codes, allowed[codes], unreadable

    def verdicts(
        self, compiled: CompiledGraph, labels: Sequence[object]
    ) -> Tuple[np.ndarray, np.ndarray]:
        import numpy as np

        indptr, indices, _ = compiled.np_csr()
        codes, in_palette, unreadable = self._codes(labels)
        # A clash at an unlabeled tail (code -1) is moot: it already fails.
        ok = in_palette & ~_row_any(same_colour_ports(compiled, codes), indptr)
        if unreadable is None:
            return ok, np.zeros(compiled.n, dtype=bool)
        return ok, unreadable | _row_any(unreadable[indices], indptr)

    def valid_at(
        self, compiled: CompiledGraph, labeling: Mapping[Node, object], i: int
    ) -> Optional[bool]:
        get, nodes = labeling.get, compiled.nodes
        mine = get(nodes[i])
        if mine not in self.colors:
            return False
        for j in compiled.indices[compiled.indptr[i] : compiled.indptr[i + 1]]:
            theirs = get(nodes[j])
            if not (theirs is None or theirs != mine):
                return False
        return True


class PortCheck(CompiledCheck):
    """A per-port tuple problem: orientations, edge colourings, splittings.

    ``alphabet`` is the set of allowed entries, coded by position.  The
    edge test asks the two entries of an edge to be equal (``agree``, a
    colour shared by both endpoints) or to differ (an orientation's
    ``+1`` / ``-1``).  The test of a node's own letters is that no letter
    repeats (``distinct``), or else that the first letter of the alphabet
    fills half the ports, give or take one.  ``own_first`` says whether
    the closure tests its own letters before the edges (the per-node form
    keeps the closure's order, so it raises where the closure raises).
    """

    def __init__(
        self, alphabet: Sequence[object], agree: bool, distinct: bool, own_first: bool
    ) -> None:
        self.alphabet = tuple(alphabet)
        self.agree = agree
        self.distinct = distinct
        self.own_first = own_first
        self._code = {entry: code for code, entry in enumerate(self.alphabet)}

    # -- whole graph ---------------------------------------------------------

    def _read(
        self, compiled: CompiledGraph, labels: Sequence[object]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(codes, state)``: one code per CSR slot (-1 outside the
        alphabet, and on every slot of a node not in state ``_READ``) and
        one read state per node (``None`` when every label was read)."""
        import numpy as np

        total = len(compiled.indices)
        if labels and set(map(type, labels)) == {tuple}:
            if np.array_equal(
                np.fromiter(map(len, labels), dtype=np.int64, count=len(labels)),
                np.diff(compiled.np_csr()[0]),
            ):
                try:
                    codes = np.fromiter(
                        map(self._code.__getitem__, chain.from_iterable(labels)),
                        dtype=np.int32,
                        count=total,
                    )
                    return codes, None
                except (KeyError, TypeError):
                    pass
        lookup = self._code.get
        out: List[int] = []
        state = np.full(compiled.n, _READ, dtype=np.int8)
        for i, (label, degree) in enumerate(zip(labels, compiled.degrees)):
            if isinstance(label, tuple) and len(label) == degree:
                try:
                    out.extend([lookup(entry, -1) for entry in label])
                    continue
                except TypeError:
                    pass
            state[i] = _UNLABELED if label is None else _UNREADABLE
            out.extend([-1] * degree)
        return np.asarray(out, dtype=np.int32), state

    def _own_ok(
        self, compiled: CompiledGraph, codes: np.ndarray, indptr: np.ndarray
    ) -> np.ndarray:
        """Per node: does its own label pass (entries in the alphabet, plus
        the balance or distinctness test)?"""
        import numpy as np

        ok = ~_row_any(codes < 0, indptr)
        degrees = np.diff(indptr)
        if not self.distinct:
            firsts = _row_counts(codes == 0, indptr)
            return ok & (np.abs(2 * firsts - degrees) <= 1)
        # Sort each row's codes (the keys never cross rows) and look for
        # equal neighbours in the sorted order.
        width = len(self.alphabet) + 1
        tails = np.repeat(np.arange(compiled.n, dtype=np.int64), degrees)
        keys = np.sort(tails * width + (codes + 1))
        repeated = keys[1:][keys[1:] == keys[:-1]] // width
        ok[repeated] = False
        return ok

    def verdicts(
        self, compiled: CompiledGraph, labels: Sequence[object]
    ) -> Tuple[np.ndarray, np.ndarray]:
        import numpy as np

        indptr, indices, _ = compiled.np_csr()
        codes, state = self._read(compiled, labels)
        across = codes[compiled.reverse_slots()]
        bad = (codes != across) if self.agree else (codes == across)
        ok = self._own_ok(compiled, codes, indptr)
        if state is None:
            return ok & ~_row_any(bad, indptr), np.zeros(compiled.n, dtype=bool)
        heads = state[indices]
        ok &= (state == _READ) & ~_row_any(bad & (heads == _READ), indptr)
        unsure = (state == _UNREADABLE) | _row_any(heads == _UNREADABLE, indptr)
        return ok, unsure

    # -- per node ------------------------------------------------------------

    def _own_at(self, mine: tuple) -> bool:
        """The distinctness or balance test of a tuple of letters."""
        if self.distinct:
            return len(set(mine)) == len(mine)
        first = self.alphabet[0]
        return abs(2 * sum(1 for entry in mine if entry == first) - len(mine)) <= 1

    def _edges_at(
        self, compiled: CompiledGraph, labeling: Mapping[Node, object], i: int, mine: tuple
    ) -> Optional[bool]:
        get, nodes = labeling.get, compiled.nodes
        indptr, indices, nbr_ids = compiled.indptr, compiled.indices, compiled.nbr_ids
        ident = compiled.ids[i]
        lo = indptr[i]
        agree = self.agree
        for p, j in enumerate(indices[lo : indptr[i + 1]]):
            theirs = get(nodes[j])
            if theirs is None:
                continue
            if not isinstance(theirs, tuple):
                return None
            start = indptr[j]
            q = bisect_left(nbr_ids, ident, start, indptr[j + 1]) - start
            if q >= len(theirs):
                return None
            if agree:
                if mine[p] != theirs[q]:
                    return False
            elif mine[p] == theirs[q]:
                return False
        return True

    def valid_at(
        self, compiled: CompiledGraph, labeling: Mapping[Node, object], i: int
    ) -> Optional[bool]:
        mine = labeling.get(compiled.nodes[i])
        if not isinstance(mine, tuple) or len(mine) != compiled.degrees[i]:
            return False
        alphabet = self.alphabet
        if any(entry not in alphabet for entry in mine):
            return False
        if self.own_first and not self._own_at(mine):
            return False
        edges = self._edges_at(compiled, labeling, i, mine)
        if edges and not self.own_first:
            return self._own_at(mine)
        return edges
