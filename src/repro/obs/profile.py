"""Work profiling: attribute engine work and wall time to trace spans.

The paper's cost model charges *work*, not seconds: bits per node β,
decoder rounds T, and the ball sizes actually gathered (Definition 3.2).
The engine already counts that work (:class:`repro.perf.SimStats`) and the
tracer already records where time went (:class:`repro.obs.trace.Tracer`);
this module joins the two into a :class:`WorkProfile` — a span tree where
every span carries

* **wall time**, cumulative (its whole subtree) and self (exclusive);
* **work counters** (:data:`repro.perf.WORK_COUNTERS`), likewise
  cumulative and self, read from the span attributes that
  :meth:`repro.perf.SimStats.span` stamps: each engine span carries the
  ``SimStats`` delta over its lifetime, so the engine span holds the run
  totals and its ``gather``/``decide`` children split them;
* **event counts** (one ``decide`` event per node, one ``round`` event per
  message-passing round).

On top of the tree: :meth:`WorkProfile.collapsed` exports collapsed-stack
lines for flamegraph tooling (``a;b;c 42``), :meth:`WorkProfile.critical_path`
follows the heaviest child chain, and :meth:`WorkProfile.timeline` lays
the spans and per-round events on the trace clock.  Because spans and
``SchemaRun.telemetry`` both read the one ``SimStats``, the profile totals
equal the telemetry counters by construction; the test suite asserts the
equality on all ten schemas and both engines.

Profiles are built entirely from trace records (a :class:`RingSink`, a
JSONL file, or any record iterable), so profiling costs nothing unless a
tracer was attached — the ``NULL_TRACER`` fast path is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..perf import WORK_COUNTERS
from .trace import RingSink, Tracer, load_jsonl


@dataclass
class SpanWork:
    """One span of the profile tree with attributed work.

    ``work`` / ``wall`` are *cumulative* (the span's whole subtree);
    ``work_self`` / ``wall_self`` are *exclusive* (the subtree minus the
    span's children), so summing self values over all spans of a trace
    never counts a unit of work twice.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    depth: int
    #: root-to-this-span names, the collapsed-stack identity of the span.
    path: Tuple[str, ...]
    start: float
    end: float
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List[int] = field(default_factory=list)
    events: int = 0
    wall: float = 0.0
    wall_self: float = 0.0
    work: Dict[str, float] = field(default_factory=dict)
    work_self: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "path": ";".join(self.path),
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "wall": round(self.wall, 9),
            "wall_self": round(self.wall_self, 9),
            "events": self.events,
            "work": {k: v for k, v in self.work.items() if v},
            "work_self": {k: v for k, v in self.work_self.items() if v},
        }


def _numeric(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


class WorkProfile:
    """Span-tree work attribution of one traced run (see module docstring)."""

    def __init__(self, spans: List[SpanWork], events: List[Dict[str, object]]):
        self.spans = spans
        self._by_id = {s.span_id: s for s in spans}
        self._events = events

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, object]]) -> "WorkProfile":
        """Build a profile from raw trace records (spans close-ordered)."""
        raw_spans: List[Mapping[str, object]] = []
        events: List[Dict[str, object]] = []
        events_per_span: Dict[Optional[int], int] = {}
        for record in records:
            kind = record.get("kind")
            if kind == "span":
                raw_spans.append(record)
            elif kind == "event":
                events.append(dict(record))
                span = record.get("span")
                events_per_span[span] = events_per_span.get(span, 0) + 1

        spans: Dict[int, SpanWork] = {}
        for record in raw_spans:
            span_id = int(record["span"])
            parent = record.get("parent")
            spans[span_id] = SpanWork(
                span_id=span_id,
                parent_id=int(parent) if parent is not None else None,
                name=str(record.get("name", "?")),
                depth=0,
                path=(),
                start=float(record.get("start", 0.0)),
                end=float(record.get("end", 0.0)),
                attrs=dict(record.get("attrs") or {}),
                events=events_per_span.get(span_id, 0),
            )
        for span in spans.values():
            parent = spans.get(span.parent_id) if span.parent_id is not None else None
            if parent is not None:
                parent.children.append(span.span_id)
        for span in spans.values():
            span.children.sort(key=lambda i: spans[i].start)

        roots = sorted(
            (s for s in spans.values()
             if s.parent_id is None or s.parent_id not in spans),
            key=lambda s: s.start,
        )

        ordered: List[SpanWork] = []

        def resolve(span: SpanWork, depth: int, prefix: Tuple[str, ...]) -> None:
            span.depth = depth
            span.path = prefix + (span.name,)
            span.wall = span.end - span.start
            children = [spans[i] for i in span.children]
            for child in children:
                resolve(child, depth + 1, span.path)
            span.wall_self = span.wall - sum(c.wall for c in children)
            for counter in WORK_COUNTERS:
                declared = _numeric(span.attrs.get(counter))
                from_children = sum(c.work.get(counter, 0.0) for c in children)
                # A span's cumulative work is what it declared; spans that
                # declare nothing inherit their children's total (e.g.
                # schema_run/decode wrap the engine spans without counting).
                cumulative = declared if declared is not None else from_children
                span.work[counter] = cumulative
                span.work_self[counter] = cumulative - from_children
            ordered.append(span)

        for root in roots:
            resolve(root, 0, ())
        ordered.sort(key=lambda s: (s.start, s.span_id))
        return cls(ordered, events)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "WorkProfile":
        """Profile from a live tracer's first :class:`RingSink`."""
        ring = tracer.ring()
        if ring is None:
            raise ValueError("tracer has no RingSink attached to read back")
        return cls.from_records(ring.records)

    @classmethod
    def from_jsonl(cls, path: str) -> "WorkProfile":
        return cls.from_records(load_jsonl(path))

    # -- structure -----------------------------------------------------------

    @property
    def roots(self) -> List[SpanWork]:
        return [s for s in self.spans if s.parent_id not in self._by_id]

    def children_of(self, span: SpanWork) -> List[SpanWork]:
        return [self._by_id[i] for i in span.children]

    def by_name(self, name: str) -> List[SpanWork]:
        return [s for s in self.spans if s.name == name]

    # -- totals ---------------------------------------------------------------

    def total(self, metric: str) -> float:
        """Whole-trace total of ``metric`` (a work counter or ``"wall"``)."""
        if metric == "wall":
            return sum(s.wall for s in self.roots)
        return sum(s.work.get(metric, 0.0) for s in self.roots)

    def totals(self) -> Dict[str, float]:
        out = {counter: self.total(counter) for counter in WORK_COUNTERS}
        out["wall"] = self.total("wall")
        return out

    def self_totals(self, metric: str) -> float:
        """Sum of per-span *self* values — must equal :meth:`total`."""
        if metric == "wall":
            return sum(s.wall_self for s in self.spans)
        return sum(s.work_self.get(metric, 0.0) for s in self.spans)

    # -- collapsed stacks (flamegraph interchange) ---------------------------

    def stack_totals(self, metric: str = "wall") -> Dict[Tuple[str, ...], int]:
        """Aggregated per-stack *self* values, as collapsed stacks carry them.

        Wall time is scaled to integer microseconds (the unit flamegraph
        tools expect); counters are already integral.  Stacks whose value
        rounds to zero are dropped, matching the emitted lines.
        """
        totals: Dict[Tuple[str, ...], int] = {}
        for span in self.spans:
            if metric == "wall":
                value = int(round(span.wall_self * 1e6))
            else:
                value = int(round(span.work_self.get(metric, 0.0)))
            if value:
                totals[span.path] = totals.get(span.path, 0) + value
        return totals

    def collapsed(self, metric: str = "wall") -> str:
        """Collapsed-stack lines (``root;child;leaf value``), one per stack.

        Feed to ``flamegraph.pl`` / speedscope / inferno unchanged.  Values
        are per-stack self totals (:meth:`stack_totals`); the output is
        sorted for determinism and round-trips through
        :func:`parse_collapsed`.
        """
        return "\n".join(
            f"{';'.join(path)} {value}"
            for path, value in sorted(self.stack_totals(metric).items())
        )

    # -- critical path -------------------------------------------------------

    def critical_path(self, metric: str = "wall") -> List[SpanWork]:
        """Root-to-leaf chain following the heaviest child at each step.

        ``metric`` may be ``"wall"`` or any work counter; the heaviest root
        starts the path and ties break toward the earlier span.
        """

        def weight(span: SpanWork) -> float:
            return span.wall if metric == "wall" else span.work.get(metric, 0.0)

        roots = self.roots
        if not roots:
            return []
        path: List[SpanWork] = []
        current = max(roots, key=weight)
        while True:
            path.append(current)
            children = self.children_of(current)
            if not children:
                return path
            heaviest = max(children, key=weight)
            if weight(heaviest) <= 0 and metric != "wall":
                return path
            current = heaviest

    # -- timelines -----------------------------------------------------------

    def timeline(self) -> List[Dict[str, object]]:
        """Spans as (start, end) intervals on the trace clock, tree-ordered."""
        return [
            {
                "name": span.name,
                "path": ";".join(span.path),
                "depth": span.depth,
                "start": span.start,
                "end": span.end,
                "wall": round(span.wall, 9),
            }
            for span in self.spans
        ]

    def rounds(self) -> List[Dict[str, object]]:
        """Per-round timeline from ``round`` events (message passing)."""
        out = []
        for event in self._events:
            if event.get("name") != "round":
                continue
            attrs = event.get("attrs") or {}
            out.append(
                {
                    "round": attrs.get("round"),
                    "messages": attrs.get("messages"),
                    "t": event.get("t"),
                }
            )
        return out

    # -- rendering -----------------------------------------------------------

    def table(self, metrics: Sequence[str] = ("bfs_node_visits", "decide_calls")) -> str:
        """Indented per-span table: wall self/cumulative plus chosen counters."""
        header = (
            f"{'span':<40s} {'wall ms':>9s} {'self ms':>9s}"
            + "".join(f" {m:>{max(len(m), 8)}s}" for m in metrics)
        )
        lines = [header, "-" * len(header)]
        for span in self.spans:
            label = "  " * span.depth + span.name
            suffix = ""
            n_events = span.events
            if n_events:
                suffix = f"  [{n_events} events]"
            cells = "".join(
                f" {span.work.get(m, 0.0):>{max(len(m), 8)}g}" for m in metrics
            )
            lines.append(
                f"{label:<40s} {span.wall * 1000:9.2f} {span.wall_self * 1000:9.2f}"
                f"{cells}{suffix}"
            )
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        """Compact JSON-ready digest (what the report embeds per schema)."""
        crit = self.critical_path()
        return {
            "totals": {
                k: (round(v, 9) if k == "wall" else v)
                for k, v in self.totals().items()
            },
            "spans": len(self.spans),
            "events": len(self._events),
            "critical_path": [
                {"name": s.name, "wall": round(s.wall, 9), "self": round(s.wall_self, 9)}
                for s in crit
            ],
            "hottest_self": [
                {
                    "path": ";".join(s.path),
                    "wall_self": round(s.wall_self, 9),
                    "work_self": {k: v for k, v in s.work_self.items() if v},
                }
                for s in sorted(self.spans, key=lambda s: -s.wall_self)[:5]
            ],
        }


def parse_collapsed(text: str) -> Dict[Tuple[str, ...], int]:
    """Parse collapsed-stack lines back into ``{stack_path: value}``.

    The inverse of :meth:`WorkProfile.collapsed` (same aggregation): the
    profiler's round-trip property test pins
    ``parse_collapsed(p.collapsed(m)) == p.stack_totals(m)``.  Repeated
    stacks accumulate, as flamegraph semantics require.
    """
    totals: Dict[Tuple[str, ...], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack_part, _, value_part = line.rpartition(" ")
        if not stack_part:
            raise ValueError(f"malformed collapsed-stack line: {line!r}")
        path = tuple(stack_part.split(";"))
        totals[path] = totals.get(path, 0) + int(value_part)
    return totals


def profile_run(
    schema: object,
    graph: object,
    clock: Optional[object] = None,
    capacity: int = 1 << 20,
    **run_kwargs: object,
) -> Tuple[object, "WorkProfile"]:
    """Run ``schema`` on ``graph`` with an attached tracer; return (run, profile).

    A convenience wrapper over ``AdviceSchema.run``: attaches a fresh
    :class:`RingSink` tracer (optionally on a deterministic ``clock``),
    runs, and folds the records into a profile.  Engine totals land in
    both ``run.telemetry`` and ``profile.totals()``, equal by construction:
    both read the run's :class:`repro.perf.SimStats`.
    """
    ring = RingSink(capacity=capacity)
    tracer = Tracer(ring, clock=clock)
    run = schema.run(graph, tracer=tracer, **run_kwargs)
    return run, WorkProfile.from_records(ring.records)
