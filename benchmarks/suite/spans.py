"""The benchmark's own span recorder, used only by traced runs.

It is deliberately not ``repro.obs.Tracer``: the suite judges refactors of
``repro.obs``, so the instrument that measures them must not change with
them.  Spans are opened by the benchmark around each public call it makes,
kept in memory, and written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    """Nested spans with name, start, end, parent id and operation id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[Dict[str, object]] = []
        self._ops = 0

    def new_op(self) -> int:
        self._ops += 1
        return self._ops

    @contextmanager
    def span(self, name: str, op: Optional[int] = None, **attrs: object) -> Iterator[Dict]:
        parent = self._open[-1] if self._open else None
        if op is None:
            op = parent["op"] if parent is not None else self.new_op()
        record = {"id": len(self.spans), "name": name,
                  "parent": None if parent is None else parent["id"],
                  "op": op, **attrs, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, first: int = 0) -> Dict[str, float]:
        """Self time summed per span name, over spans recorded from ``first`` on.

        A span's self time is its duration minus that of its children; the
        children of one span run one after another, so they never overlap.
        """
        own = {s["id"]: s["end"] - s["start"] for s in self.spans[first:]}
        for s in self.spans[first:]:
            if s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        totals: Dict[str, float] = {}
        for s in self.spans[first:]:
            totals[s["name"]] = totals.get(s["name"], 0.0) + max(0.0, own[s["id"]])
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, default=str) + "\n")
