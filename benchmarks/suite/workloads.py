"""The four workloads of the benchmark suite.

Every workload is run the same way (:func:`run_workload`):

1. ``prepare(seed, seconds)`` builds every input from the seed before any
   clock starts: graphs, query streams, mutation plans and fault plans.
2. ``setup(inputs, rec)`` is the one-off work a user pays before the first
   answer; its wall time is part of ``setup_s``.
3. ``measure(state, inputs, seconds, pace)`` repeats identical passes
   until ``seconds`` have elapsed and returns the end-to-end metrics, plus
   how many operations were attempted and how many failed their
   correctness oracle.  Every time is reported at reference speed
   (:class:`Pace`).
   ``trace(state, inputs, seconds, rec)`` does the same with the layers
   called one by one inside spans, and returns the per-layer metrics as
   plain wall times.

The workloads call only public functions of ``repro`` and use its defaults:
engine ``auto``, the LOCAL metering policy and ``check=True``.  Sizes are
constructor arguments, so the smoke tests can run each workload tiny.
"""

from __future__ import annotations

import copy
import gc
import itertools
import random
import resource
import signal
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro import ChurnRunner, FaultPlan, LocalGraph, generate_mutation_plan, solve_with_advice
from repro.advice.bitstream import pack_parts, unpack_parts
from repro.advice.schema import AdviceError, AdviceSchema, validate_advice_map
from repro.core.api import available_schemas, default_instance, make_schema
from repro.dynamic import MutationPlan
from repro.dynamic.campaign import flagship_instance
from repro.graphs import cycle, grid, torus
from repro.local import gather_all_views, gather_view, is_marked_order_invariant
from repro.local.vectorized import gather_views_batched
from repro.obs.bandwidth import flooding_bandwidth
from repro.schemas.two_coloring import TwoColoringSchema
from repro.serve import AdviceService

from .spans import SpanRecorder

#: Seconds spent so far in :class:`Pace`'s signal handler.
_sampling_s = 0.0


def clock() -> float:
    """``time.perf_counter()`` minus the time spent sampling the host's
    speed, so a sample that interrupts an operation is not counted in it."""
    return time.perf_counter() - _sampling_s


#: A workload never measures fewer passes than this, however long one takes.
MIN_PASSES = 3

SOLVE_LAYERS = ("local.compile", "advice.encode", "advice.validate", "advice.pack",
                "schemas.decode", "bandwidth.meter", "lcl.verify",
                "local.gather", "local.signature", "local.decide")


@dataclass
class Outcome:
    """What one workload run reports: metrics by name, and its op counts."""

    metrics: Dict[str, float]
    attempted: int = 0
    failed: int = 0


#: Nodes and out-degree of the reference task's fixed random graph.
REFERENCE_NODES = 300
REFERENCE_DEGREE = 4
#: The reference task's time at reference speed: about its 5th percentile
#: over 10,000 runs on a 2-vCPU Xeon VM, Python 3.11.
REFERENCE_S = 0.00023
#: Seconds between two samples of the host's speed, and the fewest samples
#: a scale is taken from.
TICK_S = 0.01
MIN_SAMPLES = 5

_reference_rng = random.Random(0)
_REFERENCE_ADJ = [[_reference_rng.randrange(REFERENCE_NODES) for _ in range(REFERENCE_DEGREE)]
                  for _ in range(REFERENCE_NODES)]


def reference_task() -> int:
    """A BFS over a fixed random graph plus a sort, in plain Python: the
    dict, list and call work the program itself mostly does."""
    dist = {0: 0}
    frontier = [0]
    while frontier:
        reached = []
        for u in frontier:
            for w in _REFERENCE_ADJ[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    reached.append(w)
        frontier = reached
    return len(sorted(dist.items(), key=lambda kv: (kv[1], -kv[0])))


class Stopwatch:
    """Times operations in plain wall seconds (traced runs)."""

    def start(self) -> Tuple[float, int]:
        return clock(), 0

    def stop(self, started: Tuple[float, int]) -> float:
        return clock() - started[0]


class Pace(Stopwatch):
    """How fast the host runs, sampled all through a measurement.

    On a shared 2-vCPU VM the same code runs up to ~50% slower for seconds
    to minutes at a time, and the speed moves by the 50 ms, so even the
    fastest of many repeats moved 13-30% between runs.  Inside ``with
    Pace()``, a real-time interval timer interrupts the workload every
    :data:`TICK_S` seconds and the signal handler times one
    :func:`reference_task` (~2-3% of the time, left out of :func:`clock`).
    :meth:`stop` multiplies an operation's time by :meth:`scale` of the
    samples taken during it: the time is then seconds at reference speed,
    and a faster program still reads faster because the reference task
    never changes.  Scaling each operation by its own samples, rather than
    a whole pass by the pass's, cut the pass-to-pass variation of a
    solve-small instance (coefficient of variation, median over the ten
    instances) from 12% to 7%.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def _sample(self, signum: object = None, frame: object = None) -> None:
        global _sampling_s
        start = time.perf_counter()
        reference_task()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        _sampling_s += elapsed

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> Tuple[float, int]:
        return clock(), len(self.samples)

    def stop(self, started: Tuple[float, int]) -> float:
        """Seconds at reference speed since :meth:`start` returned ``started``."""
        begin, first = started
        return (clock() - begin) * self.scale(first)

    def scale(self, first: int = 0) -> float:
        """The factor from wall seconds to seconds at reference speed, from
        the samples taken since sample ``first``, or the last
        :data:`MIN_SAMPLES` if there are fewer (topped up on the spot)."""
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        first = min(first, len(self.samples) - MIN_SAMPLES)
        return REFERENCE_S / statistics.median(self.samples[first:])


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile (1..99), interpolated between samples."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Budget:
    """Whether to start another pass within ``seconds`` of measuring.

    Below ``minimum`` passes, always; after that only if a pass as long as
    the previous one still ends before the deadline, so a run stops close to
    ``seconds`` instead of overrunning it by up to a whole pass.
    """

    def __init__(self, seconds: float, minimum: int = MIN_PASSES) -> None:
        self.deadline = clock() + seconds
        self.minimum = minimum
        self.done = 0
        self._last = 0.0
        self._start: Optional[float] = None

    def another(self) -> bool:
        now = clock()
        if self._start is not None:
            self.done += 1
            self._last = now - self._start
        if self.done < self.minimum or now + self._last <= self.deadline:
            self._start = now
            return True
        return False


def fresh(graph: LocalGraph) -> LocalGraph:
    """A new ``LocalGraph`` over the same topology and ids, caches cold."""
    return LocalGraph(graph.graph, ids=graph.ids())


def layer_seconds(passes: List[Dict[str, float]], names: Sequence[str]) -> Dict[str, float]:
    """``<layer>_s``: median over traced passes of the layer's self time."""
    return {f"{name}_s": statistics.median(p.get(name, 0.0) for p in passes)
            for name in names}


def maybe_span(rec: Optional[SpanRecorder], name: str, **attrs: object):
    """``rec.span(...)`` in traced runs, a no-op context otherwise."""
    return rec.span(name, **attrs) if rec is not None else nullcontext({})


def _duration(span: Dict) -> float:
    return span["end"] - span["start"]


def span_sums(rec: SpanRecorder, first: int, name: str, keys: Sequence[str]) -> Dict[str, float]:
    """Sum the count attributes ``keys`` over spans called ``name``."""
    sums = dict.fromkeys(keys, 0.0)
    for s in rec.spans[first:]:
        if s["name"] == name:
            for key in keys:
                sums[key] += s[key]
    return sums


def decide_all(views: Dict, signatures: Dict, decide) -> Dict:
    """Decide every view, through a signature memo when ``decide`` allows it."""
    if not is_marked_order_invariant(decide):
        return {v: decide(view) for v, view in views.items()}
    memo: Dict[object, object] = {}
    outputs = {}
    for v, view in views.items():
        key = signatures[v]
        if key not in memo:
            memo[key] = decide(view)
        outputs[v] = memo[key]
    return outputs


# ---------------------------------------------------------------------------
# solve-small / solve-large: cold solve_with_advice over a fixed instance mix
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    label: str  # "<schema>.<graph>", the middle part of the inst.* metric names
    schema: str
    graph: LocalGraph  # prototype; every solve wraps a fresh copy
    kwargs: Dict[str, object]


#: Seed of the solve workloads' graphs and identifier assignments.  It is
#: fixed: with the graphs held, one pass of solve-small varied 3.7% between
#: repeats, but redrawing the ids alone per seed moved it 17.6% (lcl-subexp's
#: solve by 50%), more than any bound could absorb.
INSTANCE_SEED = 0


class SolveWorkload:
    """Cold solves of a fixed instance list; one pass solves each once.

    An operation is one instance's solve, and its latency is that
    instance's median over the passes, so ``op_p50_ms`` / ``op_p99_ms``
    are taken across the instances of the mix.
    """

    name = "solve"

    def setup(self, inputs: List[Instance], rec: Optional[SpanRecorder]) -> None:
        """Warm-up solves on cycle(64) and on a tiny instance of every schema
        in the mix, so lazy per-process set-up (numpy warm-up, tables some
        schemas build on first use) lands here and not in the first pass."""
        warmups = [("2-coloring", LocalGraph(cycle(64), seed=0), {})]
        for name in dict.fromkeys(inst.schema for inst in inputs):
            warmups.append((name, *default_instance(name, 64, 0)))
        for name, graph, kwargs in warmups:
            if not solve_with_advice(name, graph, **kwargs).valid:
                raise RuntimeError(f"warm-up solve of {name} is invalid")

    def _pass(self, inputs: List[Instance],
              watch: Stopwatch) -> Tuple[List[float], int, List[Optional[str]]]:
        times, failed, engines = [], 0, []
        for inst in inputs:
            graph = fresh(inst.graph)
            gc.collect()
            started = watch.start()
            run = solve_with_advice(inst.schema, graph, **inst.kwargs)
            times.append(watch.stop(started))
            failed += not run.valid
            engines.append(run.telemetry.get("engine"))
        return times, failed, engines

    def measure(self, state: None, inputs: List[Instance], seconds: float,
                pace: Pace) -> Outcome:
        passes: List[List[float]] = []
        failed = 0
        budget = Budget(seconds)
        while budget.another():
            times, bad, _ = self._pass(inputs, pace)
            passes.append(times)
            failed += bad
        ops = [statistics.median(column) for column in zip(*passes)]
        return Outcome(
            metrics={
                "pass_s": statistics.median(sum(p) for p in passes),
                "op_p50_ms": percentile(ops, 50) * 1e3,
                "op_p99_ms": percentile(ops, 99) * 1e3,
            },
            attempted=sum(map(len, passes)),
            failed=failed,
        )

    def trace(self, state: None, inputs: List[Instance], seconds: float,
              rec: SpanRecorder) -> Outcome:
        """Alternate one untraced pass with one traced pass until time is up."""
        untraced: List[List[float]] = []
        layers: List[Dict[str, float]] = []
        counts: List[Dict[str, float]] = []
        rows: List[List[Dict[str, float]]] = []
        covered: List[float] = []
        traced_wall: List[float] = []
        attempted = failed = 0
        budget = Budget(seconds, minimum=1)
        while budget.another():
            times, bad, engines = self._pass(inputs, Stopwatch())
            untraced.append(times)
            attempted += len(times)
            failed += bad
            gc.collect()
            first = len(rec.spans)
            pass_rows = []
            for inst, engine in zip(inputs, engines):
                ok, row = traced_solve(inst, rec, engine)
                attempted += 1
                failed += not ok
                pass_rows.append(row)
            rows.append(pass_rows)
            layers.append(rec.self_times(first))
            covered.append(sum(r["layers_s"] for r in pass_rows))
            traced_wall.append(sum(r["solve_s"] for r in pass_rows))
            solve = span_sums(rec, first, "solve", ("bits", "bits_on_wire"))
            views = span_sums(rec, first, "views", ("views", "bfs_visits", "distinct"))
            counts.append({
                "advice.bits": solve["bits"],
                "bandwidth.bits_on_wire": solve["bits_on_wire"],
                "local.views": views["views"],
                "local.bfs_visits": views["bfs_visits"],
                "local.distinct_view_ratio": views["distinct"] / max(1.0, views["views"]),
            })
        metrics = layer_seconds(layers, SOLVE_LAYERS)
        for key in counts[0]:
            metrics[key] = statistics.median(c[key] for c in counts)
        for index, inst in enumerate(inputs):
            prefix = f"inst.{inst.label}"
            metrics[f"{prefix}.solve_s"] = statistics.median(p[index] for p in untraced)
            for key in ("encode_s", "decode_s", "meter_s"):
                metrics[f"{prefix}.{key}"] = statistics.median(r[index][key] for r in rows)
        untraced_pass = statistics.median(sum(p) for p in untraced)
        metrics["trace.coverage"] = statistics.median(covered) / untraced_pass
        metrics["trace.overhead_ratio"] = statistics.median(traced_wall) / untraced_pass - 1.0
        return Outcome(metrics=metrics, attempted=attempted, failed=failed)


def traced_solve(inst: Instance, rec: SpanRecorder,
                 engine: Optional[str]) -> Tuple[bool, Dict[str, float]]:
    """One cold solve with its layers called in ``AdviceSchema.run`` order.

    The advice is also packed and unpacked, as ``AdviceService`` does.  For
    a schema with a per-view decoder the view engine is then timed on a
    second fresh graph, with the gather engine ``auto`` chose for the
    untraced solve; its labels must equal the decoder's.
    """
    graph = fresh(inst.graph)
    with rec.span("solve", op=rec.new_op(), instance=inst.label) as root:
        with rec.span("local.compile") as compile_:
            graph.compiled
        schema = make_schema(inst.schema, **inst.kwargs)
        with rec.span("advice.encode") as encode:
            advice = schema.encode(graph)
        with rec.span("advice.validate") as validate:
            validate_advice_map(graph, advice)
        with rec.span("advice.pack") as pack:
            parts = [advice.get(v, "") for v in sorted(graph.nodes(), key=graph.id_of)]
            packed_ok = unpack_parts(pack_parts(parts), len(parts)) == parts
        with rec.span("schemas.decode") as decode:
            result = schema.decode(graph, advice)
        with rec.span("bandwidth.meter") as meter:
            stats = result.stats
            profile = stats.bandwidth if stats is not None else None
            if profile is None:
                profile = flooding_bandwidth(graph, result.rounds, advice)
        with rec.span("lcl.verify") as verify:
            valid = schema.check_solution(graph, result.labeling)
    root["bits"] = sum(len(bits) for bits in advice.values())
    root["bits_on_wire"] = profile.total_bits
    row = {
        "solve_s": _duration(root),
        "layers_s": sum(map(_duration, (compile_, encode, validate, pack, decode, meter, verify))),
        "encode_s": _duration(encode),
        "decode_s": _duration(decode),
        "meter_s": _duration(meter),
    }
    ok = valid and packed_ok
    decide = schema.view_decoder()
    if decide is not None:
        view_graph = fresh(inst.graph)
        radius = schema.locality_contract(view_graph).radius
        with rec.span("views", op=rec.new_op(), instance=inst.label, engine=engine) as span:
            with rec.span("local.gather"):
                if engine == "vectorized":
                    views = gather_views_batched(view_graph, radius, advice)
                else:
                    views = gather_all_views(view_graph, radius, advice)
            with rec.span("local.signature"):
                signatures = {v: view.order_signature() for v, view in views.items()}
            with rec.span("local.decide"):
                outputs = decide_all(views, signatures, decide)
        span["views"] = len(views)
        span["bfs_visits"] = sum(len(view.nodes) for view in views.values())
        span["distinct"] = len(set(signatures.values()))
        ok = ok and outputs == dict(result.labeling)
    return ok, row


class SolveSmall(SolveWorkload):
    """All ten schemas on ``default_instance(name, n, INSTANCE_SEED)``."""

    name = "solve-small"

    def __init__(self, n: int = 500) -> None:
        self.n = n

    def prepare(self, seed: int, seconds: float) -> List[Instance]:
        out = []
        for name in available_schemas():
            graph, kwargs = default_instance(name, self.n, INSTANCE_SEED)
            out.append(Instance(f"{name}.default", name, graph, kwargs))
        return out


class SolveLarge(SolveWorkload):
    """View-engine heavy instances above n = 2048.

    One-bit-orientation, the slowest tracker decoder, is left to solve-small:
    on cycle-2100 its solve varied +-15% between passes of one process even
    at reference speed, and it took ~40% of each pass.
    """

    name = "solve-large"

    def __init__(self, grid_side: int = 46, cycle_n: int = 6000) -> None:
        self.grid_side, self.cycle_n = grid_side, cycle_n

    def prepare(self, seed: int, seconds: float) -> List[Instance]:
        side, n = self.grid_side, self.cycle_n + self.cycle_n % 2

        def wrap(raw: nx.Graph) -> LocalGraph:
            return LocalGraph(raw, seed=INSTANCE_SEED)

        return [
            Instance("2-coloring.grid", "2-coloring", wrap(grid(side, side)), {}),
            Instance("2-coloring.cycle", "2-coloring", wrap(cycle(n)), {}),
            Instance("balanced-orientation.cycle", "balanced-orientation", wrap(cycle(n)), {}),
        ]


# ---------------------------------------------------------------------------
# serve-skewed: AdviceService under a skewed single-node query stream
# ---------------------------------------------------------------------------

#: Share of queries drawn from the hot set, and the Zipf exponent there.
HOT_FRACTION = 0.8
ZIPF_EXPONENT = 1.1
TENANTS = 4


@dataclass
class ServeInputs:
    seed: int
    graph: nx.Graph
    hot: frozenset
    stream: List[Tuple[int, str]]  # one pass's queries, as (node, tenant)
    oracle_graph: nx.Graph


class ServeSkewed:
    """Passes that replay one seeded query stream against a fresh service.

    A pass builds a new ``AdviceService`` over the set-up graph, outside the
    clock, so its memo starts empty and every pass sees the same hits and
    misses.  One closed-loop client then sends the stream's single-node
    queries, timing each.  An operation is one query; its latency is its
    median over the passes, and ``op_p50_ms`` / ``op_p99_ms`` are taken
    across the stream.  ``pass_s`` is the stream's time, so the capacity is
    ``queries / pass_s`` queries/s.

    The graph is a torus, so every ball has the same size and the hot set's
    position cannot make one seed cheaper than another.  There is no open
    loop: on a 2-vCPU VM its p99, set by host jitter, spread 22-35% between
    runs of the same code however it was scaled, while replaying the stream
    makes each query's latency repeatable.
    """

    name = "serve-skewed"

    def __init__(self, side: int = 256, hot: int = 512, queries: int = 1000,
                 oracle_side: int = 32, layer_nodes: int = 500) -> None:
        self.side, self.hot, self.queries = side, hot, queries
        self.oracle_side, self.layer_nodes = oracle_side, layer_nodes

    def prepare(self, seed: int, seconds: float) -> ServeInputs:
        """The seed picks the nodes: the hot set, the uniform draws and the
        graph's ids.  The stream's shape (which queries are hot, their Zipf
        ranks, the tenants) is fixed by :data:`INSTANCE_SEED`, so every seed
        has the same memo hits: with the shape redrawn too, the hits of a
        pass ranged 587-625 of 1000 and the median query moved 10% across
        ten seeds."""
        rng, shape = random.Random(seed), random.Random(INSTANCE_SEED)
        n = self.side * self.side
        hot = rng.sample(range(n), min(self.hot, n))
        weights = list(itertools.accumulate(k ** -ZIPF_EXPONENT for k in range(1, len(hot) + 1)))

        def draw() -> Tuple[int, str]:
            if shape.random() < HOT_FRACTION:
                node = shape.choices(hot, cum_weights=weights)[0]
            else:
                node = rng.randrange(n)
            return node, f"tenant-{shape.randrange(TENANTS)}"

        stream = [draw() for _ in range(self.queries)]
        return ServeInputs(seed, torus(self.side, self.side), frozenset(hot), stream,
                           torus(self.oracle_side, self.oracle_side))

    def setup(self, inputs: ServeInputs, rec: Optional[SpanRecorder]) -> AdviceService:
        graph = LocalGraph(inputs.graph, seed=inputs.seed)
        with maybe_span(rec, "local.compile"):
            graph.compiled
        with maybe_span(rec, "serve.setup"):
            service = AdviceService(TwoColoringSchema(spacing=8), graph)
        service.query(inputs.stream[0][0])
        return service

    def _pass(self, graph: LocalGraph, inputs: ServeInputs, rec: Optional[SpanRecorder],
              watch: Stopwatch) -> Tuple[List[float], List]:
        """Per-query times and the answers."""
        service = AdviceService(TwoColoringSchema(spacing=8), graph)
        gc.collect()
        times, answers = [], []
        for node, tenant in inputs.stream:
            started = watch.start()
            with maybe_span(rec, "serve.query", node=node, tenant=tenant):
                answers.append(service.query(node, tenant=tenant))
            times.append(watch.stop(started))
        service.close()
        return times, answers

    def _failures(self, service: AdviceService, inputs: ServeInputs, answers: List) -> int:
        """Queries whose answer differs from a scalar, memo-free decode of the
        node's ball, plus one if the all-nodes cross-check fails."""
        decide = service.schema.view_decoder()
        expected: Dict[int, object] = {}
        failed = 0
        for result in answers:
            if result.node not in expected:
                view = gather_view(service.graph, result.node, service.radius, service.advice)
                expected[result.node] = decide(view)
            failed += result.label != expected[result.node]
        raw = inputs.oracle_graph
        oracle = AdviceService(TwoColoringSchema(spacing=8), LocalGraph(raw, seed=inputs.seed))
        served = {r.node: r.label for r in oracle.query_batch(sorted(raw.nodes()))}
        oracle.close()
        run = solve_with_advice(TwoColoringSchema(spacing=8), LocalGraph(raw, seed=inputs.seed))
        return failed + (not (run.valid and served == run.result.labeling))

    def measure(self, service: AdviceService, inputs: ServeInputs, seconds: float,
                pace: Pace) -> Outcome:
        passes: List[List[float]] = []
        answers: List = []
        budget = Budget(seconds)
        while budget.another():
            times, got = self._pass(service.graph, inputs, None, pace)
            passes.append(times)
            answers += got
        ops = [statistics.median(column) for column in zip(*passes)]
        return Outcome(
            metrics={
                "pass_s": statistics.median(sum(p) for p in passes),
                "op_p50_ms": percentile(ops, 50) * 1e3,
                "op_p99_ms": percentile(ops, 99) * 1e3,
            },
            attempted=len(answers) + 1,
            failed=self._failures(service, inputs, answers),
        )

    def trace(self, service: AdviceService, inputs: ServeInputs, seconds: float,
              rec: SpanRecorder) -> Outcome:
        """Alternate one untraced pass with one traced pass until time is up;
        then the view layers are timed one node at a time on stream nodes."""
        untraced: List[List[float]] = []
        traced: List[List[float]] = []
        answers: List = []
        budget = Budget(seconds, minimum=1)
        while budget.another():
            for side, recorder in ((untraced, None), (traced, rec)):
                times, got = self._pass(service.graph, inputs, recorder, Stopwatch())
                side.append(times)
                answers += got
        failed = self._failures(service, inputs, answers)
        busy = [t for times in untraced for t in times]

        graph, radius, advice = service.graph, service.radius, service.advice
        decide = service.schema.view_decoder()
        vectorized = service.snapshot()["engine"] == "vectorized"
        nodes = list(dict.fromkeys(node for node, _ in inputs.stream))[: self.layer_nodes]
        first = len(rec.spans)
        parts: Dict[str, List[float]] = {"gather": [], "signature": [], "decide": []}
        sizes, signatures = [], set()
        for v in nodes:
            with rec.span("views", node=v):
                with rec.span("local.gather") as gather:
                    if vectorized:
                        roots = [graph.compiled.index_of[v]]
                        view = gather_views_batched(graph, radius, advice, roots=roots)[v]
                    else:
                        view = gather_view(graph, v, radius, advice)
                with rec.span("local.signature") as signature:
                    signatures.add(view.order_signature())
                with rec.span("local.decide") as decided:
                    decide(view)
            for key, span in (("gather", gather), ("signature", signature), ("decide", decided)):
                parts[key].append(_duration(span))
            sizes.append(len(view.nodes))
        views_self = rec.self_times(first)
        setup_self = rec.self_times()

        hit_ratio = sum(r.cache_hit for r in answers) / len(answers)
        per_node_us = {k: statistics.median(v) * 1e6 for k, v in parts.items()}
        layered_us = (per_node_us["gather"] + per_node_us["signature"]
                      + (1.0 - hit_ratio) * per_node_us["decide"])
        metrics = {
            "local.compile_s": setup_self.get("local.compile", 0.0),
            "serve.setup_encode_s": setup_self.get("serve.setup", 0.0),
            "serve.service_p50_ms": statistics.median(busy) * 1e3,
            "serve.memo_hit_ratio": hit_ratio,
            "serve.hot_share": sum(r.node in inputs.hot for r in answers) / len(answers),
            "serve.ball_p50": statistics.median(r.ball_size for r in answers),
            "serve.sampled_ratio": sum(r.sampled for r in answers) / len(answers),
            "serve.gather_us": per_node_us["gather"],
            "serve.signature_us": per_node_us["signature"],
            "serve.decide_us": per_node_us["decide"],
            "local.views": len(nodes),
            "local.bfs_visits": sum(sizes),
            "local.distinct_view_ratio": len(signatures) / len(nodes),
            "trace.coverage": layered_us / (statistics.mean(busy) * 1e6),
            "trace.overhead_ratio": statistics.median(map(sum, traced))
            / statistics.median(map(sum, untraced)) - 1.0,
        }
        metrics.update(layer_seconds([views_self], ("local.gather", "local.signature",
                                                    "local.decide")))
        return Outcome(metrics=metrics, attempted=len(answers) + 1, failed=failed)


# ---------------------------------------------------------------------------
# repair: churn mutations and fault-injected solves
# ---------------------------------------------------------------------------


@dataclass
class FaultCase:
    schema: str
    graph: LocalGraph
    kwargs: Dict[str, object]
    plan: FaultPlan


@dataclass
class RepairInputs:
    graph: LocalGraph  # the 2-coloring churn flagship
    schema: AdviceSchema
    plan: MutationPlan
    faults: List[FaultCase]


@dataclass
class RepairPass:
    times: List[float]  # per mutation
    records: List  # one MutationRecord per mutation
    fault_s: List[float]
    reports: List  # one RobustnessReport per fault-injected solve
    attempted: int = 0
    failed: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.times) + sum(self.fault_s)


class Repair:
    """One pass copies the bootstrapped churn runner of the 2-coloring
    flagship (outside the clock), applies the same mutations to it, then
    runs the same fault-injected solves, so passes are identical units of
    work.  Times are at reference speed (:class:`Pace`).
    An operation is one mutation; its latency is its median over the
    passes, and the percentiles are taken across the mutations.

    The inputs are fixed (:data:`INSTANCE_SEED`), like the solve
    instances, so the seed changes nothing here.  With the mutation plan
    redrawn per seed, the median mutation spread 8% across six seeds,
    against 2% over repeats of one seed; with the fault plans redrawn,
    ``pass_s`` spread 16%.  Fault solves skip 3-coloring
    (its repair took ~0.2 s or ~4 s depending on the fault seed) and
    delta-coloring (some flip plans make its decoder raise
    ``ColoringError``, which the robust runner does not catch).
    """

    name = "repair"
    FAULT_SCHEMAS = ("2-coloring", "balanced-orientation")

    def __init__(self, grid_side: int = 24, mutations: int = 1000, fault_n: int = 1000,
                 fault_seeds: int = 3, check_every: int = 100) -> None:
        self.grid_side, self.mutations = grid_side, mutations
        self.fault_n, self.fault_seeds, self.check_every = fault_n, fault_seeds, check_every

    def prepare(self, seed: int, seconds: float) -> RepairInputs:
        graph, schema, model = flagship_instance("2-coloring", self.grid_side ** 2, INSTANCE_SEED)
        plan = generate_mutation_plan(graph, self.mutations, seed=INSTANCE_SEED, model=model)
        faults = []
        for name in self.FAULT_SCHEMAS:
            fault_graph, kwargs = default_instance(name, self.fault_n, INSTANCE_SEED)
            for k in range(self.fault_seeds):
                fault_plan = FaultPlan(seed=k, advice_flips=4)
                faults.append(FaultCase(name, fault_graph, kwargs, fault_plan))
        return RepairInputs(graph, schema, plan, faults)

    def setup(self, inputs: RepairInputs, rec: Optional[SpanRecorder]) -> ChurnRunner:
        with maybe_span(rec, "dynamic.bootstrap"):
            return ChurnRunner(inputs.schema, inputs.graph)

    def _pass(self, runner: ChurnRunner, inputs: RepairInputs, rec: Optional[SpanRecorder],
              watch: Stopwatch) -> RepairPass:
        """Apply the plan to ``runner``, with a whole-graph check every
        ``check_every`` mutations, then run the fault-injected solves.  Only
        ``runner.apply`` and the solves are timed."""
        out = RepairPass([], [], [], [])
        gc.collect()
        for index, mutation in enumerate(inputs.plan.mutations):
            started = watch.start()
            with maybe_span(rec, "dynamic.apply", kind=mutation.kind):
                record = runner.apply(mutation)
            out.times.append(watch.stop(started))
            out.records.append(record)
            out.attempted += 1
            out.failed += not record.valid
            if (index + 1) % self.check_every == 0:
                with maybe_span(rec, "lcl.verify"):
                    ok = runner.schema.check_solution(runner.graph, runner.labeling)
                out.attempted += 1
                out.failed += not ok
        for case in inputs.faults:
            graph = fresh(case.graph)
            gc.collect()
            started = watch.start()
            with maybe_span(rec, "faults.solve", schema=case.schema):
                run = solve_with_advice(case.schema, graph, fault_plan=case.plan, **case.kwargs)
            out.fault_s.append(watch.stop(started))
            out.reports.append(run.robustness)
            out.attempted += 1
            out.failed += not run.robustness.final_valid
        return out

    def _checkpoint(self, runner: ChurnRunner, rec: Optional[SpanRecorder]) -> bool:
        """Decode the maintained advice map on a fresh graph over the mutated
        topology, so no cache the writes filled is reused."""
        graph = fresh(runner.graph)
        with maybe_span(rec, "local.compile"):
            graph.compiled
        with maybe_span(rec, "dynamic.checkpoint"):
            try:
                result = runner.schema.decode(graph, dict(runner.advice))
            except AdviceError:
                return False
            return runner.schema.check_solution(graph, result.labeling)

    def measure(self, runner: ChurnRunner, inputs: RepairInputs, seconds: float,
                pace: Pace) -> Outcome:
        passes: List[RepairPass] = []
        budget = Budget(seconds)
        while budget.another():
            live = copy.deepcopy(runner)
            passes.append(self._pass(live, inputs, None, pace))
        mutations = [statistics.median(column) for column in zip(*(p.times for p in passes))]
        return Outcome(
            metrics={
                "pass_s": statistics.median(p.wall_s for p in passes),
                "op_p50_ms": percentile(mutations, 50) * 1e3,
                "op_p99_ms": percentile(mutations, 99) * 1e3,
            },
            attempted=sum(p.attempted for p in passes) + 1,
            failed=sum(p.failed for p in passes) + (not self._checkpoint(live, None)),
        )

    def trace(self, runner: ChurnRunner, inputs: RepairInputs, seconds: float,
              rec: SpanRecorder) -> Outcome:
        """Alternate one untraced pass with one traced pass until time is up,
        then trace the checkpoint once."""
        setup_self = rec.self_times()
        untraced: List[RepairPass] = []
        traced: List[RepairPass] = []
        layers: List[Dict[str, float]] = []
        covered: List[float] = []
        budget = Budget(seconds, minimum=1)
        while budget.another():
            untraced.append(self._pass(copy.deepcopy(runner), inputs, None, Stopwatch()))
            live = copy.deepcopy(runner)
            first = len(rec.spans)
            traced.append(self._pass(live, inputs, rec, Stopwatch()))
            layers.append(rec.self_times(first))
            covered.append(sum(_duration(s) for s in rec.spans[first:]
                               if s["name"] in ("dynamic.apply", "faults.solve")))
        first = len(rec.spans)
        ok = self._checkpoint(live, rec)
        checkpoint = rec.self_times(first)
        records, reports = traced[-1].records, traced[-1].reports
        untraced_wall = statistics.median(p.wall_s for p in untraced)
        metrics = layer_seconds(layers, ("lcl.verify",))
        metrics.update({
            "local.compile_s": checkpoint.get("local.compile", 0.0),
            "dynamic.bootstrap_s": setup_self.get("dynamic.bootstrap", 0.0),
            "dynamic.checkpoint_s": checkpoint.get("dynamic.checkpoint", 0.0),
            "dynamic.local_ratio": sum(r.local for r in records) / len(records),
            "dynamic.reencode_fallbacks": sum(r.resolved_by == "reencode" for r in records),
            "faults.detected_ratio": sum(r.detected for r in reports) / len(reports),
            "faults.local_repair_ratio": sum(r.repaired_locally for r in reports) / len(reports),
            "faults.gave_up": sum(r.gave_up for r in reports),
            "faults.repair_actions": sum(len(r.actions) for r in reports),
            "trace.coverage": statistics.median(covered) / untraced_wall,
            "trace.overhead_ratio": statistics.median(p.wall_s for p in traced)
            / untraced_wall - 1.0,
        })
        every = untraced + traced
        return Outcome(metrics=metrics, attempted=sum(p.attempted for p in every) + 1,
                       failed=sum(p.failed for p in every) + (not ok))


WORKLOADS = {w.name: w for w in (SolveSmall(), SolveLarge(), ServeSkewed(), Repair())}


def set_up(workload, inputs, rec: Optional[SpanRecorder] = None,
           import_s: float = 0.0) -> Tuple[object, float]:
    """Run the workload's set-up; return its state and ``setup_s``:
    ``import_s`` plus the set-up's wall time, at the reference speed
    sampled during the set-up."""
    with Pace() as pace:
        start = clock()
        state = workload.setup(inputs, rec)
        wall = import_s + clock() - start
        return state, wall * pace.scale()


def run_workload(workload, seed: int, seconds: float, rec: Optional[SpanRecorder] = None,
                 import_s: float = 0.0) -> Outcome:
    """Prepare, set up and measure one workload in this process.

    Untraced (``rec is None``) it returns the end-to-end metrics, with
    ``setup_s`` from :func:`set_up`, and ``peak_rss_mb``.  Traced it
    returns the per-layer metrics the workload measures.
    """
    inputs = workload.prepare(seed, seconds)
    state, setup_s = set_up(workload, inputs, rec, import_s)
    if rec is not None:
        return workload.trace(state, inputs, seconds, rec)
    with Pace() as pace:
        outcome = workload.measure(state, inputs, seconds, pace)
    outcome.metrics["setup_s"] = setup_s
    outcome.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcome

