"""Command-line demo runner: ``python -m repro [schema] [--n N] [--seed S]``.

Without arguments, runs every registered schema on a suitable default
instance and prints a one-line report per schema — a smoke test of the
whole reproduction.  With a schema name, runs just that one.  ``--json``
swaps the table for a machine-readable report (per-schema telemetry
included) so CI and scripts can consume it.

``python -m repro trace <schema> [--n N] [--seed S] [--out trace.jsonl]``
runs one schema with tracing on: the full span/event stream lands in a
JSONL file and a span-tree summary plus the telemetry is printed.

``python -m repro lint [--json] [--fuzz] [--fix-waivers]`` runs the
locality & order-invariance linter (:mod:`repro.analysis`) over the
LOCAL-contract code and exits non-zero on unwaived violations.

``python -m repro chaos [--runs N] [--seed S] [--json] [--out FILE]``
runs the seeded corruption campaign (:mod:`repro.faults`): every schema
gets flipped/erased/truncated advice bits and must either self-heal
locally or escalate visibly; exits non-zero unless detection is 100% and
every run ends valid.

``python -m repro churn [--mutations N] [--seed S] [--json] [--out FILE]``
runs the seeded live-mutation campaign (:mod:`repro.dynamic`): flagship
instances mutate under a family-preserving churn plan and the dynamic
runner must keep the (graph, advice) pair valid by bounded-radius local
repair; exits non-zero unless every mutation ends valid and the
local-repair rate meets the floor.

``python -m repro profile <schema> [--metric M] [--collapsed FILE]``
runs one schema with a tracer attached and prints the per-span work
profile (:mod:`repro.obs.profile`) — self/cumulative wall time, engine
work counters, and the critical path; ``--collapsed`` writes
flamegraph-ready collapsed-stack lines.  Exits non-zero when the decoded
labeling is invalid.

``python -m repro report [--json] [--out FILE] [--html FILE]
[--history BENCH_history.json]`` builds the unified observability
dashboard across all schemas (telemetry + work profiles + optional chaos
and lint summaries, stamped with provenance) and maintains the cross-PR
deterministic-metric history (:mod:`repro.obs.report`).

``python -m repro bandwidth <schema> [--policy congest --budget B]
[--json]`` reports one schema's bits-on-wire profile
(:mod:`repro.obs.bandwidth`): total bits, per-round and per-edge
quantiles, hotspot edges, and the minimal CONGEST budget that fits the
run; under ``--policy congest`` a too-small ``--budget`` exits nonzero
with the attributed overflow.

``python -m repro certify [--json] [--schema S] [--selftest]`` runs the
locality certifier (:mod:`repro.analysis.locality`): every schema's
declared ``LocalityContract`` must equal the static upper bounds on
``(T, beta)`` and dominate a dynamic tight-witness run; exits non-zero
on any LOC101/LOC102/LOC103 finding.

``python -m repro serve-bench [--sides 64,128,256] [--queries N]
[--verify] [--out FILE]`` runs the open-loop serving load generator
(:mod:`repro.serve`): one :class:`~repro.serve.AdviceService` per grid
size answers a seeded query stream from per-node radius-``T`` ball
gathers, reporting p50/p95/p99 per-query latency vs n at fixed Δ; exits
non-zero when per-query work is not flat across sizes, when per-tenant /
sampling counters fail to reconcile, or (with ``--verify``) when any
served answer differs from a cold full-graph decode.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional

from .advice.schema import SchemaRun
from .core.api import available_schemas, default_instance, make_schema
from .obs import JsonlSink, RingSink, Tracer, format_span_tree, load_jsonl
from .perf import WORK_COUNTERS


def run_one(
    name: str, n: int, seed: int, tracer: Optional[Tracer] = None
) -> SchemaRun:
    graph, kwargs = default_instance(name, n, seed)
    schema = make_schema(name, **kwargs)
    return schema.run(graph, tracer=tracer)


def trace_main(argv: list) -> int:
    """``python -m repro trace <schema>``: one traced run + JSONL dump."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one schema with full tracing; write a JSONL trace.",
    )
    parser.add_argument("schema", choices=available_schemas())
    parser.add_argument("--n", type=int, default=120, help="instance size hint")
    parser.add_argument("--seed", type=int, default=0, help="identifier seed")
    parser.add_argument(
        "--out", default=None, help="trace file (default: trace-<schema>.jsonl)"
    )
    args = parser.parse_args(argv)

    out = args.out or f"trace-{args.schema}.jsonl"
    ring = RingSink(capacity=65536)
    sink = JsonlSink(out)
    tracer = Tracer(ring, sink)
    try:
        run = run_one(args.schema, args.n, args.seed, tracer=tracer)
    except Exception as exc:
        tracer.close()
        print(f"{args.schema}: ERROR {type(exc).__name__}: {exc}")
        report = getattr(exc, "failure_report", None)
        if report is not None:
            print(report.summary())
        print(f"wrote {out} ({len(load_jsonl(out))} records)")
        return 1
    tracer.close()

    records = load_jsonl(out)
    print(f"== trace: {args.schema} (n={run.n}, seed={args.seed})")
    print(format_span_tree(records))
    events = sum(1 for r in records if r.get("kind") == "event")
    print(f"\n{len(records)} records ({events} events) -> {out}")
    print("\n== telemetry")
    for key in (
        "beta", "rounds", "bits_per_node", "total_advice_bits", "schema_type",
        *WORK_COUNTERS, "cache_hit_rate",
    ):
        print(f"{key:20s} {run.telemetry.get(key)}")
    if run.failures:
        print("\n== failures")
        for report in run.failures:
            print(report.summary())
    return 0 if run.valid else 1


def chaos_main(argv: list) -> int:
    """``python -m repro chaos``: the seeded fault-injection campaign."""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Corrupt every schema's advice under seeded fault plans "
        "and check the robust runner detects and locally repairs the damage.",
    )
    parser.add_argument(
        "--runs", type=int, default=200, help="campaign size (default 200)"
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument("--n", type=int, default=64, help="instance size hint")
    parser.add_argument(
        "--max-faults",
        type=int,
        default=4,
        help="max corrupted advice strings per run (default 4)",
    )
    parser.add_argument(
        "--schema",
        action="append",
        choices=available_schemas(),
        help="restrict to this schema (repeatable; default: all)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full campaign report as JSON",
    )
    parser.add_argument(
        "--out", default=None, help="also write the JSON report to this file"
    )
    args = parser.parse_args(argv)

    from .faults import run_campaign

    try:
        result = run_campaign(
            runs=args.runs,
            seed=args.seed,
            schemas=args.schema,
            n=args.n,
            max_faults=args.max_faults,
        )
    except ValueError as exc:
        parser.error(str(exc))
    payload = result.as_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        totals = result.totals
        print(
            f"chaos campaign: {totals['runs']} runs, "
            f"{totals['harmful']} harmful, {totals['masked']} masked"
        )
        header = (
            f"{'schema':24s} {'harmful':>7s} {'detected':>8s} "
            f"{'local':>6s} {'escalated':>9s}"
        )
        print(header)
        print("-" * len(header))
        for name, agg in result.per_schema.items():
            print(
                f"{name:24s} {agg['harmful']:7d} {agg['detected']:8d} "
                f"{agg['repaired_locally']:6d} {agg['escalated']:9d}"
            )
        print(
            f"detection {totals['detection_rate']:.1%}, "
            f"local repair {totals['local_repair_rate']:.1%}, "
            f"radius histogram {totals['repair_radius_hist']}"
        )
        if not result.ok:
            print("CHAOS FAILURE: see per-run records (--json) for details")
    return 0 if result.ok else 1


def churn_main(argv: list) -> int:
    """``python -m repro churn``: the seeded live-mutation campaign."""
    from .dynamic.campaign import FLAGSHIPS, run_churn_campaign

    parser = argparse.ArgumentParser(
        prog="python -m repro churn",
        description="Mutate flagship instances under a seeded churn plan and "
        "check the dynamic runner keeps the (graph, advice) pair valid by "
        "local repair.",
    )
    parser.add_argument(
        "--mutations",
        type=int,
        default=500,
        help="mutation stream length per schema (default 500)",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument("--n", type=int, default=64, help="instance size hint")
    parser.add_argument(
        "--schema",
        action="append",
        choices=FLAGSHIPS,
        help="restrict to this flagship schema (repeatable; default: all)",
    )
    parser.add_argument(
        "--decode-every",
        type=int,
        default=50,
        help="full advice re-decode checkpoint cadence (default 50)",
    )
    parser.add_argument(
        "--min-local-rate",
        type=float,
        default=0.95,
        help="local-repair-rate floor the campaign must meet (default 0.95)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full campaign report as JSON",
    )
    parser.add_argument(
        "--out", default=None, help="also write the JSON report to this file"
    )
    args = parser.parse_args(argv)

    try:
        result = run_churn_campaign(
            mutations=args.mutations,
            seed=args.seed,
            schemas=args.schema,
            n=args.n,
            decode_every=args.decode_every,
            min_local_rate=args.min_local_rate,
        )
    except ValueError as exc:
        parser.error(str(exc))
    payload = result.as_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        totals = result.totals
        print(
            f"churn campaign: {totals['mutations']} mutations, "
            f"{totals['repairs_local']} local, "
            f"{totals['reencode_fallbacks']} re-encodes, "
            f"{totals['failures']} failures"
        )
        for name, agg in result.per_schema.items():
            radii = ",".join(f"r{r}×{c}" for r, c in agg["repair_radius_hist"].items())
            print(
                f"  {name}: {'ok' if not agg['failures'] else 'INVALID'} "
                f"(mutations={agg['mutations']}, local={agg['repairs_local']}, "
                f"reencode={agg['reencode_fallbacks']}, rate={agg['local_rate']:.1%}, "
                f"repairs=[{radii}])"
            )
        print(
            f"local repair {totals['local_rate']:.1%}, "
            f"radius histogram {totals['repair_radius_hist']}, "
            f"checkpoints {totals.get('checkpoints', 0)} "
            f"({totals.get('checkpoint_failures', 0)} failed)"
        )
        if not result.ok:
            print("CHURN FAILURE: see per-mutation records (--json) for details")
    return 0 if result.ok else 1


def profile_main(argv: list) -> int:
    """``python -m repro profile <schema>``: one traced, attributed run."""
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Run one schema with tracing and print the per-span "
        "work profile (self/cumulative wall time, engine work counters, "
        "critical path).",
    )
    parser.add_argument("schema", choices=available_schemas())
    parser.add_argument("--n", type=int, default=120, help="instance size hint")
    parser.add_argument("--seed", type=int, default=0, help="identifier seed")
    parser.add_argument(
        "--metric",
        default="wall",
        help="metric for the collapsed stacks and critical path "
        "(wall or an engine counter; default: wall)",
    )
    parser.add_argument(
        "--collapsed",
        metavar="FILE",
        help="write flamegraph-ready collapsed-stack lines to FILE",
    )
    parser.add_argument(
        "--logical-clock",
        action="store_true",
        help="use the deterministic logical clock (trace work, not seconds)",
    )
    args = parser.parse_args(argv)

    from .obs import LogicalClock, profile_run

    graph, kwargs = default_instance(args.schema, args.n, args.seed)
    schema = make_schema(args.schema, **kwargs)
    clock = LogicalClock() if args.logical_clock else None
    run, profile = profile_run(schema, graph, clock=clock)

    print(f"== profile: {args.schema} (n={run.n}, seed={args.seed})")
    print(profile.table())
    print("\n== critical path")
    for span in profile.critical_path(args.metric):
        print(
            f"  {span.name:<28s} cum {span.wall * 1000:9.2f} ms   "
            f"self {span.wall_self * 1000:9.2f} ms"
        )
    if args.collapsed:
        with open(args.collapsed, "w") as fh:
            fh.write(profile.collapsed(args.metric))
            fh.write("\n")
        print(f"\nwrote collapsed stacks ({args.metric}) -> {args.collapsed}")
    return 0 if run.valid else 1


def bandwidth_main(argv: list) -> int:
    """``python -m repro bandwidth <schema>``: the bits-on-wire profile."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bandwidth",
        description="Run one schema under a bandwidth policy and report its "
        "bits-on-wire profile: total bits, per-round/per-edge quantiles, "
        "hotspot edges, and the minimal CONGEST budget that fits the run.",
    )
    parser.add_argument("schema", choices=available_schemas())
    parser.add_argument("--n", type=int, default=120, help="instance size hint")
    parser.add_argument("--seed", type=int, default=0, help="identifier seed")
    parser.add_argument(
        "--policy", choices=("local", "congest"), default="local",
        help="bandwidth policy: local records, congest enforces "
        "budget*ceil(log2 n) bits per edge per round (default: local)",
    )
    parser.add_argument(
        "--budget", type=int, default=1, metavar="B",
        help="CONGEST budget B (only with --policy congest; default 1)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw BandwidthProfile as JSON",
    )
    args = parser.parse_args(argv)

    from .obs import BandwidthExceeded, parse_policy, use_bandwidth_policy

    policy = parse_policy(
        args.policy, args.budget if args.policy == "congest" else None
    )
    try:
        with use_bandwidth_policy(policy):
            run = run_one(args.schema, args.n, args.seed)
    except BandwidthExceeded as exc:
        print(f"{args.schema}: BANDWIDTH EXCEEDED under {policy.describe()}")
        print(f"  {exc}")
        report = getattr(exc, "failure_report", None)
        if report is not None:
            print(f"  {report.summary()}")
        return 1
    profile = run.bandwidth
    if profile is None:  # pragma: no cover - policies here always record
        print(f"{args.schema}: no bandwidth profile recorded")
        return 1
    if args.json:
        print(json.dumps(profile.as_dict(), indent=2, sort_keys=True))
        return 0 if run.valid else 1

    per_round, per_edge = profile.per_round, profile.per_edge
    print(
        f"== bandwidth: {args.schema} "
        f"(n={run.n}, seed={args.seed}, policy={policy.describe()})"
    )
    print(f"total bits on wire   {profile.total_bits}")
    print(f"rounds               {profile.rounds}")
    print(f"edges used           {profile.edges_used}")
    print(f"id bits (ceil log n) {profile.id_bits}")
    if profile.capacity_bits is not None:
        print(f"edge capacity/round  {profile.capacity_bits}")
    print(
        f"per-round bits       p50={per_round.get('p50'):g} "
        f"p95={per_round.get('p95'):g} max={per_round.get('max'):g}"
    )
    print(
        f"per-edge bits        p50={per_edge.get('p50'):g} "
        f"p95={per_edge.get('p95'):g} max={per_edge.get('max'):g}"
    )
    print(
        f"peak round           {profile.peak_round[0]} "
        f"({profile.peak_round[1]} bits)"
    )
    print(f"peak edge*round bits {profile.peak_edge_round_bits}")
    print(f"min CONGEST budget   {profile.min_congest_budget}")
    print("hotspot edges:")
    for hotspot in profile.hotspots:
        print(f"  edge {tuple(hotspot['edge'])}: {hotspot['bits']} bits")
    return 0 if run.valid else 1


def _json_record(name: str, run: SchemaRun) -> Dict[str, object]:
    return {
        "schema": name,
        "valid": run.valid,
        "rounds": run.rounds,
        "beta": run.beta,
        "bits_per_node": round(run.bits_per_node, 6),
        "schema_type": run.schema_type,
        "n": run.n,
        "max_degree": run.max_degree,
        "telemetry": run.telemetry,
        "failures": [r.as_dict() for r in run.failures],
    }


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "lint":
        from .analysis.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "churn":
        return churn_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "report":
        from .obs.report import report_main

        return report_main(argv[1:])
    if argv and argv[0] == "bandwidth":
        return bandwidth_main(argv[1:])
    if argv and argv[0] == "certify":
        from .analysis.locality import certify_main

        return certify_main(argv[1:])
    if argv and argv[0] == "serve-bench":
        from .serve.bench import serve_bench_main

        return serve_bench_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's advice schemas on demo instances "
        "(see also: python -m repro trace <schema>, python -m repro lint).",
    )
    parser.add_argument(
        "schema",
        nargs="?",
        choices=available_schemas(),
        help="schema to run (default: all)",
    )
    parser.add_argument("--n", type=int, default=120, help="instance size hint")
    parser.add_argument("--seed", type=int, default=0, help="identifier seed")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of the table",
    )
    args = parser.parse_args(argv)

    names = [args.schema] if args.schema else available_schemas()
    failures = 0
    records = []
    header = f"{'schema':24s} {'valid':6s} {'rounds':>6s} {'beta':>4s} {'bits/node':>10s}"
    if not args.json:
        print(header)
        print("-" * len(header))
    for name in names:
        try:
            run = run_one(name, args.n, args.seed)
        except Exception as exc:  # pragma: no cover - surfaced to the user
            failures += 1
            if args.json:
                records.append(
                    {"schema": name, "valid": False,
                     "error": f"{type(exc).__name__}: {exc}"}
                )
            else:
                print(f"{name:24s} ERROR  {type(exc).__name__}: {exc}")
            continue
        if not run.valid:
            failures += 1
        if args.json:
            records.append(_json_record(name, run))
            continue
        print(
            f"{name:24s} {str(run.valid):6s} {run.rounds:6d} {run.beta:4d} "
            f"{run.bits_per_node:10.3f}"
        )
    if args.json:
        print(
            json.dumps(
                {"n": args.n, "seed": args.seed, "schemas": records},
                indent=2,
                default=repr,
            )
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
