"""``python -m benchmarks.suite``: the solve / serve / repair benchmark.

Subcommands::

    run     [--workload W ...] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
    trace   [--workload W ...] [--seed S] [--seconds N] [--out DIR]
    compare --parent RUN.json ... --change RUN.json ... [--json FILE]

``run`` measures the end-to-end metrics of ``BENCHMARK.json`` (with
``--trace 1``, the per-layer ones), prints each by name with its unit, and
prints the result of the last workload as one JSON object on the last line.
``trace`` is ``run --trace 1`` that also writes each workload's spans as
JSONL into ``DIR``.  ``compare`` judges a change against its parent from
alternating runs (see ``compare.py``).

Each workload runs in its own fresh worker process, one after another, with
one thread each, so ``setup_s`` and ``peak_rss_mb`` belong to that workload.
``setup_s`` is the median over :data:`SETUP_REPEATS` processes, each timed
from its spawn through ``import repro`` and the workload's set-up.  Every
time is reported at reference speed (see ``workloads.Pace``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / ".bench_out"

#: Fresh processes whose set-up time ``setup_s`` is the median of.
SETUP_REPEATS = 3
#: Wall-clock budget for one workload, set-up processes included.
WORKLOAD_BUDGET_S = 170.0

WORKLOAD_NAMES = ("solve-small", "solve-large", "serve-skewed", "repair")


class SuiteError(RuntimeError):
    """A worker failed, timed out, or reported metrics out of step with the spec."""


def load_spec() -> Dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Same set iteration order in every run, and one thread per process.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _spawn(args: List[str], deadline: float) -> Dict:
    """Run one worker process to completion and parse its last stdout line."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise SuiteError("workload time budget exhausted")
    spawned = time.monotonic()
    cmd = [sys.executable, "-m", "benchmarks.suite", "worker", *args, "--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise SuiteError(f"worker {' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SuiteError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise SuiteError(f"worker {' '.join(args)} printed no result line") from exc


def measure_workload(name: str, seed: int, seconds: int, trace: bool,
                     spans: Optional[Path], spec: Dict) -> Dict:
    """One workload in fresh processes; the result as `run` prints it last."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_spawn(common + ["--setup-only"], deadline)["setup_s"])
    extra = ["--trace", "1", "--spans", str(spans)] if trace else ["--trace", "0"]
    raw = _spawn(common + extra, deadline)
    values = raw["metrics"]
    if not trace:
        values["setup_s"] = statistics.median(setups + [values["setup_s"]])
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": with_units(name, values, trace, spec)}


def with_units(name: str, values: Dict[str, float], trace: bool, spec: Dict) -> Dict:
    """``{metric: {"value", "unit"}}`` for every metric the spec declares.

    Every end-to-end metric must be measured.  A per-layer metric of a layer
    the workload never runs reports 0, e.g. metering on serve-skewed.
    """
    declared = spec["per_layer" if trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise SuiteError(f"{name} emitted metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in declared:
        if m["name"] not in values and not trace:
            raise SuiteError(f"{name} did not emit end-to-end metric {m['name']}")
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    return metrics


def _print_result(name: str, result: Dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:13s} {metric:45s} {entry['value']:>16.6g} {entry['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name:13s} {'fail_ratio':45s} {ratio:>16.6g} "
          f"failed/attempted ({result['failed']}/{result['attempted']})")


def cmd_run(args: argparse.Namespace, trace: bool, spans_dir: Path,
            out_file: Optional[Path]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workload or list(WORKLOAD_NAMES)
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for name in names:
            spans = spans_dir / f"{name}.seed{args.seed}.spans.jsonl"
            results[name] = measure_workload(name, args.seed, seconds, trace, spans, spec)
            _print_result(name, results[name])
    except SuiteError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report = {"seed": args.seed, "seconds": seconds, "trace": int(trace), "workloads": results}
    if out_file is not None:
        out_file.parent.mkdir(parents=True, exist_ok=True)
        with open(out_file, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its raw result as JSON."""
    from . import workloads
    from .spans import SpanRecorder

    import_s = time.monotonic() - args.spawned_at
    if Path(sys.modules["repro"].__file__).resolve().parents[1] != ROOT / "src":
        print(f"repro was imported from outside {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        inputs = workload.prepare(args.seed, args.seconds)
        _, setup_s = workloads.set_up(workload, inputs, None, import_s)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    rec = SpanRecorder() if args.trace else None
    outcome = workloads.run_workload(workload, args.seed, args.seconds, rec, import_s)
    if rec is not None:
        rec.write_jsonl(args.spans)
    print(json.dumps({"attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": outcome.metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace", "worker"):
        p = sub.add_parser(command)
        p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                       required=command == "worker")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=int, default=None)
        if command != "trace":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--out", type=Path, default=None,
                       help="result JSON file (run) or output directory (trace)")
    worker = sub.choices["worker"]
    worker.add_argument("--spawned-at", type=float, required=True)
    worker.add_argument("--setup-only", action="store_true")
    worker.add_argument("--spans", type=Path, default=None)
    comp = sub.add_parser("compare")
    comp.add_argument("--parent", nargs="+", required=True, type=Path)
    comp.add_argument("--change", nargs="+", required=True, type=Path)
    comp.add_argument("--json", type=Path, default=None, help="also write the rows here")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from .compare import main as compare_main

        return compare_main(args.parent, args.change, load_spec(), args.json)
    if args.command == "worker":
        args.workload = args.workload[0]
        return cmd_worker(args)
    if args.command == "trace":
        out_dir = args.out or DEFAULT_OUT / "trace"
        return cmd_run(args, True, out_dir, out_dir / "trace.json")
    spans_dir = args.out.parent if args.out is not None else DEFAULT_OUT
    return cmd_run(args, bool(args.trace), spans_dir, args.out)


if __name__ == "__main__":
    sys.exit(main())
