"""Command line of the benchmark.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
--trace 0|1`` is the form ``BENCHMARK.json`` names: one workload, and
the last line of standard output is one JSON object. ``run`` and
``compare`` are the forms for people; ``child`` and ``daemon`` are the
harness talking to itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .hostinfo import REPO_ROOT

__all__ = ["main"]


def _require_program() -> None:
    """The benchmark measures the checkout it sits in; without one
    there is nothing to measure (an installed ``repro`` is not it)."""
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(
            f"perf: no program to measure: {REPO_ROOT / 'src' / 'repro'} "
            f"is missing"
        )


def layer_value(entry: dict, name: str) -> float | None:
    """A per-layer metric of a traced entry: ``None`` when the target
    behind it no longer resolves, 0 when the workload never reaches
    that layer."""
    if any(name.startswith(t + "_") for t in entry["unresolved_targets"]):
        return None
    return entry["layers"].get(name, 0.0)


def _metric_line(entry: dict, specs: list[dict], value_of) -> dict:
    """The driver's result object. Its format has no null, so a metric
    whose target no longer resolves reads 0 there (the record and
    ``run`` say null, and the child warned)."""
    return {
        "correct": entry["correct"],
        "attempted": entry["ops_attempted"],
        "failed": entry["ops_failed"],
        "metrics": {
            spec["name"]: {
                "value": value_of(spec["name"]) or 0.0, "unit": spec["unit"],
            }
            for spec in specs
        },
    }


def _print_entry(name: str, entry: dict, benchmark: dict) -> None:
    print(f"\n== {name}: {'correct' if entry['correct'] else 'INCORRECT'}, "
          f"{entry['ops_attempted']} ops attempted, {entry['ops_failed']} failed")
    for message in entry["failed_ops"]:
        print(f"   failed: {message}")
    derived = entry["derived"]
    print(f"   {derived['laps']} laps, lap spread {100 * derived['lap_spread']:.1f}%, "
          f"{derived['work_per_s']:.4g} {derived['work_unit']}/s, "
          f"{derived['latency_samples']} latency samples")
    for spec in benchmark["end_to_end"]:
        print(f"   {spec['name']:<44} {entry['metrics'][spec['name']]:>12.4f} "
              f"{spec['unit']}")
    if entry["layers"] is None:
        return
    for spec in benchmark["per_layer"]:
        value = layer_value(entry, spec["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"   {spec['name']:<44} {shown:>12} {spec['unit']}")
    for target in entry["unresolved_targets"]:
        print(f"   warning: no candidate for {target!r} resolves any more")


def _driver(argv: list[str]) -> int:
    from . import harness
    from .workloads import FULL, WORKLOADS

    parser = argparse.ArgumentParser(prog="benchmarks/perf/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    _require_program()
    benchmark = harness.load_benchmark_json()
    record, path = harness.run_workloads(
        [args.workload], seed=args.seed, scale=FULL, seconds=args.seconds,
        traced=bool(args.trace), out_dir=harness.default_out_dir(),
    )
    entry = record["workloads"][args.workload]
    print(f"perf: record written to {path.relative_to(REPO_ROOT)}", file=sys.stderr)
    for message in entry["failed_ops"]:
        print(f"perf: failed: {message}", file=sys.stderr)
    if args.trace:
        line = _metric_line(
            entry, benchmark["per_layer"], lambda name: layer_value(entry, name)
        )
    else:
        line = _metric_line(entry, benchmark["end_to_end"], entry["metrics"].get)
    print(json.dumps(line))
    return 0


def _run(argv: list[str]) -> int:
    from . import harness
    from .workloads import SCALES, WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf run",
        description="Run every workload (or one) and print each metric "
                    "by name with its unit; exit non-zero if any output "
                    "check failed.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--seconds", type=float,
                        help="timed body per workload (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--traced", action="store_true",
                        help="short untraced phase, then a phase with span "
                             "recording on: prints the per-layer metrics too")
    parser.add_argument("--out", type=Path, default=harness.default_out_dir(),
                        help="directory for the raw record (default: "
                             "results/perf)")
    args = parser.parse_args(argv)
    _require_program()
    benchmark = harness.load_benchmark_json()
    names = [args.workload] if args.workload else [
        w["name"] for w in benchmark["workloads"]
    ]
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    record, path = harness.run_workloads(
        names, seed=args.seed, scale=SCALES[args.scale], seconds=seconds,
        traced=args.traced, out_dir=args.out.resolve(),
    )
    for name, entry in record["workloads"].items():
        _print_entry(name, entry, benchmark)
    print(f"\nrecord: {path}")
    return 0 if all(e["correct"] for e in record["workloads"].values()) else 1


def _compare(argv: list[str]) -> int:
    from . import compare, harness

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf compare",
        description="Per workload × end-to-end metric: both medians and "
                    "quartiles, the bound, a verdict. Exit 1 if any row is "
                    "worse, 2 if the hosts differ.",
    )
    parser.add_argument("a", type=Path, help="record file or directory (parent)")
    parser.add_argument("b", type=Path, help="record file or directory (change)")
    parser.add_argument("--force", action="store_true",
                        help="compare across different host fingerprints")
    args = parser.parse_args(argv)
    side_a, side_b = compare.load_side(args.a), compare.load_side(args.b)
    try:
        rows = compare.compare(
            side_a, side_b, harness.load_benchmark_json(), force=args.force
        )
    except compare.HostMismatch as err:
        print(f"perf: {err}", file=sys.stderr)
        return 2
    print(compare.render(rows, side_a, side_b))
    return 1 if any(row.verdict == "worse" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "run":
        return _run(argv[1:])
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    if argv and argv[0] in ("child", "daemon"):
        from . import child

        handler = child.child_main if argv[0] == "child" else child.daemon_main
        return handler(argv[1:])
    return _driver(argv)
