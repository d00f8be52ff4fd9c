"""Command-line interface: run experiments and regenerate paper
tables/figures without writing Python.

Usage examples::

    python -m repro table 1
    python -m repro run --preset cifar10-bench --algorithm skiptrain --degree 3
    python -m repro run --preset cifar10-bench --algorithm async-skiptrain
    python -m repro figure 1 --preset cifar10-bench
    python -m repro gridsearch --preset cifar10-bench --degree 3 --rounds 64
    python -m repro presets

Every paper output (``table 3|4``, ``figure 1|4``, ``gridsearch``,
``convergence``) is a plan: its cells run into ``results/`` (a rerun
skips the finished ones) and it renders from their artifacts;
``--from-artifacts DIR`` only renders, from DIR. The run verbs
(``run``, ``scenario run``) are one-cell plans: each runs its cell
into ``results/`` and prints from the artifact, so a rerun prints
without running. The algorithm's name decides the engine: the
``async-*`` algorithms run on the event-driven gossip engine and read
``--rounds`` as expected activations per node. ``fairness`` and
``scenario trace`` run in process: they read the final state matrix,
which no artifact carries.

The artifact pipeline (T1 run → T2 aggregate → T3 render)::

    # T1: execute the plan (shardable across machines, parallel within
    # a machine via --jobs; resumable — a rerun skips finished cells
    # and continues killed ones mid-cell)
    python -m repro sweep --preset cifar10-bench \\
        --algorithms skiptrain d-psgd --degrees 3 4 6 --seeds 0 1 2 \\
        --results-dir results --shard 1/2 --checkpoint-every 32 --jobs 4
    python -m repro sweep ... --shard 2/2    # on another machine

    # T2: fold results/raw/*.json into results/summary.csv
    python -m repro aggregate --results-dir results

    # T3: render paper outputs from the artifacts, running nothing
    python -m repro table 3 --from-artifacts results
    python -m repro figure 1 --from-artifacts results

Async cells ride the same pipeline (artifacts keyed by simulated
time, resumable/shardable/parallel exactly like sync), and one plan
may mix both kinds::

    python -m repro sweep --preset cifar10-bench \\
        --algorithms skiptrain async-skiptrain async-d-psgd --degrees 3 \\
        --seeds 0 1 2 --results-dir results --checkpoint-every 16 --jobs 2
    python -m repro aggregate --results-dir results

Declarative scenarios (named compositions of topology, churn,
failures, energy and data skew; the async battery gate is the axis
``energy.enforce_budgets``) plug into the run verb and the sweep::

    python -m repro scenario list
    python -m repro scenario show churn-crash
    python -m repro scenario run churn-ramp --seed 1
    python -m repro scenario trace churn-async      # golden-trace JSON
    python -m repro sweep --scenario churn-async --seeds 0 1 2 \\
        --results-dir results --checkpoint-every 4
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .algorithm_names import ALGORITHM_KINDS

__all__ = ["main", "build_parser"]

#: where paper outputs run their cells, and ``sweep``/``aggregate``'s
#: default artifact root
RESULTS_DIR = "results"


def _jobs_arg(value: str):
    """``--jobs`` parser: a positive int, or the literal ``auto`` (the
    sweep resolves it against ``os.cpu_count()`` at run time)."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SkipTrain (IPDPS 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list experiment presets")

    p_run = sub.add_parser(
        "run",
        help="run one algorithm on one preset (async-* algorithms on "
             "the event-driven gossip engine)",
    )
    p_run.add_argument("--preset", default="cifar10-bench")
    p_run.add_argument("--algorithm", default="skiptrain",
                       choices=list(ALGORITHM_KINDS))
    p_run.add_argument("--degree", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--rounds", type=int, default=None,
                       help="override the preset's total rounds (async: "
                            "expected activations per node)")
    p_run.add_argument("--eval-every", type=int, default=None,
                       help="evaluate after every k-th round (async: "
                            "expected activations per node), fair point "
                            "or not (default: the preset's cadence)")
    p_run.add_argument("--gamma-train", type=int, default=None)
    p_run.add_argument("--gamma-sync", type=int, default=None)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", type=int, choices=[1, 2, 3, 4])
    p_table.add_argument("--preset", default="cifar10-bench")
    p_table.add_argument("--seed", type=int, default=0)
    p_table.add_argument("--from-artifacts", metavar="DIR", default=None,
                         help="only render, from the artifacts in DIR "
                              "(tables 3 and 4; without it the table's "
                              "cells run into results/ first)")

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", type=int, choices=[1, 4, 7])
    p_fig.add_argument("--preset", default="cifar10-bench")
    p_fig.add_argument("--femnist-preset", default="femnist-bench",
                       help="second preset for figure 7")
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--from-artifacts", metavar="DIR", default=None,
                       help="only render, from the artifacts in DIR "
                            "(figures 1 and 4; without it the figure's "
                            "cells run into results/ first)")

    p_grid = sub.add_parser("gridsearch",
                            help="Γ_train × Γ_sync grid search (figure 3)")
    p_grid.add_argument("--preset", default="cifar10-bench")
    p_grid.add_argument("--degree", type=int, default=None)
    p_grid.add_argument("--rounds", type=int, default=None)
    p_grid.add_argument("--seed", type=int, default=0)
    p_grid.add_argument("--max-gamma", type=int, default=4)

    p_fair = sub.add_parser("fairness",
                            help="§5.1 participation-bias study")
    p_fair.add_argument("--preset", default="cifar10-bench")
    p_fair.add_argument("--degree", type=int, default=None)
    p_fair.add_argument("--seed", type=int, default=0)

    p_scn = sub.add_parser(
        "scenario",
        help="declarative scenarios: list/show/run/trace named "
             "compositions of topology, churn, failures, energy and "
             "data skew",
    )
    scn_sub = p_scn.add_subparsers(dest="scenario_command", required=True)
    scn_sub.add_parser("list", help="list registered scenarios")
    p_scn_show = scn_sub.add_parser("show",
                                    help="print one scenario's JSON spec")
    p_scn_show.add_argument("name")
    p_scn_run = scn_sub.add_parser(
        "run", help="compile and run one scenario end-to-end"
    )
    p_scn_run.add_argument("name")
    p_scn_run.add_argument("--seed", type=int, default=None,
                           help="override the spec's seed")
    p_scn_run.add_argument("--rounds", type=int, default=None,
                           help="override the spec's total rounds "
                                "(async: expected activations per node)")
    p_scn_trace = scn_sub.add_parser(
        "trace",
        help="run one scenario and print its golden regression trace "
             "(final-state digest + eval curve) as JSON",
    )
    p_scn_trace.add_argument("name")
    p_scn_trace.add_argument("--seed", type=int, default=None)
    p_scn_trace.add_argument("--rounds", type=int, default=None)

    p_sweep = sub.add_parser(
        "sweep",
        help="execute a (preset, algorithm, degree, seed) plan shard, "
             "one JSON artifact per cell (resumable)",
    )
    p_sweep.add_argument("--preset", default=None,
                         help="preset name (default: cifar10-bench; "
                              "mutually exclusive with --scenario)")
    p_sweep.add_argument("--scenario", default=None, metavar="NAME",
                         help="sweep a registered scenario over --seeds "
                              "(preset/algorithm/degree come from the "
                              "spec)")
    p_sweep.add_argument("--degree", type=int, default=None,
                         help="single degree (alias for --degrees D)")
    p_sweep.add_argument("--degrees", type=int, nargs="+", default=None,
                         help="degrees to sweep (default: the preset's first)")
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p_sweep.add_argument(
        "--algorithms", nargs="+", default=None,
        help="default: skiptrain d-psgd; async-* algorithms run on the "
             "event-driven gossip engine, and one plan may mix both",
    )
    p_sweep.add_argument("--rounds", type=int, default=None,
                         help="override the preset's total rounds (async "
                              "cells: expected activations per node)")
    p_sweep.add_argument("--results-dir", default=RESULTS_DIR,
                         help="artifact root (raw/ and checkpoints/ inside)")
    p_sweep.add_argument("--shard", default="1/1", metavar="I/N",
                         help="execute only shard I of N (1-based)")
    p_sweep.add_argument("--checkpoint-every", type=int, default=0,
                         metavar="ROUNDS",
                         help="checkpoint long cells about every ROUNDS "
                              "rounds so a kill resumes mid-cell (0 = off)")
    p_sweep.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N",
                         help="run this shard's cells in N parallel worker "
                              "processes, or 'auto' to use the scheduler "
                              "affinity mask (cgroup-aware; falls back to "
                              "os.cpu_count()) — artifacts byte-identical "
                              "to --jobs 1; composes with --shard and "
                              "--checkpoint-every")
    p_sweep.add_argument("--dry-run", action="store_true",
                         help="print the shard's cells and their status "
                              "without running anything")

    p_agg = sub.add_parser(
        "aggregate",
        help="fold results/raw/*.json into a mean±std summary CSV",
    )
    p_agg.add_argument("--results-dir", default=RESULTS_DIR)
    p_agg.add_argument("--out", default=None,
                       help="CSV path (default: <results-dir>/summary.csv)")

    p_conv = sub.add_parser("convergence",
                            help="consensus-distance mechanism study")
    p_conv.add_argument("--preset", default="cifar10-bench")
    p_conv.add_argument("--degree", type=int, default=None)
    p_conv.add_argument("--seed", type=int, default=0)

    p_check = sub.add_parser(
        "check",
        help="static determinism & checkpoint-contract linter "
             "(docs/determinism-contracts.md)",
    )
    p_check.add_argument("paths", nargs="*", default=None, metavar="PATH",
                         help="files or directories to check (default: src)")
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.add_argument("--select", nargs="+", default=None, metavar="RULE",
                         help="run only these rule ids / prefixes / groups "
                              "(e.g. rng, cache-bound, fast-rules)")
    p_check.add_argument("--ignore", nargs="+", default=None, metavar="RULE",
                         help="skip these rule ids / prefixes / groups")
    p_check.add_argument("--baseline", action="store_true",
                         help="filter findings through the committed "
                              "baseline; new findings AND stale entries "
                              "fail (CI drift detection)")
    p_check.add_argument("--baseline-file", default=None, metavar="FILE",
                         help="baseline path (default: .repro-baseline.json "
                              "in the current directory)")
    p_check.add_argument("--write-baseline", action="store_true",
                         help="rewrite the baseline from current findings "
                              "(grandfathering; every entry still needs a "
                              "justification note before CI passes)")
    p_check.add_argument("--show-suppressed", action="store_true",
                         help="also list suppressed findings with reasons")
    p_check.add_argument("--list-rules", action="store_true",
                         help="print the rule inventory and exit")

    p_serve = sub.add_parser(
        "serve",
        help="long-running scenario-serving daemon: POST jobs over "
             "HTTP, Prometheus /metrics, graceful SIGTERM drain "
             "(docs/serving.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="listen port (0 binds an ephemeral port; "
                              "the bound address is printed on start)")
    p_serve.add_argument("--results-dir", default="serve-results",
                         help="artifact root — the same raw/ layout as "
                              "repro sweep, and byte-identical artifacts")
    p_serve.add_argument("--jobs", type=_jobs_arg, default="auto",
                         metavar="N",
                         help="pool worker count, or 'auto' (scheduler "
                              "affinity mask, cgroup-aware)")
    p_serve.add_argument("--queue-limit", type=int, default=256,
                         metavar="CELLS",
                         help="bounded backlog in cells; past it, POST "
                              "/jobs returns 429")
    p_serve.add_argument("--checkpoint-every", type=int, default=0,
                         metavar="ROUNDS",
                         help="mid-cell checkpoint cadence, as in sweep")
    p_serve.add_argument("--vectorized", action="store_true",
                         help="accepted and ignored: served cells always "
                              "train as stacked blocks")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress per-job log lines (the 'serving "
                              "on' banner is always printed)")

    p_lg = sub.add_parser(
        "loadgen",
        help="seeded open-loop load generator: submit a weighted "
             "scenario mix against a running serve daemon and report "
             "latency/queueing stats (docs/serving.md)",
    )
    p_lg.add_argument("--url", required=True,
                      help="base URL of the serve daemon, e.g. "
                           "http://127.0.0.1:8765")
    p_lg.add_argument("--mix", nargs="+", required=True,
                      metavar="SCENARIO[=WEIGHT]",
                      help="weighted scenario mix to draw jobs from "
                           "(every preset is registered as a scenario, "
                           "so preset names work too)")
    p_lg.add_argument("--process", choices=["poisson", "trace", "closed"],
                      default="poisson",
                      help="arrival process: open-loop Poisson, a "
                           "trace-file replay, or closed-loop "
                           "(submit-wait-submit)")
    p_lg.add_argument("--rate", type=float, default=1.0,
                      help="Poisson arrival rate in jobs/second")
    p_lg.add_argument("--n-jobs", type=int, default=8,
                      help="number of jobs to submit (poisson/closed)")
    p_lg.add_argument("--trace-file", default=None, metavar="JSON",
                      help="arrival trace: a JSON list of {\"offset_s\": "
                           "float, \"scenario\"?: name} entries")
    p_lg.add_argument("--seed", type=int, default=0,
                      help="schedule seed — same seed, same submission "
                           "schedule")
    p_lg.add_argument("--seeds-per-job", type=int, default=1)
    p_lg.add_argument("--seed-base", type=int, default=0,
                      help="cell seeds for job i are seed-base + "
                           "i*seeds-per-job ...")
    p_lg.add_argument("--rounds", type=int, default=None,
                      help="override each scenario's total rounds")
    p_lg.add_argument("--timeout", type=float, default=600.0,
                      metavar="SECONDS",
                      help="per-job completion timeout")
    p_lg.add_argument("--out", default=None, metavar="JSON",
                      help="write the repro/loadgen-report/v1 JSON here")

    return parser


def _cmd_presets() -> int:
    from .experiments.presets import PRESETS, get_preset

    for name in sorted(PRESETS):
        preset = get_preset(name)
        print(f"{name:16s} n={preset.n_nodes:<4d} degrees={preset.degrees} "
              f"T={preset.total_rounds} partition={preset.partition}")
    return 0


#: a cell kind → how a run verb prints its artifact: one line per
#: evaluation record, then the energy totals
_ARTIFACT_LINES = {
    "sync": ("round {round:5d}: accuracy {accuracy:6.2f}% (±{spread:5.2f}) "
             "energy {cumulative_energy_wh:8.2f} Wh",
             "total training energy: {total_train_wh:.2f} Wh, "
             "communication: {total_comm_wh:.4f} Wh"),
    "async": ("t={time:8.2f} (event {activations:7d}): accuracy "
              "{accuracy:6.2f}% (±{spread:5.2f}) train energy "
              "{train_energy_wh:8.2f} Wh",
              "total training energy: {total_train_wh:.2f} Wh"),
}


def _to_stderr(line: str) -> None:
    print(line, file=sys.stderr)


def _run_cell(cell, header: str) -> int:
    """A run verb: run ``cell`` into ``results/`` through ``run_sweep``
    (progress on stderr; a rerun runs nothing), then print ``header``
    filled from the artifact's cell block, and the artifact's records
    and totals."""
    from .experiments import artifact_path, run_sweep
    from .experiments.artifacts import load_cell_artifact

    run_sweep((cell,), RESULTS_DIR, log=_to_stderr)
    payload = load_cell_artifact(artifact_path(RESULTS_DIR, cell))
    record_line, totals_line = _ARTIFACT_LINES[cell.kind]
    print(header.format(**payload["cell"]))
    for record in payload["history"]["records"]:
        print(record_line.format(**record,
                                 accuracy=record["mean_accuracy"] * 100,
                                 spread=record["std_accuracy"] * 100))
    print(totals_line.format(**payload["results"]))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: the one cell of the algorithm, with the Γ pair as
    its schedule and ``--eval-every`` as its cadence."""
    from .experiments import PlanCell, get_preset

    preset = get_preset(args.preset)
    schedule = tuple(gamma for gamma in (args.gamma_train, args.gamma_sync)
                     if gamma is not None)
    try:
        if len(schedule) == 1:
            raise ValueError("provide both --gamma-train and --gamma-sync")
        cell = PlanCell(
            preset.name, args.algorithm,
            args.degree if args.degree is not None else preset.degrees[0],
            args.seed,
            args.rounds if args.rounds is not None else preset.total_rounds,
            schedule=schedule, eval_every=args.eval_every or 0,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_cell(cell, "preset={preset} degree={degree} "
                           "algorithm={algorithm}")


def _plan_output(args: argparse.Namespace, output, preset, **options):
    """A paper output the one way: run its plan's missing cells into
    ``results/`` and render from the artifacts, or with
    ``--from-artifacts DIR`` only render from DIR. Sweep progress goes
    to stderr, so a rerun prints the same stdout. A render that cannot
    find its cells prints an ``error:`` line and returns ``None``."""
    source = getattr(args, "from_artifacts", None)
    if source is None:
        return output(preset, RESULTS_DIR, **options, log=_to_stderr)
    try:
        return output(preset, source, run=False, **options)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_table(args: argparse.Namespace) -> int:
    from .experiments import get_preset, table1, table2, table3, table4

    if args.number in (1, 2):
        if args.from_artifacts is not None:
            print(f"error: table {args.number} is static and never "
                  f"recomputed; --from-artifacts applies to tables 3 and 4",
                  file=sys.stderr)
            return 2
        print(table1() if args.number == 1 else table2())
        return 0
    output = table3 if args.number == 3 else table4
    result = _plan_output(args, output, get_preset(args.preset), seed=args.seed)
    if result is None:
        return 1
    print(result.render())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import figure1, figure4, figure7, get_preset

    preset = get_preset(args.preset)
    if args.number == 7:
        if args.from_artifacts is not None:
            print("error: --from-artifacts applies to figures 1 and 4 "
                  "(figure 7 only builds partitions)", file=sys.stderr)
            return 2
        print(figure7(preset, get_preset(args.femnist_preset),
                      seed=args.seed).render())
        return 0
    output = figure1 if args.number == 1 else figure4
    result = _plan_output(args, output, preset, seed=args.seed)
    if result is None:
        return 1
    print(result.render())
    if args.number == 1:
        print(f"\nall-reduce improvement: {result.improvement() * 100:+.1f} pp")
    else:
        print(f"\nsync-vs-train contrast: "
              f"{result.oscillation_contrast() * 100:+.1f} pp")
    return 0


def _cmd_gridsearch(args: argparse.Namespace) -> int:
    from .experiments import get_preset, grid_search

    preset = get_preset(args.preset)
    degree = args.degree if args.degree is not None else preset.degrees[0]
    gammas = tuple(range(1, args.max_gamma + 1))
    result = _plan_output(args, grid_search, preset, degree=degree,
                          train_values=gammas, sync_values=gammas,
                          seed=args.seed, total_rounds=args.rounds)
    print(result.render())
    gt, gs = result.best()
    print(f"\nbest: Γtrain={gt}, Γsync={gs}")
    return 0


def _cmd_fairness(args: argparse.Namespace) -> int:
    from .experiments import fairness_study, get_preset

    result = fairness_study(get_preset(args.preset), degree=args.degree,
                            seed=args.seed)
    print(result.render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import build_plan, get_preset, parse_shard

    if args.scenario is not None:
        return _cmd_sweep_scenario(args)
    preset = get_preset(args.preset if args.preset is not None
                        else "cifar10-bench")
    degrees = args.degrees
    if degrees is None and args.degree is not None:
        degrees = [args.degree]
    algorithms = args.algorithms or ["skiptrain", "d-psgd"]
    # an unknown algorithm is a PlanCell ValueError: it exits here,
    # before any dataset is prepared
    try:
        shard = parse_shard(args.shard)
        plan = build_plan(
            preset,
            tuple(algorithms),
            degrees=degrees,
            seeds=tuple(args.seeds),
            total_rounds=args.rounds,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _execute_sweep_plan(args, plan, shard)


def _execute_sweep_plan(args: argparse.Namespace, plan, shard,
                        label: str = "") -> int:
    """The shared tail of both sweep paths (plain and ``--scenario``):
    dry-run listing, jobs validation, execution, and the run summary."""
    from .experiments import artifact_path, run_sweep, shard_cells

    if args.dry_run:
        selected = shard_cells(plan, *shard)
        done = {cell.cell_id for cell in selected
                if artifact_path(args.results_dir, cell).is_file()}
        plans = _row_plans(args, [c for c in selected if c.cell_id not in done])
        for cell in selected:
            status = "done" if cell.cell_id in done else "pending"
            print(f"{cell.cell_id}  [{status}]{plans.get(cell.preset, '')}")
        print(f"\nshard {args.shard}: {len(selected)} of {len(plan)} cells")
        return 0
    if args.jobs != "auto" and args.jobs <= 0:
        print("error: --jobs must be positive (or 'auto')", file=sys.stderr)
        return 2
    stats = run_sweep(
        plan,
        args.results_dir,
        shard=shard,
        checkpoint_every=args.checkpoint_every,
        jobs=args.jobs,
        log=print,
    )
    jobs_note = (f" [--jobs auto -> {stats.jobs_resolved}]"
                 if args.jobs == "auto" else "")
    print(f"{label}shard {args.shard}: ran {len(stats.ran)} "
          f"({len(stats.resumed)} resumed mid-cell), "
          f"skipped {len(stats.skipped)} already-complete cells; "
          f"artifacts under {args.results_dir}/raw{jobs_note}")
    return 0


def _row_plans(args: argparse.Namespace, pending) -> dict[str, str]:
    """Per preset of a dry run, how a training call of every node runs
    as row tiles (``nn.batched.row_plan``) on the lanes a cell gets: all
    of this process's under ``--jobs 1``, a worker's share otherwise."""
    from . import lanes
    from .experiments import get_preset, resolve_auto_jobs
    from .nn.batched import row_plan
    from .simulation import RngFactory

    jobs = resolve_auto_jobs()[0] if args.jobs == "auto" else args.jobs
    previous = lanes.share_cpus(max(1, min(jobs, len(pending))))
    plans = {}
    try:
        for name in sorted({cell.preset for cell in pending}):
            preset = get_preset(name)
            spec = preset.spec
            tile, waves, nbytes = row_plan(
                preset.model_factory(RngFactory(0).stream("model")),
                preset.n_nodes, preset.batch_size,
                (spec.channels, spec.image_size, spec.image_size),
            )
            count = lanes.lane_count()
            plans[name] = (
                f"  {preset.n_nodes} rows as <= {tile}-row tiles, "
                f"{waves} wave{'s' * (waves > 1)} on {count} "
                f"lane{'s' * (count > 1)}, "
                f"lane workspace {nbytes / 2**20:.1f} MiB"
            )
    finally:
        lanes.share_cpus(previous)
    return plans


def _cmd_sweep_scenario(args: argparse.Namespace) -> int:
    """The ``sweep --scenario`` path: one registered scenario swept
    over ``--seeds`` through the same shard/jobs/checkpoint pipeline."""
    from .experiments import parse_shard
    from .scenarios import get_scenario
    from .scenarios.compile import build_scenario_plan

    conflicting = {
        "--preset": args.preset is not None,
        "--algorithms": args.algorithms is not None,
        "--degree/--degrees": args.degree is not None
        or args.degrees is not None,
    }
    bad = [flag for flag, given in conflicting.items() if given]
    if bad:
        print(f"error: {', '.join(bad)} conflict with --scenario (the "
              f"spec fixes preset, algorithm and degree)", file=sys.stderr)
        return 2
    try:
        spec = get_scenario(args.scenario)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        shard = parse_shard(args.shard)
        plan = build_scenario_plan(
            spec, seeds=tuple(args.seeds), total_rounds=args.rounds
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _execute_sweep_plan(args, plan, shard,
                               label=f"scenario {spec.name!r} ")


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenarios import available_scenarios, get_scenario

    if args.scenario_command == "list":
        for name in available_scenarios():
            spec = get_scenario(name)
            axes = []
            if spec.churn.active:
                axes.append("churn")
            if spec.failures.active:
                axes.append(f"failures:{spec.failures.kind}")
            if spec.topology.is_dynamic:
                axes.append(spec.topology.kind)
            if spec.energy.enforce_budgets:
                axes.append("budgets")
            if spec.data.partition:
                axes.append(f"data:{spec.data.partition}")
            extra = f" [{', '.join(axes)}]" if axes else ""
            print(f"{name:24s} preset={spec.preset:24s} "
                  f"algorithm={spec.algorithm.name} kind={spec.kind}{extra}")
        return 0

    try:
        spec = get_scenario(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.scenario_command == "show":
        print(spec.to_json(indent=1))
        return 0

    if args.scenario_command == "trace":
        import json as _json

        from .scenarios.compile import scenario_trace

        try:
            trace = scenario_trace(spec, seed=args.seed,
                                   total_rounds=args.rounds)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(_json.dumps(trace, indent=1))
        return 0

    # scenario run
    from .scenarios.compile import build_scenario_plan

    seed = args.seed if args.seed is not None else spec.seed
    try:
        cell = build_scenario_plan(spec, seeds=(seed,),
                                   total_rounds=args.rounds)[0]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_cell(cell, "scenario={scenario} preset={preset} "
                           "algorithm={algorithm} kind={kind} seed={seed} "
                           "rounds={total_rounds}")


def _cmd_aggregate(args: argparse.Namespace) -> int:
    from .experiments import aggregate_results, write_summary_csv
    from .experiments.reporting import render_summary_rows

    rows, gaps = aggregate_results(args.results_dir)
    if not rows:
        print(f"error: no raw artifacts under {args.results_dir}/raw "
              f"(run repro sweep first)", file=sys.stderr)
        return 1
    out = args.out if args.out is not None else f"{args.results_dir}/summary.csv"
    write_summary_csv(rows, out)
    print(render_summary_rows(rows))
    print(f"\nwrote {out}")
    for key, missing in gaps.items():
        preset, algorithm, scenario, degree, rounds = key
        where = f"{preset}/{algorithm}"
        if scenario:
            where += f"/scn-{scenario}"
        print(f"warning: {where}/deg{degree}/r{rounds} is "
              f"missing seeds {missing} (partial sweep — means not "
              f"directly comparable)", file=sys.stderr)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .statics import (
        all_rules,
        check_paths,
        format_json,
        format_text,
        load_baseline,
        write_baseline,
    )
    from .statics.baseline import DEFAULT_BASELINE

    if args.list_rules:
        for rule in all_rules():
            group = "fast" if rule.fast else "deep"
            print(f"{rule.rule_id:20s} [{group}] {rule.title}")
        return 0
    root = Path.cwd()
    paths = [Path(p) for p in (args.paths or ["src"])]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    baseline_file = Path(
        args.baseline_file if args.baseline_file is not None
        else root / DEFAULT_BASELINE
    )
    try:
        result = check_paths(
            paths, root, select=args.select, ignore=args.ignore,
            baseline_path=baseline_file, use_baseline=args.baseline,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        notes = {
            (e["rule"], e["path"], e["message"]): str(e.get("note", ""))
            for e in (load_baseline(baseline_file) if baseline_file.is_file()
                      else [])
        }
        count = write_baseline(baseline_file, result.findings, notes)
        print(f"wrote {count} baseline entr(y/ies) to {baseline_file}")
        if count:
            print("every entry needs a justification in its 'note' field "
                  "before `repro check --baseline` passes")
        return 0
    if args.format == "json":
        print(format_json(result))
    else:
        print(format_text(result, verbose_suppressed=args.show_suppressed))
    return result.exit_code


def _cmd_convergence(args: argparse.Namespace) -> int:
    from .experiments import convergence_study, get_preset

    result = _plan_output(args, convergence_study, get_preset(args.preset),
                          degree=args.degree, seed=args.seed)
    print(result.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .experiments.serve import ScenarioServer, ServeConfig

    config = ServeConfig(
        results_dir=args.results_dir,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        checkpoint_every=args.checkpoint_every,
        log=None if args.quiet else print,
    )
    server = ScenarioServer(config)
    server.start()
    # always printed (and flushed), even under --quiet: subprocess
    # drivers read this line to learn the ephemeral port
    print(f"serving on {server.url}", flush=True)
    print(
        f"workers={server.jobs} ({server.jobs_source}) "
        f"queue-limit={config.queue_limit} "
        f"results-dir={config.results_dir}",
        flush=True,
    )
    code = server.serve_forever()
    print("drained; exiting", flush=True)
    return code


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as json_module

    from .experiments.artifacts import write_json_report
    from .experiments.serve import build_schedule, run_loadgen
    from .experiments.serve.loadgen import parse_mix

    try:
        mix = parse_mix(args.mix)
        trace = None
        if args.process == "trace":
            if args.trace_file is None:
                raise ValueError("--process trace needs --trace-file")
            trace = json_module.loads(Path(args.trace_file).read_text())
        schedule = build_schedule(
            mix,
            process=args.process,
            rate=args.rate,
            n_jobs=args.n_jobs,
            seed=args.seed,
            trace=trace,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_loadgen(
        args.url.rstrip("/"),
        schedule,
        seeds_per_job=args.seeds_per_job,
        seed_base=args.seed_base,
        rounds=args.rounds,
        process=args.process,
        timeout_s=args.timeout,
        log=print,
    )
    summary = report["summary"]
    print(
        f"submitted={summary['jobs_submitted']} "
        f"completed={summary['jobs_completed']} "
        f"failed={summary['jobs_failed']} "
        f"throughput={summary['throughput_jobs_per_s']:.3f} jobs/s "
        f"p50={summary['total_s_p50']:.2f}s p95={summary['total_s_p95']:.2f}s"
    )
    if args.out is not None:
        path = write_json_report(args.out, report)
        print(f"wrote {path}")
    return 0 if summary["jobs_completed"] == summary["jobs_submitted"] else 1


def _unknown_preset(args: argparse.Namespace) -> bool:
    """Print an ``error:`` line and return True when ``--preset`` or
    ``--femnist-preset`` names no registered preset, before a command
    looks it up."""
    names = [getattr(args, flag, None) for flag in ("preset", "femnist_preset")]
    if not any(names):  # `check` must not import numpy through the presets
        return False
    from .experiments.presets import get_preset

    for name in filter(None, names):
        try:
            get_preset(name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return True
    return False


#: the commands that would meet a bad one of these values only once a
#: cell runs (``sweep`` checks its own through ``build_plan``)
_VALUE_CHECKED = ("run", "gridsearch", "fairness", "convergence")


def _check_values(args: argparse.Namespace) -> None:
    """Refuse a ``--degree`` no regular graph on the preset's nodes has,
    and a nonpositive ``--rounds``/``--max-gamma``/``--eval-every``
    (``ValueError``), before any cell runs."""
    if args.degree is not None:
        from .experiments.presets import get_preset
        from .topology.sparse import validate_regular_params

        validate_regular_params(get_preset(args.preset).n_nodes, args.degree)
    for flag in ("rounds", "max_gamma", "eval_every"):
        value = getattr(args, flag, None)
        if value is not None and value <= 0:
            raise ValueError(f"--{flag.replace('_', '-')} must be positive")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if _unknown_preset(args):
        return 2
    try:
        if args.command in _VALUE_CHECKED:
            _check_values(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "presets":
        return _cmd_presets()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "gridsearch":
        return _cmd_gridsearch(args)
    if args.command == "fairness":
        return _cmd_fairness(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "aggregate":
        return _cmd_aggregate(args)
    if args.command == "convergence":
        return _cmd_convergence(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    raise AssertionError(f"unhandled command {args.command!r}")
