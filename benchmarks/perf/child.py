"""One workload in one fresh process: set up, warm up, run equal timed
laps, check outputs, write a result file.

The parent (:mod:`.harness`) spawns this with the thread pins set and
times exec → ``READY``. A ``--trace 1`` run does the whole thing twice
in this process — an untraced phase, then a phase with the recorder
installed before set-up — so end-to-end numbers never come from a
traced lap and the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import proctree, tracing
from .workloads import SCALES, WORKLOADS, Check, LapOutcome, Workload

__all__ = ["child_main", "daemon_main"]

_clock = time.perf_counter

#: Peak RSS is read at the end of this timed lap (or the last one, if
#: fewer ran): a fixed amount of work, whatever ``--seconds`` allows.
#: The serve daemon's dataset cache never evicts, so its RSS grows with
#: every job served.
RSS_LAP = 3

#: What a child that runs cells itself imports before set-up, timed as
#: ``cli.import_s`` (see ``Workload.runs_program_in_process``).
PROGRAM_MODULES = ("repro.cli", "repro.experiments", "repro.scenarios.compile")


@dataclass
class Lap:
    """One timed lap: its outcome and its sector marks, each a (wall
    clock, process-tree CPU) pair, the first and last being the lap's
    own start and end."""

    marks: list[tuple[float, float]]
    outcome: LapOutcome

    @property
    def t0(self) -> float:
        return self.marks[0][0]

    @property
    def t1(self) -> float:
        return self.marks[-1][0]

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu_s(self) -> float:
        return self.marks[-1][1] - self.marks[0][1]

    def sectors(self, which: int) -> list[float]:
        """Per-sector wall (``which=0``) or CPU (``which=1``) seconds."""
        return [b[which] - a[which] for a, b in zip(self.marks, self.marks[1:])]

    @property
    def failed_ops(self) -> int:
        # a lap judged by its digest fails as a whole
        out = self.outcome
        if out.digest is not None:
            return out.ops if out.failed else 0
        return len(out.failed)


@dataclass
class Phase:
    """One set-up → warm-up → timed laps → checks pass of a workload."""

    setup_window: tuple[float, float]
    laps: list[Lap] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def best(self) -> Lap:
        return min(self.laps, key=lambda lap: lap.wall_s)

    def ideal(self, which: int) -> float:
        """The ideal lap: every sector at the best time any lap gave
        it. Host noise here is one-sided and arrives in bursts shorter
        than a lap, so a whole clean lap is rare while a clean sample
        of each sector is not. Falls back to the best lap's own total
        if the laps disagree on the sector count (a failed check)."""
        if not self.same_sectors:
            return sum(self.best.sectors(which))
        return sum(min(column) for column in zip(
            *(lap.sectors(which) for lap in self.laps)
        ))

    @property
    def same_sectors(self) -> bool:
        return len({len(lap.marks) for lap in self.laps}) == 1


def run_phase(
    workload: Workload,
    *,
    seconds: float,
    min_laps: int,
    max_laps: int | None,
    on_ready=None,
) -> Phase:
    """Drive one workload instance through its protocol; always closes
    it. Timed laps repeat until ``max_laps``, or until ``min_laps`` are
    done and another lap of the last one's length would overrun
    ``seconds``."""
    try:
        t0 = _clock()
        workload.setup()
        phase = Phase(setup_window=(t0, _clock()))
        if on_ready is not None:
            on_ready(phase.setup_window[1] - t0)
        phase.checks.extend(workload.warmup())
        body0 = _clock()
        while True:
            outcome, marks = workload.marked_lap(str(len(phase.laps)))
            lap = Lap(marks, outcome)
            phase.laps.append(lap)
            if len(phase.laps) == RSS_LAP:
                phase.peak_rss_mib = proctree.tree_peak_rss_mib()
            if max_laps is not None and len(phase.laps) >= max_laps:
                break
            if (
                len(phase.laps) >= min_laps
                and (lap.t1 - body0) + lap.wall_s > seconds
            ):
                break
        if len(phase.laps) < RSS_LAP:
            phase.peak_rss_mib = proctree.tree_peak_rss_mib()
        phase.checks.append(Check(
            "every lap has the same sectors", phase.same_sectors,
            str(sorted({len(lap.marks) - 1 for lap in phase.laps})),
        ))
        phase.checks.extend(workload.finish())
        if workload.traced:  # only the traced phase's extras are reported
            phase.extra = workload.extra_metrics()
        return phase
    finally:
        workload.close()


def _job_latencies(phase: Phase) -> list[float]:
    return [
        t.latency_s for lap in phase.laps for t in lap.outcome.jobs if not t.error
    ]


def _layer_metrics(
    phase: Phase, spans: list[dict], untraced: Phase, import_s: float | None
) -> dict[str, float | None]:
    layers: dict[str, float | None] = dict(
        tracing.summarize(
            spans, phase.setup_window, [(lap.t0, lap.t1) for lap in phase.laps]
        )
    )
    batches = layers.get("simulation.event_batch.batches")
    if batches:
        layers["simulation.event_batch.mean_batch_rows"] = (
            layers["simulation.event_batch.batch_rows"] / batches
        )
    layers["experiments.pool.polls"] = layers.get("experiments.pool.wait_calls", 0.0)
    if import_s is not None:
        layers["cli.import_s"] = import_s
    layers.update(phase.extra)
    base = untraced.ideal(0)
    layers["trace.overhead_share"] = (phase.ideal(0) - base) / base
    return layers


def _result(workload: Workload, phases: dict[str, Phase], leak_check: Check) -> dict:
    """The child's result entry: checks, operation counts, end-to-end
    metrics (always from the untraced phase) and the samples behind
    them."""
    untraced = phases["untraced"]
    traced_laps = phases["traced"].laps if "traced" in phases else []
    checks = [check for phase in phases.values() for check in phase.checks]
    checks.append(leak_check)
    laps = untraced.laps + traced_laps
    failed_checks = [check for check in checks if not check.ok]
    wall_s = untraced.ideal(0)
    # a batch lap is the job a caller waits for, and its steady time is
    # the ideal lap; only served jobs have a distribution worth a p50
    latencies = _job_latencies(untraced)
    walls = [lap.wall_s for lap in untraced.laps]
    ops_failed = sum(lap.failed_ops for lap in laps) + len(failed_checks)
    return {
        "workload": workload.name,
        "why": workload.why,
        "correct": ops_failed == 0,
        "ops_attempted": sum(lap.outcome.ops for lap in laps) + len(checks),
        "ops_failed": ops_failed,
        "failed_ops": [
            message for lap in laps for message in lap.outcome.failed
        ] + [f"check {c.name!r}: {c.detail}" for c in failed_checks],
        "checks": [asdict(check) for check in checks],
        "metrics": {
            "wall_s": wall_s,
            "cpu_s": untraced.ideal(1),
            "peak_rss_mib": untraced.peak_rss_mib,
            "job_latency_p50_s":
                statistics.median(latencies) if latencies else wall_s,
        },
        "derived": {
            "work_unit": workload.work_unit,
            "work_per_s": workload.work_per_lap / wall_s,
            "laps": len(walls),
            "sectors": len(untraced.laps[0].marks) - 1,
            "best_lap_s": min(walls),
            "median_lap_s": statistics.median(walls),
            "lap_spread": (max(walls) - min(walls)) / min(walls),
            "latency_samples": len(latencies),
        },
        "samples": {
            "lap_wall_s": walls,
            "lap_cpu_s": [lap.cpu_s for lap in untraced.laps],
            # what the ideal lap is made from: one row per lap
            "lap_sectors_wall_s": [
                [round(s, 6) for s in lap.sectors(0)] for lap in untraced.laps
            ],
            "traced_lap_wall_s": [lap.wall_s for lap in traced_laps],
            "digests": sorted({
                lap.outcome.digest for lap in laps if lap.outcome.digest
            }),
        },
    }


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    scale = SCALES[args.scale]
    import_s: float | None = None
    if cls.runs_program_in_process:
        t0 = _clock()
        for module in PROGRAM_MODULES:
            importlib.import_module(module)
        import_s = _clock() - t0

    def ready(setup_inproc_s: float) -> None:
        # the parent stamps exec → this line; with these two it has the
        # three sectors of one ``setup_s`` sample
        print("READY " + json.dumps(
            {"import_s": import_s or 0.0, "setup_inproc_s": setup_inproc_s}
        ), flush=True)

    shm_before = proctree.shm_segments()
    workload = cls(args.seed, scale, args.workdir / "untraced")
    if args.setup_only:
        try:
            t0 = _clock()
            workload.setup()
            ready(_clock() - t0)
        finally:
            workload.close()
        return 0

    traced = bool(args.trace)
    untraced = run_phase(
        workload, seconds=args.seconds, min_laps=scale.min_laps,
        max_laps=scale.traced_laps if traced else scale.max_laps,
        on_ready=ready,
    )
    phases = {"untraced": untraced}
    layers: dict[str, float | None] | None = None
    unresolved: list[str] = []
    if traced:
        spool = args.workdir / "spool"
        recorder = tracing.Recorder(spool)
        recorder.install()
        try:
            workload = cls(args.seed, scale, args.workdir / "traced")
            workload.start_tracing(daemon_launcher=[
                sys.executable, str(Path(__file__).with_name("run.py")),
                "daemon", "--spool", str(spool), "--",
            ])
            phases["traced"] = run_phase(
                workload, seconds=args.seconds, min_laps=scale.traced_laps,
                max_laps=scale.traced_laps,
            )
        finally:
            recorder.uninstall()
        spans = recorder.collect()
        unresolved = recorder.unresolved
        layers = _layer_metrics(phases["traced"], spans, untraced, import_s)
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps({
                "schema": "benchmarks-perf/spans/v1",
                "workload": cls.name,
                "setup_window": phases["traced"].setup_window,
                "lap_windows": [(lap.t0, lap.t1) for lap in phases["traced"].laps],
                "spans": spans,
            }))

    leaked = sorted(proctree.shm_segments() - shm_before)
    result = _result(workload, phases, Check(
        "no leaked /dev/shm/psm_* segment", not leaked, ", ".join(leaked)
    ))
    result["layers"] = layers
    result["unresolved_targets"] = unresolved
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result))
    return 0


def daemon_main(argv: list[str]) -> int:
    """``daemon --spool DIR -- <repro CLI arguments>``: the program's
    own CLI with the recorder installed, so the traced serve phase sees
    inside the daemon and the pool worker it forks."""
    parser = argparse.ArgumentParser(prog="benchmarks.perf daemon")
    parser.add_argument("--spool", type=Path, required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    recorder = tracing.Recorder(args.spool)
    t0 = _clock()
    for module in PROGRAM_MODULES + ("repro.experiments.serve",):
        importlib.import_module(module)
    t1 = _clock()
    recorder.spans.append({
        "id": "import", "parent": None, "name": "cli.import",
        "pid": recorder.home_pid, "t0": t0, "t1": t1, "self_s": t1 - t0, "ok": True,
    })
    recorder.install()
    atexit.register(recorder.flush)
    return importlib.import_module("repro.cli").main(cli_args)
