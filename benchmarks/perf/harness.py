"""Parent side of a benchmark run: spawn each workload in fresh child
processes, time exec → ready, assemble the raw record, clean up.

One invocation writes one ``results/perf/record-*.json`` holding the
host fingerprint and one entry per workload run.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

from .hostinfo import REPO_ROOT, child_env, fingerprint

__all__ = [
    "RECORD_SCHEMA",
    "default_out_dir",
    "load_benchmark_json",
    "run_workloads",
]

RECORD_SCHEMA = "benchmarks-perf/record/v2"

#: A child that has not finished by then is killed and the run fails
#: (the driver allows 180 s per run in all).
CHILD_LIMIT_S = 170.0

_RUN_PY = Path(__file__).with_name("run.py")


def load_benchmark_json() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def default_out_dir() -> Path:
    return REPO_ROOT / "results" / "perf"


def _spawn(args: list[str], tmp: Path) -> list[float]:
    """Run one child to completion and return the sectors of its set-up
    — interpreter start, program import, the workload's own set-up —
    which sum to exec → ``READY`` as seen from here. Anything else the
    child prints goes to our stderr, so our stdout stays one result
    line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(_RUN_PY), "child", *args],
        cwd=REPO_ROOT, env=child_env(tmp), stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    ready_s, payload = None, {}
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if ready_s is None and line.startswith("READY "):
                ready_s = time.perf_counter() - t0
                payload = json.loads(line[len("READY "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None:
        raise RuntimeError(
            f"benchmark child {' '.join(args)} failed (exit code {code})"
        )
    imported, inproc = payload["import_s"], payload["setup_inproc_s"]
    return [ready_s - imported - inproc, imported, inproc]


def _run_one(
    name: str, *, seed: int, scale, seconds: float, traced: bool,
    out_dir: Path, stamp: str,
) -> dict:
    workdir = out_dir / "work" / f"{stamp}-{name}"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    common = [
        "--workload", name, "--seed", str(seed), "--scale", scale.name,
        "--seconds", str(seconds), "--trace", str(int(traced)),
        "--workdir", str(workdir / "child"), "--out", str(result_path),
    ]
    spans_path = out_dir / f"spans-{stamp}-seed{seed}-{name}.json"
    try:
        # every sample is a fresh process, the measuring child included
        setup_samples = [
            _spawn(common + ["--setup-only"], tmp)
            for _ in range(scale.setup_samples - 1)
        ]
        extra = ["--spans-out", str(spans_path)] if traced else []
        setup_samples.append(_spawn(common + extra, tmp))
        entry = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # the ideal set-up, as for laps: each sector at its best sample
    entry["metrics"]["setup_s"] = sum(min(col) for col in zip(*setup_samples))
    entry["samples"]["setup_sectors_s"] = setup_samples
    entry["derived"]["median_setup_s"] = statistics.median(
        sum(sample) for sample in setup_samples
    )
    if traced:
        entry["spans_file"] = spans_path.name
    return entry


def run_workloads(
    names: list[str], *, seed: int, scale, seconds: float, traced: bool,
    out_dir: Path,
) -> tuple[dict, Path]:
    """Run the named workloads one after the other, each in fresh
    children; returns the record and the file it was written to."""
    host = fingerprint()
    if host["overloaded"]:
        print(
            f"perf: warning: 1-minute load {host['loadavg_1m']:.2f} exceeds "
            f"{host['cpus']} CPUs; numbers will be noisy", file=sys.stderr,
        )
    now = datetime.now(timezone.utc)
    stamp = now.strftime("%Y%m%dT%H%M%S-%f")
    record = {
        "schema": RECORD_SCHEMA,
        "created_utc": now.isoformat(),
        "seed": seed,
        "scale": scale.name,
        "seconds": seconds,
        "traced": traced,
        "host": host,
        "workloads": {},
    }
    for name in names:
        record["workloads"][name] = _run_one(
            name, seed=seed, scale=scale, seconds=seconds, traced=traced,
            out_dir=out_dir, stamp=stamp,
        )
    which = names[0] if len(names) == 1 else "all"
    suffix = "-traced" if traced else ""
    path = out_dir / f"record-{stamp}-seed{seed}-{which}{suffix}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    work = out_dir / "work"
    if work.is_dir() and not any(work.iterdir()):
        work.rmdir()
    return record, path
