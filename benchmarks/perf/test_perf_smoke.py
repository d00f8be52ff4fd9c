"""Tier-1 smoke test of the benchmark itself (the only ``test_*.py`` in
this directory): ``--scale smoke`` runs every workload's real code path
in seconds; the static checks keep the benchmark on the public API so
the planned deletions cannot break it."""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import cli as cli_mod
from benchmarks.perf import compare as compare_mod
from benchmarks.perf.hostinfo import REPO_ROOT
from benchmarks.perf.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
SOURCES = sorted(p for p in HERE.glob("*.py") if p.name != Path(__file__).name)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-smoke")
    proc = _run("run", "--scale", "smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (record_path,) = out.glob("record-*.json")
    return proc.stdout, record_path, out


def test_smoke_emits_every_workload_and_metric(smoke):
    stdout, record_path, _ = smoke
    record = json.loads(record_path.read_text())
    assert list(record["workloads"]) == [w["name"] for w in BENCHMARK["workloads"]]
    for name, entry in record["workloads"].items():
        assert entry["correct"] and entry["ops_failed"] == 0, entry["failed_ops"]
        assert entry["ops_attempted"] >= 1
        for spec in BENCHMARK["end_to_end"]:
            assert entry["metrics"][spec["name"]] > 0, (name, spec["name"])
    # printed by name, with the declared unit, once per workload
    for spec in BENCHMARK["end_to_end"]:
        line = re.compile(
            rf"^\s+{re.escape(spec['name'])}\s+[0-9.]+ {re.escape(spec['unit'])}$",
            re.MULTILINE,
        )
        assert len(line.findall(stdout)) == len(WORKLOADS), spec["name"]
    for key in ("git_sha", "cpus", "python", "numpy", "blas", "thread_env",
                "loadavg_1m"):
        assert key in record["host"]


def test_smoke_leaves_nothing_behind(smoke):
    _, record_path, out = smoke
    assert sorted(p.name for p in out.iterdir()) == [record_path.name]


def test_compare_with_itself_is_within_bound(smoke):
    _, record_path, _ = smoke
    side = compare_mod.load_side(record_path)
    rows = compare_mod.compare(side, side, BENCHMARK)
    assert len(rows) == len(WORKLOADS) * len(BENCHMARK["end_to_end"])
    assert {row.verdict for row in rows} == {"within-bound"}
    proc = _run("compare", str(record_path), str(record_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("within-bound") == len(rows)


def test_compare_refuses_another_host(smoke, tmp_path):
    _, record_path, _ = smoke
    record = json.loads(record_path.read_text())
    record["host"]["cpus"] += 2
    other = tmp_path / record_path.name
    other.write_text(json.dumps(record))
    a, b = compare_mod.load_side(record_path), compare_mod.load_side(other)
    with pytest.raises(compare_mod.HostMismatch):
        compare_mod.compare(a, b, BENCHMARK)
    assert compare_mod.compare(a, b, BENCHMARK, force=True)


def test_compare_verdicts():
    verdict = compare_mod.verdict
    steady = [1.00, 1.01, 1.02, 1.01, 1.00]
    assert verdict(steady, [v * 1.2 for v in steady], 0.1, 0) == "worse"
    assert verdict(steady, [v * 0.8 for v in steady], 0.1, 0) == "better"
    assert verdict(steady, [v * 1.05 for v in steady], 0.1, 0) == "within-bound"
    assert verdict(steady, steady, 0.1, 3) == "worse"  # failed operations
    noisy = [1.0, 1.4, 0.8, 1.3, 0.9]
    assert verdict(noisy, noisy, 0.1, 0) == "unresolved"
    assert verdict(noisy, [0.5, 0.6, 0.7], 0.1, 0) == "better"  # every run wins


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["command"][1] == "benchmarks/perf/run.py"
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_missing_trace_target_reads_null_not_failure(tmp_path):
    from benchmarks.perf import tracing

    recorder = tracing.Recorder(tmp_path)
    with pytest.warns(UserWarning, match="gone.after_refactor"):
        recorder.install([
            tracing.Target("gone.after_refactor", ("repro.no_such_module.fn",
                                                   "repro.core.no_such_name")),
            tracing.Target("core.train_mask",
                           ("repro.core.moved_away.SkipTrain.train_mask",
                            "repro.core.skiptrain.SkipTrain.train_mask"),
                           leaf=True),
        ])
    try:
        assert recorder.unresolved == ["gone.after_refactor"]
    finally:
        recorder.uninstall()
    entry = {"layers": {"core.train_mask_s": 0.5},
             "unresolved_targets": recorder.unresolved}
    assert cli_mod.layer_value(entry, "gone.after_refactor_s") is None
    assert cli_mod.layer_value(entry, "core.train_mask_s") == 0.5
    assert cli_mod.layer_value(entry, "core.train_mask_calls") == 0.0
    from repro.core.skiptrain import SkipTrain

    assert not hasattr(SkipTrain.train_mask, "__wrapped__")


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_benchmark_touches_only_public_repro_names():
    """No underscore-prefixed attribute of ``repro`` (dunder protocol
    methods aside), and none of the flavors the ROADMAP deletes."""
    doomed = ("repro.simulation.parallel", "ParallelSimulationEngine",
              "seed_sweep", "compare_algorithms", 'pool="fork"', "pool='fork'")
    for path in SOURCES:
        text = path.read_text()
        for token in doomed:
            assert token not in text, (path.name, token)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                # the benchmark's own private state only
                assert isinstance(node.value, ast.Name) and node.value.id == "self", (
                    path.name, node.lineno, node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for part in node.module.split(".") + [a.name for a in node.names]:
                    assert not _private(part), (path.name, node.lineno, part)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                for dotted in re.findall(r"\brepro(?:\.\w+)+", node.value):
                    for part in dotted.split("."):
                        assert not _private(part), (path.name, node.lineno, dotted)
