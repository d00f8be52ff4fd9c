"""Serving-path benchmark: jobs/second through the full daemon stack.

A closed-loop loadgen (submit, wait, submit) drives an in-process
``ScenarioServer`` over loopback HTTP, so the measured rate includes
request parsing, queueing, pool dispatch, the cell itself, artifact
write and the status polling round trips — the end-to-end cost of one
served job, not a component microbenchmark. It is gated at a strictly
positive completed-job rate: a daemon that accepts but never finishes
work fails the bench.
"""

import dataclasses
import multiprocessing as mp

import pytest

from repro.experiments.serve import (
    ScenarioServer,
    ServeConfig,
    build_schedule,
    run_loadgen,
)
from repro.scenarios import AlgorithmSpec, ScenarioSpec

from .conftest import run_once

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the serve daemon runs cells on the fork-based pool",
)

N_JOBS = 4
ROUNDS = 8


@pytest.fixture(scope="module")
def serve_preset(bench16_cifar):
    return dataclasses.replace(bench16_cifar, name="serve-bench16",
                               total_rounds=ROUNDS, eval_every=ROUNDS)


@pytest.fixture(scope="module")
def serve_scenario():
    return ScenarioSpec(
        name="serve-bench-sc",
        preset="serve-bench16",
        total_rounds=ROUNDS,
        eval_every=ROUNDS,
        algorithm=AlgorithmSpec(name="d-psgd"),
    )


def test_serve_jobs_per_sec(benchmark, serve_preset, serve_scenario,
                            tmp_path):
    server = ScenarioServer(
        ServeConfig(results_dir=str(tmp_path / "served"), port=0, jobs=2),
        preset_lookup={serve_preset.name: serve_preset}.__getitem__,
        scenario_lookup={serve_scenario.name: serve_scenario}.__getitem__,
    )
    server.start()
    schedule = build_schedule([(serve_scenario.name, 1.0)],
                              process="closed", n_jobs=N_JOBS, seed=0)
    try:
        report = run_once(
            benchmark,
            lambda: run_loadgen(server.url, schedule, seeds_per_job=1,
                                seed_base=0, rounds=ROUNDS,
                                process="closed", timeout_s=300.0),
        )
    finally:
        server.begin_drain()
        server.wait(timeout=60)
        server.close()
    summary = report["summary"]
    assert summary["jobs_completed"] == N_JOBS, summary
    jobs_per_sec = summary["throughput_jobs_per_s"]
    assert jobs_per_sec > 0, "served jobs must actually complete"
    print(f"\nserve: {jobs_per_sec:.2f} jobs/s over {N_JOBS} closed-loop "
          f"jobs ({ROUNDS} rounds, {serve_preset.n_nodes} nodes)")
