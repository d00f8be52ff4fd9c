"""Robustness bench: the headline Table 3 comparison across seeds.

Single-seed wins can be luck; this bench repeats SkipTrain vs D-PSGD
over three full re-draws (data, partition, topology, init) through the
plan → raw artifact → aggregate pipeline and checks the paper's claims
hold in the mean: 2× energy at (4,4), accuracy gain positive and larger
than the cross-seed noise.
"""

import math

import pytest

from repro.experiments import (
    aggregate_results,
    build_plan,
    render_summary_rows,
    run_sweep,
)

from .conftest import run_once

SEEDS = (11, 12, 13)


def test_table3_robust_across_seeds(benchmark, bench16_cifar, tmp_path):
    plan = build_plan(
        bench16_cifar, ("skiptrain", "d-psgd"),
        degrees=bench16_cifar.degrees[:1], seeds=SEEDS,
    )
    run_once(
        benchmark,
        lambda: run_sweep(plan, tmp_path,
                          preset_lookup=lambda name: bench16_cifar),
    )
    rows, gaps = aggregate_results(tmp_path)
    assert not gaps

    print("\n" + render_summary_rows(rows))

    by_algorithm = {row.algorithm: row for row in rows}
    skip, dpsgd = by_algorithm["skiptrain"], by_algorithm["d-psgd"]
    gain = skip.final_accuracy_mean - dpsgd.final_accuracy_mean
    ratio = dpsgd.train_wh_mean / skip.train_wh_mean
    print(f"\nmean accuracy gain: {gain * 100:+.1f} pp over {len(SEEDS)} "
          f"seeds (σ_skip = {skip.final_accuracy_std * 100:.1f}, "
          f"σ_dpsgd = {dpsgd.final_accuracy_std * 100:.1f})")
    print(f"mean energy ratio: {ratio:.2f}x")

    assert ratio == pytest.approx(2.0, rel=0.02)
    assert gain > 0
    # a coarse but honest significance screen for small seed counts:
    # the gap must exceed one pooled standard deviation
    pooled = math.sqrt(
        (skip.final_accuracy_std**2 + dpsgd.final_accuracy_std**2) / 2
    )
    assert gain > pooled, (
        "the SkipTrain advantage should exceed cross-seed noise"
    )
