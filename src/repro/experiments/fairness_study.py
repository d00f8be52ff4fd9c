"""§5.1 bias study: does energy-aware skipping favor high-budget devices?

The paper flags (but does not measure) that SkipTrain-constrained's
probabilistic participation biases the consensus model toward
high-energy-capacity devices. This experiment quantifies the effect:

* participation inequality (Gini over per-node training rounds),
* the consensus model's accuracy on each device group's *local* test
  distribution (high-budget groups should score higher if the bias is
  real),
* the spread between best- and worst-served device groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.partition import partition_datasets
from ..data.stats import class_distribution_matrix
from ..simulation.fairness import (
    DeviceGroupReport,
    device_group_report,
    local_test_sets,
    participation_gini,
)
from ..simulation.rng import RngFactory
from .presets import ExperimentPreset
from .reporting import render_table
from .runner import build_run, prepare

__all__ = ["FairnessStudyResult", "fairness_study"]


@dataclass
class FairnessStudyResult:
    """Participation inequality and per-device-group accuracy for the
    unconstrained vs constrained algorithms."""

    gini: dict[str, float]
    reports: dict[str, DeviceGroupReport]

    def render(self) -> str:
        blocks = []
        rows = [[name, g] for name, g in self.gini.items()]
        blocks.append(render_table(
            ["algorithm", "participation Gini"], rows,
            title="Participation inequality (0 = equal)",
        ))
        for name, report in self.reports.items():
            rows = [
                [dev, rounds, acc * 100]
                for dev, rounds, acc in zip(
                    report.device_names, report.train_rounds,
                    report.local_accuracy,
                )
            ]
            rows.append(["(spread)", "", report.accuracy_spread() * 100])
            blocks.append(render_table(
                ["device", "mean train rounds", "local accuracy %"], rows,
                title=f"{name}: consensus accuracy per device group",
            ))
        return "\n\n".join(blocks)


def fairness_study(
    preset: ExperimentPreset, degree: int | None = None, seed: int = 0
) -> FairnessStudyResult:
    """Run SkipTrain (unconstrained) and SkipTrain-constrained on the
    same cell and compare participation equality and per-device-group
    local accuracy. The report reads each run's final state matrix,
    which no artifact carries, so the study runs in process; it
    evaluates only at the final round (from the engine's own ``"eval"``
    stream, so the cadence moves no number)."""
    deg = degree if degree is not None else preset.degrees[0]
    prepared = prepare(preset, deg, seed=seed)
    rngs = RngFactory(seed)

    class_matrix = class_distribution_matrix(
        partition_datasets(prepared.train, prepared.partition)
    )
    locals_ = local_test_sets(
        prepared.test, class_matrix, rngs.stream("fairness"),
        samples_per_node=min(200, len(prepared.test)),
    )

    gini: dict[str, float] = {}
    reports: dict[str, DeviceGroupReport] = {}
    for name in ("skiptrain", "skiptrain-constrained"):
        engine, algo = build_run(prepared, name, eval_every=preset.total_rounds)
        engine.run(algo)
        train_rounds = engine.meter.train_rounds
        gini[name] = participation_gini(train_rounds)
        reports[name] = device_group_report(
            engine.model, engine.state, prepared.trace.devices,
            train_rounds, locals_,
        )
    return FairnessStudyResult(gini=gini, reports=reports)
