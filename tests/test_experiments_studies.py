"""Tests for the study-level experiments: convergence, fairness, sweep,
and the validation-split protocol."""

import json

import numpy as np
import pytest

from repro.core import RoundSchedule
from repro.experiments import (
    aggregate_results,
    artifact_path,
    build_plan,
    convergence_study,
    fairness_study,
    prepare,
    run_algorithm,
    run_sweep,
    write_summary_csv,
)


class TestValidationProtocol:
    def test_val_and_test_disjoint_and_half(self, tiny_preset):
        prep = prepare(tiny_preset, 3, seed=0)
        total = tiny_preset.num_test
        assert len(prep.validation) + len(prep.test) == total
        assert abs(len(prep.validation) - total // 2) <= 1
        # disjoint: fingerprint rows by their sums
        val_keys = set(np.round(prep.validation.x.reshape(
            len(prep.validation), -1).sum(axis=1), 6))
        test_keys = set(np.round(prep.test.x.reshape(
            len(prep.test), -1).sum(axis=1), 6))
        assert not (val_keys & test_keys)

    def test_eval_on_validation_differs_from_test(self, tiny_preset):
        prep = prepare(tiny_preset, 3, seed=0)
        on_test = run_algorithm(prep, "d-psgd", eval_on="test")
        on_val = run_algorithm(prep, "d-psgd", eval_on="validation")
        # same training trajectory, different evaluation split: the
        # accuracies are generally not identical
        assert on_test.history.rounds.tolist() == on_val.history.rounds.tolist()

    def test_invalid_eval_on(self, tiny_preset):
        prep = prepare(tiny_preset, 3, seed=0)
        with pytest.raises(ValueError):
            run_algorithm(prep, "d-psgd", eval_on="train")


class TestTrainLossTracking:
    def test_training_round_records_loss(self, tiny_preset):
        prep = prepare(tiny_preset, 3, seed=0)
        res = run_algorithm(prep, "d-psgd")
        losses = [r.train_loss for r in res.history.records]
        assert all(np.isfinite(losses))
        assert all(l > 0 for l in losses)

    def test_sync_round_loss_is_nan(self, tiny_preset):
        prep = prepare(tiny_preset, 3, seed=0)
        res = run_algorithm(prep, "skiptrain",
                            schedule=RoundSchedule(1, 3))
        sync_records = [r for r in res.history.records
                        if not r.is_training_round]
        assert sync_records, "schedule (1,3) must produce sync evals"
        assert all(np.isnan(r.train_loss) for r in sync_records)


class TestConvergenceStudy:
    def test_structure_and_mechanism(self, tiny_preset, tmp_path):
        res = convergence_study(tiny_preset, tmp_path, seed=0)
        assert set(res.histories) == {"d-psgd", "skiptrain",
                                      "d-psgd-allreduce"}
        assert res.final_consensus("d-psgd-allreduce") < 1e-12
        text = res.render()
        assert "consensus" in text

    def test_contraction_rates_finite(self, tiny_preset, tmp_path):
        res = convergence_study(tiny_preset, tmp_path, seed=0)
        for name in res.histories:
            assert np.isfinite(res.contraction(name)) or (
                res.contraction(name) == 0.0
            )


class TestFairnessStudy:
    def test_unconstrained_is_equal(self, tiny_preset):
        res = fairness_study(tiny_preset, seed=0)
        assert res.gini["skiptrain"] == 0.0
        assert "Gini" in res.render()
        report = res.reports["skiptrain-constrained"]
        assert len(report.device_names) == 4


class TestSeedSweep:
    """Mean ± std over seeds is ``run_sweep`` + ``aggregate_results``:
    data, partition, topology and model init are all re-drawn per
    seed."""

    @pytest.fixture
    def swept(self, tiny_preset, tmp_path):
        plan = build_plan(tiny_preset, ("d-psgd", "skiptrain"),
                          seeds=(0, 1, 2))
        run_sweep(plan, tmp_path, preset_lookup=lambda name: tiny_preset)
        return plan, tmp_path

    def test_cell_aggregation(self, swept):
        _, results_dir = swept
        rows, gaps = aggregate_results(results_dir)
        row = next(r for r in rows if r.algorithm == "d-psgd")
        assert row.n_seeds == 3 and not gaps
        assert 0.0 <= row.final_accuracy_mean <= 1.0
        assert row.final_accuracy_std >= 0.0
        assert row.train_wh_mean > 0.0

    def test_seeds_actually_vary(self, swept):
        plan, results_dir = swept
        accuracies = {
            json.loads(artifact_path(results_dir, cell).read_text())
            ["results"]["final_accuracy"]
            for cell in plan if cell.algorithm == "d-psgd"
        }
        assert len(accuracies) > 1

    def test_compare_and_render(self, swept):
        _, results_dir = swept
        rows, _ = aggregate_results(results_dir)
        assert {r.algorithm for r in rows} == {"d-psgd", "skiptrain"}
        text = write_summary_csv(rows, results_dir / "summary.csv").read_text()
        assert "final_accuracy_mean" in text and "skiptrain" in text

    def test_empty_seeds_rejected(self, tiny_preset):
        with pytest.raises(ValueError):
            build_plan(tiny_preset, ("d-psgd",), seeds=())

    def test_in_memory_api_is_gone(self):
        import repro.experiments as experiments

        for name in ("seed_sweep", "compare_algorithms", "SweepCell",
                     "SweepResult", "sweep_result_from_artifacts"):
            assert not hasattr(experiments, name)
        with pytest.raises(ImportError):
            from repro.experiments import seed_sweep  # noqa: F401
