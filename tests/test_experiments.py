"""Experiments-layer tests at tiny scale: presets, runner, grid search,
figures and tables all execute and satisfy their structural contracts."""

import numpy as np
import pytest

from repro.core import RoundSchedule
from repro.experiments import (
    energy_grid,
    figure1,
    figure4,
    figure7,
    get_preset,
    grid_search,
    prepare,
    render_heatmap,
    render_series,
    render_table,
    run_algorithm,
    table1,
    table2,
)
from repro.experiments.presets import PRESETS


class TestPresets:
    def test_registry_contains_all(self):
        from repro.experiments.presets import FLEET_SIZES

        sync = {
            "cifar10-bench", "femnist-bench", "cifar10-paper", "femnist-paper"
        }
        fleet = {f"n{size}-fleet" for size in FLEET_SIZES}
        assert set(PRESETS) == (
            sync | {f"{name}-async" for name in sync} | fleet
        )

    def test_async_variants_share_sync_configuration(self):
        import dataclasses

        for name in ("cifar10-bench", "femnist-paper"):
            sync, async_ = get_preset(name), get_preset(f"{name}-async")
            assert async_.name == f"{name}-async"
            for field in dataclasses.fields(sync):
                if field.name in ("name", "model_factory"):
                    continue  # factories are fresh callables per call
                assert getattr(async_, field.name) == getattr(
                    sync, field.name
                ), field.name

    def test_get_preset_unknown(self):
        with pytest.raises(KeyError):
            get_preset("mnist")

    def test_paper_presets_match_table1(self):
        cifar = get_preset("cifar10-paper")
        assert cifar.n_nodes == 256
        assert cifar.batch_size == 32
        assert cifar.local_steps == 20
        assert cifar.total_rounds == 1000
        assert cifar.degrees == (6, 8, 10)
        fem = get_preset("femnist-paper")
        assert fem.batch_size == 16
        assert fem.local_steps == 7
        assert fem.total_rounds == 3000

    def test_tuned_schedules_match_paper(self):
        """§4.3: (4,4) for 6-regular, (3,3) for 8-regular, (4,2) for
        10-regular."""
        cifar = get_preset("cifar10-paper")
        assert cifar.schedule_for_degree(6).gamma_train == 4
        assert cifar.schedule_for_degree(6).gamma_sync == 4
        assert cifar.schedule_for_degree(8).gamma_train == 3
        assert cifar.schedule_for_degree(10).gamma_sync == 2

    def test_schedule_fallback(self):
        cifar = get_preset("cifar10-bench")
        s = cifar.schedule_for_degree(99)
        assert (s.gamma_train, s.gamma_sync) == (4, 4)


class TestRunner:
    def test_prepare_structure(self, tiny_preset):
        prep = prepare(tiny_preset, degree=3, seed=0)
        assert len(prep.partition) == tiny_preset.n_nodes
        assert prep.mixing.shape == (8, 8)
        assert prep.trace.n_nodes == 8

    def test_prepare_deterministic(self, tiny_preset):
        a = prepare(tiny_preset, 3, seed=1)
        b = prepare(tiny_preset, 3, seed=1)
        np.testing.assert_array_equal(a.train.x, b.train.x)
        for pa, pb in zip(a.partition, b.partition):
            np.testing.assert_array_equal(pa, pb)

    def test_run_dpsgd(self, tiny_preset):
        prep = prepare(tiny_preset, 3, seed=0)
        res = run_algorithm(prep, "d-psgd")
        assert res.history.algorithm == "D-PSGD"
        assert res.total_train_energy_wh > 0

    def test_run_all_algorithms(self, tiny_preset):
        prep = prepare(tiny_preset, 3, seed=0)
        for name in ["d-psgd", "d-psgd-allreduce", "skiptrain",
                     "skiptrain-constrained", "greedy"]:
            res = run_algorithm(prep, name)
            assert len(res.history.records) >= 1, name

    def test_schedule_override(self, tiny_preset):
        prep = prepare(tiny_preset, 3, seed=0)
        res = run_algorithm(prep, "skiptrain", schedule=RoundSchedule(1, 3))
        # 1 training round per 4: quarter the energy of D-PSGD
        ref = run_algorithm(prep, "d-psgd")
        ratio = ref.total_train_energy_wh / res.total_train_energy_wh
        assert ratio == pytest.approx(4.0, rel=0.1)

    def test_unknown_algorithm(self, tiny_preset):
        prep = prepare(tiny_preset, 3, seed=0)
        with pytest.raises(KeyError):
            run_algorithm(prep, "sgd")

    def test_writer_partition_requires_num_writers(self, tiny_preset):
        import dataclasses

        bad = dataclasses.replace(tiny_preset, partition="writer",
                                  num_writers=None)
        with pytest.raises(ValueError):
            prepare(bad, 3)


class TestGridSearch:
    def test_small_grid(self, tiny_preset, tmp_path):
        res = grid_search(tiny_preset, tmp_path, degree=3,
                          train_values=(1, 2), sync_values=(1, 2))
        assert res.accuracy.shape == (2, 2)
        assert (res.energy_wh > 0).all()
        gt, gs = res.best()
        assert gt in (1, 2) and gs in (1, 2)

    def test_energy_monotone_in_gamma_train(self, tiny_preset, tmp_path):
        """Fixing Γ_sync, more training rounds cost more energy (the
        column structure of Fig. 3's energy panel)."""
        res = grid_search(tiny_preset, tmp_path, degree=3,
                          train_values=(1, 3), sync_values=(2,))
        assert res.energy_wh[0, 1] > res.energy_wh[0, 0]

    def test_energy_grid_matches_measured(self, tiny_preset, tmp_path):
        measured = grid_search(tiny_preset, tmp_path, degree=3,
                               train_values=(1, 2), sync_values=(1, 2))
        analytic = energy_grid(tiny_preset, train_values=(1, 2),
                               sync_values=(1, 2))
        np.testing.assert_allclose(measured.energy_wh, analytic, rtol=1e-9)

    def test_render(self, tiny_preset, tmp_path):
        res = grid_search(tiny_preset, tmp_path, degree=3,
                          train_values=(1,), sync_values=(1,))
        text = res.render()
        assert "Validation accuracy" in text
        assert "Energy" in text


class TestFigures:
    def test_figure1_structure(self, tiny_preset, tmp_path):
        res = figure1(tiny_preset, tmp_path)
        assert res.dpsgd.algorithm == "D-PSGD"
        assert res.allreduce.algorithm == "D-PSGD + all-reduce"
        assert isinstance(res.improvement(), float)
        assert "All-reduce" in res.render()

    def test_figure4_structure(self, tiny_preset, tmp_path):
        res = figure4(tiny_preset, tmp_path, window=8)
        phases = {r.is_training_round for r in res.history.records}
        assert phases == {True, False}
        assert isinstance(res.oscillation_contrast(), float)
        assert "train" in res.render()

    def test_figure7_structure(self, tiny_preset):
        import dataclasses

        fem = dataclasses.replace(
            tiny_preset, partition="writer", num_writers=12, name="tiny-fem"
        )
        res = figure7(tiny_preset, fem)
        assert res.shard_matrix.shape == (8, 4)
        assert res.writer_matrix.shape == (8, 4)
        # shard partition concentrates labels; writer partition spreads them
        shard_labels = (res.shard_matrix > 0).sum(axis=1).mean()
        writer_labels = (res.writer_matrix > 0).sum(axis=1).mean()
        assert shard_labels < writer_labels


class TestTables:
    def test_table1_renders_and_validates(self):
        text = table1()
        assert "89834" in text
        assert "1690046" in text

    def test_table2_contains_devices(self):
        text = table2()
        for name in ["Xiaomi 12 Pro", "Samsung Galaxy S22 Ultra",
                     "OnePlus Nord 2 5G", "Xiaomi Poco X3"]:
            assert name in text
        assert "272" in text and "1034" in text


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in text

    def test_render_heatmap_shape_check(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros((2, 2)), ["r"], ["c1", "c2"])

    def test_render_heatmap_content(self):
        text = render_heatmap(np.array([[1.0, 2.0]]), ["row"], ["c1", "c2"],
                              title="T")
        assert text.startswith("T")
        assert "1.0" in text and "2.0" in text

    def test_render_series(self):
        text = render_series(np.array([1, 2]),
                             {"acc": np.array([0.5, 0.6])}, x_label="round")
        assert "round" in text and "acc" in text
