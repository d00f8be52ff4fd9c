"""Tiny-scale structure tests for the Table 3/4 plans (the tables
behind Figures 5 and 6; their full-scale behaviour is exercised by the
benchmarks)."""

import pytest

from repro.experiments import table3, table4


@pytest.fixture(scope="module")
def t3(tiny_preset_module, tmp_path_factory):
    return table3(tiny_preset_module, tmp_path_factory.mktemp("t3"), seed=0)


@pytest.fixture(scope="module")
def tiny_preset_module():
    # module-scoped copy of the conftest tiny preset (function-scoped
    # fixtures cannot back module-scoped ones)
    from repro.data.synthetic import SyntheticSpec
    from repro.energy.traces import CIFAR10_WORKLOAD
    from repro.experiments.presets import ExperimentPreset
    from repro.nn import small_mlp

    return ExperimentPreset(
        name="tiny-mod",
        n_nodes=8,
        degrees=(3,),
        spec=SyntheticSpec(num_classes=4, channels=1, image_size=4,
                           noise_std=1.5, jitter_std=0.4,
                           prototype_resolution=2),
        num_train=400,
        num_test=120,
        partition="shard",
        model_factory=lambda rng: small_mlp(16, 4, hidden=8, rng=rng),
        learning_rate=0.2,
        batch_size=8,
        local_steps=2,
        total_rounds=24,
        eval_every=8,
        eval_node_sample=None,
        workload=CIFAR10_WORKLOAD,
        battery_fraction=0.001,
        tuned_schedules={3: (2, 2)},
    )


class TestTable3:
    def test_structure(self, t3):
        assert t3.degrees == (3,)
        assert set(t3.rows["d-psgd"]) == {3} and set(t3.rows["skiptrain"]) == {3}
        assert t3.rows["skiptrain"][3].n_seeds == 1
        assert t3.energy_ratio(3) == pytest.approx(2.0, rel=0.1)
        assert isinstance(t3.accuracy_gain(3), float)
        text = t3.render()
        assert "Table 3" in text and "skiptrain" in text


class TestTable4:
    def test_structure_and_budget_semantics(self, tiny_preset_module,
                                            tmp_path):
        t4 = table4(tiny_preset_module, tmp_path, seed=0)
        budget = t4.budget_wh(3)
        assert budget > 0
        accs = t4.accuracy_at_budget(3)
        assert set(accs) == {"SkipTrain-constrained", "Greedy", "D-PSGD"}
        assert all(0.0 <= v <= 1.0 for v in accs.values())
        assert "constrained" in t4.render()
        assert len(t4.rows()) == 3
        t4.ordering_holds(3)  # executes; outcome is scale-dependent
        # the budget-matched D-PSGD reads a 4x finer cadence
        assert len(t4.dpsgd[3].history.records) > len(
            t4.greedy[3].history.records
        )
