"""Tests for repro.analysis (diagnostics + Pareto)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ParetoPoint,
    accuracy_auc,
    empirical_contraction_rate,
    energy_to_accuracy,
    frontier_from_grid,
    pareto_frontier,
    rounds_to_accuracy,
)
from repro.simulation.metrics import RoundRecord, RunHistory


def make_history(rounds, accs, energies=None):
    energies = energies or [float(r) for r in rounds]
    records = [
        RoundRecord(round=r, mean_accuracy=a, std_accuracy=0.0,
                    consensus=0.0, cumulative_energy_wh=e,
                    trained_nodes=1, is_training_round=True)
        for r, a, e in zip(rounds, accs, energies)
    ]
    return RunHistory("test", records)


class TestTimeToAccuracy:
    def test_rounds_to_accuracy(self):
        h = make_history([10, 20, 30], [0.3, 0.6, 0.8])
        assert rounds_to_accuracy(h, 0.5) == 20
        assert rounds_to_accuracy(h, 0.8) == 30
        assert rounds_to_accuracy(h, 0.9) is None

    def test_energy_to_accuracy(self):
        h = make_history([10, 20], [0.3, 0.7], energies=[1.5, 3.0])
        assert energy_to_accuracy(h, 0.5) == 3.0
        assert energy_to_accuracy(h, 0.99) is None

    def test_invalid_target(self):
        h = make_history([10], [0.5])
        with pytest.raises(ValueError):
            rounds_to_accuracy(h, 0.0)
        with pytest.raises(ValueError):
            energy_to_accuracy(h, 1.5)


class TestAUC:
    def test_constant_curve(self):
        h = make_history([0, 10, 20], [0.5, 0.5, 0.5])
        assert accuracy_auc(h) == pytest.approx(0.5)

    def test_rising_beats_falling(self):
        rising = make_history([0, 10, 20], [0.2, 0.5, 0.8])
        falling = make_history([0, 10, 20], [0.8, 0.5, 0.2])
        assert accuracy_auc(rising) == pytest.approx(accuracy_auc(falling))
        early = make_history([0, 10, 20], [0.8, 0.8, 0.8])
        assert accuracy_auc(early) > accuracy_auc(rising)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            accuracy_auc(make_history([5], [0.5]))


class TestContraction:
    def test_geometric_decay_recovered(self):
        series = 3.0 * 0.8 ** np.arange(10)
        assert empirical_contraction_rate(series) == pytest.approx(0.8)

    def test_growth_detected(self):
        series = 1.0 * 1.1 ** np.arange(5)
        assert empirical_contraction_rate(series) > 1.0

    def test_exact_consensus(self):
        assert empirical_contraction_rate(np.array([1.0, 0.0])) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_contraction_rate(np.array([1.0]))


class TestPareto:
    def test_dominated_points_removed(self):
        energy = np.array([1.0, 2.0, 3.0])
        acc = np.array([0.5, 0.4, 0.8])  # point 1 dominated by point 0
        frontier = pareto_frontier(energy, acc, ["a", "b", "c"])
        labels = [p.label for p in frontier]
        assert labels == ["a", "c"]

    def test_sorted_by_energy(self):
        energy = np.array([3.0, 1.0])
        acc = np.array([0.9, 0.5])
        frontier = pareto_frontier(energy, acc, ["hi", "lo"])
        assert [p.label for p in frontier] == ["lo", "hi"]

    def test_duplicates_kept_if_equal(self):
        energy = np.array([1.0, 1.0])
        acc = np.array([0.5, 0.5])
        frontier = pareto_frontier(energy, acc, ["a", "b"])
        assert len(frontier) == 2

    def test_empty(self):
        assert pareto_frontier(np.array([]), np.array([]), []) == []

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            pareto_frontier(np.array([1.0]), np.array([0.5, 0.6]), ["a"])

    @given(st.lists(
        st.tuples(st.floats(0.1, 10, allow_nan=False),
                  st.floats(0, 1, allow_nan=False)),
        min_size=1, max_size=30,
    ))
    @settings(max_examples=50)
    def test_frontier_is_mutually_nondominated(self, pts):
        energy = np.array([p[0] for p in pts])
        acc = np.array([p[1] for p in pts])
        labels = [str(i) for i in range(len(pts))]
        frontier = pareto_frontier(energy, acc, labels)
        assert frontier, "frontier never empty for nonempty input"
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                strictly_dominates = (
                    b.energy_wh <= a.energy_wh
                    and b.accuracy >= a.accuracy
                    and (b.energy_wh < a.energy_wh or b.accuracy > a.accuracy)
                )
                assert not strictly_dominates

    @given(st.lists(
        st.tuples(st.floats(0.1, 10, allow_nan=False),
                  st.floats(0, 1, allow_nan=False)),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=30)
    def test_best_accuracy_always_on_frontier(self, pts):
        energy = np.array([p[0] for p in pts])
        acc = np.array([p[1] for p in pts])
        frontier = pareto_frontier(energy, acc, [str(i) for i in range(len(pts))])
        assert max(p.accuracy for p in frontier) == pytest.approx(acc.max())


class TestFrontierFromGrid:
    def test_grid_conversion(self, tiny_preset, tmp_path):
        from repro.experiments import grid_search

        res = grid_search(tiny_preset, tmp_path, degree=3,
                          train_values=(1, 2), sync_values=(1, 2))
        frontier = frontier_from_grid(res)
        assert 1 <= len(frontier) <= 4
        assert all(isinstance(p, ParetoPoint) for p in frontier)
        # lowest-energy cell (Γt=1, Γs=2) is never dominated on energy
        energies = res.energy_wh.ravel()
        assert min(p.energy_wh for p in frontier) == pytest.approx(
            energies.min()
        )
