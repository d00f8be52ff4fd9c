"""Property-based engine invariants (hypothesis over schedules, budgets
and masks).

These are the conservation laws every algorithm in the family must
satisfy, checked against randomly drawn configurations rather than the
handful of hand-picked ones in the unit tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DPSGD,
    Greedy,
    RoundSchedule,
    SkipTrain,
    SkipTrainConstrained,
)
from repro.energy import CIFAR10_WORKLOAD, EnergyMeter, build_trace
from repro.topology import metropolis_hastings_weights, regular_neighbors

schedules = st.tuples(st.integers(1, 5), st.integers(0, 5))
budget_lists = st.lists(st.integers(0, 60), min_size=4, max_size=4)


def run_masks(algo, rounds):
    """Collect the algorithm's masks for rounds 1..rounds."""
    return np.array([algo.train_mask(t) for t in range(1, rounds + 1)])


class TestMaskInvariants:
    @given(schedules, st.integers(10, 80))
    @settings(max_examples=40)
    def test_skiptrain_mask_counts_match_schedule(self, gammas, rounds):
        gt, gs = gammas
        schedule = RoundSchedule(gt, gs)
        algo = SkipTrain(4, schedule)
        masks = run_masks(algo, rounds)
        # all-or-nothing per round, and the count equals the schedule's
        per_round = masks.sum(axis=1)
        assert set(np.unique(per_round)) <= {0, 4}
        assert (per_round > 0).sum() == schedule.training_rounds(rounds)

    @given(budget_lists, st.integers(0, 2**31 - 1), schedules,
           st.integers(10, 60))
    @settings(max_examples=40)
    def test_constrained_never_exceeds_budget(self, budgets, seed, gammas,
                                              rounds):
        gt, gs = gammas
        if gt == 0:
            gt = 1
        algo = SkipTrainConstrained(
            4, RoundSchedule(gt, gs), np.array(budgets), rounds,
            np.random.default_rng(seed),
        )
        masks = run_masks(algo, rounds)
        totals = masks.sum(axis=0)
        assert (totals <= np.array(budgets)).all()

    @given(budget_lists, st.integers(10, 60))
    @settings(max_examples=40)
    def test_greedy_spends_min_budget_rounds(self, budgets, rounds):
        algo = Greedy(4, np.array(budgets))
        masks = run_masks(algo, rounds)
        totals = masks.sum(axis=0)
        np.testing.assert_array_equal(
            totals, np.minimum(budgets, rounds)
        )

    @given(budget_lists, st.integers(0, 2**31 - 1), st.integers(10, 40))
    @settings(max_examples=30)
    def test_constrained_masks_subset_of_skiptrain(self, budgets, seed,
                                                   rounds):
        """Constrained never trains in a round unconstrained SkipTrain
        skips (coordination is preserved)."""
        schedule = RoundSchedule(2, 2)
        constrained = SkipTrainConstrained(
            4, schedule, np.array(budgets), rounds,
            np.random.default_rng(seed),
        )
        reference = SkipTrain(4, schedule)
        for t in range(1, rounds + 1):
            c = constrained.train_mask(t)
            r = reference.train_mask(t)
            assert not (c & ~r).any()


class TestEnergyInvariants:
    @given(schedules, st.integers(8, 40))
    @settings(max_examples=30, deadline=None)
    def test_energy_proportional_to_training_rounds(self, gammas, rounds):
        """Eq. 3 linearity: total training energy = (training rounds) ×
        (per-round fleet energy), for any schedule."""
        gt, gs = gammas
        schedule = RoundSchedule(gt, gs)
        trace = build_trace(4, CIFAR10_WORKLOAD, 0.5)
        meter = EnergyMeter(trace)
        algo = SkipTrain(4, schedule)
        for t in range(1, rounds + 1):
            meter.record_round(algo.train_mask(t))
        expected = schedule.training_rounds(rounds) * trace.train_energy_wh.sum()
        assert meter.total_train_wh == pytest.approx(expected)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_mixing_conserves_mean_for_random_states(self, seed):
        rng = np.random.default_rng(seed)
        w = metropolis_hastings_weights(regular_neighbors(12, 4, seed=seed % 100))
        x = rng.normal(size=(12, 9)) * rng.uniform(0.1, 10)
        y = w @ x
        np.testing.assert_allclose(y.mean(axis=0), x.mean(axis=0),
                                   atol=1e-10)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 30))
    @settings(max_examples=15, deadline=None)
    def test_consensus_distance_nonincreasing_under_mixing(self, seed, k):
        from repro.simulation import consensus_distance

        rng = np.random.default_rng(seed)
        w = metropolis_hastings_weights(regular_neighbors(10, 3, seed=seed % 50))
        x = rng.normal(size=(10, 6))
        prev = consensus_distance(x)
        for _ in range(k):
            x = w @ x
            cur = consensus_distance(x)
            assert cur <= prev + 1e-12
            prev = cur


class TestDPSGDEquivalences:
    @given(st.integers(1, 5))
    @settings(max_examples=10)
    def test_skiptrain_gamma_sync_zero_is_dpsgd(self, gt):
        """Γ_sync = 0 degenerates SkipTrain to D-PSGD exactly."""
        skip = SkipTrain(6, RoundSchedule(gt, 0))
        dpsgd = DPSGD(6)
        for t in range(1, 40):
            np.testing.assert_array_equal(
                skip.train_mask(t), dpsgd.train_mask(t)
            )
