"""Tests for the algorithm family's train-mask policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DPSGD,
    AllReduceDPSGD,
    Greedy,
    RoundSchedule,
    SkipTrain,
    SkipTrainConstrained,
)


class TestDPSGD:
    def test_trains_every_round(self):
        algo = DPSGD(5)
        for t in range(1, 20):
            assert algo.train_mask(t).all()

    def test_every_round_is_eval_point(self):
        algo = DPSGD(5)
        assert all(algo.is_eval_point(t) for t in range(1, 10))

    def test_allreduce_flag(self):
        assert not DPSGD(3).use_allreduce
        assert AllReduceDPSGD(3).use_allreduce


class TestSkipTrain:
    def test_follows_schedule(self):
        s = RoundSchedule(2, 3)
        algo = SkipTrain(4, s)
        for t in range(1, 30):
            mask = algo.train_mask(t)
            assert mask.all() == s.is_training_round(t)
            assert mask.any() == s.is_training_round(t)

    def test_rejects_all_sync_schedule(self):
        with pytest.raises(ValueError):
            SkipTrain(4, RoundSchedule(0, 3))

    def test_eval_points_are_cycle_ends(self):
        s = RoundSchedule(2, 2)
        algo = SkipTrain(4, s)
        for t in range(1, 30):
            assert algo.is_eval_point(t) == s.is_cycle_end(t)

    def test_energy_halved_vs_dpsgd(self):
        """Γ=(k,k) trains exactly half the rounds (the paper's 2× energy
        saving) over whole periods."""
        s = RoundSchedule(4, 4)
        algo = SkipTrain(2, s)
        trained = sum(algo.train_mask(t).all() for t in range(1, 81))
        assert trained == 40


class TestSkipTrainConstrained:
    def make(self, budgets, total=40, schedule=(1, 1), seed=0, n=None):
        budgets = np.asarray(budgets)
        n = n if n is not None else budgets.size
        return SkipTrainConstrained(
            n,
            RoundSchedule(*schedule),
            budgets=budgets,
            total_rounds=total,
            rng=np.random.default_rng(seed),
        )

    def test_never_exceeds_budget(self):
        algo = self.make([3, 5, 100], total=60)
        trains = np.zeros(3, dtype=int)
        for t in range(1, 61):
            trains += algo.train_mask(t)
        assert (trains <= np.array([3, 5, 100])).all()

    def test_no_training_in_sync_rounds(self):
        algo = self.make([100, 100], total=40, schedule=(2, 2))
        for t in range(1, 41):
            mask = algo.train_mask(t)
            if not RoundSchedule(2, 2).is_training_round(t):
                assert not mask.any()

    def test_large_budget_equals_unconstrained(self):
        """p_i = 1 ⇒ identical behaviour to SkipTrain (paper §3.2)."""
        s = RoundSchedule(2, 2)
        constrained = self.make([1000, 1000], total=40, schedule=(2, 2))
        unconstrained = SkipTrain(2, s)
        for t in range(1, 41):
            np.testing.assert_array_equal(
                constrained.train_mask(t), unconstrained.train_mask(t)
            )

    def test_zero_budget_never_trains(self):
        algo = self.make([0, 50], total=40)
        for t in range(1, 41):
            assert not algo.train_mask(t)[0]

    @given(st.integers(0, 2**31 - 1), st.integers(1, 200))
    @settings(max_examples=20, deadline=None)
    def test_training_count_near_expectation(self, seed, budget):
        """Spread property: #trains ≈ min(τ, T_train) in expectation."""
        total = 400
        algo = self.make([budget], total=total, schedule=(1, 1), seed=seed)
        trains = sum(int(algo.train_mask(t)[0]) for t in range(1, total + 1))
        expected = min(budget, 200)
        # binomial concentration: allow generous slack
        assert trains <= budget
        assert abs(trains - expected) <= max(10, 4 * np.sqrt(expected + 1))

    def test_reset_restores_budget(self):
        algo = self.make([2], total=40)
        for t in range(1, 41):
            algo.train_mask(t)
        algo.reset()
        assert algo.state.remaining[0] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make([1, 2, 3], n=2)
        with pytest.raises(ValueError):
            SkipTrainConstrained(
                2, RoundSchedule(0, 2), np.array([1, 1]), 10,
                np.random.default_rng(0),
            )


class TestGreedy:
    def test_front_loads_budget(self):
        algo = Greedy(3, np.array([2, 4, 0]))
        masks = [algo.train_mask(t) for t in range(1, 7)]
        np.testing.assert_array_equal(masks[0], [True, True, False])
        np.testing.assert_array_equal(masks[1], [True, True, False])
        np.testing.assert_array_equal(masks[2], [False, True, False])
        np.testing.assert_array_equal(masks[3], [False, True, False])
        np.testing.assert_array_equal(masks[4], [False, False, False])

    def test_total_trains_equals_budget(self):
        budgets = np.array([3, 7, 11])
        algo = Greedy(3, budgets)
        total = np.zeros(3, dtype=int)
        for t in range(1, 20):
            total += algo.train_mask(t)
        np.testing.assert_array_equal(total, budgets)

    def test_reset(self):
        algo = Greedy(2, np.array([1, 1]))
        algo.train_mask(1)
        algo.reset()
        assert algo.state.remaining.sum() == 2
