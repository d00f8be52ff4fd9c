"""Tests for client-sampling D-PSGD and the privacy noise mechanism."""

import numpy as np
import pytest

from repro.core import (
    ClientSamplingDPSGD,
    GaussianMechanism,
    noise_after_mixing,
)
from repro.topology import fully_connected_graph, metropolis_hastings_weights, ring_neighbors


class TestClientSampling:
    def test_exact_sample_size_every_round(self):
        algo = ClientSamplingDPSGD(10, 4, np.random.default_rng(0))
        for t in range(1, 30):
            assert algo.train_mask(t).sum() == 4

    def test_uniform_coverage(self):
        algo = ClientSamplingDPSGD(10, 3, np.random.default_rng(1))
        counts = np.zeros(10)
        for t in range(1, 501):
            counts += algo.train_mask(t)
        # each node expected 150 times; loose uniformity bound
        assert counts.min() > 100 and counts.max() < 200

    def test_training_fraction(self):
        algo = ClientSamplingDPSGD(8, 2, np.random.default_rng(0))
        assert algo.training_fraction() == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientSamplingDPSGD(5, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ClientSamplingDPSGD(5, 6, np.random.default_rng(0))


class TestGaussianMechanism:
    def test_zero_sigma_identity(self, rng):
        mech = GaussianMechanism(0.0, rng)
        v = rng.normal(size=10)
        out = mech.privatize(v)
        np.testing.assert_array_equal(out, v)
        assert out is not v  # still a copy

    def test_noise_scale(self):
        mech = GaussianMechanism(2.0, np.random.default_rng(0))
        v = np.zeros(20_000)
        out = mech.privatize(v)
        assert out.std() == pytest.approx(2.0, rel=0.05)

    def test_query_counting(self, rng):
        mech = GaussianMechanism(1.0, rng)
        mech.privatize(np.zeros(3))
        mech.privatize_state(np.zeros((5, 3)))
        assert mech.queries == 6

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError):
            GaussianMechanism(-1.0, rng)


class TestNoiseAfterMixing:
    def test_mixing_attenuates_noise(self):
        w = metropolis_hastings_weights(ring_neighbors(16))
        rng = np.random.default_rng(0)
        raw = noise_after_mixing(w, 0, sigma=1.0, rng=rng)
        mixed = noise_after_mixing(w, 10, sigma=1.0, rng=rng)
        assert mixed < raw

    def test_complete_graph_reaches_floor(self):
        """One mixing round on the complete graph averages n iid noises:
        residual std = σ/√n."""
        n = 16
        w = metropolis_hastings_weights(fully_connected_graph(n))
        rng = np.random.default_rng(1)
        residual = noise_after_mixing(w, 1, sigma=1.0, rng=rng, trials=64)
        assert residual == pytest.approx(1.0 / np.sqrt(n), rel=0.1)

    def test_more_sync_rounds_more_attenuation(self):
        """The SkipTrain synergy: its sync batches attenuate injected
        noise monotonically — extra privacy amplification for free."""
        w = metropolis_hastings_weights(ring_neighbors(24))
        rng = np.random.default_rng(2)
        levels = [noise_after_mixing(w, k, 1.0, rng) for k in (0, 2, 4, 8)]
        assert all(a > b for a, b in zip(levels, levels[1:]))

    def test_validation(self, rng):
        w = metropolis_hastings_weights(ring_neighbors(8))
        with pytest.raises(ValueError):
            noise_after_mixing(w, -1, 1.0, rng)
