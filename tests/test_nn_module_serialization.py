"""Tests for module parameter discovery and flat-vector serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Linear,
    ReLU,
    Sequential,
    gn_lenet_cifar10,
    parameter_slices,
    parameter_vector,
    set_parameter_vector,
    small_mlp,
    vector_size,
)
from repro.nn.serialization import gradient_vector
from tests.oracle_nn import serial


class TestParameterDiscovery:
    def test_sequential_counts(self, rng):
        model = Sequential(Linear(4, 3, rng=rng), ReLU(), Linear(3, 2, rng=rng))
        assert model.num_parameters() == (4 * 3 + 3) + (3 * 2 + 2)

    def test_named_parameters_unique(self, rng):
        model = small_mlp(16, 4, hidden=8, rng=rng)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert all("." in n for n in names)

    def test_order_deterministic(self, rng):
        model = small_mlp(16, 4, hidden=8, rng=rng)
        first = [n for n, _ in model.named_parameters()]
        second = [n for n, _ in model.named_parameters()]
        assert first == second

    def test_train_eval_propagates(self, rng):
        model = Sequential(Linear(2, 2, rng=rng), ReLU())
        model.eval()
        assert not model.layers[0].training
        model.train()
        assert model.layers[0].training


class TestSerialization:
    def test_roundtrip_identity(self, rng):
        model = small_mlp(16, 4, hidden=8, rng=rng)
        v = parameter_vector(model)
        set_parameter_vector(model, v * 2.0)
        v2 = parameter_vector(model)
        np.testing.assert_allclose(v2, v * 2.0)

    def test_vector_size(self, rng):
        model = small_mlp(16, 4, hidden=8, rng=rng)
        assert vector_size(model) == parameter_vector(model).size

    def test_out_buffer_reused(self, rng):
        model = small_mlp(16, 4, hidden=8, rng=rng)
        buf = np.zeros(vector_size(model))
        out = parameter_vector(model, out=buf)
        assert out is buf

    def test_wrong_size_rejected(self, rng):
        model = small_mlp(16, 4, hidden=8, rng=rng)
        with pytest.raises(ValueError):
            set_parameter_vector(model, np.zeros(3))
        with pytest.raises(ValueError):
            parameter_vector(model, out=np.zeros(3))

    def test_slices_cover_vector(self, rng):
        model = gn_lenet_cifar10(rng=rng)
        slices = parameter_slices(model)
        total = vector_size(model)
        covered = np.zeros(total, dtype=bool)
        for _, sl, shape in slices:
            assert not covered[sl].any(), "overlapping slices"
            covered[sl] = True
            assert int(np.prod(shape)) == sl.stop - sl.start
        assert covered.all()

    def test_slice_content_matches_named_parameter(self, rng):
        model = small_mlp(16, 4, hidden=8, rng=rng)
        v = parameter_vector(model)
        named = dict(model.named_parameters())
        for name, sl, shape in parameter_slices(model):
            np.testing.assert_array_equal(
                v[sl].reshape(shape), named[name].data
            )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_random_vectors(self, seed):
        rng = np.random.default_rng(seed)
        model = small_mlp(8, 3, hidden=4, rng=rng)
        v = rng.normal(size=vector_size(model))
        set_parameter_vector(model, v)
        np.testing.assert_array_equal(parameter_vector(model), v)

    def test_gradient_vector_layout_matches(self, rng):
        model = Sequential(Linear(3, 2, rng=rng))
        x = rng.normal(size=(4, 3))
        net = serial(model)
        out = net.forward(x)
        model.zero_grad()
        net.backward(np.ones_like(out))
        g = gradient_vector(model)
        lin = model.layers[0]
        np.testing.assert_array_equal(
            g, np.concatenate([lin.bias.grad, lin.weight.grad.ravel()])
            if list(dict(model.named_parameters()))[0].endswith("bias")
            else np.concatenate([lin.weight.grad.ravel(), lin.bias.grad])
        )

    def test_setting_vector_affects_forward(self, rng):
        model = small_mlp(8, 3, hidden=4, rng=rng)
        x = rng.normal(size=(2, 8))
        out1 = serial(model).forward(x)
        set_parameter_vector(model, np.zeros(vector_size(model)))
        out2 = serial(model).forward(x)
        np.testing.assert_array_equal(out2, 0.0)
        assert not np.allclose(out1, 0.0)
