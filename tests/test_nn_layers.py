"""Layer tests: shape contracts and numerical gradient checks.

Every serial layer's backward pass (the oracle the stacked mirror is
checked against, ``tests/oracle_nn.py``) is verified against central
finite differences, both for input gradients and parameter gradients —
the strongest correctness guarantee a hand-written backprop engine can
get.
"""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    GroupNorm,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.serialization import gradient_vector, parameter_vector, set_parameter_vector
from tests.oracle_nn import serial


def numeric_input_grad(layer, x, grad_out, eps=1e-6):
    """Central-difference gradient of sum(layer(x) * grad_out) wrt x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float((layer.forward(x) * grad_out).sum())
        flat[i] = orig - eps
        down = float((layer.forward(x) * grad_out).sum())
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


def check_input_grad(layer, x, tol=1e-6):
    rng = np.random.default_rng(0)
    out = layer.forward(x)
    grad_out = rng.normal(size=out.shape)
    analytic = layer.backward(grad_out)
    numeric = numeric_input_grad(layer, x, grad_out)
    np.testing.assert_allclose(analytic, numeric, atol=tol, rtol=1e-4)


def check_param_grad(layer, x, tol=1e-6):
    rng = np.random.default_rng(1)
    out = layer.forward(x)
    grad_out = rng.normal(size=out.shape)
    layer.zero_grad()
    layer.backward(grad_out)
    analytic = gradient_vector(layer)
    v0 = parameter_vector(layer)
    numeric = np.zeros_like(analytic)
    eps = 1e-6
    for i in range(v0.size):
        v = v0.copy()
        v[i] += eps
        set_parameter_vector(layer, v)
        up = float((layer.forward(x) * grad_out).sum())
        v[i] -= 2 * eps
        set_parameter_vector(layer, v)
        down = float((layer.forward(x) * grad_out).sum())
        numeric[i] = (up - down) / (2 * eps)
    set_parameter_vector(layer, v0)
    np.testing.assert_allclose(analytic, numeric, atol=tol, rtol=1e-4)


class TestLinear:
    def test_forward_shape_and_value(self, rng):
        layer = serial(Linear(3, 2, rng=rng))
        x = np.ones((4, 3))
        out = layer.forward(x)
        assert out.shape == (4, 2)
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(out, expected)

    def test_rejects_bad_shapes(self, rng):
        layer = serial(Linear(3, 2, rng=rng))
        with pytest.raises(ValueError):
            layer.forward(np.ones((4, 5)))
        with pytest.raises(ValueError):
            layer.forward(np.ones((4, 3, 1)))
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_input_grad(self, rng):
        layer = serial(Linear(5, 4, rng=rng))
        check_input_grad(layer, rng.normal(size=(3, 5)))

    def test_param_grad(self, rng):
        layer = serial(Linear(4, 3, rng=rng))
        check_param_grad(layer, rng.normal(size=(2, 4)))

    def test_no_bias(self, rng):
        layer = Linear(3, 2, rng=rng, bias=False)
        assert layer.bias is None
        assert layer.num_parameters() == 6

    def test_backward_before_forward_raises(self, rng):
        layer = serial(Linear(3, 2, rng=rng))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))


class TestConv2d:
    def test_forward_shape(self, rng):
        layer = serial(Conv2d(3, 8, 5, padding=2, rng=rng))
        out = layer.forward(rng.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 8, 16, 16)

    def test_stride_shape(self, rng):
        layer = serial(Conv2d(1, 4, 3, stride=2, padding=1, rng=rng))
        out = layer.forward(rng.normal(size=(2, 1, 8, 8)))
        assert out.shape == (2, 4, 4, 4)

    def test_matches_direct_convolution(self, rng):
        """im2col path equals a naive loop implementation."""
        layer = serial(Conv2d(2, 3, 3, padding=1, rng=rng))
        x = rng.normal(size=(2, 2, 5, 5))
        out = layer.forward(x)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        naive = np.zeros_like(out)
        for n in range(2):
            for o in range(3):
                for i in range(5):
                    for j in range(5):
                        patch = xp[n, :, i : i + 3, j : j + 3]
                        naive[n, o, i, j] = (
                            patch * layer.weight.data[o]
                        ).sum() + layer.bias.data[o]
        np.testing.assert_allclose(out, naive, atol=1e-10)

    def test_input_grad(self, rng):
        layer = serial(Conv2d(2, 3, 3, padding=1, rng=rng))
        check_input_grad(layer, rng.normal(size=(2, 2, 4, 4)))

    def test_param_grad(self, rng):
        layer = serial(Conv2d(1, 2, 3, padding=1, rng=rng))
        check_param_grad(layer, rng.normal(size=(2, 1, 4, 4)))

    def test_rejects_wrong_channels(self, rng):
        layer = serial(Conv2d(3, 4, 3, rng=rng))
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 2, 8, 8)))


class TestPooling:
    def test_maxpool_known_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = serial(MaxPool2d(2)).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_known_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = serial(AvgPool2d(2)).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_input_grad(self, rng):
        # distinct values so argmax is unambiguous for finite differences
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        check_input_grad(serial(MaxPool2d(2)), x)

    def test_avgpool_input_grad(self, rng):
        check_input_grad(serial(AvgPool2d(2)), rng.normal(size=(2, 2, 4, 4)))

    def test_maxpool_overlapping_stride_grad(self, rng):
        x = rng.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)
        check_input_grad(serial(MaxPool2d(3, stride=1)), x)

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            MaxPool2d(0)


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, LeakyReLU, Sigmoid, Tanh])
    def test_input_grads(self, layer_cls, rng):
        # offset away from 0 so ReLU's kink doesn't hit finite differences
        x = rng.normal(size=(3, 5)) + 0.05 * np.sign(rng.normal(size=(3, 5)))
        x[np.abs(x) < 1e-3] = 0.1
        check_input_grad(serial(layer_cls()), x)

    def test_relu_zeroes_negatives(self):
        out = serial(ReLU()).forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_leaky_relu_slope(self):
        out = serial(LeakyReLU(0.1)).forward(np.array([[-10.0]]))
        assert out[0, 0] == pytest.approx(-1.0)


class TestGroupNorm:
    def test_normalizes_groups(self, rng):
        gn = serial(GroupNorm(2, 4))
        x = rng.normal(loc=5.0, scale=3.0, size=(2, 4, 3, 3))
        out = gn.forward(x)
        grouped = out.reshape(2, 2, -1)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-10)
        np.testing.assert_allclose(grouped.std(axis=2), 1.0, atol=1e-4)

    def test_input_grad(self, rng):
        gn = serial(GroupNorm(2, 4))
        check_input_grad(gn, rng.normal(size=(2, 4, 3, 3)), tol=1e-5)

    def test_param_grad(self, rng):
        gn = serial(GroupNorm(2, 4))
        check_param_grad(gn, rng.normal(size=(2, 4, 2, 2)), tol=1e-5)

    def test_channels_divisible(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 4)

    def test_param_count(self):
        assert GroupNorm(2, 32).num_parameters() == 64


class TestFlattenDropout:
    def test_flatten_roundtrip(self, rng):
        f = serial(Flatten())
        x = rng.normal(size=(2, 3, 4, 4))
        out = f.forward(x)
        assert out.shape == (2, 48)
        back = f.backward(out)
        np.testing.assert_array_equal(back, x)

    def test_dropout_eval_is_identity(self, rng):
        d = Dropout(0.5, rng=rng)
        d.eval()
        x = rng.normal(size=(4, 6))
        np.testing.assert_array_equal(d.forward(x), x)

    def test_dropout_train_scales(self, rng):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((1000, 10))
        out = d.forward(x)
        # inverted dropout: surviving entries are 1/(1-p) = 2
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 2.0)
        assert abs(out.mean() - 1.0) < 0.05

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestSequentialGradient:
    def test_full_stack_gradient(self, rng):
        """End-to-end gradient check through a conv+GN+pool+linear stack."""
        model = serial(Sequential(
            Conv2d(1, 3, 3, padding=1, rng=rng),
            GroupNorm(3, 3),
            Tanh(),
            AvgPool2d(2),
            Flatten(),
            Linear(3 * 2 * 2, 4, rng=rng),
        ))
        x = rng.normal(size=(2, 1, 4, 4))
        out = model.forward(x)
        grad_out = rng.normal(size=out.shape)
        model.zero_grad()
        model.backward(grad_out)
        analytic = gradient_vector(model)
        v0 = parameter_vector(model)
        eps = 1e-6
        idx = np.random.default_rng(2).choice(v0.size, size=40, replace=False)
        for i in idx:
            v = v0.copy()
            v[i] += eps
            set_parameter_vector(model, v)
            up = float((model.forward(x) * grad_out).sum())
            v[i] -= 2 * eps
            set_parameter_vector(model, v)
            down = float((model.forward(x) * grad_out).sum())
            num = (up - down) / (2 * eps)
            assert analytic[i] == pytest.approx(num, abs=1e-6, rel=1e-4)
