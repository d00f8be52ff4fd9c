"""Model-zoo tests, including the paper's Table 1 parameter counts."""

import numpy as np
import pytest

from repro.nn import (
    PAPER_CIFAR10_PARAMS,
    PAPER_FEMNIST_PARAMS,
    cnn_femnist,
    gn_lenet_cifar10,
    logistic_regression,
    small_cnn,
    small_mlp,
)
from tests.oracle_nn import SGD, CrossEntropyLoss, serial


class TestPaperParamCounts:
    def test_cifar10_gn_lenet(self):
        assert gn_lenet_cifar10().num_parameters() == PAPER_CIFAR10_PARAMS

    def test_femnist_cnn(self):
        assert cnn_femnist().num_parameters() == PAPER_FEMNIST_PARAMS


class TestForwardShapes:
    """The serial forward of each model, the oracle's (``tests/oracle_nn.py``)."""

    def test_cifar_model_output(self, rng):
        model = serial(gn_lenet_cifar10(rng=rng))
        out = model.forward(rng.normal(size=(2, 3, 32, 32)))
        assert out.shape == (2, 10)

    def test_femnist_model_output(self, rng):
        model = serial(cnn_femnist(rng=rng))
        out = model.forward(rng.normal(size=(2, 1, 28, 28)))
        assert out.shape == (2, 62)

    def test_small_cnn_output(self, rng):
        model = serial(small_cnn(in_channels=1, image_size=8, num_classes=5, rng=rng))
        out = model.forward(rng.normal(size=(3, 1, 8, 8)))
        assert out.shape == (3, 5)

    def test_small_mlp_output(self, rng):
        model = serial(small_mlp(64, 10, rng=rng))
        out = model.forward(rng.normal(size=(3, 1, 8, 8)))
        assert out.shape == (3, 10)

    def test_logistic_regression_output(self, rng):
        model = serial(logistic_regression(16, 4, rng=rng))
        assert model.forward(rng.normal(size=(5, 16))).shape == (5, 4)


class TestModelsLearn:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda rng: small_mlp(16, 3, hidden=16, rng=rng),
            lambda rng: small_cnn(1, 4, 3, channels=4, rng=rng),
            lambda rng: logistic_regression(16, 3, rng=rng),
        ],
    )
    def test_loss_decreases_on_separable_data(self, factory, rng):
        model = serial(factory(rng))
        n = 90
        labels = np.arange(n) % 3
        x = rng.normal(size=(n, 1, 4, 4)) * 0.3
        for c in range(3):
            x[labels == c, 0, c, c] += 3.0
        loss = CrossEntropyLoss()
        opt = SGD(model.parameters(), lr=0.1)
        first = loss(model.forward(x), labels)
        for _ in range(60):
            out = model.forward(x)
            loss(out, labels)
            model.zero_grad()
            model.backward(loss.backward())
            opt.step()
        last = loss(model.forward(x), labels)
        assert last < first * 0.5

    def test_deterministic_init_given_rng(self):
        a = small_mlp(8, 2, rng=np.random.default_rng(5))
        b = small_mlp(8, 2, rng=np.random.default_rng(5))
        from repro.nn import parameter_vector

        np.testing.assert_array_equal(parameter_vector(a), parameter_vector(b))
