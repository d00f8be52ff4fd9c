"""Tests for the serial oracle's losses, SGD and learning-rate schedules
(``tests/oracle_nn.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Linear
from repro.nn.parameter import Parameter
from tests.oracle_nn import (
    SGD,
    ConstantLR,
    CosineLR,
    CrossEntropyLoss,
    MSELoss,
    StepLR,
    one_hot,
    serial,
    softmax,
)


class TestCrossEntropy:
    def test_uniform_logits_log_k(self):
        loss = CrossEntropyLoss()
        val = loss(np.zeros((5, 4)), np.array([0, 1, 2, 3, 0]))
        assert val == pytest.approx(np.log(4))

    def test_perfect_prediction_near_zero(self):
        loss = CrossEntropyLoss()
        logits = 100.0 * np.eye(3)
        assert loss(logits, np.array([0, 1, 2])) == pytest.approx(0.0, abs=1e-6)

    @given(arrays(np.float64, (6, 5),
                  elements=st.floats(-30, 30, allow_nan=False)))
    def test_nonnegative(self, logits):
        loss = CrossEntropyLoss()
        targets = np.arange(6) % 5
        assert loss(logits, targets) >= 0.0

    @given(arrays(np.float64, (4, 3),
                  elements=st.floats(-20, 20, allow_nan=False)))
    @settings(max_examples=30)
    def test_gradient_matches_softmax_minus_onehot(self, logits):
        loss = CrossEntropyLoss()
        targets = np.array([0, 1, 2, 0])
        loss(logits, targets)
        grad = loss.backward()
        expected = (softmax(logits, axis=1) - one_hot(targets, 3)) / 4
        np.testing.assert_allclose(grad, expected, atol=1e-10)

    def test_gradient_numerically(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 4))
        targets = np.array([1, 3, 0])
        loss = CrossEntropyLoss()
        loss(logits, targets)
        grad = loss.backward()
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                lp = logits.copy()
                lp[i, j] += eps
                lm = logits.copy()
                lm[i, j] -= eps
                num = (loss(lp, targets) - loss(lm, targets)) / (2 * eps)
                assert grad[i, j] == pytest.approx(num, abs=1e-6)

    def test_shape_validation(self):
        loss = CrossEntropyLoss()
        with pytest.raises(ValueError):
            loss(np.zeros((3,)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            loss(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()


class TestMSE:
    def test_zero_for_equal(self):
        loss = MSELoss()
        x = np.ones((3, 2))
        assert loss(x, x) == 0.0

    def test_value_and_gradient(self):
        loss = MSELoss()
        preds = np.array([[1.0, 2.0]])
        targets = np.array([[0.0, 0.0]])
        assert loss(preds, targets) == pytest.approx(2.5)
        np.testing.assert_allclose(loss.backward(), [[1.0, 2.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss()(np.ones((2, 2)), np.ones((2, 3)))


class TestSGD:
    def test_plain_step(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad[:] = [0.5, -0.5]
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_weight_decay(self):
        p = Parameter(np.array([1.0]))
        p.grad[:] = 0.0
        SGD([p], lr=0.1, weight_decay=0.1).step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.1 * 1.0)

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad[:] = 1.0
        opt.step()  # v=1, x=-1
        assert p.data[0] == pytest.approx(-1.0)
        p.grad[:] = 1.0
        opt.step()  # v=1.5, x=-2.5
        assert p.data[0] == pytest.approx(-2.5)

    def test_zero_grad(self):
        p = Parameter(np.array([1.0]))
        p.grad[:] = 3.0
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad[0] == 0.0

    def test_validation(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_converges_on_quadratic(self):
        """SGD minimizes a simple least-squares problem."""
        rng = np.random.default_rng(0)
        layer = serial(Linear(3, 1, rng=rng))
        x = rng.normal(size=(64, 3))
        true_w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ true_w
        loss = MSELoss()
        opt = SGD(layer.parameters(), lr=0.1)
        for _ in range(300):
            preds = layer.forward(x)
            loss(preds, y)
            layer.zero_grad()
            layer.backward(loss.backward())
            opt.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=1e-3)


class TestSchedules:
    def test_constant(self):
        sched = ConstantLR(0.1)
        assert sched(0) == sched(1000) == 0.1

    def test_step(self):
        sched = StepLR(1.0, step_size=10, gamma=0.1)
        assert sched(0) == 1.0
        assert sched(9) == 1.0
        assert sched(10) == pytest.approx(0.1)
        assert sched(25) == pytest.approx(0.01)

    def test_cosine_endpoints(self):
        sched = CosineLR(1.0, total=100, min_lr=0.0)
        assert sched(0) == pytest.approx(1.0)
        assert sched(100) == pytest.approx(0.0, abs=1e-12)
        assert sched(50) == pytest.approx(0.5)

    def test_cosine_monotone_decreasing(self):
        sched = CosineLR(1.0, total=50)
        vals = [sched(i) for i in range(51)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
