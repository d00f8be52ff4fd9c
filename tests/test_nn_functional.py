"""Unit and property tests for the numerical helpers: ``repro.nn.functional``
(the stacked kernels' ``conv_output_size``) and the serial oracle's
(``tests/oracle_nn.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import functional as F
from tests import oracle_nn

finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


class TestSoftmax:
    @given(arrays(np.float64, (4, 7), elements=finite_floats))
    def test_rows_sum_to_one(self, x):
        s = oracle_nn.softmax(x, axis=1)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    @given(arrays(np.float64, (3, 5), elements=finite_floats))
    def test_nonnegative(self, x):
        assert (oracle_nn.softmax(x) >= 0).all()

    @given(arrays(np.float64, (3, 5), elements=finite_floats),
           st.floats(-100, 100, allow_nan=False))
    def test_shift_invariance(self, x, c):
        np.testing.assert_allclose(oracle_nn.softmax(x), oracle_nn.softmax(x + c), atol=1e-9)

    def test_large_logits_stable(self):
        x = np.array([[1e4, 0.0, -1e4]])
        s = oracle_nn.softmax(x)
        assert np.isfinite(s).all()
        assert s[0, 0] == pytest.approx(1.0)

    @given(arrays(np.float64, (4, 6), elements=finite_floats))
    def test_log_softmax_consistent(self, x):
        np.testing.assert_allclose(
            np.exp(oracle_nn.log_softmax(x, axis=1)), oracle_nn.softmax(x, axis=1), atol=1e-9
        )


class TestOneHot:
    def test_basic(self):
        out = oracle_nn.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            oracle_nn.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            oracle_nn.one_hot(np.array([-1]), 3)

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            oracle_nn.one_hot(np.zeros((2, 2), dtype=int), 3)

    @given(st.integers(1, 20), st.integers(2, 10))
    def test_row_sums(self, n, k):
        labels = np.arange(n) % k
        out = oracle_nn.one_hot(labels, k)
        np.testing.assert_array_equal(out.sum(axis=1), 1.0)
        np.testing.assert_array_equal(out.argmax(axis=1), labels)


class TestActivationHelpers:
    @given(arrays(np.float64, (10,), elements=finite_floats))
    def test_relu_matches_definition(self, x):
        np.testing.assert_array_equal(oracle_nn.relu(x), np.maximum(x, 0))

    def test_sigmoid_extremes(self):
        assert oracle_nn.sigmoid(np.array([800.0]))[0] == pytest.approx(1.0)
        assert oracle_nn.sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0)

    @given(arrays(np.float64, (10,), elements=finite_floats))
    def test_sigmoid_range_and_symmetry(self, x):
        s = oracle_nn.sigmoid(x)
        assert ((s >= 0) & (s <= 1)).all()
        np.testing.assert_allclose(oracle_nn.sigmoid(-x), 1 - s, atol=1e-12)


class TestConvHelpers:
    def test_conv_output_size(self):
        assert F.conv_output_size(32, 5, 1, 2) == 32
        assert F.conv_output_size(28, 2, 2, 0) == 14
        with pytest.raises(ValueError):
            F.conv_output_size(3, 7, 1, 0)

    @given(
        st.integers(1, 3), st.integers(1, 3),
        st.integers(4, 8), st.integers(2, 3),
        st.integers(0, 1), st.integers(1, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_im2col_col2im_adjoint(self, n, c, size, k, pad, stride):
        """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.

        This is exactly the property that makes the conv backward pass
        correct, checked for random shapes.
        """
        if (size + 2 * pad - k) % stride != 0:
            stride = 1
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, c, size, size))
        cols = oracle_nn.im2col(x, k, k, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * oracle_nn.col2im(y, x.shape, k, k, stride, pad)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_im2col_known_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = oracle_nn.im2col(x, 2, 2, stride=2, padding=0)
        # windows: top-left [0,1,4,5], top-right [2,3,6,7], ...
        np.testing.assert_array_equal(cols[:, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[:, 1], [2, 3, 6, 7])


class TestAccuracy:
    def test_perfect_and_zero(self):
        logits = np.eye(3)
        assert oracle_nn.accuracy(logits, np.array([0, 1, 2])) == 1.0
        assert oracle_nn.accuracy(logits, np.array([1, 2, 0])) == 0.0

    def test_empty(self):
        assert oracle_nn.accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0
