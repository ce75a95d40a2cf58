import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocomp.autodiff import (Parameter, Tensor, concat, conv1d, dropout,
                              max_over_time, pad_rows_front, xavier_uniform)
from emocomp.errors import ConfigError, DimensionError
from emocomp.gradcheck import gradient_check

TOL = 1e-6


def check(build_loss, tensors, tol=TOL):
    report = gradient_check(build_loss, tensors)
    assert report.max_rel_error < tol, report


class TestElementwiseGradients:
    def test_add_mul_div(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((3, 4)) + 2.0)
        check(lambda: ((a + b) * a / b).sum(), [a, b])

    def test_broadcast_row_bias(self, rng):
        x = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(3))
        check(lambda: ((x + b) * (x + b)).sum(), [x, b])

    def test_scalar_broadcast(self, rng):
        x = Tensor(rng.standard_normal((2, 5)))
        check(lambda: (3.0 * x - 1.5).mean(), [x])

    def test_activations(self, rng):
        x = Tensor(rng.standard_normal((3, 3)) * 0.7)
        check(lambda: x.tanh().sum(), [x])
        check(lambda: x.sigmoid().sum(), [x])
        check(lambda: (x * x + 0.5).log().sum(), [x])

    def test_relu_away_from_kink(self, rng):
        data = rng.standard_normal((4, 4))
        data[np.abs(data) < 0.1] = 0.5
        x = Tensor(data)
        check(lambda: x.relu().sum(), [x])

    def test_clamp_gradient_zero_outside(self):
        x = Tensor(np.array([[-1.0, 0.2, 2.0]]), requires_grad=True)
        out = x.clamp(0.0, 1.0)
        out.backward(np.ones_like(out.data))
        # gradient only flows where the clamp did not engage
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_matmul(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))
        check(lambda: a.matmul(b).sum(), [a, b])

    def test_matmul_shape_error(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 3))).matmul(Tensor(np.ones((2, 3))))

    def test_getitem_and_reshape(self, rng):
        x = Tensor(rng.standard_normal((5, 4)))
        check(lambda: (x[1:3, :2] * x[1:3, :2]).sum(), [x])
        check(lambda: x.reshape(2, 10).mean(), [x])

    def test_shared_node_accumulates(self, rng):
        # y = x used twice: d/dx (x*x + x) = 2x + 1
        x = Tensor(np.array([[2.0]]))
        check(lambda: (x * x + x).sum(), [x])

    def test_sum_mean(self, rng):
        x = Tensor(rng.standard_normal((3, 7)))
        check(lambda: x.sum() * 0.5 + x.mean(), [x])


class TestStructuralOps:
    def test_concat_axis0_axis1(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((4, 3)))
        check(lambda: (concat([a, b], axis=0) * concat([a, b], axis=0)).sum(), [a, b])
        c = Tensor(rng.standard_normal((2, 5)))
        check(lambda: concat([a, c], axis=1).sum(), [a, c])

    def test_pad_rows_front(self, rng):
        x = Tensor(rng.standard_normal((2, 3)))
        padded = pad_rows_front(x, 2)
        assert padded.data.shape == (4, 3)
        assert np.all(padded.data[:2] == 0.0)
        check(lambda: (pad_rows_front(x, 3) * pad_rows_front(x, 3)).sum(), [x])

    def test_conv1d_values_and_gradient(self, rng):
        x = Tensor(rng.standard_normal((6, 3)))
        K = Tensor(rng.standard_normal((2, 3, 4)))
        b = Tensor(rng.standard_normal(4))
        out = conv1d(x, K, b)
        assert out.data.shape == (5, 4)
        # spot-check one output cell against the definition
        expected = sum(x.data[1 + i] @ K.data[i] for i in range(2)) + b.data
        np.testing.assert_allclose(out.data[1], expected)
        check(lambda: (conv1d(x, K, b) * conv1d(x, K, b)).sum(), [x, K, b])

    def test_conv1d_too_short(self):
        with pytest.raises(DimensionError):
            conv1d(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 3, 4))), Tensor(np.zeros(4)))

    def test_max_over_time_first_occurrence_tie(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]]), requires_grad=True)
        out = max_over_time(x)
        out.backward(np.array([1.0, 1.0]))
        # ties resolve to the first maximal timestep
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])

    def test_max_over_time_gradient(self, rng):
        x = Tensor(rng.standard_normal((5, 3)))
        check(lambda: (max_over_time(x) * max_over_time(x)).sum(), [x])

    def test_max_over_time_empty(self):
        with pytest.raises(DimensionError):
            max_over_time(Tensor(np.zeros((0, 3))))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_max_over_time_row_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 4))
        perm = rng.permutation(6)
        a = max_over_time(Tensor(x)).data
        b = max_over_time(Tensor(x[perm])).data
        np.testing.assert_array_equal(a, b)


class TestDropout:
    def test_rate_zero_and_inference_identity(self, rng):
        x = Tensor(rng.standard_normal((3, 3)))
        assert dropout(x, 0.0, True, rng) is x
        assert dropout(x, 0.5, False) is x

    def test_inverted_scaling_mean(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.4, True, rng)
        kept = out.data != 0.0
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.6)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_needs_rng_in_training(self):
        with pytest.raises(ConfigError):
            dropout(Tensor(np.ones((2, 2))), 0.5, True, None)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            dropout(Tensor(np.ones((2, 2))), 1.0, True, np.random.default_rng(0))


class TestParameter:
    def test_parameter_enables_grad(self):
        p = Parameter(Tensor(np.zeros((2, 2))), "p")
        assert p.tensor.requires_grad
        assert p.grad.shape == (2, 2)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            (x * 2.0).backward()

    def test_xavier_shapes(self, rng):
        assert xavier_uniform((3, 5), rng).shape == (3, 5)
        assert xavier_uniform((2, 3, 4), rng).shape == (2, 3, 4)
