import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocomp.autodiff import (Parameter, Tensor, concat, conv_pool, dropout,
                              lstm, xavier_uniform)
from emocomp.errors import ConfigError, DimensionError
from emocomp.gradcheck import gradient_check

TOL = 1e-6


def check(build_loss, tensors, tol=TOL):
    report = gradient_check(build_loss, tensors)
    assert report.max_rel_error < tol, report


class TestElementwiseGradients:
    def test_add_mul(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((3, 4)) + 2.0)
        check(lambda: ((a + b) * a * b).sum(), [a, b])

    def test_broadcast_row_bias(self, rng):
        x = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(3))
        check(lambda: ((x + b) * (x + b)).sum(), [x, b])

    def test_scalar_broadcast(self, rng):
        x = Tensor(rng.standard_normal((2, 5)))
        check(lambda: (3.0 * x + -1.5).sum(), [x])

    def test_activations(self, rng):
        x = Tensor(rng.standard_normal((3, 3)) * 0.7)
        check(lambda: x.sigmoid().sum(), [x])

    def test_relu_away_from_kink(self, rng):
        data = rng.standard_normal((4, 4))
        data[np.abs(data) < 0.1] = 0.5
        x = Tensor(data)
        check(lambda: x.relu().sum(), [x])

    def test_matmul(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))
        check(lambda: a.matmul(b).sum(), [a, b])

    def test_matmul_shape_error(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 3))).matmul(Tensor(np.ones((2, 3))))

    def test_getitem(self, rng):
        x = Tensor(rng.standard_normal((5, 4)))
        check(lambda: (x[1:3, :2] * x[1:3, :2]).sum(), [x])

    def test_shared_node_accumulates(self, rng):
        # y = x used twice: d/dx (x*x + x) = 2x + 1
        x = Tensor(np.array([[2.0]]))
        check(lambda: (x * x + x).sum(), [x])

    def test_sum(self, rng):
        x = Tensor(rng.standard_normal((3, 7)))
        check(lambda: x.sum() * 0.5 + x.sum() * x.sum(), [x])


class TestStructuralOps:
    def test_concat_axis0_axis1(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((4, 3)))
        check(lambda: (concat([a, b], axis=0) * concat([a, b], axis=0)).sum(), [a, b])
        c = Tensor(rng.standard_normal((2, 5)))
        check(lambda: concat([a, c], axis=1).sum(), [a, c])

    def test_pad_rows_front(self, rng):
        # a sequence shorter than a kernel is read as if zero rows came first
        x = Tensor(rng.standard_normal((2, 3)))
        K, b = Tensor(rng.standard_normal((4, 3, 2))), Tensor(rng.standard_normal(2) + 1.0)
        padded = Tensor(np.vstack([np.zeros((2, 3)), x.data]))
        np.testing.assert_array_equal(conv_pool(x, [K], [b]).data,
                                      conv_pool(padded, [K], [b]).data)
        check(lambda: (conv_pool(x, [K], [b]) * conv_pool(x, [K], [b])).sum(), [x, K, b])

    def test_max_over_time_first_occurrence_tie(self):
        # an identity kernel of width 1 makes the feature maps the input rows
        x = Tensor(np.array([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]]), requires_grad=True)
        out = conv_pool(x, [Tensor(np.eye(2)[None])], [Tensor(np.zeros(2))])
        out.backward(np.ones((1, 2)))
        np.testing.assert_array_equal(out.data, [[3.0, 5.0]])
        # ties resolve to the first maximal timestep
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])

    def test_max_over_time_gradient(self, rng):
        x = Tensor(rng.standard_normal((5, 3)) + 3.0)
        K, b = [Tensor(np.eye(3)[None])], [Tensor(np.zeros(3))]
        check(lambda: (conv_pool(x, K, b) * conv_pool(x, K, b)).sum(), [x])

    def test_max_over_time_empty(self):
        with pytest.raises(DimensionError):
            conv_pool(Tensor(np.zeros((0, 3))), [Tensor(np.ones((2, 3, 4)))], [Tensor(np.zeros(4))])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_max_over_time_row_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 4))
        perm = rng.permutation(6)
        # width-1 kernels read one row at a time, so pooling ignores row order
        K, b = [Tensor(rng.standard_normal((1, 4, 3)))], [Tensor(rng.standard_normal(3))]
        np.testing.assert_allclose(conv_pool(Tensor(x), K, b).data,
                                   conv_pool(Tensor(x[perm]), K, b).data, rtol=0, atol=1e-12)


def _tanh(a: Tensor) -> Tensor:
    """tanh as a test-local tape node; the engine needs none of its own."""
    out = np.tanh(a.data)
    return Tensor(out, _parents=(a,), _backward=lambda g: (g * (1.0 - out ** 2),))


def lstm_reference(x, W, U, b, reverse=False):
    """The per-timestep LSTM that ``lstm`` replaced: one cell step of Tensor
    ops per row, rows sliced out of x and concatenated back."""
    T, u = x.data.shape[0], U.data.shape[0]
    h = c = Tensor(np.zeros((1, u)))
    rows = [None] * T
    for t in (reversed(range(T)) if reverse else range(T)):
        z = (x[t:t + 1, :].matmul(W) + b) + h.matmul(U)
        i = z[:, 0 * u:1 * u].sigmoid()
        f = z[:, 1 * u:2 * u].sigmoid()
        g = _tanh(z[:, 2 * u:3 * u])
        o = z[:, 3 * u:4 * u].sigmoid()
        c = f * c + i * g
        h = o * _tanh(c)
        rows[t] = h
    return concat(rows, axis=0)


def conv_pool_reference(x, kernels, biases):
    """Valid convolution, ReLU and max over time, one output cell at a time."""
    T, d = x.shape
    out = []
    for K, b in zip(kernels, biases):
        k, _, f = K.shape
        xp = np.vstack([np.zeros((max(k - T, 0), d)), x])
        for j in range(f):
            cells = [sum(xp[t + i] @ K[i, :, j] for i in range(k)) + b[j]
                     for t in range(len(xp) - k + 1)]
            out.append(max(max(cells), 0.0))
    return np.array(out).reshape(1, -1)


def lstm_params(rng, d=3, u=2):
    return (Tensor(rng.standard_normal((d, 4 * u)) * 0.6),
            Tensor(rng.standard_normal((u, 4 * u)) * 0.6),
            Tensor(rng.standard_normal(4 * u) * 0.3))


class TestFusedOps:
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("T", [1, 5])
    def test_lstm_gradient(self, T, reverse, rng):
        x = Tensor(rng.standard_normal((T, 3)))
        W, U, b = lstm_params(rng)
        w = rng.standard_normal((T, 2))
        check(lambda: (lstm(x, W, U, b, reverse) * w).sum(), [x, W, U, b])

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("T", [1, 5])
    def test_lstm_matches_composed_cell(self, T, reverse, rng):
        tensors = [Tensor(rng.standard_normal((T, 3)), requires_grad=True)]
        tensors += [Tensor(p.data, requires_grad=True) for p in lstm_params(rng)]
        grad_out = rng.standard_normal((T, 2))
        results = []
        for op in (lstm, lstm_reference):
            for t in tensors:
                t.zero_grad()
            out = op(*tensors, reverse=reverse)
            out.backward(grad_out)
            results.append([out.data] + [t.grad.copy() for t in tensors])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_lstm_shape_errors(self, rng):
        W, U, b = lstm_params(rng)
        with pytest.raises(DimensionError):
            lstm(Tensor(np.zeros((0, 3))), W, U, b)
        with pytest.raises(DimensionError):
            lstm(Tensor(np.zeros((2, 4))), W, U, b)

    # with kernels of 4 and 2 rows: T = 2 pads the first kernel, T = 4
    # fits it exactly, T = 7 is longer than both
    @pytest.mark.parametrize("T", [2, 4, 7])
    def test_conv_pool_gradient(self, T, rng):
        x = Tensor(rng.standard_normal((T, 3)))
        kernels = [Tensor(rng.standard_normal((k, 3, 2))) for k in (4, 2)]
        biases = [Tensor(rng.standard_normal(2) + 1.0) for _ in kernels]
        w = rng.standard_normal((1, 4))
        check(lambda: (conv_pool(x, kernels, biases) * w).sum(), [x, *kernels, *biases])

    @pytest.mark.parametrize("T", [1, 4, 9])
    def test_conv_pool_matches_numpy_loop(self, T, rng):
        x = rng.standard_normal((T, 3))
        kernels = [rng.standard_normal((k, 3, 5)) for k in (2, 4, 5)]
        biases = [rng.standard_normal(5) for _ in kernels]
        got = conv_pool(Tensor(x), [Tensor(K) for K in kernels], [Tensor(b) for b in biases])
        np.testing.assert_allclose(got.data, conv_pool_reference(x, kernels, biases),
                                   rtol=0, atol=1e-12)

    def test_conv_pool_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv_pool(Tensor(np.ones((3, 2))), [Tensor(np.ones((2, 3, 4)))], [Tensor(np.zeros(4))])


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
