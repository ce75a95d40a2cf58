import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocomp.autodiff import (Parameter, Tensor, _fold, bilstm, concat, conv_pool, dropout,
                              no_tape, shapes_only, stitch, xavier_uniform)
from emocomp.errors import DimensionError
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

    def test_shared_node_accumulates(self, rng):
        # y = x used twice: d/dx (x*x + x) = 2x + 1
        x = Tensor(np.array([[2.0]]))
        check(lambda: (x * x + x).sum(), [x])

    def test_sum(self, rng):
        x = Tensor(rng.standard_normal((3, 7)))
        check(lambda: x.sum() * 0.5 + x.sum() * x.sum(), [x])

    def test_sum_and_bias_gradient_add_in_order(self):
        # one term at a time, 1 + 1e-16 rounds back to 1; numpy's pairwise
        # sum adds the small terms up first and lands above 1
        terms = np.array([1.0] + [1e-16] * 15)
        assert Tensor(terms).sum().item() == 1.0
        b = Tensor(np.zeros(1), requires_grad=True)
        (Tensor(np.zeros((16, 1))) + b).backward(terms[:, None])
        assert b.grad[0] == 1.0


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


def _part(a: Tensor, key) -> Tensor:
    """``a.data[key]`` as a test-local tape node, for the composed cell."""
    def bwd(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return Tensor(a.data[key], _parents=(a,), _backward=bwd)


def lstm_reference(x, W, U, b, reverse=False):
    """One LSTM direction as the per-timestep cell that the fused node
    replaced: one cell step of Tensor ops per row, rows sliced out of x and
    concatenated back."""
    T, u = x.data.shape[0], U.data.shape[0]
    h = c = Tensor(np.zeros((1, u)))
    rows = [None] * T
    for t in (reversed(range(T)) if reverse else range(T)):
        z = (_part(x, np.s_[t:t + 1, :]).matmul(W) + b) + h.matmul(U)
        i = _part(z, np.s_[:, 0 * u:1 * u]).sigmoid()
        f = _part(z, np.s_[:, 1 * u:2 * u]).sigmoid()
        g = _tanh(_part(z, np.s_[:, 2 * u:3 * u]))
        o = _part(z, np.s_[:, 3 * u:4 * u]).sigmoid()
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
    """W, U and b of one direction, then those of the other: both halves
    of a ``bilstm``."""
    return [Tensor(rng.standard_normal(shape) * scale)
            for _ in range(2) for shape, scale in (((d, 4 * u), 0.6), ((u, 4 * u), 0.6),
                                                   ((4 * u,), 0.3))]


def run_bilstm(x, params, lengths=None):
    return bilstm(x, tuple(params[:3]), tuple(params[3:]), lengths)


def bilstm_reference(x, *params):
    return concat([lstm_reference(x, *params[:3]),
                   lstm_reference(x, *params[3:], reverse=True)], axis=1)


# the half of a bilstm output that a loss reads: each direction alone, then both
READS = ["fwd", "bwd", "both"]


def reading(rng, shape, reads):
    """Random loss weights for a bilstm output of ``shape``, zero on the
    half the loss does not read."""
    w = rng.standard_normal(shape)
    u = shape[-1] // 2
    if reads == "fwd":
        w[..., u:] = 0.0
    elif reads == "bwd":
        w[..., :u] = 0.0
    return w


class TestFusedOps:
    @pytest.mark.parametrize("reads", READS)
    @pytest.mark.parametrize("T", [1, 5])
    def test_lstm_gradient(self, T, reads, rng):
        x = Tensor(rng.standard_normal((T, 3)))
        params = lstm_params(rng)
        w = reading(rng, (T, 4), reads)
        check(lambda: (run_bilstm(x, params) * w).sum(), [x, *params])

    @pytest.mark.parametrize("reads", READS)
    @pytest.mark.parametrize("T", [1, 5])
    def test_lstm_matches_composed_cell(self, T, reads, rng):
        tensors = [Tensor(rng.standard_normal((T, 3)), requires_grad=True)]
        tensors += [Tensor(p.data, requires_grad=True) for p in lstm_params(rng)]
        grad_out = reading(rng, (T, 4), reads)
        results = []
        for op in (lambda x, *params: run_bilstm(x, params), bilstm_reference):
            for t in tensors:
                t.zero_grad()
            out = op(*tensors)
            out.backward(grad_out)
            results.append([out.data] + [t.grad.copy() for t in tensors])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_lstm_shape_errors(self, rng):
        params = lstm_params(rng)
        with pytest.raises(DimensionError):
            run_bilstm(Tensor(np.zeros((0, 3))), params)
        with pytest.raises(DimensionError):
            run_bilstm(Tensor(np.zeros((2, 4))), params)
        with pytest.raises(DimensionError):   # the directions differ in width
            run_bilstm(Tensor(np.zeros((2, 3))), params[:3] + lstm_params(rng, u=3)[3:])

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


def padded(seqs):
    """Zero-padded B x T_max x d batch of ``seqs``, and their lengths."""
    lengths = [len(s) for s in seqs]
    x = np.zeros((len(seqs), max(lengths), seqs[0].shape[1]))
    for row, s in zip(x, seqs):
        row[:len(s)] = s
    return x, lengths


def fold(parts):
    """Sum in order, one part at a time."""
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def one_at_a_time(op, seqs, params, grads_out):
    """Output, input gradient and parameter gradients of ``op`` on each
    sequence alone."""
    results = []
    for seq, g in zip(seqs, grads_out):
        x = Tensor(seq, requires_grad=True)
        for p in params:
            p.grad = None
        out = op(x)
        out.backward(g)
        results.append((out.data, x.grad, [p.grad for p in params]))
    return results


# lengths of ragged batches; with kernels of 4 and 2 rows, 1 is shorter
# than both, 3 pads the first kernel only and 7 is longer than both
RAGGED = [(1, 3, 7), (4, 4, 4), (7, 1)]


class TestBatchedOps:
    @pytest.mark.parametrize("reads", READS)
    @pytest.mark.parametrize("lengths", RAGGED, ids=str)
    def test_lstm_gradient(self, lengths, reads, rng):
        x, lengths = padded([rng.standard_normal((n, 3)) for n in lengths])
        x = Tensor(x)
        params = lstm_params(rng)
        w = reading(rng, x.shape[:2] + (4,), reads)
        check(lambda: (run_bilstm(x, params, lengths) * w).sum(), [x, *params])

    @pytest.mark.parametrize("lengths", RAGGED, ids=str)
    def test_conv_pool_gradient(self, lengths, rng):
        x, lengths = padded([rng.standard_normal((n, 3)) for n in lengths])
        x = Tensor(x)
        kernels = [Tensor(rng.standard_normal((k, 3, 2))) for k in (4, 2)]
        biases = [Tensor(rng.standard_normal(2) + 1.0) for _ in kernels]
        w = rng.standard_normal((len(lengths), 4))
        check(lambda: (conv_pool(x, kernels, biases, lengths) * w).sum(), [x, *kernels, *biases])

    @pytest.mark.parametrize("reads", READS)
    def test_lstm_batch_is_bitwise_one_at_a_time(self, reads, rng):
        # the emo-nn-base sizes: 64-dimensional embeddings, 24 units
        seqs = [rng.standard_normal((n, 64)) for n in (1, 30, 7, 40, 2, 7)]
        params = [Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)
                  for _ in range(2) for shape in ((64, 96), (24, 96), (96,))]
        grads_out = [reading(rng, (len(s), 48), reads) for s in seqs]
        alone = one_at_a_time(lambda x: run_bilstm(x, params), seqs, params, grads_out)
        x, lengths = padded(seqs)
        x = Tensor(x, requires_grad=True)
        for p in params:
            p.grad = None
        out = run_bilstm(x, params, lengths)
        out.backward(padded(grads_out)[0])
        for k, (n, (want_out, want_dx, _)) in enumerate(zip(lengths, alone)):
            assert np.array_equal(out.data[k, :n], want_out) and not out.data[k, n:].any()
            assert np.array_equal(x.grad[k, :n], want_dx) and not x.grad[k, n:].any()
        for j, p in enumerate(params):
            assert np.array_equal(p.grad, fold([grads[j] for _, _, grads in alone]))

    @pytest.mark.parametrize("trial", range(12))
    def test_lstm_weight_gradients_add_sequences_in_order(self, trial):
        # the running sum over the sequences equals _fold over their stacked terms
        rng = np.random.default_rng(trial)
        d, u = rng.integers(1, 40), rng.integers(1, 12)
        seqs = [rng.standard_normal((n, d)) for n in rng.integers(1, 30, size=rng.integers(1, 13))]
        params = [Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)
                  for _ in range(2) for shape in ((d, 4 * u), (u, 4 * u), (4 * u,))]
        grads_out = [reading(rng, (len(s), 2 * u), READS[trial % 3]) for s in seqs]
        alone = one_at_a_time(lambda x: run_bilstm(x, params), seqs, params, grads_out)
        x, lengths = padded(seqs)
        for p in params:
            p.grad = None
        run_bilstm(Tensor(x), params, lengths).backward(padded(grads_out)[0])
        for j, p in enumerate(params):
            assert np.array_equal(p.grad, _fold(np.stack([grads[j] for _, _, grads in alone])))

    def test_conv_pool_batch_is_bitwise_one_at_a_time(self, rng):
        seqs = [rng.standard_normal((n, 48)) for n in (1, 30, 7, 40, 2, 25, 24)]
        kernels = [Tensor(rng.standard_normal((k, 48, 10)), requires_grad=True)
                   for k in (2, 3, 5, 7, 13, 25)]
        biases = [Tensor(rng.standard_normal(10), requires_grad=True) for _ in kernels]
        params = kernels + biases
        grads_out = [rng.standard_normal((1, 60)) for _ in seqs]
        alone = one_at_a_time(lambda x: conv_pool(x, kernels, biases), seqs, params, grads_out)
        x, lengths = padded(seqs)
        x = Tensor(x, requires_grad=True)
        for p in params:
            p.grad = None
        out = conv_pool(x, kernels, biases, lengths)
        out.backward(np.concatenate(grads_out))
        assert np.array_equal(out.data, np.concatenate([want for want, _, _ in alone]))
        for k, (n, (_, want_dx, _)) in enumerate(zip(lengths, alone)):
            assert np.array_equal(x.grad[k, :n], want_dx) and not x.grad[k, n:].any()
        for j, p in enumerate(params):
            assert np.array_equal(p.grad, fold([grads[j] for _, _, grads in alone]))

    @pytest.mark.parametrize("alpha_shape", [(2, 2), (2, 2, 4)], ids=["pair", "channel"])
    def test_stitch_gradient(self, alpha_shape, rng):
        alpha = Tensor(rng.standard_normal(alpha_shape))
        a, b = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
        w = rng.standard_normal((2, 3, 4))
        check(lambda: (stitch(alpha, 0, a, b) * w[0] + stitch(alpha, 1, a, b) * w[1]).sum(),
              [alpha, a, b])

    def test_lstm_skips_the_gradient_of_a_constant_input(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 3)))
        out = run_bilstm(x, lstm_params(rng), [4, 2])
        assert out._backward(np.ones(out.data.shape))[0] is None
        x.requires_grad = True
        assert out._backward(np.ones(out.data.shape))[0].shape == x.data.shape

    @pytest.mark.parametrize("lengths", [*RAGGED, (5,), None], ids=str)
    def test_bilstm_without_tape_is_the_recorded_forward(self, lengths, rng):
        # None: one T x d sequence, a batch of one kept 2-D
        if lengths is None:
            x = rng.standard_normal((6, 3))
        else:
            x, lengths = padded([rng.standard_normal((n, 3)) for n in lengths])
        params = lstm_params(rng)
        recorded = run_bilstm(Tensor(x), params, lengths)
        with no_tape():
            bare = run_bilstm(Tensor(x), params, lengths)
        assert recorded._backward is not None
        assert bare._backward is None and bare._parents == ()
        assert bare.data.shape == x.shape[:-1] + (4,)
        assert np.array_equal(bare.data.view(np.int64), recorded.data.view(np.int64))

    def test_lengths_must_fit(self, rng):
        params = lstm_params(rng)
        x = Tensor(np.zeros((2, 3, 3)))
        for lengths in ([3, 4], [0, 2], [3]):
            with pytest.raises(DimensionError):
                run_bilstm(x, params, lengths)


class TestDropout:
    def test_one_node_whose_gradient_reaches_its_input_only(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        mask = (rng.random((3, 4)) >= 0.5) / 0.5
        out = dropout(x, mask)
        assert out._parents == (x,)
        np.testing.assert_array_equal(out.data, x.data * mask)
        out.backward(np.ones((3, 4)))
        np.testing.assert_array_equal(x.grad, mask)


class TestParameter:
    def test_parameter_enables_grad(self):
        p = Parameter(np.zeros((2, 2)), "p")
        assert p.requires_grad
        assert p.grad.shape == (2, 2)

    def test_parameter_is_a_leaf_tensor(self, rng):
        # ops take a parameter as a parent directly, and its buffer accumulates
        p = Parameter(rng.standard_normal((2, 3)), "p")
        x = Tensor(rng.standard_normal((4, 2)))
        y = x.matmul(p)
        assert y._parents[1] is p
        y.sum().backward()
        first = p.grad.copy()
        np.testing.assert_array_equal(first, x.data.sum(axis=0)[:, None] * np.ones((1, 3)))
        (x.matmul(p) * 2.0).sum().backward()
        np.testing.assert_array_equal(p.grad, first + 2.0 * first)
        assert p.tensor is p
        with shapes_only():
            assert Parameter(np.zeros(3), "q").grad is None
        with pytest.raises(TypeError):
            Parameter(Tensor(np.zeros(3)), "p")

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            (x * 2.0).backward()

    def test_no_tape_records_nothing(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        with no_tape():
            y = (x * 2.0).sum()
        assert y._parents == () and y._backward is None
        assert y.item() == (x * 2.0).sum().item()
        # recording resumes after the block, also when it raised
        with pytest.raises(ValueError), no_tape():
            raise ValueError
        (x * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))

    def test_xavier_shapes(self, rng):
        assert xavier_uniform((3, 5), rng).shape == (3, 5)
        assert xavier_uniform((2, 3, 4), rng).shape == (2, 3, 4)
