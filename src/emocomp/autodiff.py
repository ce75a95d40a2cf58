"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Only the operations the classifiers in this package actually need are
implemented: broadcasting addition and multiplication, row-wise matmul,
sigmoid/ReLU, concatenation and sum, plus two fused sequence ops with
hand-written backward passes: ``bilstm`` (both LSTM directions over each
sequence) and ``conv_pool`` (multi-kernel convolution, ReLU and
max-over-time pooling). The loss is one more fused node, in ``losses``.
Each op is one tape node. A parameter is a named leaf tensor
(``Parameter``) that every op takes as it is. Gradients are accumulated
into ``Tensor.grad`` buffers, allocated on first use, by
``Tensor.backward()`` via a topological sweep over the recorded tape. The
sweep frees the tape as it goes, so a recorded graph can be
backpropagated once; build it again for another pass.

A minibatch is one graph. Its sequences travel as a zero-padded
B x T_max x d array plus the length of each; a 2-D T x d array is a batch
of one. Every op works example by example in the arithmetic: rows go
through their own vector-matrix products, and a parameter's gradient adds
the examples' contributions in example order (``_fold``). So a batch
computes bitwise what one graph per example, summed in order, computes.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import DimensionError

Array = np.ndarray

_recording = True
_allocating = True


@contextlib.contextmanager
def no_tape():
    """Record no tape inside: each op's result keeps no parents and no
    backward pass, so what an op caches for backpropagation is freed as soon
    as the op returns. For inference, whose batch graph would otherwise
    hold every op's cache until the outputs are read."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


@contextlib.contextmanager
def shapes_only():
    """Build parameters with their shapes but not their values: inside,
    ``xavier_uniform`` and ``filled`` return read-only zero-stride arrays
    and a ``Parameter`` gets no gradient buffer, so a model of any stated
    size is built without allocating it. For loading a stored model, whose
    parameters are then set to their checked stored arrays."""
    global _allocating
    saved, _allocating = _allocating, False
    try:
        yield
    finally:
        _allocating = saved


def _as_array(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def _fold(parts: Array) -> Array:
    """Sum over the leading axis strictly in order, ((p0 + p1) + p2) + ...:
    what adding one example's contribution at a time gives. numpy adds
    along a slow axis one term at a time, but pairs terms up along the fast
    one, so parts of a single number take the running sum."""
    parts = np.ascontiguousarray(parts)
    if parts[0].size > 1:
        return np.add.reduce(parts, axis=0)
    return np.add.accumulate(parts, axis=0)[-1]


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum a broadcast gradient back down to ``shape``; leading (example)
    axes are folded in order."""
    while grad.ndim > len(shape):
        grad = _fold(grad)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents if _recording else ()
        self._backward = _backward if _recording else None

    # -- plumbing -----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: Array):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, grad=None):
        """Add the gradient of this node (``grad``, or 1 for a scalar) with
        respect to every ``requires_grad`` node of its graph into their
        ``grad`` buffers. The graph is used up: every node of it is left
        without parents and backward."""
        if grad is None:
            if self.data.size != 1:
                raise DimensionError(
                    f"backward() without an explicit gradient requires a scalar, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, Array] = {id(self): _as_array(grad)}
        while topo:
            # consumers first; a node is cut from the graph as it is reached,
            # so its backward, and the forward caches it holds, are freed as
            # soon as its parents' gradients exist
            node = topo.pop()
            parents, backward = node._parents, node._backward
            node._parents, node._backward = (), None
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node._accumulate(g)
            if backward is None:
                continue
            for parent, pg in zip(parents, backward(g)):
                if pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] += pg
                else:
                    grads[id(parent)] = pg

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self, _wrap(other)
        return Tensor(a.data + b.data, _parents=(a, b),
                      _backward=lambda g: (_unbroadcast(g, a.data.shape),
                                           _unbroadcast(g, b.data.shape)))

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self, _wrap(other)
        return Tensor(a.data * b.data, _parents=(a, b),
                      _backward=lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                           _unbroadcast(g * a.data, b.data.shape)))

    __rmul__ = __mul__

    def matmul(self, other: "Tensor") -> "Tensor":
        """Row by row: each row of ``self`` (one example) takes its own
        vector-matrix product, and ``other``'s gradient adds the rows' outer
        products in row order. One B-row gemm would round differently."""
        a, b = self, _wrap(other)
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise DimensionError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
        return Tensor(_rowwise(a.data, b.data), _parents=(a, b),
                      _backward=lambda g: (_rowwise(g, b.data.T),
                                           _fold(a.data[:, :, None] * g[:, None, :])))

    __matmul__ = matmul

    def sum(self):
        """The sum of all entries, added in order (``_fold``)."""
        a = self
        return Tensor(_fold(a.data.reshape(-1)), _parents=(a,),
                      _backward=lambda g: (np.full_like(a.data, float(g)),))

    # -- nonlinearities ------------------------------------------------------

    def sigmoid(self):
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))
        return Tensor(out_data, _parents=(a,),
                      _backward=lambda g: (g * out_data * (1.0 - out_data),))

    def relu(self):
        a = self
        mask = a.data > 0
        return Tensor(a.data * mask, _parents=(a,), _backward=lambda g: (g * mask,))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  _parents=tuple(tensors), _backward=bwd)


def _sigmoid(z: Array) -> Array:
    return 1.0 / (1.0 + np.exp(-z))


def _rowwise(a: Array, b: Array) -> Array:
    """``a @ b`` as one vector-matrix product per row of ``a``: bitwise the
    product of each row on its own."""
    return np.matmul(a[:, None, :], b)[:, 0]


def _batch(data: Array, lengths, op: str) -> tuple[Array, Array, bool]:
    """(B x T x d view, lengths, whether ``data`` was one T x d sequence).
    Without ``lengths`` every sequence fills the padded length."""
    single = data.ndim == 2
    if single:
        data, lengths = data[None], None
    if data.ndim != 3:
        raise DimensionError(f"{op} needs a T x d sequence or a B x T x d batch, got {data.shape}")
    B, T = data.shape[:2]
    lengths = np.full(B, T) if lengths is None else np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (B,) or not ((lengths >= 1) & (lengths <= T)).all():
        raise DimensionError(f"{op}: sequence lengths {lengths.tolist()} must be 1 to {T} "
                             f"for a batch of shape {data.shape}")
    return data, lengths, single


def bilstm(x: Tensor, fwd: tuple[Tensor, Tensor, Tensor], bwd: tuple[Tensor, Tensor, Tensor],
           lengths=None) -> Tensor:
    """Both LSTM directions over each sequence from a zero state, as one node.

    ``x`` is a zero-padded B x T x d batch with ``lengths`` (a T x d
    sequence is a batch of one); the output has the same layout with 2u
    columns, the ``fwd`` direction's first, and zeros past each length.
    ``fwd`` and ``bwd`` are each W (d x 4u), U (u x 4u) and b (4u), gates
    in the order i, f, g, o. ``bwd`` reads each sequence from its own last
    row to its first; output row t is always the hidden state after
    reading input row t. The backward pass is backpropagation through
    time; it skips the gradient of an ``x`` that is a leaf without
    ``requires_grad``, such as a batch of embeddings.

    The steps run over a packed layout: step s holds the row that every
    sequence longer than s reads at step s, longest sequences first, so the
    live sequences are a prefix and a step is one stacked product for all
    of them, both directions on a leading axis. Per sequence and direction
    the arithmetic is that of a lone sequence: the recurrent products are
    per-row vector-matrix products, and the products with W and the weight
    gradients are taken sequence by sequence (a BLAS picks its kernel, and
    so its rounding, by matrix size), the latter folded in example order.
    Backward keeps the activated gates and the cell states only: the
    hidden state entering a step is read back from the output.
    """
    X, lengths, single = _batch(x.data, lengths, "bilstm")
    B, T, d = X.shape
    u = fwd[1].data.shape[0]
    if any(W.data.shape[0] != d or U.data.shape != (u, 4 * u) for W, U, _ in (fwd, bwd)):
        raise DimensionError(f"bilstm shape mismatch: x {x.data.shape} vs W and U "
                             f"{[p.data.shape for p in (fwd[0], fwd[1], bwd[0], bwd[1])]}")
    live = np.count_nonzero(lengths[:, None] > np.arange(T), axis=0)   # sequences per step
    bounds = np.concatenate([[0], np.cumsum(live)])
    order = np.argsort(-lengths, kind="stable")
    ex = np.concatenate([order[:n] for n in live])       # sequence of each packed row
    step = np.repeat(np.arange(T), live)
    time = np.stack([step, lengths[ex] - 1 - step])     # its row within the sequence, per direction
    half = np.arange(2)[:, None]                        # direction, against rows of time
    packed = np.empty((2, B, T), dtype=np.int64)        # packed row of each sequence row
    packed[half, ex, time] = np.arange(len(ex))
    # x @ W + b, then step by step i, f, g, o after their nonlinearities
    gates = np.empty((2, len(ex), 4 * u))
    for r, (W, _, b) in enumerate((fwd, bwd)):
        for k, n in enumerate(lengths):
            gates[r, packed[r, k, :n]] = X[k, :n] @ W.data
        gates[r] += b.data
    U2 = np.stack([fwd[1].data, bwd[1].data])[:, None]    # 2 x 1 x u x 4u
    cells = np.empty((2, len(ex), u)) if _recording else None   # c after each step
    out = np.zeros((B, T, 2 * u))
    h, c = np.zeros((2, B, u)), np.zeros((2, B, u))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        h, c = h[:, :hi - lo], c[:, :hi - lo]
        z = gates[:, lo:hi] + np.matmul(h[:, :, None], U2)[:, :, 0]
        gates[:, lo:hi] = _sigmoid(z)      # the g block is replaced below
        gates[:, lo:hi, 2 * u:3 * u] = np.tanh(z[:, :, 2 * u:3 * u])
        i, f, g, o = (gates[:, lo:hi, j * u:(j + 1) * u] for j in range(4))
        c = f * c + i * g
        if cells is not None:
            cells[:, lo:hi] = c
        h = o * np.tanh(c)
        out.reshape(B, T, 2, u)[ex[lo:hi], time[:, lo:hi], half] = h

    def bwd_pass(grad):
        dh_in = grad.reshape(B, T, 2, u)[ex, time, half]
        dz = np.empty_like(gates)
        U2T = U2.swapaxes(-1, -2)
        # a sequence's rows stay zero until the step that reads its last row
        dh, dc = np.zeros((2, B, u)), np.zeros((2, B, u))
        for s, lo, hi in zip(range(T - 1, -1, -1), bounds[-2::-1], bounds[:0:-1]):
            n = hi - lo
            i, f, g, o = (gates[:, lo:hi, j * u:(j + 1) * u] for j in range(4))
            tanh_c = np.tanh(cells[:, lo:hi])
            c_in = cells[:, bounds[s - 1]:bounds[s - 1] + n] if s else 0.0
            dh_s = dh[:, :n] + dh_in[:, lo:hi]
            dc_s = dc[:, :n] + dh_s * o * (1.0 - tanh_c ** 2)
            dz[:, lo:hi] = np.concatenate([dc_s * g * i * (1.0 - i), dc_s * c_in * f * (1.0 - f),
                                           dc_s * i * (1.0 - g ** 2),
                                           dh_s * tanh_c * o * (1.0 - o)], axis=2)
            dh[:, :n], dc[:, :n] = np.matmul(dz[:, lo:hi, None], U2T)[:, :, 0], dc_s * f
        needs_dx = x.requires_grad or x._backward is not None
        dX = np.zeros_like(X) if needs_dx else None
        grads = []
        for r, (W, _, _) in enumerate((fwd, bwd)):
            # the weight gradients add the sequences in order, one at a time:
            # bitwise what _fold gives over the stacked per-sequence terms
            sums = None
            for k, n in enumerate(lengths):
                dz_k = dz[r, packed[r, k, :n]]       # the sequence's rows in time order
                if needs_dx:   # the forward direction's, plus the backward's
                    dX[k, :n] = dz_k @ W.data.T if r == 0 else dX[k, :n] + dz_k @ W.data.T
                # the hidden state entering each row: the output one row
                # earlier in reading order, zero before the first
                h_in = np.zeros((n, u))
                h_in[1 - r:n - r] = out[k, r:n - 1 + r, r * u:(r + 1) * u]
                terms = (X[k, :n].T @ dz_k, h_in.T @ dz_k, dz_k.sum(axis=0))
                if sums is None:
                    sums = terms
                else:
                    for total, term in zip(sums, terms):
                        total += term
            grads += sums
        return (dX[0] if single and needs_dx else dX), *grads

    return Tensor(out[0] if single else out, _parents=(x, *fwd, *bwd), _backward=bwd_pass)


def conv_pool(x: Tensor, kernels: list[Tensor], biases: list[Tensor], lengths=None) -> Tensor:
    """Multi-kernel valid 1-d convolution, ReLU and max over time: B x (K*f).

    ``x`` is a zero-padded B x T x d batch with ``lengths`` (a T x d
    sequence is a batch of one). Each k x d x f kernel slides over every
    sequence, left-zero-padded to k rows when it is shorter than k. The
    gradient of a pooled value goes to the first maximal window of its
    feature map.

    Per kernel, the valid windows of all sequences are gathered into one
    block and convolved at once, so no window past a length is computed;
    the maps are then laid out per sequence, padded with -inf, for the
    argmax. Backward gathers the rows of the winning windows again, one
    kernel offset at a time, rather than keeping the windows alive.
    """
    X, lengths, single = _batch(x.data, lengths, "conv_pool")
    B, T, d = X.shape
    for K in kernels:
        if K.data.shape[1] != d:
            raise DimensionError(f"conv_pool channel mismatch: x {x.data.shape} vs kernel {K.data.shape}")
    seqs = np.arange(B)[:, None]
    pooled, ends = [], []
    for K, b in zip(kernels, biases):
        k, f = K.data.shape[0], K.data.shape[2]
        first = np.minimum(lengths, k) - 1    # the row each sequence's first window ends on
        n = lengths - first                    # windows per sequence
        ex = np.repeat(seqs[:, 0], n)
        pos = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        rows = (first[ex] + pos)[:, None] + np.arange(1 - k, 1)   # below 0: left padding
        windows = X[ex[:, None], np.maximum(rows, 0)]
        windows[rows < 0] = 0.0
        maps = np.full((B, n.max(), f), -np.inf)
        maps[ex, pos] = np.einsum("tkd,kdf->tf", windows, K.data) + b.data
        del windows   # before the next kernel gathers its own
        idx = np.argmax(maps, axis=1)          # first occurrence on ties
        # ReLU is monotone, so the max of the ReLU'd map is the ReLU of its max
        pooled.append(np.maximum(np.take_along_axis(maps, idx[:, None], axis=1)[:, 0], 0.0))
        ends.append(first[:, None] + idx)
    out = np.concatenate(pooled, axis=1)

    def bwd(grad):
        grad = grad.reshape(B, -1) * (out > 0)
        P = max(K.data.shape[0] for K in kernels) - 1
        Xp = np.zeros((B, P + T, d))   # P zero rows before each sequence: its left padding
        Xp[:, P:] = X
        dXp, dks, dbs = np.zeros_like(Xp), [], []
        for K, g, end in zip(kernels, np.split(grad, len(kernels), axis=1), ends):
            k, f = K.data.shape[0], K.data.shape[2]
            start = end + P - k + 1    # Xp row each winning window starts on
            dks.append(np.stack([_fold(Xp[seqs, start + o] * g[:, :, None]).T for o in range(k)]))
            dbs.append(_fold(g))
            # a sequence's input gradient adds its filters in order, then the kernels
            spread = np.zeros_like(Xp)
            for j in range(f):
                spread[seqs, start[:, j, None] + np.arange(k)] += K.data[:, :, j] * g[:, j, None, None]
            dXp += spread
        dX = dXp[:, P:]
        return (dX[0] if single else dX, *dks, *dbs)

    return Tensor(out, _parents=(x, *kernels, *biases), _backward=bwd)


def stitch(alpha: Tensor, row: int, a: Tensor, b: Tensor) -> Tensor:
    """Row ``row`` of a cross-stitch unit, alpha[row, 0] * a + alpha[row, 1] * b,
    as one node over B x w rows. alpha is 2 x 2 (one weight per pair) or
    2 x 2 x w (one per channel); its gradient adds the examples in order."""
    w_a, w_b = alpha.data[row]

    def bwd(g):
        dalpha = np.zeros_like(alpha.data)
        for col, x in enumerate((a, b)):
            per_example = g * x.data
            dalpha[row, col] = _fold(per_example if alpha.data.ndim == 3 else per_example.sum(axis=1))
        return dalpha, g * w_a, g * w_b

    return Tensor(w_a * a.data + w_b * b.data, _parents=(alpha, a, b), _backward=bwd)


def dropout(x: Tensor, mask: Array) -> Tensor:
    """``x`` times a dropout ``mask`` of its shape, as ``nn`` builds it."""
    return Tensor(x.data * mask, _parents=(x,), _backward=lambda g: (g * mask,))


class Parameter(Tensor):
    """A named leaf tensor that training updates, with a zero gradient buffer
    from the start (none under ``shapes_only()``). Adam skips a ``frozen`` one."""

    __slots__ = ("name", "frozen")

    def __init__(self, data, name: str, frozen: bool = False):
        super().__init__(data, requires_grad=True)
        self.name, self.frozen = name, frozen
        if _allocating:
            self.grad = np.zeros_like(self.data)

    @property
    def tensor(self) -> "Parameter":
        """The parameter itself: ``tests/test_acceptance.py`` reads ``p.tensor``."""
        return self


def filled(shape: tuple, value) -> Array:
    """A new ``shape`` array filled with ``value`` (broadcast to it)."""
    if not _allocating:
        return np.broadcast_to(value, shape)
    return np.full(shape, value, dtype=np.float64)


def xavier_uniform(shape: tuple, rng: np.random.Generator) -> Array:
    if not _allocating:
        return filled(shape, 0.0)
    fan_in = shape[0]
    fan_out = shape[-1]
    if len(shape) == 3:  # conv kernel k x d x f
        fan_in = shape[0] * shape[1]
        fan_out = shape[0] * shape[2]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
