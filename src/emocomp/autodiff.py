"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Only the operations the classifiers in this package actually need are
implemented: broadcasting addition and multiplication, matmul,
sigmoid/ReLU, slicing, concatenation and sum, plus two fused sequence
ops with hand-written backward passes: ``lstm`` (one direction over a
whole sequence) and ``conv_pool`` (multi-kernel convolution, ReLU and
max-over-time pooling). The loss is one more fused node, in ``losses``.
Each op is one tape node. Gradients are accumulated into ``Tensor.grad``
buffers, allocated on first use, by ``Tensor.backward()`` via a
topological sweep over the recorded tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

Array = np.ndarray


def _as_array(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
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
        self._parents = _parents
        self._backward = _backward

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
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node._accumulate(g)
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
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
        a, b = self, _wrap(other)
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise DimensionError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
        return Tensor(a.data @ b.data, _parents=(a, b),
                      _backward=lambda g: (g @ b.data.T, a.data.T @ g))

    __matmul__ = matmul

    def __getitem__(self, key):
        a = self

        def bwd(g):
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            return (full,)

        return Tensor(a.data[key], _parents=(a,), _backward=bwd)

    def sum(self):
        a = self
        return Tensor(a.data.sum(), _parents=(a,),
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


def lstm(x: Tensor, W: Tensor, U: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """One LSTM direction over a T x d sequence from a zero state: T x units.

    W (d x 4u), U (u x 4u) and b (4u) hold the gates in the order i, f, g, o.
    With ``reverse`` the steps run from the last row to the first; output
    row t is always the hidden state after reading input row t. The
    backward pass is backpropagation through time over the cached gates.
    """
    T, u = x.data.shape[0], U.data.shape[0]
    if T == 0:
        raise DimensionError("lstm over an empty sequence")
    if x.data.shape[1] != W.data.shape[0]:
        raise DimensionError(f"lstm shape mismatch: x {x.data.shape} vs W {W.data.shape}")
    steps = range(T - 1, -1, -1) if reverse else range(T)
    xw = x.data @ W.data + b.data
    gates = np.empty_like(xw)          # i, f, g, o after their nonlinearities
    h_in, c_in = np.zeros((T, u)), np.zeros((T, u))   # state entering each step
    h_out, tanh_c = np.empty((T, u)), np.empty((T, u))
    h, c = np.zeros(u), np.zeros(u)
    for t in steps:
        h_in[t], c_in[t] = h, c
        z = xw[t] + h @ U.data
        i, f, o = _sigmoid(z[:u]), _sigmoid(z[u:2 * u]), _sigmoid(z[3 * u:])
        g = np.tanh(z[2 * u:3 * u])
        c = f * c + i * g
        tanh_c[t] = np.tanh(c)
        h = h_out[t] = o * tanh_c[t]
        gates[t] = np.concatenate([i, f, g, o])

    def bwd(grad):
        dz = np.empty_like(xw)
        dh, dc = np.zeros(u), np.zeros(u)
        for t in reversed(steps):
            i, f, g, o = np.split(gates[t], 4)
            dh = dh + grad[t]
            dc = dc + dh * o * (1.0 - tanh_c[t] ** 2)
            dz[t] = np.concatenate([dc * g * i * (1.0 - i), dc * c_in[t] * f * (1.0 - f),
                                    dc * i * (1.0 - g ** 2), dh * tanh_c[t] * o * (1.0 - o)])
            dh, dc = dz[t] @ U.data.T, dc * f
        return dz @ W.data.T, x.data.T @ dz, h_in.T @ dz, dz.sum(axis=0)

    return Tensor(h_out, _parents=(x, W, U, b), _backward=bwd)


def conv_pool(x: Tensor, kernels: list[Tensor], biases: list[Tensor]) -> Tensor:
    """Multi-kernel valid 1-d convolution, ReLU and max over time: 1 x (K*f).

    Each k x d x f kernel slides over the T x d sequence, left-zero-padded
    to k rows when T < k. The gradient of a pooled value goes to the first
    maximal timestep of its feature map.
    """
    T, d = x.data.shape
    if T == 0:
        raise DimensionError("conv_pool over an empty sequence")
    pooled, cache = [], []
    for K, b in zip(kernels, biases):
        k, f = K.data.shape[0], K.data.shape[2]
        if K.data.shape[1] != d:
            raise DimensionError(f"conv_pool channel mismatch: x {x.data.shape} vs kernel {K.data.shape}")
        xk = np.concatenate([np.zeros((k - T, d)), x.data]) if T < k else x.data
        win = np.lib.stride_tricks.sliding_window_view(xk, k, axis=0)   # (T'-k+1, d, k)
        maps = np.einsum("tdk,kdf->tf", win, K.data) + b.data
        idx = np.argmax(maps, axis=0)   # first occurrence on ties
        # ReLU is monotone, so the max of the ReLU'd map is the ReLU of its max
        pooled.append(np.maximum(maps[idx, np.arange(f)], 0.0))
        cache.append((idx, win))
    out = np.concatenate(pooled)

    def bwd(grad):
        grads = np.split(grad.reshape(-1) * (out > 0), len(kernels))
        dx, dks = np.zeros_like(x.data), []
        for K, g, (idx, win) in zip(kernels, grads, cache):
            k, f = K.data.shape[0], K.data.shape[2]
            dks.append(np.einsum("fdk,f->kdf", win[idx], g))
            # channel j read (padded) input rows idx[j] .. idx[j] + k - 1
            spread = np.zeros((f, max(T, k), d))
            spread[np.arange(f)[:, None], idx[:, None] + np.arange(k)] = (K.data * g).transpose(2, 0, 1)
            dx += spread.sum(axis=0)[max(k - T, 0):]
        return (dx, *dks, *grads)

    return Tensor(out.reshape(1, -1), _parents=(x, *kernels, *biases), _backward=bwd)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: mask and rescale at train time, identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode needs a seeded generator")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


@dataclass
class Parameter:
    tensor: Tensor
    name: str
    frozen: bool = False

    def __post_init__(self):
        self.tensor.requires_grad = True
        if self.tensor.grad is None:
            self.tensor.grad = np.zeros_like(self.tensor.data)

    @property
    def data(self) -> Array:
        return self.tensor.data

    @property
    def grad(self) -> Array:
        return self.tensor.grad


def xavier_uniform(shape: tuple, rng: np.random.Generator) -> Array:
    fan_in = shape[0]
    fan_out = shape[-1]
    if len(shape) == 3:  # conv kernel k x d x f
        fan_in = shape[0] * shape[1]
        fan_out = shape[0] * shape[2]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
