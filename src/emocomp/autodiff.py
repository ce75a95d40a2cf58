"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Only the operations the classifiers in this package actually need are
implemented: elementwise arithmetic, matmul, the usual activations,
1-d valid convolution, max-over-time pooling, slicing/concatenation and
reductions. Gradients are accumulated into ``Tensor.grad`` buffers by
``Tensor.backward()`` via a topological sweep over the recorded tape.
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
        self.grad = np.zeros_like(self.data) if requires_grad else None
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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

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
        other = _wrap(other)
        a, b = self, other
        out = Tensor(a.data + b.data, _parents=(a, b),
                     _backward=lambda g: (_unbroadcast(g, a.data.shape),
                                          _unbroadcast(g, b.data.shape)))
        return out

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor(-a.data, _parents=(a,), _backward=lambda g: (-g,))

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __rsub__(self, other):
        return _wrap(other) + (-self)

    def __mul__(self, other):
        other = _wrap(other)
        a, b = self, other
        out = Tensor(a.data * b.data, _parents=(a, b),
                     _backward=lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                          _unbroadcast(g * a.data, b.data.shape)))
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        a, b = self, other
        out = Tensor(a.data / b.data, _parents=(a, b),
                     _backward=lambda g: (_unbroadcast(g / b.data, a.data.shape),
                                          _unbroadcast(-g * a.data / (b.data ** 2), b.data.shape)))
        return out

    def matmul(self, other: "Tensor") -> "Tensor":
        a, b = self, _wrap(other)
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise DimensionError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
        out = Tensor(a.data @ b.data, _parents=(a, b),
                     _backward=lambda g: (g @ b.data.T, a.data.T @ g))
        return out

    __matmul__ = matmul

    def __getitem__(self, key):
        a = self

        def bwd(g):
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            return (full,)

        return Tensor(a.data[key], _parents=(a,), _backward=bwd)

    def reshape(self, *shape):
        a = self
        old = a.data.shape
        return Tensor(a.data.reshape(*shape), _parents=(a,),
                      _backward=lambda g: (g.reshape(old),))

    def sum(self):
        a = self
        return Tensor(a.data.sum(), _parents=(a,),
                      _backward=lambda g: (np.full_like(a.data, float(g)),))

    def mean(self):
        a = self
        n = a.data.size
        return Tensor(a.data.mean(), _parents=(a,),
                      _backward=lambda g: (np.full_like(a.data, float(g) / n),))

    # -- nonlinearities ------------------------------------------------------

    def log(self):
        a = self
        return Tensor(np.log(a.data), _parents=(a,), _backward=lambda g: (g / a.data,))

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)
        return Tensor(out_data, _parents=(a,), _backward=lambda g: (g * (1.0 - out_data ** 2),))

    def sigmoid(self):
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))
        return Tensor(out_data, _parents=(a,),
                      _backward=lambda g: (g * out_data * (1.0 - out_data),))

    def relu(self):
        a = self
        mask = a.data > 0
        return Tensor(a.data * mask, _parents=(a,), _backward=lambda g: (g * mask,))

    def clamp(self, lo: float, hi: float):
        """Clip values to [lo, hi]; gradient is zero where the clamp engages."""
        a = self
        mask = (a.data > lo) & (a.data < hi)
        return Tensor(np.clip(a.data, lo, hi), _parents=(a,), _backward=lambda g: (g * mask,))


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


def pad_rows_front(x: Tensor, n: int) -> Tensor:
    """Prepend ``n`` all-zero rows to a 2-d tensor."""
    if n <= 0:
        return x
    a = x
    zeros = np.zeros((n, a.data.shape[1]))
    return Tensor(np.concatenate([zeros, a.data], axis=0), _parents=(a,),
                  _backward=lambda g: (g[n:],))


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b with a broadcast row bias."""
    if x.data.shape[1] != W.data.shape[0]:
        raise DimensionError(f"affine shape mismatch: x {x.data.shape} vs W {W.data.shape}")
    return x.matmul(W) + b


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Valid 1-d convolution of a T x d sequence with a k x d x f kernel.

    Output is (T-k+1) x f. No padding here; callers pad short sequences.
    """
    k, d, f = kernel.data.shape
    T = x.data.shape[0]
    if x.data.shape[1] != d:
        raise DimensionError(f"conv1d channel mismatch: x {x.data.shape} vs kernel {kernel.data.shape}")
    if T < k:
        raise DimensionError(f"conv1d sequence length {T} shorter than kernel {k}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=0)  # (T-k+1, d, k)
    out_data = np.einsum("tdk,kdf->tf", windows, kernel.data) + bias.data

    def bwd(g):
        dk = np.einsum("tdk,tf->kdf", windows, g)
        db = g.sum(axis=0)
        dx = np.zeros_like(x.data)
        for i in range(k):
            dx[i:i + g.shape[0]] += g @ kernel.data[i].T
        return (dx, dk, db)

    return Tensor(out_data, _parents=(x, kernel, bias), _backward=bwd)


def max_over_time(x: Tensor) -> Tensor:
    """Per-channel maximum over axis 0; gradient to the first maximal index."""
    if x.data.shape[0] == 0:
        raise DimensionError("max_over_time over an empty sequence")
    idx = np.argmax(x.data, axis=0)  # first occurrence on ties
    cols = np.arange(x.data.shape[1])

    def bwd(g):
        dx = np.zeros_like(x.data)
        dx[idx, cols] = g
        return (dx,)

    return Tensor(x.data[idx, cols], _parents=(x,), _backward=bwd)


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
    fan_in = shape[0] if len(shape) > 1 else shape[0]
    fan_out = shape[-1]
    if len(shape) == 3:  # conv kernel k x d x f
        fan_in = shape[0] * shape[1]
        fan_out = shape[0] * shape[2]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
