"""Network layers built on the autodiff core: fully connected, BiLSTM,
multi-kernel 1-d CNN with max-over-time pooling.

Sequences shorter than a kernel are left-zero-padded up to the kernel
size for that kernel only, so every kernel size stays usable on short
inputs.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (Parameter, Tensor, affine, concat, conv1d, max_over_time,
                       pad_rows_front, xavier_uniform)
from .errors import DimensionError


class Dense:
    """Fully connected layer, optional activation ('relu', 'sigmoid', None)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 name: str, activation: str | None = "relu"):
        self.W = Parameter(Tensor(xavier_uniform((d_in, d_out), rng)), f"{name}.W")
        self.b = Parameter(Tensor(np.zeros(d_out)), f"{name}.b")
        self.activation = activation

    def params(self) -> list[Parameter]:
        return [self.W, self.b]

    def __call__(self, x: Tensor) -> Tensor:
        out = affine(x, self.W.tensor, self.b.tensor)
        if self.activation == "relu":
            return out.relu()
        if self.activation == "sigmoid":
            return out.sigmoid()
        return out


class LstmCell:
    """Single-direction LSTM cell; gate order i, f, g, o in one fused matrix."""

    def __init__(self, d_in: int, units: int, rng: np.random.Generator, name: str):
        self.units = units
        self.W = Parameter(Tensor(xavier_uniform((d_in, 4 * units), rng)), f"{name}.W")
        self.U = Parameter(Tensor(xavier_uniform((units, 4 * units), rng)), f"{name}.U")
        self.b = Parameter(Tensor(np.zeros(4 * units)), f"{name}.b")

    def params(self) -> list[Parameter]:
        return [self.W, self.U, self.b]

    def step(self, x_t: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        u = self.units
        z = affine(x_t, self.W.tensor, self.b.tensor) + h.matmul(self.U.tensor)
        i = z[:, 0 * u:1 * u].sigmoid()
        f = z[:, 1 * u:2 * u].sigmoid()
        g = z[:, 2 * u:3 * u].tanh()
        o = z[:, 3 * u:4 * u].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new


class BiLstm:
    """Forward and backward LSTM passes, concatenated per timestep.

    Input T x d, output T x 2*units; initial hidden and cell state zero.
    """

    def __init__(self, d_in: int, units: int, rng: np.random.Generator, name: str):
        self.units = units
        self.fwd = LstmCell(d_in, units, rng, f"{name}.fwd")
        self.bwd = LstmCell(d_in, units, rng, f"{name}.bwd")

    def params(self) -> list[Parameter]:
        return self.fwd.params() + self.bwd.params()

    def __call__(self, x: Tensor) -> Tensor:
        T = x.data.shape[0]
        if T == 0:
            raise DimensionError("bilstm over an empty sequence")
        zero = Tensor(np.zeros((1, self.units)))
        outs_fwd: list[Tensor] = []
        h, c = zero, zero
        for t in range(T):
            h, c = self.fwd.step(x[t:t + 1, :], h, c)
            outs_fwd.append(h)
        outs_bwd: list[Tensor] = [None] * T
        h, c = zero, zero
        for t in reversed(range(T)):
            h, c = self.bwd.step(x[t:t + 1, :], h, c)
            outs_bwd[t] = h
        rows = [concat([outs_fwd[t], outs_bwd[t]], axis=1) for t in range(T)]
        return concat(rows, axis=0)


class ConvPool:
    """Multi-kernel valid convolution with ReLU, max-pooled over time.

    Produces a 1 x (len(kernel_sizes) * filters) row vector.
    """

    def __init__(self, d_in: int, kernel_sizes: tuple[int, ...], filters: int,
                 rng: np.random.Generator, name: str):
        self.kernel_sizes = tuple(kernel_sizes)
        self.filters = filters
        self.kernels: list[Parameter] = []
        self.biases: list[Parameter] = []
        for k in self.kernel_sizes:
            self.kernels.append(Parameter(Tensor(xavier_uniform((k, d_in, filters), rng)),
                                          f"{name}.k{k}.kernel"))
            self.biases.append(Parameter(Tensor(np.zeros(filters)), f"{name}.k{k}.bias"))

    @property
    def out_dim(self) -> int:
        return len(self.kernel_sizes) * self.filters

    def params(self) -> list[Parameter]:
        out = []
        for K, b in zip(self.kernels, self.biases):
            out.extend([K, b])
        return out

    def maps(self, x: Tensor, relu: bool = True) -> list[Tensor]:
        T = x.data.shape[0]
        out = []
        for k, K, b in zip(self.kernel_sizes, self.kernels, self.biases):
            xk = pad_rows_front(x, k - T) if T < k else x
            m = conv1d(xk, K.tensor, b.tensor)
            out.append(m.relu() if relu else m)
        return out

    def __call__(self, x: Tensor) -> Tensor:
        pooled = [max_over_time(m) for m in self.maps(x)]
        return concat(pooled, axis=0).reshape(1, self.out_dim)

