"""Network layers built on the autodiff core: fully connected (matmul, bias
and activation nodes), BiLSTM (one fused ``bilstm`` node for both
directions) and multi-kernel 1-d CNN with max-over-time pooling (one fused
``conv_pool`` node).

Each layer takes a minibatch at once. Dense maps B x d_in rows (one row
per example) to B x d_out. BiLstm and ConvPool take a zero-padded
B x T_max x d batch of sequences plus the length of each; a T x d sequence
without lengths is a batch of one, and keeps its 2-D shape through BiLstm.
Sequences shorter than a kernel are left-zero-padded up to the kernel
size for that kernel only, so every kernel size stays usable on short
inputs.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, bilstm, conv_pool, filled, xavier_uniform


class Dense:
    """Fully connected layer, optional activation ('relu', 'sigmoid', None)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 name: str, activation: str | None = "relu"):
        self.W = Parameter(xavier_uniform((d_in, d_out), rng), f"{name}.W")
        self.b = Parameter(filled(d_out, 0.0), f"{name}.b")
        self.activation = activation

    @property
    def out_dim(self) -> int:
        return self.W.data.shape[1]

    def params(self) -> list[Parameter]:
        return [self.W, self.b]

    def __call__(self, x: Tensor) -> Tensor:
        out = x.matmul(self.W) + self.b
        if self.activation == "relu":
            return out.relu()
        if self.activation == "sigmoid":
            return out.sigmoid()
        return out


class BiLstm:
    """Forward and backward LSTM passes, concatenated per timestep.

    Input B x T_max x d with lengths (or T x d), output B x T_max x 2*units
    (or T x 2*units), zero past each length; initial hidden and cell state
    zero. Each direction has its own W (d x 4u), U (u x 4u) and b, gate
    order i, f, g, o.
    """

    def __init__(self, d_in: int, units: int, rng: np.random.Generator, name: str):
        self.directions = [
            (Parameter(xavier_uniform((d_in, 4 * units), rng), f"{name}.{d}.W"),
             Parameter(xavier_uniform((units, 4 * units), rng), f"{name}.{d}.U"),
             Parameter(filled(4 * units, 0.0), f"{name}.{d}.b"))
            for d in ("fwd", "bwd")]
        self.out_dim = 2 * units

    def params(self) -> list[Parameter]:
        return [*self.directions[0], *self.directions[1]]

    def __call__(self, x: Tensor, lengths=None) -> Tensor:
        return bilstm(x, *self.directions, lengths)


class ConvPool:
    """Multi-kernel valid convolution with ReLU, max-pooled over time.

    Produces one row of len(kernel_sizes) * filters values per sequence:
    B x out_dim (1 x out_dim for a T x d sequence).
    """

    def __init__(self, d_in: int, kernel_sizes: tuple[int, ...], filters: int,
                 rng: np.random.Generator, name: str):
        self.kernel_sizes = tuple(kernel_sizes)
        self.filters = filters
        self.kernels: list[Parameter] = []
        self.biases: list[Parameter] = []
        for k in self.kernel_sizes:
            self.kernels.append(Parameter(xavier_uniform((k, d_in, filters), rng),
                                          f"{name}.k{k}.kernel"))
            self.biases.append(Parameter(filled(filters, 0.0), f"{name}.k{k}.bias"))

    @property
    def out_dim(self) -> int:
        return len(self.kernel_sizes) * self.filters

    def params(self) -> list[Parameter]:
        out = []
        for K, b in zip(self.kernels, self.biases):
            out.extend([K, b])
        return out

    def __call__(self, x: Tensor, lengths=None) -> Tensor:
        return conv_pool(x, self.kernels, self.biases, lengths)
