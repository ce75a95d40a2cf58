"""Adam optimizer with bias correction, operating on Parameter objects."""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter
from .errors import ConfigError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam. Frozen parameters are never updated and get no
    moment buffers; all gradients (frozen included) are zeroed after a step.
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-3):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = {p.name: np.zeros_like(p.data) for p in self.params if not p.frozen}
        self._v = {p.name: np.zeros_like(p.data) for p in self.params if not p.frozen}

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p in self.params:
            if p.frozen:
                continue
            g = p.grad
            m = self._m[p.name]
            v = self._v[p.name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.tensor.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        self.zero_grad()

    def zero_grad(self):
        for p in self.params:
            p.tensor.zero_grad()
