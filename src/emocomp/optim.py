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
        live = [p for p in self.params if not p.frozen]
        self._m = {p.name: np.zeros_like(p.data) for p in live}
        self._v = {p.name: np.zeros_like(p.data) for p in live}
        # one buffer, as large as the largest parameter, for every step's temporaries
        self._scratch = np.empty(max((p.data.size for p in live), default=0))

    def step(self):
        """``w -= lr (m / bc1) / (sqrt(v / bc2) + eps)`` after the moment
        updates, in place: the scratch holds temporaries, the spent gradient the step."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p in self.params:
            if p.frozen:
                continue
            g, m, v = p.grad, self._m[p.name], self._v[p.name]
            s = self._scratch[:g.size].reshape(g.shape)
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=s)
            v += np.multiply(s, g, out=s)
            np.sqrt(np.divide(v, bc2, out=s), out=s)
            s += EPS
            np.divide(m, bc1, out=g)
            g *= self.lr
            p.tensor.data -= np.divide(g, s, out=g)
        self.zero_grad()

    def zero_grad(self):
        for p in self.params:
            p.tensor.zero_grad()
