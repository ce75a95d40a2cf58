"""Loss functions. The classifiers all use sigmoid outputs with a
recall-weighted binary cross-entropy: the positive (false-negative) term
is multiplied by a configurable weight. The loss is one tape node whose
backward pass computes the gradient with respect to the probabilities.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError

PROB_EPS = 1e-12


def weighted_bce(p: Tensor, y: Tensor, pos_weight: float = 1.0) -> Tensor:
    """Mean of -(pos_weight * y * ln p + (1 - y) * ln(1 - p)).

    Probabilities are clamped to [1e-12, 1 - 1e-12] to keep the logs
    finite; the gradient is zero where the clamp engages. The targets get
    no gradient.
    """
    if pos_weight <= 0:
        raise ConfigError(f"pos_weight must be positive, got {pos_weight}")
    mask = (p.data > PROB_EPS) & (p.data < 1.0 - PROB_EPS)
    pc = np.clip(p.data, PROB_EPS, 1.0 - PROB_EPS)
    wy, ny, qc = y.data * pos_weight, 1.0 - y.data, 1.0 - pc
    loss = -(wy * np.log(pc) + ny * np.log(qc))

    def bwd(g):
        gn = -np.full_like(loss, float(g) / loss.size)
        return ((gn * wy / pc - gn * ny / qc) * mask,)

    return Tensor(loss.mean(), _parents=(p,), _backward=bwd)
