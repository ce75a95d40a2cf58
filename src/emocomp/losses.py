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


def weighted_bce(p: Tensor, y: Tensor, pos_weight: float = 1.0,
                 per_row: bool = False) -> Tensor:
    """Mean of -(pos_weight * y * ln p + (1 - y) * ln(1 - p)) over all
    entries, or with ``per_row`` over each row: one loss per example of a
    B x classes batch, each bitwise the loss of that row alone.

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
    n = loss.shape[-1] if per_row else loss.size

    def bwd(g):
        gn = -np.broadcast_to((g / n)[..., None] if per_row else g / n, loss.shape)
        return ((gn * wy / pc - gn * ny / qc) * mask,)

    return Tensor(loss.mean(axis=-1) if per_row else loss.mean(), _parents=(p,), _backward=bwd)
