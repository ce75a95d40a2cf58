"""Central finite-difference gradient checking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_tensor: int
    worst_index: tuple


def gradient_check(build_loss, tensors: list[Tensor], h: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients of ``build_loss()`` against central finite
    differences for every entry of ``tensors``.

    ``build_loss`` must return a scalar Tensor and be a pure function of the
    current ``.data`` of the given tensors.
    """
    for t in tensors:
        t.requires_grad = True
        t.grad = np.zeros_like(t.data)
    loss = build_loss()
    loss.backward()
    analytic = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.zero_grad()

    worst = 0.0
    worst_tensor, worst_index = -1, ()
    for ti, t in enumerate(tensors):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = build_loss().item()
            flat[i] = orig - h
            f_minus = build_loss().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = analytic[ti].reshape(-1)[i]
            denom = max(abs(a) + abs(numeric), 1e-8)
            err = abs(a - numeric) / denom
            # tiny absolute disagreement is numerical noise, not a bug
            if abs(a - numeric) < 1e-10:
                err = 0.0
            if err > worst:
                worst = err
                worst_tensor = ti
                worst_index = np.unravel_index(i, t.data.shape)
    return GradCheckReport(worst, worst_tensor, worst_index)
