import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocomp.autodiff import Parameter, Tensor
from emocomp.errors import ConfigError
from emocomp.gradcheck import gradient_check
from emocomp.losses import PROB_EPS, weighted_bce
from emocomp.optim import BETA1, BETA2, EPS, Adam


class TestAdam:
    def test_first_step_matches_hand_computation(self):
        # with a constant gradient g, the bias-corrected first step is
        # lr * g / (|g| + eps) regardless of magnitude
        p = Parameter(Tensor(np.array([1.0, -2.0])), "p")
        opt = Adam([p], lr=0.1)
        p.grad[...] = np.array([0.5, -3.0])
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.5 / (0.5 + 1e-8),
                                            -2.0 + 0.1 * 3.0 / (3.0 + 1e-8)])

    def test_grads_zeroed_after_step(self):
        p = Parameter(Tensor(np.ones(3)), "p")
        opt = Adam([p])
        p.grad[...] = 1.0
        opt.step()
        np.testing.assert_array_equal(p.grad, np.zeros(3))

    def test_frozen_parameter_untouched(self):
        frozen = Parameter(Tensor(np.ones(2)), "f", frozen=True)
        live = Parameter(Tensor(np.ones(2)), "l")
        opt = Adam([frozen, live], lr=0.1)
        frozen.grad[...] = 5.0
        live.grad[...] = 5.0
        before = frozen.data.copy()
        opt.step()
        np.testing.assert_array_equal(frozen.data, before)
        assert not np.array_equal(live.data, np.ones(2))
        # frozen grads are still cleared so stale values never leak
        np.testing.assert_array_equal(frozen.grad, np.zeros(2))

    def test_no_moment_state_for_frozen(self):
        frozen = Parameter(Tensor(np.ones(2)), "f", frozen=True)
        opt = Adam([frozen])
        assert "f" not in opt._m and "f" not in opt._v

    def test_invalid_lr(self):
        with pytest.raises(ConfigError):
            Adam([], lr=0.0)

    def test_in_place_step_equals_the_expression(self):
        # the step as one expression, with its temporaries; the in-place step
        # must give the same bits for every parameter after every step
        def reference_step(params, moments, t, lr):
            bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
            for p in params:
                if p.frozen:
                    continue
                g, (m, v) = p.grad, moments[p.name]
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * g * g
                p.tensor.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
                p.tensor.zero_grad()

        rng = np.random.default_rng(7)
        shapes = [(3,), (4, 5), (2, 3, 4), (1,)]

        def make():
            return [Parameter(Tensor(np.random.default_rng(i).standard_normal(shape)),
                              f"p{i}", frozen=(i == 3)) for i, shape in enumerate(shapes)]

        ours, ref = make(), make()
        opt = Adam(ours, lr=0.03)
        moments = {p.name: (np.zeros_like(p.data), np.zeros_like(p.data)) for p in ref}
        for t in range(1, 26):
            for a, b in zip(ours, ref):
                g = rng.standard_normal(a.data.shape) * 10.0 ** rng.integers(-6, 3)
                g[rng.random(g.shape) < 0.2] = 0.0
                a.grad[...] = g
                b.grad[...] = g
            opt.step()
            reference_step(ref, moments, t, 0.03)
            for a, b in zip(ours, ref):
                assert np.array_equal(a.data, b.data), (t, a.name)
                assert not a.grad.any()

    def test_quadratic_convergence(self):
        p = Parameter(Tensor(np.array([5.0])), "p")
        opt = Adam([p], lr=0.2)
        for _ in range(300):
            x = p.tensor
            ((x + -3.0) * (x + -3.0)).sum().backward()
            opt.step()
        assert abs(p.data[0] - 3.0) < 1e-3


def _clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    mask = (a.data > lo) & (a.data < hi)
    return Tensor(np.clip(a.data, lo, hi), _parents=(a,), _backward=lambda g: (g * mask,))


def _log(a: Tensor) -> Tensor:
    return Tensor(np.log(a.data), _parents=(a,), _backward=lambda g: (g / a.data,))


def _mean(a: Tensor) -> Tensor:
    n = a.data.size
    return Tensor(a.data.mean(), _parents=(a,),
                  _backward=lambda g: (np.full_like(a.data, float(g) / n),))


def weighted_bce_reference(p, y, pos_weight):
    """The loss ``weighted_bce`` replaced, composed from generic tape nodes;
    ``* -1.0`` stands for the deleted negation, so ``1.0 - y`` reads
    ``1.0 + y * -1.0``."""
    pc = _clamp(p, PROB_EPS, 1.0 - PROB_EPS)
    loss = (pos_weight * y * _log(pc) + (1.0 + y * -1.0) * _log(1.0 + pc * -1.0)) * -1.0
    return _mean(loss)


def bce_value_and_grad(op, p, y, pos_weight, scale):
    p = Tensor(p.copy(), requires_grad=True)
    loss = op(p, Tensor(y), pos_weight)
    loss.backward(np.array(scale))
    return loss.data, p.grad


class TestWeightedBce:
    def test_pos_weight_one_is_plain_bce(self):
        p = Tensor(np.array([[0.3, 0.8]]))
        y = Tensor(np.array([[1.0, 0.0]]))
        expected = -(math.log(0.3) + math.log(0.2)) / 2.0
        assert abs(weighted_bce(p, y, 1.0).item() - expected) < 1e-12

    def test_pos_weight_four_hand_case(self):
        # y=1, p=0.5 -> 4 * ln 2
        p = Tensor(np.array([[0.5]]))
        y = Tensor(np.array([[1.0]]))
        assert abs(weighted_bce(p, y, 4.0).item() - 4.0 * math.log(2.0)) < 1e-12

    def test_extreme_probabilities_finite(self):
        p = Tensor(np.array([[0.0, 1.0]]))
        y = Tensor(np.array([[1.0, 0.0]]))
        assert np.isfinite(weighted_bce(p, y, 2.0).item())

    def test_invalid_pos_weight(self):
        with pytest.raises(ConfigError):
            weighted_bce(Tensor(np.array([[0.5]])), Tensor(np.array([[1.0]])), 0.0)

    def test_gradient_matches_finite_differences(self, rng):
        p = Tensor(rng.uniform(0.05, 0.95, size=(1, 4)))
        y = Tensor(np.array([[1.0, 0.0, 1.0, 0.0]]))
        report = gradient_check(lambda: weighted_bce(p, y, 3.0), [p])
        assert report.max_rel_error < 1e-6, report
        # two rows, a small and a large weight, and an upstream scale
        p = Tensor(rng.uniform(0.05, 0.95, size=(2, 3)))
        y = Tensor(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
        for w in (0.5, 7.8):
            report = gradient_check(lambda: weighted_bce(p, y, w) * 2.5, [p])
            assert report.max_rel_error < 1e-6, report

    @given(st.floats(0.05, 0.95), st.floats(1.0, 10.0), st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_term_scales_monotonically(self, prob, w, dw):
        # raising pos_weight raises the loss on a positive example
        p = Tensor(np.array([[prob]]))
        y = Tensor(np.array([[1.0]]))
        assert weighted_bce(p, y, w + dw).item() > weighted_bce(p, y, w).item()

    @given(st.floats(0.05, 0.95), st.floats(1.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_negative_example_ignores_pos_weight(self, prob, w):
        p = Tensor(np.array([[prob]]))
        y = Tensor(np.array([[0.0]]))
        assert abs(weighted_bce(p, y, w).item() - weighted_bce(p, y, 1.0).item()) < 1e-12

    @pytest.mark.parametrize("pos_weight", [0.25, 1.0, 4.0, 7.8])
    @pytest.mark.parametrize("scale", [1.0, 0.02, -3.0])
    def test_matches_composed_loss_bitwise(self, pos_weight, scale, rng):
        edges = [0.0, 1.0, 1e-13, 1e-12, 1.0 - 1e-12]
        for trial in range(50):
            shape = (1 + trial % 2, 1 + trial % 7)
            p = rng.uniform(0.0, 1.0, size=shape)
            p.flat[rng.integers(p.size)] = edges[trial % len(edges)]
            y = (rng.random(shape) < 0.5).astype(float)
            got = bce_value_and_grad(weighted_bce, p, y, pos_weight, scale)
            want = bce_value_and_grad(weighted_bce_reference, p, y, pos_weight, scale)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_only_parent_is_p(self):
        p = Tensor(np.array([[0.3, 0.6]]), requires_grad=True)
        y = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
        loss = weighted_bce(p, y, 2.0)
        assert len(loss._parents) == 1 and loss._parents[0] is p
        loss.backward()
        assert y.grad is None

    def test_clamp_gradient_zero_outside(self):
        p = Tensor(np.array([[0.0, 0.2, 1.0, 1e-12, 1.0 - 1e-12]]), requires_grad=True)
        y = Tensor(np.array([[1.0, 1.0, 0.0, 1.0, 0.0]]))
        weighted_bce(p, y, 3.0).backward()
        # gradient only flows where the clamp did not engage
        np.testing.assert_array_equal(p.grad[0] != 0.0, [False, True, False, False, False])
        assert abs(p.grad[0, 1] - -3.0 / (0.2 * 5)) < 1e-12
