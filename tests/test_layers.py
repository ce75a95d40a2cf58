import numpy as np
import pytest

from emocomp.autodiff import Tensor
from emocomp.errors import DimensionError
from emocomp.gradcheck import gradient_check
from emocomp.layers import BiLstm, ConvPool, Dense

TOL = 1e-6


def check_params(build_loss, layer, extra=(), tol=TOL):
    tensors = layer.params() + list(extra)
    report = gradient_check(build_loss, tensors)
    assert report.max_rel_error < tol, report


class TestDense:
    def test_shapes_and_activations(self, rng):
        x = Tensor(rng.standard_normal((1, 4)))
        for act in ("relu", "sigmoid", None):
            layer = Dense(4, 3, rng, "d", activation=act)
            assert layer(x).data.shape == (1, 3)
        sig = Dense(4, 3, rng, "d", activation="sigmoid")(x).data
        assert np.all((sig > 0) & (sig < 1))

    def test_gradient(self, rng):
        layer = Dense(4, 3, rng, "d", activation="sigmoid")
        x = Tensor(rng.standard_normal((1, 4)))
        check_params(lambda: (layer(x) * layer(x)).sum(), layer, [x])


class TestBiLstm:
    def test_output_shape(self, rng):
        layer = BiLstm(3, 4, rng, "l")
        out = layer(Tensor(rng.standard_normal((5, 3))))
        assert out.data.shape == (5, 8)

    def test_single_timestep(self, rng):
        layer = BiLstm(3, 2, rng, "l")
        assert layer(Tensor(rng.standard_normal((1, 3)))).data.shape == (1, 4)

    def test_empty_sequence_rejected(self, rng):
        layer = BiLstm(3, 2, rng, "l")
        with pytest.raises(DimensionError):
            layer(Tensor(np.zeros((0, 3))))

    def test_directions_independent(self, rng):
        # forward half of timestep 0 must not depend on later inputs
        layer = BiLstm(2, 3, rng, "l")
        x = rng.standard_normal((4, 2))
        a = layer(Tensor(x)).data
        x2 = x.copy()
        x2[3] += 1.0
        b = layer(Tensor(x2)).data
        np.testing.assert_allclose(a[0, :3], b[0, :3])
        assert not np.allclose(a[0, 3:], b[0, 3:])

    def test_gradient(self, rng):
        layer = BiLstm(3, 2, rng, "l")
        x = Tensor(rng.standard_normal((4, 3)))
        check_params(lambda: (layer(x) * layer(x)).sum(), layer, [x])


class TestConvPool:
    def test_output_is_row_vector(self, rng):
        layer = ConvPool(4, (2, 3), 5, rng, "c")
        out = layer(Tensor(rng.standard_normal((6, 4))))
        assert out.data.shape == (1, 10)
        assert layer.out_dim == 10

    def test_short_sequence_padded(self, rng):
        layer = ConvPool(4, (2, 3, 5), 2, rng, "c")
        out = layer(Tensor(rng.standard_normal((1, 4))))
        assert out.data.shape == (1, 6)

    def test_gradient(self, rng):
        layer = ConvPool(3, (2, 3), 2, rng, "c")
        x = Tensor(rng.standard_normal((5, 3)))
        check_params(lambda: (layer(x) * layer(x)).sum(), layer, [x])

    def test_gradient_with_padding(self, rng):
        layer = ConvPool(3, (2, 4), 2, rng, "c")
        x = Tensor(rng.standard_normal((2, 3)))
        check_params(lambda: (layer(x) * layer(x)).sum(), layer, [x])
