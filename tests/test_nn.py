import numpy as np
import pytest

from emocomp.autodiff import Tensor
from emocomp.errors import ConfigError, DataError, DimensionError
from emocomp.gradcheck import gradient_check
from emocomp.nn import (CONFIG_DEFAULTS, Example, ModelConfig, MtlCrossStitch,
                        MtlMultiHead, SingleTaskModel, build_model,
                        default_config, load_checkpoint, predict_example,
                        save_checkpoint, train_model)

LABELS = ("joy", "anger", "fear")


def toy_config(**overrides):
    base = dict(bilstm_units=3, cnn_filters=2, kernel_sizes=(2, 3),
                fc_neurons_emo=4, fc_neurons_cpm=4, fc_neurons_combined=4,
                minibatch_size=4, epochs=2, dropout_rate=0.0,
                learning_rate=1e-2, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def toy_examples(n, rng, d=4, T=5):
    out = []
    for i in range(n):
        y_emo = np.zeros(len(LABELS))
        y_emo[i % len(LABELS)] = 1.0
        y_cpm = (rng.random(5) < 0.5).astype(float)
        out.append(Example(f"e{i}", rng.standard_normal((T, d)), y_emo, y_cpm))
    return out


def build(tag, config=None, frozen=None):
    config = config or toy_config()
    if tag == "emo-cpm-nn-pred" and frozen is None:
        frozen = SingleTaskModel(toy_config(seed=9), 4, "cpm")
    return build_model(tag, config, 4, LABELS, frozen_cpm=frozen)


def model_loss(model, ex):
    out = model.forward(Tensor(ex.x), training=False,
                        cpm=ex.y_cpm if model.tag == "emo-cpm-nn-gold" else None)
    return model.loss(out, ex.y_emo if model.has_emo else None,
                      ex.y_cpm if model.has_cpm else None)


class TestConfig:
    def test_pair_fields(self):
        cfg = ModelConfig(bilstm_units=(32, 24), cnn_filters=10)
        assert (cfg.units_emo, cfg.units_cpm) == (32, 24)
        assert (cfg.filters_emo, cfg.filters_cpm) == (10, 10)

    def test_round_trip(self):
        cfg = toy_config(bilstm_units=(5, 3), per_channel_stitch=True)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            ModelConfig(kernel_sizes=())
        with pytest.raises(ConfigError):
            ModelConfig(task_weight_cpm=-0.1)

    def test_published_defaults_present(self):
        for tag in ("emo-nn-base", "cpm-nn-base", "emo-cpm-nn-gold",
                    "emo-cpm-nn-pred", "mtl-mh", "mtl-xs"):
            for domain in ("tec", "reman"):
                assert (tag, domain) in CONFIG_DEFAULTS
        assert default_config("mtl-xs", "reman").bilstm_units == (32, 24)
        assert default_config("mtl-mh", "reman").task_weight_cpm == 0.35


class TestForward:
    @pytest.mark.parametrize("tag,keys", [
        ("emo-nn-base", {"emo"}), ("cpm-nn-base", {"cpm"}),
        ("emo-cpm-nn-gold", {"emo"}), ("emo-cpm-nn-pred", {"emo", "cpm"}),
        ("mtl-mh", {"emo", "cpm"}), ("mtl-xs", {"emo", "cpm"}),
    ])
    def test_output_heads(self, tag, keys, rng):
        model = build(tag)
        ex = toy_examples(1, rng)[0]
        out = model.forward(Tensor(ex.x),
                            cpm=ex.y_cpm if tag == "emo-cpm-nn-gold" else None)
        assert set(out) == keys
        for k, t in out.items():
            expect = len(LABELS) if k == "emo" else 5
            assert t.data.shape == (1, expect)
            assert np.all((t.data > 0) & (t.data < 1))

    def test_gold_requires_cpm_vector(self, rng):
        model = build("emo-cpm-nn-gold")
        ex = toy_examples(1, rng)[0]
        with pytest.raises(DataError):
            model.forward(Tensor(ex.x))
        with pytest.raises(DimensionError):
            model.forward(Tensor(ex.x), cpm=[1, 0])

    def test_pred_constant_branch(self, rng):
        # a frozen submodel emitting all 0.5 feeds a constant [0.5]*5
        frozen = SingleTaskModel(toy_config(seed=9), 4, "cpm")
        for p in frozen.params():
            p.data[...] = 0.0
        model = build("emo-cpm-nn-pred", frozen=frozen)
        ex = toy_examples(1, rng)[0]
        out = model.forward(Tensor(ex.x))
        np.testing.assert_allclose(out["cpm"].data, 0.5)

    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            build_model("mystery", toy_config(), 4, LABELS)


class TestGradients:
    @pytest.mark.parametrize("tag", ["emo-nn-base", "cpm-nn-base",
                                     "emo-cpm-nn-gold", "mtl-mh", "mtl-xs"])
    def test_full_graph(self, tag, rng):
        model = build(tag)
        ex = toy_examples(1, rng)[0]
        tensors = [p.tensor for p in model.params()]
        report = gradient_check(lambda: model_loss(model, ex), tensors)
        assert report.max_rel_error < 1e-4, (tag, report)

    def test_pred_nonfrozen_params(self, rng):
        # finite differences only over the trainable parameters: the frozen
        # branch is a constant by contract
        model = build("emo-cpm-nn-pred")
        ex = toy_examples(1, rng)[0]
        tensors = [p.tensor for p in model.params() if not p.frozen]
        report = gradient_check(lambda: model_loss(model, ex), tensors)
        assert report.max_rel_error < 1e-4, report

    def test_xs_with_projections(self, rng):
        # differing filter counts give the trunks different pooled widths
        model = build("mtl-xs", toy_config(bilstm_units=(3, 2), cnn_filters=(2, 3)))
        assert model.proj_emo is not None
        ex = toy_examples(1, rng)[0]
        tensors = [p.tensor for p in model.params()]
        report = gradient_check(lambda: model_loss(model, ex), tensors)
        assert report.max_rel_error < 1e-4, report

    def test_xs_per_channel(self, rng):
        model = build("mtl-xs", toy_config(per_channel_stitch=True))
        ex = toy_examples(1, rng)[0]
        tensors = [p.tensor for p in model.params()]
        report = gradient_check(lambda: model_loss(model, ex), tensors)
        assert report.max_rel_error < 1e-4, report


class TestCrossStitchReduction:
    def test_identity_alpha_equals_two_single_task_models(self, rng):
        cfg = toy_config()
        xs = MtlCrossStitch(cfg, 4, LABELS, freeze_stitch=True)
        xs.set_identity_stitch()
        emo = SingleTaskModel(cfg, 4, "emo", LABELS)
        cpm = SingleTaskModel(cfg, 4, "cpm")
        # copy the cross-stitch weights into the single-task models by name
        xs_state = xs.state_dict()
        emo.load_state({k: v for k, v in xs_state.items() if k.startswith("emo.")})
        cpm.load_state({k: v for k, v in xs_state.items() if k.startswith("cpm.")})
        for _ in range(10):
            x = Tensor(rng.standard_normal((6, 4)))
            out = xs.forward(x)
            np.testing.assert_allclose(out["emo"].data, emo.forward(x)["emo"].data,
                                       atol=1e-9)
            np.testing.assert_allclose(out["cpm"].data, cpm.forward(x)["cpm"].data,
                                       atol=1e-9)

    def test_default_alpha_is_dominant_diagonal(self):
        xs = build("mtl-xs")
        np.testing.assert_array_equal(xs.alpha.data, [[0.9, 0.1], [0.1, 0.9]])


class TestTaskWeightReduction:
    def test_zero_cpm_weight_tracks_single_task_trajectory(self, rng):
        cfg = toy_config(task_weight_cpm=0.0, epochs=3)
        mh = MtlMultiHead(cfg, 4, LABELS)
        single = SingleTaskModel(toy_config(epochs=3), 4, "emo", LABELS)
        examples = toy_examples(8, rng)
        train_model(mh, examples, "single-label")
        train_model(single, examples, "single-label")
        mh_state = mh.state_dict()
        for name, arr in single.state_dict().items():
            np.testing.assert_allclose(mh_state[name], arr, atol=1e-9)


class TestFreezeContract:
    def test_frozen_params_bitwise_stable(self, rng):
        model = build("emo-cpm-nn-pred", toy_config(epochs=4, minibatch_size=2))
        before = {p.name: p.data.copy() for p in model.frozen_cpm.params()}
        train_model(model, toy_examples(8, rng), "single-label")
        for p in model.frozen_cpm.params():
            assert np.array_equal(p.data, before[p.name]), p.name


class TestTraining:
    def test_deterministic(self, rng):
        examples = toy_examples(8, rng)
        runs = []
        for _ in range(2):
            model = build("emo-nn-base", toy_config(epochs=3, dropout_rate=0.2))
            train_model(model, examples, "single-label")
            runs.append(model.state_dict())
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            train_model(build("emo-nn-base"), [], "single-label")

    @pytest.mark.parametrize("tag", ["emo-nn-base", "mtl-xs"])
    def test_non_finite_loss_stops_before_update(self, tag, rng):
        examples = toy_examples(8, rng)
        examples[5].x[2, 1] = np.nan
        # one batch of all eight examples: no update may run at all
        model = build(tag, toy_config(minibatch_size=8, epochs=1))
        before = model.state_dict()
        with pytest.raises(ConfigError, match="epoch 1, batch 1;"):
            train_model(model, examples, "single-label")
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
        assert not any(p.grad.any() for p in model.params())
        # one example per batch, in the training loop's shuffled order
        batch = list(np.random.default_rng([0, 1]).permutation(8)).index(5) + 1
        model = build(tag, toy_config(minibatch_size=1, epochs=1))
        with pytest.raises(ConfigError, match=f"epoch 1, batch {batch};"):
            train_model(model, examples, "single-label")

    def test_dev_restores_best_state(self, rng):
        examples = toy_examples(9, rng)
        model = build("emo-nn-base", toy_config(epochs=3))
        log = train_model(model, examples[:6], "single-label", dev=examples[6:])
        assert all("dev_macro_f1" in e for e in log.entries)
        assert len(log.lines()) == 3

    def test_predict_single_label_argmax(self, rng):
        model = build("emo-nn-base")
        ex = toy_examples(1, rng)[0]
        labels, _ = predict_example(model, ex, "single-label")
        assert len(labels) == 1 and labels <= set(LABELS)

    def test_predict_multi_label_neutral_fallback(self, rng):
        labels = ("joy", "neutral")
        model = build_model("emo-nn-base", toy_config(), 4, labels)
        # force near-zero probabilities for every class
        model.out.b.data[...] = -50.0
        ex = toy_examples(1, rng)[0]
        got, _ = predict_example(model, Example(ex.id, ex.x, np.zeros(2), ex.y_cpm),
                                 "multi-label")
        assert got == {"neutral"}


class TestCheckpoints:
    @pytest.mark.parametrize("tag", ["emo-nn-base", "cpm-nn-base",
                                     "emo-cpm-nn-gold", "emo-cpm-nn-pred",
                                     "mtl-mh", "mtl-xs"])
    def test_round_trip_exact(self, tag, tmp_path, rng):
        model = build(tag)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        ex = toy_examples(1, rng)[0]
        cpm = ex.y_cpm if tag == "emo-cpm-nn-gold" else None
        a = model.forward(Tensor(ex.x), cpm=cpm)
        b = again.forward(Tensor(ex.x), cpm=cpm)
        for key in a:
            np.testing.assert_array_equal(a[key].data, b[key].data)

    def test_version_check(self, tmp_path):
        path = tmp_path / "ckpt.json"
        model = build("emo-nn-base")
        save_checkpoint(model, path)
        bad = path.read_text().replace('"version": 1', '"version": 99', 1)
        path.write_text(bad)
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        model = build("emo-nn-base")
        model.out.b.data[0] = np.inf
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="non-finite.*emo.out.b"):
            load_checkpoint(path)

    def test_mismatched_state_rejected(self):
        a = build("emo-nn-base")
        b = build("cpm-nn-base")
        with pytest.raises(DataError):
            a.load_state(b.state_dict())
