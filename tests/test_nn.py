import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from emocomp.autodiff import Tensor, shapes_only
from emocomp.cli import main
from emocomp.corpus import load_corpus
from emocomp.errors import ConfigError, DataError, DimensionError
from emocomp.gradcheck import gradient_check
from emocomp.layers import Dense
from emocomp.nn import (CONFIG_DEFAULTS, NN_TAGS, Example, ModelConfig, MtlCrossStitch,
                        MtlMultiHead, SingleTaskModel, _example_order_masks, _Trunk, build_model,
                        default_config, evaluate_examples, load_checkpoint, predict_examples,
                        read_model_text, save_checkpoint, train_model)
from emocomp.pipeline import load_model

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


def redumped(text):
    """The checkpoint ``text`` laid out three other ways that ``json.loads``
    reads as the same payload: indented, with sorted keys, and with a
    duplicated top-level, ``params`` and parameter key whose last value wins."""
    payload = json.loads(text)
    first = next(iter(payload["params"]))
    duplicated = ('{"tag": "mystery", "params": {"x": [true]}, '
                  + text[1:].replace('"params": {', f'"params": {{"{first}": [[0.5]], ', 1))
    return {"indent": json.dumps(payload, indent=2),
            "sort_keys": json.dumps(payload, sort_keys=True), "duplicated": duplicated}


def model_loss(model, ex):
    out = model.forward(Tensor(ex.x),
                        cpm=ex.y_cpm if model.tag == "emo-cpm-nn-gold" else None)
    return model.loss(out, ex.y_emo if model.has_emo else None,
                      ex.y_cpm if model.has_cpm else None)


class TestConfig:
    def test_pair_fields(self):
        cfg = ModelConfig(bilstm_units=(32, 24), cnn_filters=10)
        assert (cfg.units_emo, cfg.units_cpm) == (32, 24)
        assert (cfg.filters_emo, cfg.filters_cpm) == (10, 10)
        assert ModelConfig(bilstm_units=24) == ModelConfig(bilstm_units=(24, 24))

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

    @pytest.mark.parametrize("field,value", [
        ("minibatch_size", 1.5), ("fc_neurons_emo", True), ("epochs", 2.0), ("seed", "x"),
        ("seed", -1), ("seed", 1.0), ("bilstm_units", (2, 1.5)), ("cnn_filters", True),
        ("kernel_sizes", (2, True)), ("kernel_sizes", (2.0,)),
        # every other field holds its default's type too
        ("learning_rate", True), ("loss_weight_emo", float("nan")),
        ("per_channel_stitch", "yes"), ("dropout_rate", "0.5"),
    ])
    def test_sizes_counts_and_seed_are_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: value})
        with pytest.raises(DataError, match=field):
            ModelConfig.from_dict({**ModelConfig().to_dict(), field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "loss_weight_emo", "loss_weight_cpm"])
    @pytest.mark.parametrize("value", [0.0, -0.5])
    def test_rate_and_loss_weights_are_positive(self, field, value):
        # training would reject them in Adam or in the weighted loss
        with pytest.raises(ConfigError, match=f"{field} must be > 0"):
            ModelConfig(**{field: value})
        with pytest.raises(DataError, match=field):
            ModelConfig.from_dict({**ModelConfig().to_dict(), field: value})

    def test_stored_config_needs_every_field(self):
        stored = toy_config().to_dict()
        del stored["seed"], stored["epochs"]
        with pytest.raises(DataError, match="lacks epochs, seed"):
            ModelConfig.from_dict(stored)

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

    @pytest.mark.parametrize("make", [
        lambda: SingleTaskModel(toy_config(), 4, "emo", ()),
        lambda: MtlMultiHead(toy_config(), 4, ()),
        lambda: MtlCrossStitch(toy_config(), 4, ()),
        lambda: build_model("emo-cpm-nn-gold", toy_config(), 4, ()),
        lambda: build_model("emo-cpm-nn-pred", toy_config(), 4, (),
                            frozen_cpm=SingleTaskModel(toy_config(seed=9), 4, "cpm"))],
        ids=["single-task", "mtl-mh", "mtl-xs", "emo-cpm-nn-gold", "emo-cpm-nn-pred"])
    def test_emotion_head_needs_labels(self, make):
        with pytest.raises(ConfigError, match="emotion head needs a label inventory"):
            make()

    def test_loss_needs_the_targets_of_each_head(self, rng):
        ex = toy_examples(1, rng)[0]
        model = build("mtl-mh")
        out = model.forward(Tensor(ex.x))
        with pytest.raises(DataError, match="emotion targets required"):
            model.loss(out, None, ex.y_cpm)
        with pytest.raises(DataError, match="component targets required"):
            model.loss(out, ex.y_emo, None)

    def test_injected_predictions_need_a_component_model(self):
        with pytest.raises(ConfigError, match="emo-cpm-nn-pred needs a trained component model"):
            build_model("emo-cpm-nn-pred", toy_config(), 4, LABELS)
        with pytest.raises(ConfigError, match="the frozen submodel must be a component model"):
            build("emo-cpm-nn-pred", frozen=SingleTaskModel(toy_config(), 4, "emo", LABELS))


class TestGradients:
    @pytest.mark.parametrize("tag", ["emo-nn-base", "cpm-nn-base",
                                     "emo-cpm-nn-gold", "mtl-mh", "mtl-xs"])
    def test_full_graph(self, tag, rng):
        model = build(tag)
        ex = toy_examples(1, rng)[0]
        tensors = model.params()
        report = gradient_check(lambda: model_loss(model, ex), tensors)
        assert report.max_rel_error < 1e-4, (tag, report)

    def test_pred_nonfrozen_params(self, rng):
        # finite differences only over the trainable parameters: the frozen
        # branch is a constant by contract
        model = build("emo-cpm-nn-pred")
        ex = toy_examples(1, rng)[0]
        tensors = [p for p in model.params() if not p.frozen]
        report = gradient_check(lambda: model_loss(model, ex), tensors)
        assert report.max_rel_error < 1e-4, report

    def test_xs_with_projections(self, rng):
        # differing filter counts give the trunks different pooled widths
        model = build("mtl-xs", toy_config(bilstm_units=(3, 2), cnn_filters=(2, 3)))
        assert model.proj_emo is not None
        ex = toy_examples(1, rng)[0]
        tensors = model.params()
        report = gradient_check(lambda: model_loss(model, ex), tensors)
        assert report.max_rel_error < 1e-4, report

    def test_xs_per_channel(self, rng):
        model = build("mtl-xs", toy_config(per_channel_stitch=True))
        ex = toy_examples(1, rng)[0]
        tensors = model.params()
        report = gradient_check(lambda: model_loss(model, ex), tensors)
        assert report.max_rel_error < 1e-4, report


def ragged_examples(rng, lengths=(1, 4, 2, 7, 3, 9, 5, 1, 8, 6), d=4):
    """Examples of the given lengths; with kernels of 2 and 3 rows a length
    of 1 or 2 is padded, the others fit both. Ten of them, so that a sum
    over the examples that numpy pairs up (it does from eight terms) shows."""
    out = toy_examples(len(lengths), rng, d=d)
    return [Example(ex.id, rng.standard_normal((n, d)), ex.y_emo, ex.y_cpm)
            for ex, n in zip(out, lengths)]


def padded_batch(examples):
    """Zero-padded B x T_max x d embeddings, lengths and stacked targets."""
    lengths = [len(ex.x) for ex in examples]
    x = np.zeros((len(examples), max(lengths), examples[0].x.shape[1]))
    for row, ex in zip(x, examples):
        row[:len(ex.x)] = ex.x
    return (Tensor(x), lengths, np.stack([ex.y_emo for ex in examples]),
            np.stack([ex.y_cpm for ex in examples]))


class TestBatchedEqualsOneAtATime:
    """One graph over a ragged minibatch computes bitwise what one graph per
    example computes, with dropout drawn in the same order."""

    @pytest.mark.parametrize("tag,overrides", [(tag, {}) for tag in NN_TAGS] + [
        ("mtl-xs", {"per_channel_stitch": True}),
        ("mtl-xs", {"bilstm_units": (3, 2), "cnn_filters": (2, 3)}),   # stitch projections
    ], ids=list(NN_TAGS) + ["mtl-xs-per-channel", "mtl-xs-projected"])
    def test_loss_and_gradients(self, tag, overrides, rng):
        model = build(tag, toy_config(dropout_rate=0.5, **overrides))
        params = model.params()
        examples = ragged_examples(rng)
        scale = 1.0 / len(examples)
        x, lengths, y_emo, y_cpm = padded_batch(examples)
        for p in params:
            p.zero_grad()
        out = model.forward(x, rng=np.random.default_rng(3), cpm=y_cpm, lengths=lengths)
        loss = model.loss(out, y_emo, y_cpm)
        loss.backward()
        batched = [p.grad.copy() for p in params]
        # a per-example loop: the same generator, each loss scaled by 1/B,
        # the gradients added in example order
        drop_rng, total, summed = np.random.default_rng(3), None, None
        for ex in examples:
            for p in params:
                p.zero_grad()
            one = model.loss(model.forward(Tensor(ex.x), rng=drop_rng, cpm=ex.y_cpm),
                             ex.y_emo, ex.y_cpm)
            (one * scale).backward()
            total = one.data if total is None else total + one.data
            grads = [p.grad.copy() for p in params]
            summed = grads if summed is None else [s + g for s, g in zip(summed, grads)]
        assert np.array_equal(loss.data, total * scale)
        for p, got, want in zip(params, batched, summed):
            assert np.array_equal(got, want), p.name
        assert any(g.any() for g in batched)

    @pytest.mark.parametrize("tag", NN_TAGS)
    def test_predictions(self, tag, rng):
        model = build(tag, toy_config(dropout_rate=0.5))
        examples = ragged_examples(rng)
        x, lengths, _, y_cpm = padded_batch(examples)
        out = model.forward(x, cpm=y_cpm, lengths=lengths)
        for k, ex in enumerate(examples):
            alone = model.forward(Tensor(ex.x), cpm=ex.y_cpm)
            assert set(alone) == set(out)
            for head, t in alone.items():
                assert np.array_equal(out[head].data[k:k + 1], t.data), (ex.id, head)
        # minibatch_size 4 scores the ten examples in three passes
        emotions, components = predict_examples(model, examples, "multi-label")
        alone = [predict_examples(model, [ex], "multi-label") for ex in examples]
        if model.has_emo:
            assert emotions == [labels for (labels,), _ in alone]
        if components is not None:
            assert components == [flags for _, (flags,) in alone]


class TestDropout:
    """``_example_order_masks`` builds a pass's masks; ``forward`` applies
    them exactly when it is given a generator."""

    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
    def test_masks_are_a_per_example_loop_byte_for_byte(self, rate, rng):
        layers = [_Trunk(4, 3, 2, (2, 3), rng, "t"), Dense(4, 5, rng, "fc")]
        lengths = [3, 1, 6, 2]
        gen = np.random.default_rng(11)
        masks = _example_order_masks(gen, lengths, layers, rate)
        # the reference: one pass per example draws the BiLSTM's per-token
        # site (6 wide), the pooled vector (4) and the Dense output (5)
        want = [np.zeros((4, 6, 6)), np.zeros((4, 4)), np.zeros((4, 5))]
        draw = np.random.default_rng(11)
        for k, n in enumerate(lengths):
            for array in want:
                row = array[k, :n] if array.ndim == 3 else array[k]
                row[...] = (draw.random(row.shape) >= rate) / (1.0 - rate)
        assert gen.bit_generator.state == draw.bit_generator.state
        assert [m.shape for m in masks] == [w.shape for w in want]
        for got, ref in zip(masks, want):
            assert got.tobytes() == ref.tobytes()
            assert set(np.unique(got)) <= {0.0, 1.0 / (1.0 - rate)}
        for k, n in enumerate(lengths):
            assert not masks[0][k, n:].any()

    def test_inverted_scaling_mean(self):
        masks = _example_order_masks(np.random.default_rng(1), [1] * 200,
                                     [Dense(3, 200, np.random.default_rng(0), "fc")], 0.4)
        kept = masks[0] != 0.0
        np.testing.assert_allclose(masks[0][kept], 1.0 / 0.6)
        assert abs(masks[0].mean() - 1.0) < 0.02

    @pytest.mark.parametrize("tag", NN_TAGS)
    def test_rate_zero_and_inference_identity(self, tag, rng, monkeypatch):
        # without a generator, or at rate 0, each dropout returns its input
        # and a generator given is left as it was
        x, lengths, _, y_cpm = padded_batch(ragged_examples(rng))
        for rate, gen in ((0.5, None), (0.0, np.random.default_rng(5))):
            model = build(tag, toy_config(dropout_rate=rate))
            inner, returned_its_input = model._forward, []

            def spy(x, lengths, drop, cpm, inner=inner, seen=returned_its_input):
                def traced(t):
                    out = drop(t)
                    seen.append(out is t)
                    return out
                return inner(x, lengths, traced, cpm)

            monkeypatch.setattr(model, "_forward", spy)
            state = gen and gen.bit_generator.state
            model.forward(x, rng=gen, cpm=y_cpm, lengths=lengths)
            assert len(returned_its_input) == len(model._dropped) + sum(
                isinstance(getattr(model, name), _Trunk) for name in model._dropped)
            assert all(returned_its_input), rate
            assert (gen and gen.bit_generator.state) == state

    def test_training_is_keyword_only(self, rng):
        model = build("emo-nn-base", toy_config(dropout_rate=0.5))
        with pytest.raises(TypeError):
            model.forward(Tensor(toy_examples(1, rng)[0].x), True, np.random.default_rng(0))

    def test_a_mask_of_the_wrong_shape_is_a_dimension_error(self, rng, monkeypatch):
        model = build("emo-nn-base", toy_config(dropout_rate=0.5))
        monkeypatch.setattr(model, "_dropped", ("fc_emo", "trunk"))
        with pytest.raises(DimensionError):
            model.forward(Tensor(toy_examples(1, rng)[0].x), rng=np.random.default_rng(0))


def graph_nodes(root):
    """Every node of ``root``'s recorded graph, ``root`` included."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def backward_keeping_tape(root):
    """The backward sweep as it was before it freed the graph: the
    reference for the one that detaches each node it reaches."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node._accumulate(g)
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None:
                continue
            if id(parent) in grads:
                grads[id(parent)] += pg
            else:
                grads[id(parent)] = pg


class TestTapeIsFreed:
    def test_backward_detaches_every_node_and_keeps_the_gradients(self, rng):
        model = build("mtl-xs", toy_config(dropout_rate=0.5, per_channel_stitch=True))
        params = model.params()
        x, lengths, y_emo, y_cpm = padded_batch(ragged_examples(rng))

        def minibatch_loss():
            for p in params:
                p.zero_grad()
            out = model.forward(x, rng=np.random.default_rng(3), lengths=lengths)
            return model.loss(out, y_emo, y_cpm)

        kept = minibatch_loss()
        backward_keeping_tape(kept)
        want = [p.grad.copy() for p in params]
        loss = minibatch_loss()
        nodes = graph_nodes(loss)
        inner = [n for n in nodes if n._parents]
        assert len(inner) > 20 and all(n._backward is not None for n in inner)
        loss.backward()
        assert all(n._parents == () and n._backward is None for n in nodes)
        for p, w in zip(params, want):
            assert np.array_equal(p.grad, w), p.name
        assert kept._parents   # the reference kept its tape


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

    def test_identity_stitch_per_channel(self):
        xs = build("mtl-xs", toy_config(per_channel_stitch=True))
        xs.set_identity_stitch()
        np.testing.assert_array_equal(xs.alpha.data, np.repeat(np.eye(2)[:, :, None], xs.width, 2))

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
        (labels,), _ = predict_examples(model, [ex], "single-label")
        assert len(labels) == 1 and labels <= set(LABELS)

    def test_predict_multi_label_neutral_fallback(self, rng):
        labels = ("joy", "neutral")
        model = build_model("emo-nn-base", toy_config(), 4, labels)
        # force near-zero probabilities for every class
        model.out_emo.b.data[...] = -50.0
        ex = toy_examples(1, rng)[0]
        (got,), _ = predict_examples(model, [Example(ex.id, ex.x, np.zeros(2), ex.y_cpm)],
                                     "multi-label")
        assert got == {"neutral"}

    def test_gold_never_takes_the_neutral_rule(self, rng):
        # an instance with no gold emotion stays empty in gold, so the
        # prediction's neutral fallback counts as a false positive
        labels = ("joy", "neutral")
        model = build_model("emo-nn-base", toy_config(), 4, labels)
        model.out_emo.b.data[...] = -50.0
        ex = toy_examples(1, rng)[0]
        report = evaluate_examples(model, [Example(ex.id, ex.x, np.zeros(2), ex.y_cpm)],
                                   "multi-label")
        neutral = report.per_class["neutral"]
        assert (neutral.tp, neutral.fp, neutral.fn, neutral.support) == (0, 1, 0, 0)


class TestCheckpoints:
    @pytest.mark.parametrize("tag", ["emo-nn-base", "cpm-nn-base",
                                     "emo-cpm-nn-gold", "emo-cpm-nn-pred",
                                     "mtl-mh", "mtl-xs"])
    def test_round_trip_exact(self, tag, tmp_path, rng):
        model = build(tag)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        again = load_model(path, {})
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
            load_model(path, {})

    def test_non_finite_parameter_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        model = build("emo-nn-base")
        model.out_emo.b.data[0] = np.inf
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="non-finite.*emo.out.b"):
            load_model(path, {})

    @pytest.mark.parametrize("tag", NN_TAGS)
    def test_streamed_file_is_the_json_payload(self, tag, tmp_path):
        model = build(tag, toy_config(per_channel_stitch=True))
        # the payload as one dict, in the v1 key order
        payload = {"version": 1, "tag": model.tag, "input_dim": model.input_dim,
                   "config": dataclasses.asdict(model.config),
                   "emo_labels": list(model.emo_labels), "components": 5,
                   "params": {p.name: p.data.tolist() for p in model.params()}}
        if tag == "emo-cpm-nn-pred":
            payload["frozen_cpm_config"] = dataclasses.asdict(model.frozen_cpm.config)
        save_checkpoint(model, tmp_path / "ckpt.json")
        assert (tmp_path / "ckpt.json").read_bytes() == json.dumps(payload).encode("utf-8")

    def test_save_holds_one_parameter_at_a_time(self, tmp_path):
        # mtl-xs at its REMAN-style sizes: 141k parameters, whose JSON text
        # is about 7 times that of the largest one
        model = build_model("mtl-xs", default_config("mtl-xs", "reman"), 64, LABELS)
        largest = max(len(json.dumps(p.data.tolist())) for p in model.params())
        tracemalloc.start()
        try:
            save_checkpoint(model, tmp_path / "ckpt.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * largest, (peak, largest)

    @pytest.mark.parametrize("tag", NN_TAGS)
    def test_reader_matches_json_loads(self, tag, tmp_path, data_dir):
        corpus = data_dir / "overfit_tec.jsonl"
        labels = load_corpus(corpus).emotion_inventory
        frozen = SingleTaskModel(toy_config(seed=9), 8, "cpm") if tag == "emo-cpm-nn-pred" else None
        save_checkpoint(build_model(tag, toy_config(per_channel_stitch=True), 8, labels,
                                    frozen_cpm=frozen), tmp_path / "original.json")
        text = (tmp_path / "original.json").read_text()
        layouts = {"original": text, **redumped(text)}
        for name, layout in layouts.items():
            expected, got = json.loads(layout), read_model_text(layout)
            assert list(got) == list(expected)
            assert ({k: v for k, v in got.items() if k != "params"}
                    == {k: v for k, v in expected.items() if k != "params"})
            assert list(got["params"]) == list(expected["params"])
            for param, value in expected["params"].items():
                assert got["params"][param].dtype == np.float64
                assert np.array_equal(got["params"][param], value), (name, param)
            (tmp_path / f"{name}.json").write_text(layout)
            assert main(["predict", "--model-path", str(tmp_path / f"{name}.json"),
                         "--corpus", str(corpus), "--fallback-dim", "8",
                         "--out", str(tmp_path / name)]) == 0
        predictions = {(tmp_path / name / "predictions.tsv").read_bytes() for name in layouts}
        assert len(predictions) == 1

    def test_read_holds_one_parameter_list_at_a_time(self, tmp_path):
        # mtl-xs at its REMAN-style sizes; json.loads holds a Python float,
        # ~4 times an array entry, for every stored number at once
        model = build_model("mtl-xs", default_config("mtl-xs", "reman"), 64, LABELS)
        save_checkpoint(model, tmp_path / "ckpt.json")
        text = (tmp_path / "ckpt.json").read_text()
        peaks = []
        for read in (json.loads, read_model_text):
            tracemalloc.start()
            try:
                read(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] / 2, peaks

    @pytest.mark.parametrize("value", ["true", "false", '"0.5"', '[true]'])
    def test_parameter_of_other_words_rejected(self, value, tmp_path):
        save_checkpoint(build("emo-nn-base"), tmp_path / "ckpt.json")
        text = (tmp_path / "ckpt.json").read_text()
        bad = text.replace('"emo.out.b": [', f'"emo.out.b": [{value}, ', 1)
        with pytest.raises(DataError, match="numbers.*emo.out.b"):
            load_checkpoint(read_model_text(bad))
        # a later duplicate wins, and malformed text is a JSON error first
        fixed = bad.replace(f"[{value}, ", f"[{value}], \"emo.out.b\": [", 1)
        assert np.array_equal(read_model_text(fixed)["params"]["emo.out.b"],
                              json.loads(text)["params"]["emo.out.b"])
        assert read_model_text(bad[:-1] + ', "params": []}')["params"] == []
        with pytest.raises(json.JSONDecodeError):
            read_model_text(bad[:-1])

    @pytest.mark.parametrize("where,key", [("config", "fc_neurons_emo"), ("config", "cnn_filters"),
                                           ("config", "kernel_sizes"), ("payload", "input_dim")])
    def test_shapes_checked_before_the_model_is_built(self, where, key, tmp_path):
        model = build("mtl-xs", toy_config(per_channel_stitch=True))
        save_checkpoint(model, tmp_path / "ckpt.json")
        payload = json.loads((tmp_path / "ckpt.json").read_text())
        huge = [10**9] if key == "kernel_sizes" else 10**9
        (payload["config"] if where == "config" else payload)[key] = huge
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="do not match the stored config"):
                load_checkpoint(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize("tag", NN_TAGS)
    def test_parameter_layout(self, tag):
        # the checkpoint's names and shapes, and the rng draw order, on any
        # BLAS (the golden digests run only on some)
        def dense(name, d_in, d_out):
            return [(f"{name}.W", (d_in, d_out)), (f"{name}.b", (d_out,))]

        def trunk(name, units, filters):
            bilstm = [(f"{name}.bilstm.{d}.{p}", shape) for d in ("fwd", "bwd") for p, shape in
                      (("W", (4, 4 * units)), ("U", (units, 4 * units)), ("b", (4 * units,)))]
            return bilstm + [(f"{name}.cnn.k{k}.{p}", shape) for k in (2, 3) for p, shape in
                             (("kernel", (k, 2 * units, filters)), ("bias", (filters,)))]

        emo_head = dense("emo.fc", 4, 4) + dense("emo.out", 4, 3)
        cpm_net = trunk("cpm", 2, 1) + dense("cpm.fc", 2, 5) + dense("cpm.out", 5, 5)
        injected = (trunk("emo", 3, 2) + dense("emo.fc", 4, 4) + dense("cpmin.fc", 5, 5)
                    + dense("comb.fc", 9, 6) + dense("emo.out", 6, 3))
        want = {
            "emo-nn-base": trunk("emo", 3, 2) + emo_head,
            "cpm-nn-base": cpm_net,
            "emo-cpm-nn-gold": injected,
            "emo-cpm-nn-pred": injected + cpm_net,
            "mtl-mh": trunk("emo", 3, 2) + emo_head + dense("cpm.fc", 4, 5) + dense("cpm.out", 5, 5),
            "mtl-xs": (trunk("emo", 3, 2) + trunk("cpm", 2, 1) + dense("stitch.proj_emo", 4, 4)
                       + dense("stitch.proj_cpm", 2, 4) + [("stitch.alpha", (2, 2))] + emo_head
                       + dense("cpm.fc", 4, 5) + dense("cpm.out", 5, 5)),
        }[tag]
        cfg = toy_config(bilstm_units=(3, 2), cnn_filters=(2, 1), fc_neurons_cpm=5,
                         fc_neurons_combined=6)
        model = build(tag, cfg, SingleTaskModel(cfg, 4, "cpm"))
        assert [(p.name, p.data.shape) for p in model.params()] == want

    def test_shapes_only_allocates_nothing(self):
        with shapes_only():
            model = build_model("mtl-xs", toy_config(fc_neurons_emo=10**9, cnn_filters=10**8,
                                                     per_channel_stitch=True), 10**9, LABELS)
        shapes = {p.name: p.data.shape for p in model.params()}
        assert shapes["emo.fc.W"] == (2 * 10**8, 10**9)
        assert shapes["stitch.alpha"] == (2, 2, 2 * 10**8)
        assert all(p.grad is None and not p.data.flags.writeable for p in model.params())
        assert build("mtl-xs").fc_emo.W.grad is not None

    def test_mismatched_state_rejected(self):
        a = build("emo-nn-base")
        b = build("cpm-nn-base")
        with pytest.raises(DataError):
            a.load_state(b.state_dict())

    @pytest.mark.parametrize("tag", NN_TAGS)
    def test_loaded_model_trains(self, tag, tmp_path, rng):
        save_checkpoint(build(tag, toy_config(per_channel_stitch=True, epochs=1)),
                        tmp_path / "ckpt.json")
        model = load_model(tmp_path / "ckpt.json", {})
        for p in model.params():
            assert p.data.flags.writeable and p.data.flags.owndata
            assert p.grad.shape == p.data.shape and not p.grad.any()
        before = model.state_dict()
        train_model(model, toy_examples(4, rng), "single-label")
        moved = {n for n, a in model.state_dict().items() if not np.array_equal(a, before[n])}
        assert moved == {p.name for p in model.params() if not p.frozen}

    def test_load_holds_one_copy_of_the_parameters(self, tmp_path):
        # mtl-xs at its REMAN-style sizes: the parameters and their gradient
        # buffers, and no second model built only to be overwritten
        model = build_model("mtl-xs", default_config("mtl-xs", "reman"), 64, LABELS)
        save_checkpoint(model, tmp_path / "ckpt.json")
        payload = json.loads((tmp_path / "ckpt.json").read_text())
        size = sum(p.data.nbytes for p in model.params())
        tracemalloc.start()
        try:
            load_checkpoint(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * size, (peak, size)

    @pytest.mark.parametrize("edit", ["drop_name", "extra_name", "text", "ragged", "shape",
                                      "nan", "inf"])
    def test_bad_state_sets_nothing(self, edit):
        model = build("mtl-xs")
        before = model.state_dict()
        state = {n: a + 1.0 for n, a in before.items()}
        last = model.params()[-1].name
        if edit == "drop_name":
            del state[last]
        elif edit == "extra_name":
            state["mystery"] = np.zeros(1)
        elif edit == "text":
            state[last] = "x"
        elif edit == "ragged":
            state[last] = [[1.0], [1.0, 2.0]]
        elif edit == "shape":
            state[last] = state[last][1:]
        else:
            state[last].flat[0] = float(edit)
        with pytest.raises(DataError):
            model.load_state(state)
        for name, a in model.state_dict().items():
            np.testing.assert_array_equal(a, before[name])
