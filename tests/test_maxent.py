import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from emocomp.autodiff import Parameter, Tensor
from emocomp.corpus import REMAN_EMOTIONS
from emocomp.errors import ConfigError, DataError, DimensionError, ResourceError
from emocomp.features import (DictionaryLexicon, EmbeddingTable, load_tagged_sidecar,
                              load_vector_sidecar, tfidf_fit, tfidf_transform)
from emocomp.maxent import (BINARY, FEATURE_FLAGS, MULTINOMIAL, AdvResources,
                            available_flags, best_combination, MaxEntConfig,
                            MaxEntModel, build_cpm_adv_features, combination_columns, combination_width,
                            feature_combination_search, permits,
                            predict_maxent, split_labels,
                            stack_component_features, stack_labels,
                            train_maxent)
from emocomp.losses import weighted_bce
from emocomp.metrics import evaluate, label_sets
from emocomp.optim import Adam

FAST = MaxEntConfig(iterations=150, learning_rate=0.1)


def units(*cols, dim=4):
    """One one-hot row per entry of ``cols``."""
    return np.eye(dim)[list(cols)]


class TestTraining:
    def test_binary_separable(self):
        model = train_maxent(units(0, 0, 1, 1), [1, 1, 0, 0], ("pos",), BINARY, 4, FAST)
        assert label_sets(predict_maxent(model, units(0, 1))[0], model.classes) == [{"pos"}, set()]

    def test_multinomial_separable(self):
        X = units(0, 1, 2, 0, 1, 2, 0, 1, 2)
        y = np.eye(3)[[0, 1, 2] * 3]
        model = train_maxent(X, y, ("a", "b", "c"), MULTINOMIAL, 4, FAST)
        decisions, _ = predict_maxent(model, units(0, 1, 2))
        assert label_sets(decisions, model.classes) == [{"a"}, {"b"}, {"c"}]

    def test_deterministic_zero_init(self):
        m1 = train_maxent(units(0, 1), [1, 0], ("p",), BINARY, 4, FAST)
        m2 = train_maxent(units(0, 1), [1, 0], ("p",), BINARY, 4, FAST)
        np.testing.assert_array_equal(m1.weights, m2.weights)

    def test_single_class_degenerate_with_warning(self):
        with pytest.warns(UserWarning, match="single class"):
            model = train_maxent(units(0, 0, 0), [1, 1, 1], ("p",), BINARY, 4, FAST)
        assert model.constant == {"p": True}
        assert not model.weights.any()
        assert predict_maxent(model, units(2))[0].tolist() == [[True]]
        with pytest.warns(UserWarning):
            negative = train_maxent(units(0, 0, 0), [0, 0, 0], ("p",), BINARY, 4, FAST)
        assert predict_maxent(negative, units(2))[0].tolist() == [[False]]
        with pytest.warns(UserWarning):
            multi = train_maxent(units(0, 1), np.eye(2)[[1, 1]], ("a", "b"), MULTINOMIAL, 4, FAST)
        assert label_sets(predict_maxent(multi, units(0))[0], multi.classes) == [{"b"}]

    def test_single_class_column_of_joint_fit(self):
        # a constant column stays a zero-weight constant predictor while the
        # other columns fit exactly as alone
        X = units(0, 0, 1, 1)
        with pytest.warns(UserWarning, match="always"):
            joint = train_maxent(X, np.array([[1, 1], [1, 1], [0, 1], [0, 1]]),
                                 ("p", "always"), BINARY, 4, FAST)
        alone = train_maxent(X, [1, 1, 0, 0], ("p",), BINARY, 4, FAST)
        assert joint.constant == {"always": True}
        assert not joint.weights[:, 1].any()
        np.testing.assert_allclose(joint.weights[:, :1], alone.weights, rtol=0, atol=1e-12)
        assert predict_maxent(joint, units(1))[0].tolist() == [[False, True]]

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            train_maxent(np.zeros((0, 4)), [], ("p",), BINARY, 4, FAST)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            train_maxent(units(0), [1, 0], ("p",), BINARY, 4, FAST)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            train_maxent(units(0), [1], ("p",), "ordinal", 4, FAST)

    def test_design_matrix_width_checked(self):
        with pytest.raises(DimensionError):
            train_maxent(units(0, 1), [1, 0], ("p",), BINARY, 3, FAST)
        model = train_maxent(units(0, 1), [1, 0], ("p",), BINARY, 4, FAST)
        with pytest.raises(DimensionError):
            predict_maxent(model, np.zeros((1, 5)))

    def test_target_columns_must_match_classes(self):
        with pytest.raises(DimensionError):
            train_maxent(units(0, 1), np.eye(2), ("p",), BINARY, 4, FAST)

    @pytest.mark.parametrize("row", [[0, 0], [1, 1], [0.5, 0.5]], ids=["no 1", "two 1s", "halves"])
    def test_multinomial_target_needs_one_1_per_row(self, row):
        with pytest.raises(DataError, match="exactly one 1 per row"):
            train_maxent(units(0, 1), np.array([[1, 0], row]), ("a", "b"), MULTINOMIAL, 4, FAST)


def _exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return Tensor(out, _parents=(a,), _backward=lambda g: (g * out,))


def _log(a: Tensor) -> Tensor:
    return Tensor(np.log(a.data), _parents=(a,), _backward=lambda g: (g / a.data,))


def taped_fit(X, Y, mode, config):
    """The maxent objective built on the autodiff tape, as training once did:
    binary mean BCE over all N x K entries times K, or the multinomial NLL
    through a shifted log-sum-exp, plus l2 * ||W||^2; Adam on the
    backward sweep's gradients."""
    n, k = Y.shape
    Xd, Yt = Tensor(X), Tensor(Y)
    W = Parameter(np.zeros((X.shape[1], k)), "maxent.W")
    b = Parameter(np.zeros(k), "maxent.b")

    def loss_fn():
        z = Xd.matmul(W) + b
        if mode == MULTINOMIAL:
            m = z.data.max(axis=1, keepdims=True)
            lse = _log(_exp(z + Tensor(-m)).matmul(Tensor(np.ones((k, 1))))) + Tensor(m)
            data = (lse.sum() + (z * Yt).sum() * -1.0) * (1.0 / n)
        else:
            data = weighted_bce(z.sigmoid(), Yt, 1.0) * k
        return data + config.l2 * (W * W).sum()

    opt = Adam([W, b], lr=config.learning_rate)
    for _ in range(config.iterations):
        loss_fn().backward()
        opt.step()
    return W.data, b.data


class TestClosedFormGradient:
    CONFIG = MaxEntConfig(iterations=200, learning_rate=0.05, l2=1e-2)

    def test_binary_matches_taped_fit(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 12))
        Y = (rng.standard_normal((40, 3)) + X[:, :3] > 0).astype(float)
        Y[:, 1] = 1.0   # a single-class column: constant, left out of the fit
        with pytest.warns(UserWarning, match="single class"):
            model = train_maxent(X, Y, ("a", "b", "c"), BINARY, 12, self.CONFIG)
        W, b = taped_fit(X, Y[:, [0, 2]], BINARY, self.CONFIG)
        np.testing.assert_allclose(model.weights[:, [0, 2]], W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.bias[[0, 2]], b, rtol=0, atol=1e-12)
        assert not model.weights[:, 1].any() and model.bias[1] == 0.0

    def test_multinomial_matches_taped_fit(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 12))
        idx = np.argmax(X[:, :3] + rng.standard_normal((40, 3)), axis=1)
        model = train_maxent(X, np.eye(3)[idx], ("a", "b", "c"), MULTINOMIAL, 12, self.CONFIG)
        W, b = taped_fit(X, np.eye(3)[idx], MULTINOMIAL, self.CONFIG)
        np.testing.assert_allclose(model.weights, W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.bias, b, rtol=0, atol=1e-12)


def full_width_fit(X, Y, mode, config, mask=None):
    """The closed-form fit with one weight row per design column, as it was
    before equal columns were fit once."""
    n, k = Y.shape
    W = Parameter(np.zeros((X.shape[1], k)), "maxent.W")
    b = Parameter(np.zeros(k), "maxent.b")
    opt = Adam([W, b], lr=config.learning_rate)
    for _ in range(config.iterations):
        z = X @ W.data + b.data
        if mode == MULTINOMIAL:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            P = e / e.sum(axis=1, keepdims=True)
        else:
            P = 1.0 / (1.0 + np.exp(-z))
        G = (P - Y) / n
        W.grad[...] = 2.0 * config.l2 * W.data + (G.T @ X).T
        if mask is not None:
            W.grad[...] *= mask
        b.grad[...] = G.sum(axis=0)
        opt.step()
    return W.data, b.data


class TestDistinctColumns:
    """Equal design columns (with equal mask rows) are fit as one."""
    CONFIG = MaxEntConfig(iterations=150, learning_rate=0.1, l2=1e-2)

    def design(self, seed=5, n=30):
        """Six sparse random columns, each repeated up to three times, two
        all-zero columns, and a constant column and its copy, shuffled."""
        rng = np.random.default_rng(seed)
        base = rng.random((n, 6)) * (rng.random((n, 6)) < 0.5)
        cols = [0, 0, 1, 2, 2, 2, 3, 4, 5, 5]
        X = np.hstack([base[:, cols], np.zeros((n, 2)), np.full((n, 2), 0.7)])
        X = X[:, rng.permutation(X.shape[1])]
        score = base @ rng.standard_normal((6, 3)) + 0.3 * rng.standard_normal((n, 3))
        return X, score

    def fit_both(self, X, Y, mode, mask=None):
        classes = tuple("abcdef"[:Y.shape[1]])
        model = train_maxent(X, Y, classes, mode, X.shape[1], self.CONFIG, mask)
        W, b = full_width_fit(X, Y, mode, self.CONFIG, mask)
        np.testing.assert_allclose(model.weights, W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.bias, b, rtol=0, atol=1e-12)
        return model

    def assert_groups_bitwise_equal(self, X, weights, mask=None):
        for i, j in combinations(range(X.shape[1]), 2):
            if (X[:, i] == X[:, j]).all() and (mask is None or (mask[i] == mask[j]).all()):
                np.testing.assert_array_equal(weights[i], weights[j])

    def test_binary_with_duplicate_zero_and_constant_columns(self):
        X, score = self.design()
        Y = (score > np.median(score, axis=0)).astype(float)
        model = self.fit_both(X, Y, BINARY)
        self.assert_groups_bitwise_equal(X, model.weights)
        assert model.weights.any(axis=1).sum() == X.shape[1] - 2   # the zero columns stay 0

    def test_multinomial_with_duplicate_zero_and_constant_columns(self):
        X, score = self.design(seed=6)
        idx = np.argmax(score, axis=1)
        model = self.fit_both(X, np.eye(3)[idx], MULTINOMIAL)
        self.assert_groups_bitwise_equal(X, model.weights)

    def test_mask_splits_equal_columns(self):
        # columns 0 and 1 are equal but masked to different classes; 2 and 3
        # are equal under equal mask rows
        rng = np.random.default_rng(7)
        base = rng.random((30, 3))
        X = base[:, [0, 0, 1, 1, 2]]
        Y = (base[:, :2] + 0.2 * rng.standard_normal((30, 2)) > 0.5).astype(float)
        mask = np.array([[True, False], [False, True], [True, True], [True, True],
                         [False, True]])
        model = self.fit_both(X, Y, BINARY, mask=mask)
        assert not model.weights[~mask].any()
        assert model.weights[0, 0] != 0 and model.weights[1, 1] != 0
        self.assert_groups_bitwise_equal(X, model.weights, mask)

    def test_no_columns(self):
        X, score = self.design()
        Y = (score > np.median(score, axis=0)).astype(float)
        model = self.fit_both(X[:, :0], Y, BINARY)
        assert model.weights.shape == (0, 3)
        assert model.bias.any()


class TestPrediction:
    def test_hand_set_weights_probability(self):
        # w.x = ln 3 -> sigmoid = 0.75
        model = MaxEntModel(("p",), BINARY, np.array([[math.log(3.0)]]),
                            np.zeros(1), 1)
        decisions, probs = predict_maxent(model, np.array([[1.0]]))
        assert abs(probs[0, 0] - 0.75) < 1e-12
        assert decisions.tolist() == [[True]]

    def test_multinomial_scores_sum_to_one(self):
        model = MaxEntModel(("a", "b"), MULTINOMIAL,
                            np.array([[1.0, -1.0]]), np.zeros(2), 1)
        _, probs = predict_maxent(model, np.array([[2.0], [-0.5]]))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_batch_equals_row_by_row(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 4))
        for mode, y in ((BINARY, np.array([[1, 0], [0, 1], [1, 1], [0, 0], [1, 0], [0, 1]])),
                        (MULTINOMIAL, np.eye(2)[[0, 1, 0, 1, 0, 1]])):
            model = train_maxent(X, y, ("a", "b"), mode, 4, FAST)
            decisions, probs = predict_maxent(model, X)
            for row in range(len(X)):
                d, p = predict_maxent(model, X[row:row + 1])
                np.testing.assert_array_equal(d[0], decisions[row])
                np.testing.assert_allclose(p[0], probs[row], rtol=0, atol=1e-15)


class TestOneVsRest:
    def test_reman_instantiates_ten_models(self):
        X = units(*[i % 3 for i in range(12)])
        Y = np.eye(10)[[i % 10 for i in range(12)]]
        model = train_maxent(X, Y, REMAN_EMOTIONS, BINARY, 4, FAST)
        assert model.weights.shape == (4, 10)
        parts = split_labels(model)
        assert set(parts) == set(REMAN_EMOTIONS)
        again = stack_labels([parts[label] for label in REMAN_EMOTIONS])
        np.testing.assert_array_equal(again.weights, model.weights)
        assert again.classes == model.classes and again.constant == model.constant

    def test_empty_prediction_allowed(self):
        X = units(0, 1, 0, 1, 0, 1)
        Y = np.array([[1, 0], [0, 1]] * 3)
        model = train_maxent(X, Y, ("a", "b"), BINARY, 4, FAST)
        labels = label_sets(predict_maxent(model, units(3))[0], model.classes)
        assert isinstance(labels[0], set)

    def test_complementary_two_label_matches_binary(self):
        X = units(0, 0, 1, 1, 0, 1)
        Y = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [1, 0], [0, 1]])
        joint = train_maxent(X, Y, ("pos", "neg"), BINARY, 4, FAST)
        binary = train_maxent(X, Y[:, 0], ("pos",), BINARY, 4, FAST)
        _, scores = predict_maxent(joint, units(0, 1))
        want_pos = predict_maxent(binary, units(0, 1))[0][:, 0]
        np.testing.assert_array_equal(scores[:, 0] > scores[:, 1], want_pos)

    def test_joint_fit_equals_per_label_fits(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 5))
        Y = (rng.standard_normal((30, 3)) + X[:, :3] > 0).astype(float)
        joint = train_maxent(X, Y, ("a", "b", "c"), BINARY, 5, FAST)
        for j, label in enumerate("abc"):
            alone = train_maxent(X, Y[:, j], (label,), BINARY, 5, FAST)
            np.testing.assert_allclose(joint.weights[:, [j]], alone.weights, rtol=0, atol=1e-12)
            np.testing.assert_allclose(joint.bias[j], alone.bias[0], rtol=0, atol=1e-12)


class TestStacking:
    def test_appends_five_dimensions(self):
        base = np.zeros((2, 10))
        base[0, 1] = 0.5
        out = stack_component_features(base, [(1, 0, 1, 0, 0), (0, 0, 0, 0, 1)])
        assert out.shape == (2, 15)
        assert np.flatnonzero(out[0]).tolist() == [1, 10, 12]
        assert np.flatnonzero(out[1]).tolist() == [14]

    def test_rejects_bad_vector(self):
        with pytest.raises(DimensionError):
            stack_component_features(np.zeros((1, 10)), [(1, 0)])
        with pytest.raises(DimensionError):
            stack_component_features(np.zeros((1, 10)), [(2, 0, 0, 0, 0)])


class TestSidecars:
    def test_tagged_sidecar(self, tmp_path):
        f = tmp_path / "pos.tsv"
        f.write_text("id1\tNN VB\nid2\tJJ\n")
        assert load_tagged_sidecar(f) == {"id1": ["NN", "VB"], "id2": ["JJ"]}

    def test_vector_sidecar_fixed_dim(self, tmp_path):
        f = tmp_path / "ap.tsv"
        f.write_text("id1\t0.1 0.9\nid2\t0.4\n")
        with pytest.raises(DataError):
            load_vector_sidecar(f)

    def test_vector_sidecar_non_finite_reports_line(self, tmp_path):
        f = tmp_path / "ap.tsv"
        f.write_text("id1\t0.1 0.9\nid2\tnan 0.4\n")
        with pytest.raises(DataError, match=r"ap\.tsv:2: non-finite"):
            load_vector_sidecar(f)

    @pytest.mark.parametrize("text", ["id1\t\nid2\t\n", "id1\t  \n"])
    def test_vector_sidecar_entry_without_values_reports_line(self, text, tmp_path):
        f = tmp_path / "ap.tsv"
        f.write_text(text)
        with pytest.raises(DataError, match=r"ap\.tsv:1: entry has no values"):
            load_vector_sidecar(f)

    @pytest.mark.parametrize("load,text", [
        (load_tagged_sidecar, "id1\tNN\nid2\tJJ\n\nid1\tVB\n"),
        (load_vector_sidecar, "id1\t0.1\nid2\t0.2\n\nid1\t0.3\n"),
    ], ids=["tagged", "vector"])
    def test_sidecar_duplicate_id_reports_line(self, load, text, tmp_path):
        f = tmp_path / "side.tsv"
        f.write_text(text)
        with pytest.raises(DataError, match=r"side\.tsv:4: id 'id1' repeats"):
            load(f)

    @pytest.mark.parametrize("load", [load_tagged_sidecar, load_vector_sidecar],
                             ids=["tagged", "vector"])
    def test_sidecar_line_without_tab_reports_line(self, load, tmp_path):
        f = tmp_path / "side.tsv"
        f.write_text("id1\t1\nid2 1\n")
        with pytest.raises(DataError, match=r"side\.tsv:2: expected id<TAB>"):
            load(f)


TFIDF = tfidf_fit([["alpha", "beta"], ["gamma"]])


class TestAdvFeatures:
    def test_feature_dim_accounting(self):
        res = AdvResources(
            lexicons=[DictionaryLexicon("c", frozenset({"alpha"}))],
            pos_tags={"i": ["NN"]},
            embeddings=EmbeddingTable(3, {"alpha": np.ones(3)}),
            appraisal={"i": np.array([0.5, 0.5])}).fitted(["i"])
        base = TFIDF.dim
        combo = ("dictionaries", "pos_tags", "word_embeddings", "appraisal_predictions")
        assert combination_width(res, combo) == 2 + 1 + 3 + 2
        X, offsets = build_cpm_adv_features([["alpha"]], ["i"], combo, TFIDF, res)
        assert offsets["tfidf"] == (0, base)
        assert offsets["dictionaries"][0] == base
        assert X.shape == (1, base + combination_width(res, combo))

    def test_fitted_copies_and_leaves_the_original(self):
        res = AdvResources(pos_tags={"i": ["VB", "NN"], "j": ["JJ"]},
                           appraisal={"i": np.zeros(3)})
        fitted = res.fitted(["i"])
        assert (fitted.pos_inventory, fitted.appraisal_dim) == (("NN", "VB"), 3)
        assert (res.pos_inventory, res.appraisal_dim) == ((), 0)

    def test_blocks_follow_offsets(self):
        # each block sits at its offset, and a sub-combination's columns of
        # the full matrix equal the matrix built for it directly
        res = AdvResources(
            lexicons=[DictionaryLexicon("c", frozenset({"alpha"}))],
            pos_tags={"i": ["NN", "NN"], "j": ["VB"]},
            embeddings=EmbeddingTable(2, {"gamma": np.array([3.0, 4.0])})).fitted(["i", "j"])
        docs, ids = [["alpha", "beta"], ["gamma"]], ["i", "j"]
        full = ("dictionaries", "pos_tags", "word_embeddings")
        X, offsets = build_cpm_adv_features(docs, ids, full, TFIDF, res)
        start, length = offsets["pos_tags"]
        np.testing.assert_array_equal(X[:, start:start + length], [[2.0, 0.0], [0.0, 1.0]])
        start, length = offsets["word_embeddings"]
        np.testing.assert_array_equal(X[:, start:start + length], [[0.0, 0.0], [3.0, 4.0]])
        np.testing.assert_array_equal(X[:, :TFIDF.dim], tfidf_transform(TFIDF, docs))
        sub = ("word_embeddings",)
        np.testing.assert_array_equal(X[:, combination_columns(offsets, sub)],
                                      build_cpm_adv_features(docs, ids, sub, TFIDF, res)[0])
        # the empty combination needs no resources
        np.testing.assert_array_equal(build_cpm_adv_features(docs, ids, (), TFIDF, None)[0],
                                      tfidf_transform(TFIDF, docs))

    def test_missing_resource_raises(self):
        with pytest.raises(ResourceError):
            build_cpm_adv_features([["alpha"]], ["i"], ("dictionaries",), TFIDF, AdvResources())

    def test_appraisal_restricted_to_cognitive(self):
        assert permits(("appraisal_predictions",), "cognitive_appraisal")
        assert not permits(("pos_tags", "appraisal_predictions"), "motor_expressions")
        assert permits(("pos_tags",), "motor_expressions")


def search(stemmed, ids, Y, components, res, n_train):
    X, offsets = build_cpm_adv_features(stemmed, ids, available_flags(res),
                                        tfidf_fit(stemmed), res)
    rows = list(range(len(ids)))
    return feature_combination_search(X, offsets, Y, components, rows[:n_train],
                                      rows[n_train:], FAST)


class TestFeatureSearch:
    def test_informative_block_selected(self):
        # flags are a pure function of the POS sidecar; the text is shared
        # filler so the tfidf baseline cannot separate the classes
        ids = [f"i{j}" for j in range(40)]
        y = [j % 2 for j in range(40)]
        stemmed = [["filler", "words", "here"] for _ in ids]
        pos = {i: (["NN"] if label else ["JJ"]) for i, label in zip(ids, y)}
        res = AdvResources(lexicons=[DictionaryLexicon("c", frozenset({"zzz"}))],
                           pos_tags=pos).fitted(ids)
        scores = search(stemmed, ids, y, ("motor_expressions",), res, 30)["motor_expressions"]
        best = best_combination(scores)
        assert "pos_tags" in best
        assert scores[best] == max(scores.values())
        assert scores[best] >= scores[()]

    def test_tie_prefers_fewer_features(self):
        # uninformative resources everywhere: all combinations tie, so the
        # empty combination must win
        ids = [f"i{j}" for j in range(20)]
        y = ([0, 1] * 10)
        stemmed = [["aaa"] if label else ["bbb"] for label in y]
        res = AdvResources(lexicons=[DictionaryLexicon("c", frozenset({"zzz"}))])
        scores = search(stemmed, ids, y, ("motor_expressions",), res, 14)["motor_expressions"]
        assert best_combination(scores) == ()

    def test_best_combination_rule(self):
        # the highest dev F1; ties go to fewer flags, then to the first searched
        scores = {(): 0.5, ("pos_tags",): 0.75, ("dictionaries",): 0.75,
                  ("dictionaries", "pos_tags"): 0.75, ("word_embeddings",): 0.25}
        assert best_combination(scores) == ("pos_tags",)
        assert best_combination({**scores, ("dictionaries", "pos_tags"): 0.8}) == (
            "dictionaries", "pos_tags")

    def test_joint_search_equals_per_component_search(self):
        # appraisal combinations apply to the cognitive component only; every
        # component's results match a search run for it alone
        rng = np.random.default_rng(2)
        ids = [f"i{j}" for j in range(40)]
        Y = rng.integers(0, 2, size=(40, 2))
        stemmed = [["tok%d" % rng.integers(5), "filler"] for _ in ids]
        pos = {i: (["NN"] if Y[j, 1] else ["JJ"]) for j, i in enumerate(ids)}
        appraisal = {i: np.array([float(Y[j, 0]), 0.5]) for j, i in enumerate(ids)}
        res = AdvResources(lexicons=[DictionaryLexicon("c", frozenset({"tok1"}))],
                           pos_tags=pos, appraisal=appraisal).fitted(ids)
        comps = ("cognitive_appraisal", "motor_expressions")
        joint = search(stemmed, ids, Y, comps, res, 30)
        assert len(joint["cognitive_appraisal"]) == 8
        assert len(joint["motor_expressions"]) == 4
        assert ("appraisal_predictions",) not in joint["motor_expressions"]
        for j, comp in enumerate(comps):
            alone = search(stemmed, ids, Y[:, j], (comp,), res, 30)[comp]
            assert alone == joint[comp]
            assert best_combination(alone) == best_combination(joint[comp])


def per_combination_search(X, offsets, Y, components, train_rows, dev_rows, config):
    """The search as it was before the joint fit: one fit per combination,
    over that combination's columns only, for every component it permits;
    each component's score table."""
    Y = np.asarray(Y).reshape(len(Y), -1)
    flags = tuple(f for f in FEATURE_FLAGS if f in offsets)
    results = {c: {} for c in components}
    for r in range(len(flags) + 1):
        for combo in combinations(flags, r):
            applies = [j for j, c in enumerate(components) if permits(combo, c)]
            if not applies:
                continue
            labels = tuple(components[j] for j in applies)
            cols = combination_columns(offsets, combo)
            model = train_maxent(X[np.ix_(train_rows, cols)], Y[np.ix_(train_rows, applies)],
                                 labels, BINARY, len(cols), config)
            pred = predict_maxent(model, X[np.ix_(dev_rows, cols)])[0]
            gold = Y[np.ix_(dev_rows, applies)]
            report = evaluate(dict(enumerate(label_sets(gold, labels))),
                              dict(enumerate(label_sets(pred, labels))), labels)
            for c in labels:
                results[c][combo] = report.per_class[c].f1
    return results


class TestJointSearch:
    CONFIG = MaxEntConfig(iterations=120, learning_rate=0.1, l2=1e-2)
    WIDTHS = {"tfidf": 7, "dictionaries": 4, "pos_tags": 3, "word_embeddings": 5,
              "appraisal_predictions": 2}
    COMPONENTS = ("cognitive_appraisal", "motor_expressions", "subjective_feelings")

    def design(self):
        """A random sparse design of a TF-IDF block and four feature blocks;
        the third component holds a single class."""
        rng = np.random.default_rng(11)
        n, d = 60, sum(self.WIDTHS.values())
        X = rng.random((n, d)) * (rng.random((n, d)) < 0.4)
        offsets, pos = {}, 0
        for name, width in self.WIDTHS.items():
            offsets[name] = (pos, width)
            pos += width
        Y = (X[:, [8, 12, 16]] + 0.3 * rng.standard_normal((n, 3)) > 0.2).astype(float)
        Y[:, 2] = 1.0
        return X, offsets, Y

    def test_equals_per_combination_search(self):
        X, offsets, Y = self.design()
        rows = list(range(len(X)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # the single-class column
            joint = feature_combination_search(X, offsets, Y, self.COMPONENTS, rows[:45],
                                               rows[45:], self.CONFIG)
            alone = per_combination_search(X, offsets, Y, self.COMPONENTS, rows[:45],
                                           rows[45:], self.CONFIG)
        assert len(joint["cognitive_appraisal"]) == 16
        assert len(joint["motor_expressions"]) == 8
        for comp in self.COMPONENTS:
            best = best_combination(joint[comp])
            assert joint[comp] == alone[comp]
            assert best == best_combination(alone[comp])
            assert joint[comp][best] == alone[comp][best]
            assert ({s: f1 for s, f1 in joint[comp].items() if len(s) == 1}
                    == {s: f1 for s, f1 in alone[comp].items() if len(s) == 1})
        assert len(set(joint["cognitive_appraisal"].values())) > 1

    def test_single_class_warned_once(self):
        X, offsets, Y = self.design()
        rows = list(range(len(X)))
        with pytest.warns(UserWarning, match="single class") as record:
            feature_combination_search(X, offsets, Y, self.COMPONENTS, rows[:45], rows[45:],
                                       MaxEntConfig(iterations=2))
        assert len(record) == 1

    def test_masked_columns_equal_their_own_fits(self):
        X, offsets, Y = self.design()
        combos = [c for r in range(len(FEATURE_FLAGS) + 1)
                  for c in combinations(FEATURE_FLAGS, r)]
        mask = np.zeros((X.shape[1], 2 * len(combos)), dtype=bool)
        for k, combo in enumerate(combos):
            mask[np.ix_(combination_columns(offsets, combo), [2 * k, 2 * k + 1])] = True
        names = tuple(f"{c}{k}" for k in range(len(combos)) for c in "ab")
        joint = train_maxent(X, np.tile(Y[:, :2], len(combos)), names, BINARY, X.shape[1],
                             self.CONFIG, mask)
        for k, combo in enumerate(combos):
            cols = combination_columns(offsets, combo)
            own = train_maxent(X[:, cols], Y[:, :2], ("a", "b"), BINARY, len(cols), self.CONFIG)
            fitted = joint.weights[:, [2 * k, 2 * k + 1]]
            np.testing.assert_allclose(fitted[cols], own.weights, rtol=0, atol=1e-12)
            np.testing.assert_allclose(joint.bias[[2 * k, 2 * k + 1]], own.bias, rtol=0,
                                       atol=1e-12)
            assert not fitted[~mask[:, 2 * k]].any()
