import math

import numpy as np
import pytest

from emocomp.corpus import REMAN_EMOTIONS
from emocomp.errors import ConfigError, DataError, DimensionError, ResourceError
from emocomp.features import (DictionaryLexicon, EmbeddingTable, tfidf_fit,
                              tfidf_transform)
from emocomp.maxent import (BINARY, MULTINOMIAL, AdvResources, available_flags,
                            FeatureCombination, MaxEntConfig, MaxEntModel,
                            build_cpm_adv_features, combination_columns,
                            feature_combination_search, feature_dim,
                            label_sets, load_tagged_sidecar,
                            load_vector_sidecar, predict_maxent, split_labels,
                            stack_component_features, stack_labels,
                            train_maxent)

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
        y = ["a", "b", "c"] * 3
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
            multi = train_maxent(units(0, 1), ["b", "b"], ("a", "b"), MULTINOMIAL, 4, FAST)
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
                        (MULTINOMIAL, ["a", "b", "a", "b", "a", "b"])):
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
        out = stack_component_features(base, [(1, 0, 1, 0, 0), (0, 0, 0, 0, 1)], "gold")
        assert out.shape == (2, 15)
        assert np.flatnonzero(out[0]).tolist() == [1, 10, 12]
        assert np.flatnonzero(out[1]).tolist() == [14]

    def test_rejects_bad_vector(self):
        with pytest.raises(DimensionError):
            stack_component_features(np.zeros((1, 10)), [(1, 0)], "gold")
        with pytest.raises(DimensionError):
            stack_component_features(np.zeros((1, 10)), [(2, 0, 0, 0, 0)], "gold")
        with pytest.raises(ConfigError):
            stack_component_features(np.zeros((1, 10)), [(1, 0, 0, 0, 0)], "guessed")


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


def make_resources(**kwargs):
    tfidf = tfidf_fit([["alpha", "beta"], ["gamma"]])
    res = AdvResources(tfidf, **kwargs)
    return res


class TestAdvFeatures:
    def test_feature_dim_accounting(self):
        res = make_resources(
            lexicons=[DictionaryLexicon("c", frozenset({"alpha"}))],
            pos_tags={"i": ["NN"]},
            embeddings=EmbeddingTable(3, {"alpha": np.ones(3)}),
            appraisal={"i": np.array([0.5, 0.5])})
        res.fit_pos_inventory(["i"])
        res.fit_appraisal_dim()
        base = res.tfidf.dim
        combo = FeatureCombination(dictionaries=True, pos_tags=True,
                                   word_embeddings=True, appraisal_predictions=True)
        assert feature_dim(res, combo) == base + 2 + 1 + 3 + 2
        X, offsets = build_cpm_adv_features([["alpha"]], ["i"], combo, res)
        assert offsets["tfidf"] == (0, base)
        assert offsets["dictionaries"][0] == base
        assert X.shape == (1, feature_dim(res, combo))

    def test_blocks_follow_offsets(self):
        # each block sits at its offset, and a sub-combination's columns of
        # the full matrix equal the matrix built for it directly
        res = make_resources(
            lexicons=[DictionaryLexicon("c", frozenset({"alpha"}))],
            pos_tags={"i": ["NN", "NN"], "j": ["VB"]},
            embeddings=EmbeddingTable(2, {"gamma": np.array([3.0, 4.0])}))
        res.fit_pos_inventory(["i", "j"])
        docs, ids = [["alpha", "beta"], ["gamma"]], ["i", "j"]
        full = FeatureCombination(dictionaries=True, pos_tags=True, word_embeddings=True)
        X, offsets = build_cpm_adv_features(docs, ids, full, res)
        start, length = offsets["pos_tags"]
        np.testing.assert_array_equal(X[:, start:start + length], [[2.0, 0.0], [0.0, 1.0]])
        start, length = offsets["word_embeddings"]
        np.testing.assert_array_equal(X[:, start:start + length], [[0.0, 0.0], [3.0, 4.0]])
        np.testing.assert_array_equal(X[:, :res.tfidf.dim], tfidf_transform(res.tfidf, docs))
        sub = FeatureCombination(word_embeddings=True)
        np.testing.assert_array_equal(X[:, combination_columns(offsets, sub)],
                                      build_cpm_adv_features(docs, ids, sub, res)[0])

    def test_missing_resource_raises(self):
        res = make_resources()
        with pytest.raises(ResourceError):
            build_cpm_adv_features([["alpha"]], ["i"],
                                   FeatureCombination(dictionaries=True), res)

    def test_appraisal_restricted_to_cognitive(self):
        combo = FeatureCombination(appraisal_predictions=True)
        assert combo.permits("cognitive_appraisal")
        assert not combo.permits("motor_expressions")
        assert FeatureCombination(pos_tags=True).permits("motor_expressions")


def search(stemmed, ids, Y, components, res, n_train):
    every = FeatureCombination(**{f: True for f in available_flags(res)})
    X, offsets = build_cpm_adv_features(stemmed, ids, every, res)
    rows = list(range(len(ids)))
    return feature_combination_search(X, offsets, Y, components, rows[:n_train],
                                      rows[n_train:], res, FAST)


class TestFeatureSearch:
    def test_informative_block_selected(self):
        # flags are a pure function of the POS sidecar; the text is shared
        # filler so the tfidf baseline cannot separate the classes
        ids = [f"i{j}" for j in range(40)]
        y = [j % 2 for j in range(40)]
        stemmed = [["filler", "words", "here"] for _ in ids]
        pos = {i: (["NN"] if label else ["JJ"]) for i, label in zip(ids, y)}
        tfidf = tfidf_fit(stemmed)
        res = AdvResources(tfidf, lexicons=[DictionaryLexicon("c", frozenset({"zzz"}))],
                           pos_tags=pos)
        res.fit_pos_inventory(ids)
        result = search(stemmed, ids, y, ("motor_expressions",), res, 30)["motor_expressions"]
        assert "pos_tags" in result.best.enabled()
        assert result.best_f1 == max(result.all_results.values())
        assert result.best_f1 >= result.all_results[()]

    def test_tie_prefers_fewer_features(self):
        # uninformative resources everywhere: all combinations tie, so the
        # empty combination must win
        ids = [f"i{j}" for j in range(20)]
        y = ([0, 1] * 10)
        stemmed = [["aaa"] if label else ["bbb"] for label in y]
        tfidf = tfidf_fit(stemmed)
        res = AdvResources(tfidf, lexicons=[DictionaryLexicon("c", frozenset({"zzz"}))])
        result = search(stemmed, ids, y, ("motor_expressions",), res, 14)["motor_expressions"]
        assert result.best.enabled() == ()

    def test_joint_search_equals_per_component_search(self):
        # appraisal combinations apply to the cognitive component only; every
        # component's results match a search run for it alone
        rng = np.random.default_rng(2)
        ids = [f"i{j}" for j in range(40)]
        Y = rng.integers(0, 2, size=(40, 2))
        stemmed = [["tok%d" % rng.integers(5), "filler"] for _ in ids]
        pos = {i: (["NN"] if Y[j, 1] else ["JJ"]) for j, i in enumerate(ids)}
        appraisal = {i: np.array([float(Y[j, 0]), 0.5]) for j, i in enumerate(ids)}
        res = AdvResources(tfidf_fit(stemmed), lexicons=[DictionaryLexicon("c", frozenset({"tok1"}))],
                           pos_tags=pos, appraisal=appraisal)
        res.fit_pos_inventory(ids)
        res.fit_appraisal_dim()
        comps = ("cognitive_appraisal", "motor_expressions")
        joint = search(stemmed, ids, Y, comps, res, 30)
        assert len(joint["cognitive_appraisal"].all_results) == 8
        assert len(joint["motor_expressions"].all_results) == 4
        assert "appraisal_predictions" not in joint["motor_expressions"].single_feature
        for j, comp in enumerate(comps):
            alone = search(stemmed, ids, Y[:, j], (comp,), res, 30)[comp]
            assert alone.all_results == joint[comp].all_results
            assert alone.best == joint[comp].best
