import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emocomp.corpus import COMPONENTS, Corpus, load_corpus, split_train_test
from emocomp.errors import ConfigError, DataError, ResourceError
from emocomp.features import DictionaryLexicon, EmbeddingTable, tfidf_transform
from emocomp.maxent import (BINARY, AdvResources, MaxEntConfig, available_flags,
                            best_combination, build_cpm_adv_features, combination_columns,
                            combination_width, feature_combination_search, predict_maxent,
                            split_labels, train_maxent)
from emocomp import pipeline
from emocomp.pipeline import (ALL_TAGS, ME_TAGS, embeddings_for, evaluate_model,
                              evaluate_neural, load_me_artifact, load_model, preprocess,
                              save_me_artifact, train_component_me,
                              train_emotion_me, train_neural)
from emocomp.nn import ModelConfig, build_model, default_config

FAST = MaxEntConfig(iterations=120, learning_rate=0.1)


@pytest.fixture(scope="module")
def tec(data_dir=None):
    from pathlib import Path
    return load_corpus(Path(__file__).resolve().parent.parent / "data" / "synthetic_tec.jsonl")


def test_readme_library_use(tmp_path, monkeypatch, capsys):
    # each of the README's library examples runs as written on a bundled corpus
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):].split("\n## ")[0]
    blocks = [part.split("```", 1)[0] for part in section.split("```python")[1:]]
    assert len(blocks) == 2
    (tmp_path / "corpus.jsonl").write_bytes((root / "data" / "synthetic_tec.jsonl").read_bytes())
    monkeypatch.chdir(tmp_path)
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("class\tprecision")


def test_tag_inventory():
    assert len(ALL_TAGS) == 11
    assert set(ME_TAGS) < set(ALL_TAGS)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_save_load_round_trip_predicts_the_same(tag, tec, tmp_path):
    settings = {"seed": 0, "epochs": 1, "me_iterations": 20}
    train, test = split_train_test(tec, seed=0)
    embed = pipeline.embedder(tec, settings, {})
    model, _ = pipeline.train_tag(tag, train, settings, {}, embed)
    before = pipeline.predict(model, test, embed)
    pipeline.save_model(model, tmp_path)
    (path,) = tmp_path.iterdir()
    assert path.name == ("model.json" if tag in ME_TAGS else "checkpoint.json")
    again = pipeline.load_model(path, {})
    after = pipeline.predict(again, test, embed)
    assert after == before
    assert any(labels is not None for labels in before)
    # the loaded model saves the same JSON value (1 and 1.0 compare equal)
    (tmp_path / "again").mkdir()
    pipeline.save_model(again, tmp_path / "again")
    assert (json.loads((tmp_path / "again" / path.name).read_text())
            == json.loads(path.read_text()))


class TestLibraryScoresAsCli:
    """A neural model is embedded with its stored seed, so the library's
    report equals ``eval``'s ``metrics.json`` whatever seed the caller's
    settings hold."""

    @staticmethod
    def cli_metrics(checkpoint: Path, corpus: Path, out: Path) -> str:
        from emocomp.cli import main
        assert main(["eval", "--model-path", str(checkpoint), "--corpus", str(corpus),
                     "--out", str(out)]) == 0
        return (out / "metrics.json").read_text(encoding="utf-8")

    @staticmethod
    def library_metrics(model, corpus, settings: dict) -> str:
        report = evaluate_model(model, corpus, pipeline.embedder(corpus, settings, {}))
        return json.dumps(report.to_dict(), indent=2) + "\n"

    def test_cli_trained_model(self, data_dir, tmp_path, capsys):
        from emocomp.cli import main
        path = data_dir / "overfit_tec.jsonl"
        assert main(["train", "--model", "emo-nn-base", "--corpus", str(path), "--seed", "1",
                     "--epochs", "2", "--out", str(tmp_path / "run")]) == 0
        checkpoint = tmp_path / "run" / "checkpoint.json"
        expected = self.cli_metrics(checkpoint, path, tmp_path / "eval")
        corpus, model = load_corpus(path), load_model(checkpoint, {})
        for settings in ({"seed": 1}, {"seed": 7}, {}):
            assert self.library_metrics(model, corpus, settings) == expected, settings

    def test_library_trained_model(self, data_dir, tmp_path, capsys):
        path = data_dir / "overfit_tec.jsonl"
        corpus = load_corpus(path)
        model, _ = pipeline.train_tag("emo-nn-base", corpus, {"seed": 3, "epochs": 2}, {},
                                      pipeline.embedder(corpus, {}, {}))
        assert model.config.seed == 3
        pipeline.save_model(model, tmp_path)
        expected = self.cli_metrics(tmp_path / "checkpoint.json", path, tmp_path / "eval")
        assert self.library_metrics(model, corpus, {}) == expected


class TestEmotionMe:
    def test_base_train_and_eval(self, tec):
        train, test = split_train_test(tec, seed=0)
        art = train_emotion_me(train, FAST)
        assert art.tag == "emo-me-base"
        report = evaluate_model(art, test)
        assert 0.0 <= report.macro_f1 <= 1.0

    def test_gold_stacking_changes_feature_dim(self, tec):
        train, _ = split_train_test(tec, seed=0)
        base = train_emotion_me(train, FAST)
        gold = train_emotion_me(train, FAST, stack_source="gold")
        assert gold.feature_dim == base.feature_dim + len(COMPONENTS)
        assert gold.tag == "emo-cpm-me-gold"

    def test_predicted_stacking_needs_artifact(self, tec):
        train, _ = split_train_test(tec, seed=0)
        with pytest.raises(ConfigError):
            train_emotion_me(train, FAST, stack_source="predicted")

    def test_unknown_stack_source(self, tec):
        train, _ = split_train_test(tec, seed=0)
        with pytest.raises(ConfigError):
            train_emotion_me(train, FAST, stack_source="guessed")

    def test_predicted_stacking_end_to_end(self, tec):
        train, test = split_train_test(tec, seed=0)
        cpm = train_component_me(train, FAST)
        art = train_emotion_me(train, FAST, stack_source="predicted", cpm_artifact=cpm)
        assert art.tag == "emo-cpm-me-pred"
        report = evaluate_model(art, test)
        assert 0.0 <= report.micro_f1 <= 1.0


class TestComponentMe:
    def test_base_has_five_models(self, tec):
        train, test = split_train_test(tec, seed=0)
        art = train_component_me(train, FAST)
        assert set(art.component_models) == set(COMPONENTS)
        report = evaluate_model(art, test)
        assert set(report.per_class) == set(COMPONENTS)

    def test_adv_runs_search_per_component(self, tec, monkeypatch):
        searched = []   # the score tables of each search training runs

        def search(*args):
            searched.append(feature_combination_search(*args))
            return searched[-1]

        monkeypatch.setattr(pipeline, "feature_combination_search", search)
        res = AdvResources(lexicons=[DictionaryLexicon("c", frozenset({"furious", "scare"}))])
        train, _ = split_train_test(tec, seed=0)
        art = train_component_me(train, FAST, res, seed=0)
        assert art.tag == "cpm-me-adv"
        [tables] = searched
        assert set(tables) == set(COMPONENTS)
        for comp, scores in tables.items():
            assert art.combinations[comp] == best_combination(scores)
            assert scores[art.combinations[comp]] >= scores[()]


class TestComponentFit:
    """Both component tags fit the five components in one masked binary fit."""

    @pytest.fixture(scope="class")
    def ablation(self):
        # a corpus whose POS block is informative, so the search picks it
        data = Path(__file__).resolve().parent.parent / "data"
        corpus = load_corpus(data / "ablation_corpus.jsonl")
        res = pipeline._adv_resources({"pos_sidecar": data / "ablation_pos.tsv"})
        return split_train_test(corpus, seed=0)[0], res

    # On the ablation corpus every TF-IDF column is noise and the labels follow
    # the POS block alone, and Adam amplifies gemm rounding there: permuting
    # the columns of one per-component fit moves its weights by 2e-11 too.
    @pytest.mark.parametrize("name,atol", [("tec", 1e-12), ("ablation", 1e-10)])
    def test_adv_matches_a_fit_per_component(self, name, atol, tec, ablation):
        corpus, res = ((split_train_test(tec, seed=0)[0], pipeline._adv_resources({}))
                       if name == "tec" else ablation)
        art = train_component_me(corpus, FAST, res, seed=0)
        assert any(art.combinations.values())
        X, offsets = build_cpm_adv_features(pipeline.preprocess_corpus(corpus),
                                            [i.id for i in corpus], available_flags(art.resources),
                                            art.tfidf, art.resources)
        Y = np.array([i.cpm for i in corpus], dtype=float)
        for j, comp in enumerate(COMPONENTS):
            # the per-component fit that the joint fit replaces
            cols = combination_columns(offsets, art.combinations[comp])
            want = train_maxent(X[:, cols], Y[:, j], (comp,), BINARY, len(cols), FAST)
            got = art.component_models[comp]
            assert (got.classes, got.feature_dim, got.constant) == (
                want.classes, want.feature_dim, want.constant)
            np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=atol)
            np.testing.assert_allclose(got.bias, want.bias, rtol=0, atol=atol)
            np.testing.assert_array_equal(predict_maxent(got, X[:, cols])[0],
                                          predict_maxent(want, X[:, cols])[0])

    def test_base_is_the_unmasked_joint_fit(self, tec):
        train, _ = split_train_test(tec, seed=0)
        art = train_component_me(train, FAST)
        X = tfidf_transform(art.tfidf, pipeline.preprocess_corpus(train))
        Y = np.array([i.cpm for i in train], dtype=float)
        want = split_labels(train_maxent(X, Y, COMPONENTS, BINARY, art.tfidf.dim, FAST))
        assert art.combinations == {}
        for comp in COMPONENTS:
            got = art.component_models[comp]
            assert (got.classes, got.feature_dim, got.constant) == (
                want[comp].classes, want[comp].feature_dim, want[comp].constant)
            np.testing.assert_array_equal(got.weights, want[comp].weights)
            np.testing.assert_array_equal(got.bias, want[comp].bias)

    @pytest.mark.parametrize("adv", [False, True], ids=["cpm-me-base", "cpm-me-adv"])
    def test_one_fit_over_all_components(self, adv, ablation, monkeypatch):
        corpus, res = ablation
        calls, train = [], pipeline.train_maxent

        def counting(*args, **kwargs):
            calls.append(args[2])
            return train(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train_maxent", counting)
        train_component_me(corpus, MaxEntConfig(iterations=5), res if adv else None, seed=0)
        assert calls == [COMPONENTS]

    def test_never_set_component_is_stored_degenerate(self, ablation, tmp_path):
        corpus, res = ablation
        never = COMPONENTS.index("action_tendencies")
        corpus = corpus.subset([replace(i, cpm=tuple(0 if j == never else v
                                                     for j, v in enumerate(i.cpm)))
                                for i in corpus])
        with pytest.warns(UserWarning, match="action_tendencies"):
            art = train_component_me(corpus, FAST, res, seed=0)
        combo = art.combinations["action_tendencies"]
        model = art.component_models["action_tendencies"]
        assert model.constant == {"action_tendencies": False}
        assert model.feature_dim == art.tfidf.dim + combination_width(art.resources, combo)
        assert not model.weights.any() and model.weights.shape == (model.feature_dim, 1)
        assert all(not art.component_models[c].constant for c in COMPONENTS if c != "action_tendencies")
        save_me_artifact(art, tmp_path / "model.json")
        stored = json.loads((tmp_path / "model.json").read_text())
        assert stored["component_models"]["action_tendencies"]["degenerate"] is True
        again = load_me_artifact(stored, {"pos_tags": res.pos_tags}.get)
        assert again.component_models["action_tendencies"].constant == model.constant


class TestMeArtifactPersistence:
    def test_round_trip_base(self, tec, tmp_path):
        train, test = split_train_test(tec, seed=0)
        art = train_emotion_me(train, FAST)
        path = tmp_path / "model.json"
        save_me_artifact(art, path)
        again = load_model(path, {})
        stemmed = [preprocess(i) for i in test]
        assert (art.predict_emotions(test, stemmed)
                == again.predict_emotions(test, stemmed))

    def test_round_trip_component_adv(self, tec, tmp_path):
        res = AdvResources(lexicons=[DictionaryLexicon("c", frozenset({"furious"}))])
        train, test = split_train_test(tec, seed=0)
        art = train_component_me(train, FAST, res, seed=0)
        path = tmp_path / "model.json"
        save_me_artifact(art, path)
        again = load_model(path, {})
        stemmed, ids = [preprocess(i) for i in test], [i.id for i in test]
        np.testing.assert_array_equal(art.predict_components(stemmed, ids),
                                      again.predict_components(stemmed, ids))

    def test_missing_embedding_resource_rejected_at_load(self, tec, tmp_path):
        from emocomp.features import EmbeddingTable

        res = AdvResources(lexicons=[DictionaryLexicon("c", frozenset({"furious"}))],
                           embeddings=EmbeddingTable(2, {"furious": np.ones(2)}))
        train, _ = split_train_test(tec, seed=0)
        art = train_component_me(train, FAST, res, seed=0)
        uses_embeddings = any("word_embeddings" in c for c in art.combinations.values())
        path = tmp_path / "model.json"
        save_me_artifact(art, path)
        if uses_embeddings:
            with pytest.raises(ResourceError):
                load_model(path, {})
        else:
            load_model(path, {})


class TestStoredResources:
    @pytest.fixture(scope="class")
    def stored(self, tec, tmp_path_factory):
        """A cpm-me-adv model document whose components all read 2-wide
        word embeddings (zero weights), with the table it was stored for."""
        res = AdvResources(lexicons=[DictionaryLexicon("c", frozenset({"furious"}))])
        art = train_component_me(split_train_test(tec, seed=0)[0], FAST, res, seed=0)
        path = tmp_path_factory.mktemp("stored") / "model.json"
        save_me_artifact(art, path)
        doc = json.loads(path.read_text())
        width = len(doc["tfidf"]["vocabulary"]) + 2
        for comp, model in doc["component_models"].items():
            doc["combinations"][comp] = ["word_embeddings"]
            model.update(feature_dim=width, weights=[[0.0]] * width)
        doc["resources"]["embedding_dim"] = 2
        return doc, EmbeddingTable(2, {"furious": np.ones(2)})

    def test_embedding_dim_matches_the_table(self, stored):
        doc, table = stored
        art = load_me_artifact(doc, {"word_embeddings": table}.get)
        assert set(art.combinations.values()) == {("word_embeddings",)}

    def test_other_table_width_names_both(self, stored):
        doc, _ = stored
        with pytest.raises(DataError, match="2 wide.* 3 wide"):
            load_me_artifact(doc, {"word_embeddings": EmbeddingTable(3, {"furious": np.ones(3)})}.get)

    @pytest.mark.parametrize("value", [0, -1, 1.5, 2.0, True, "2", [2], None])
    def test_embedding_dim_is_a_positive_integer_or_null(self, stored, value):
        doc, table = stored
        doc = json.loads(json.dumps({**doc, "resources": {**doc["resources"],
                                                          "embedding_dim": value}}))
        with pytest.raises(DataError, match="embedding_dim|wide"):
            load_me_artifact(doc, {"word_embeddings": table}.get)

    def test_null_embedding_dim_without_embedding_features(self, stored):
        doc, table = stored
        doc = json.loads(json.dumps(doc))
        doc["resources"]["embedding_dim"] = None
        for comp, model in doc["component_models"].items():
            doc["combinations"][comp] = []
            model.update(feature_dim=model["feature_dim"] - 2, weights=model["weights"][2:])
        assert load_me_artifact(doc).resources.embeddings is None

    def test_missing_resources_named_together(self, stored):
        doc, _ = stored
        doc = json.loads(json.dumps(doc))
        doc["combinations"]["cognitive_appraisal"] = ["pos_tags", "word_embeddings"]
        with pytest.raises(ResourceError, match="loaded: pos_tags, word_embeddings$"):
            load_me_artifact(doc)


class TestStemOnce:
    @pytest.fixture
    def preprocess_calls(self, monkeypatch):
        # every corpus pass goes through preprocess_corpus
        from emocomp import pipeline
        calls = []
        preprocess_corpus = pipeline.preprocess_corpus

        def counting(instances):
            instances = list(instances)
            calls.extend(i.id for i in instances)
            return preprocess_corpus(instances)

        monkeypatch.setattr(pipeline, "preprocess_corpus", counting)
        return calls

    def test_each_distinct_word_stemmed_once_per_pass(self, tec, monkeypatch):
        from emocomp import text
        from emocomp.pipeline import preprocess_corpus
        stemmed, porter_stem = [], text.porter_stem

        def counting(word):
            stemmed.append(word)
            return porter_stem(word)

        monkeypatch.setattr(text, "porter_stem", counting)
        one_by_one = [preprocess(i) for i in tec]
        for _ in range(2):   # no memo outlives its pass
            stemmed.clear()
            assert preprocess_corpus(tec) == one_by_one
            assert len(stemmed) == len(set(stemmed)) > 0

    def test_component_training_with_resources(self, tec, preprocess_calls):
        res = AdvResources(lexicons=[DictionaryLexicon("c", frozenset({"furious"}))])
        train, _ = split_train_test(tec, seed=0)
        train_component_me(train, MaxEntConfig(iterations=5), res, seed=0)
        assert sorted(preprocess_calls) == sorted(i.id for i in train)

    def test_predicted_stacking_training(self, tec, tmp_path, data_dir, preprocess_calls,
                                         capsys):
        # the component model and the stacked emotion model share one
        # stemming pass over the training split; the test split is stemmed
        # once for evaluation
        from emocomp.cli import main
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("me_iterations = 5\n")
        assert main(["train", "--model", "emo-cpm-me-pred",
                     "--corpus", str(data_dir / "synthetic_tec.jsonl"),
                     "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert sorted(preprocess_calls) == sorted(i.id for i in tec)

    def test_me_predict(self, tec, tmp_path, data_dir, preprocess_calls, capsys):
        from emocomp.cli import main
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("me_iterations = 5\n")
        corpus = data_dir / "synthetic_tec.jsonl"
        assert main(["train", "--model", "emo-cpm-me-pred", "--corpus", str(corpus),
                     "--config", str(cfg), "--out", str(tmp_path)]) == 0
        preprocess_calls.clear()
        assert main(["predict", "--model-path", str(tmp_path / "model.json"),
                     "--corpus", str(corpus), "--out", str(tmp_path)]) == 0
        assert sorted(preprocess_calls) == sorted(i.id for i in tec)


class TestNeuralPipeline:
    def test_train_and_eval(self, tec):
        small = tec.subset(tec.instances[:30])
        table, dim = embeddings_for(small, fallback_dim=8, seed=0)
        cfg = ModelConfig(bilstm_units=3, cnn_filters=2, kernel_sizes=(2, 3),
                          fc_neurons_emo=4, fc_neurons_cpm=4,
                          minibatch_size=8, epochs=2, dropout_rate=0.0, seed=0)
        model, log = train_neural("emo-nn-base", small, cfg, table, dim)
        assert len(log.entries) == 2
        report = evaluate_neural(model, small, table)
        assert 0.0 <= report.micro_f1 <= 1.0
        other = Corpus(small.instances, small.emotion_inventory[::-1], small.mode)
        with pytest.raises(ConfigError, match="inventories differ"):
            evaluate_neural(model, other, table)

    @pytest.mark.parametrize("call", [
        lambda corpus, model: pipeline.train_tag("emo-nn-base", corpus, {"epochs": 1}, {}),
        lambda corpus, model: pipeline.predict(model, corpus),
        lambda corpus, model: evaluate_model(model, corpus),
    ], ids=["train_tag", "predict", "evaluate_model"])
    def test_neural_model_without_embedder_is_config_error(self, tec, call):
        model = build_model("emo-nn-base", default_config("emo-nn-base", "tec"), 8,
                            tec.emotion_inventory)
        with pytest.raises(ConfigError, match=r"needs embed=pipeline\.embedder"):
            call(tec, model)

    def test_embeddings_shapes(self, tec):
        table, dim = embeddings_for(tec.subset(tec.instances[:5]), fallback_dim=16)
        assert dim == 16
        for mat in table.values():
            assert mat.ndim == 2 and mat.shape[1] == 16
