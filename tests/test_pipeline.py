from pathlib import Path

import numpy as np
import pytest

from emocomp.corpus import COMPONENTS, Corpus, load_corpus, split_train_test
from emocomp.errors import ConfigError, ResourceError
from emocomp.features import DictionaryLexicon
from emocomp.maxent import AdvResources, MaxEntConfig
from emocomp import pipeline
from emocomp.pipeline import (ALL_TAGS, ME_TAGS, embeddings_for, evaluate_model,
                              evaluate_neural, load_me_artifact, preprocess,
                              save_me_artifact, train_component_me,
                              train_emotion_me, train_neural)
from emocomp.nn import ModelConfig

FAST = MaxEntConfig(iterations=120, learning_rate=0.1)


@pytest.fixture(scope="module")
def tec(data_dir=None):
    from pathlib import Path
    return load_corpus(Path(__file__).resolve().parent.parent / "data" / "synthetic_tec.jsonl")


def test_readme_library_use(tmp_path, monkeypatch, capsys):
    # the README's library example runs as written on a bundled corpus
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    code = section[section.index("```python") + len("```python"):]
    code = code[:code.index("```")]
    (tmp_path / "corpus.jsonl").write_bytes((root / "data" / "synthetic_tec.jsonl").read_bytes())
    monkeypatch.chdir(tmp_path)
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
    after = pipeline.predict(pipeline.load_model(path, {}), test, embed)
    assert after == before
    assert any(labels is not None for labels in before)


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

    def test_adv_runs_search_per_component(self, tec):
        res = AdvResources(lexicons=[DictionaryLexicon("c", frozenset({"furious", "scare"}))])
        train, _ = split_train_test(tec, seed=0)
        art = train_component_me(train, FAST, res, seed=0)
        assert art.tag == "cpm-me-adv"
        assert set(art.search_results) == set(COMPONENTS)
        for comp, result in art.search_results.items():
            assert result.best_f1 >= result.all_results[()]


class TestMeArtifactPersistence:
    def test_round_trip_base(self, tec, tmp_path):
        train, test = split_train_test(tec, seed=0)
        art = train_emotion_me(train, FAST)
        path = tmp_path / "model.json"
        save_me_artifact(art, path)
        again = load_me_artifact(path)
        stemmed = [preprocess(i) for i in test]
        assert (art.predict_emotions(test.instances, stemmed)
                == again.predict_emotions(test.instances, stemmed))

    def test_round_trip_component_adv(self, tec, tmp_path):
        res = AdvResources(lexicons=[DictionaryLexicon("c", frozenset({"furious"}))])
        train, test = split_train_test(tec, seed=0)
        art = train_component_me(train, FAST, res, seed=0)
        path = tmp_path / "model.json"
        save_me_artifact(art, path)
        again = load_me_artifact(path)
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
                load_me_artifact(path)
        else:
            load_me_artifact(path)


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

    def test_embeddings_shapes(self, tec):
        table, dim = embeddings_for(tec.subset(tec.instances[:5]), fallback_dim=16)
        assert dim == 16
        for mat in table.values():
            assert mat.ndim == 2 and mat.shape[1] == 16
