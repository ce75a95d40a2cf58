import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocomp.corpus import (COMPONENTS, MULTI_LABEL, REMAN_EMOTIONS,
                            SINGLE_LABEL, TEC_EMOTIONS, Corpus, Instance,
                            kfold, load_corpus, save_corpus, split_train_test)
from emocomp.errors import ConfigError, CorpusFormatError


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def tec_record(i, emotion="joy", cpm=(1, 0, 0, 0, 0)):
    return {"id": f"t{i}", "text": f"text {i}", "emotions": [emotion],
            "cpm": list(cpm), "domain": "tec"}


def synthetic_corpus(n, mode=MULTI_LABEL):
    instances = [Instance(f"i{j}", f"text {j}", frozenset({"joy"}),
                          (1, 0, 0, 0, 0), "other") for j in range(n)]
    return Corpus(instances, ("joy",), mode)


class TestLoading:
    def test_tec_corpus(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [tec_record(0, "anger"), tec_record(1, "joy")])
        corpus = load_corpus(f)
        assert corpus.mode == SINGLE_LABEL
        assert corpus.emotion_inventory == TEC_EMOTIONS
        assert len(corpus) == 2

    def test_reman_empty_emotions_become_neutral(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [{"id": "r0", "text": "x", "emotions": [],
                         "cpm": [0, 0, 0, 0, 0], "domain": "reman"}])
        corpus = load_corpus(f)
        assert corpus.mode == MULTI_LABEL
        assert corpus.emotion_inventory == REMAN_EMOTIONS
        assert corpus.instances[0].emotions == frozenset({"neutral"})

    def test_header_record_declares_mode(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text(json.dumps({"mode": MULTI_LABEL, "inventory": ["a", "b"]}) + "\n"
                     + json.dumps({"id": "x", "text": "t", "emotions": ["a", "b"],
                                   "cpm": [0, 0, 0, 0, 0], "domain": "other"}) + "\n")
        corpus = load_corpus(f)
        assert corpus.mode == MULTI_LABEL
        assert corpus.emotion_inventory == ("a", "b")

    def test_duplicate_id_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [tec_record(0), tec_record(0)])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(f)

    @pytest.mark.parametrize("inst_id", [None, True, 1, 1.5, [], {"a": [1]}],
                             ids=["null", "true", "int", "float", "list", "object"])
    def test_id_that_is_not_a_string_rejected_with_line(self, inst_id, tmp_path):
        f = tmp_path / "c.jsonl"
        rec = tec_record(1)
        rec["id"] = inst_id
        write_jsonl(f, [tec_record(0), rec])
        with pytest.raises(CorpusFormatError, match="id must be a string") as exc:
            load_corpus(f)
        assert exc.value.line == 2

    def test_bad_cpm_rejected_with_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        rec = tec_record(0)
        rec["cpm"] = [1, 0, 2, 0, 0]
        write_jsonl(f, [rec])
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(f)
        assert exc.value.line == 1

    def test_mixed_domains_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        rec2 = tec_record(1)
        rec2["domain"] = "reman"
        write_jsonl(f, [tec_record(0), rec2])
        with pytest.raises(CorpusFormatError, match="mixed"):
            load_corpus(f)

    @pytest.mark.parametrize("domain", [[], {}, 5, "twitter"])
    def test_unknown_domain_rejected_with_line(self, domain, tmp_path):
        f = tmp_path / "c.jsonl"
        rec = tec_record(1)
        rec["domain"] = domain
        write_jsonl(f, [tec_record(0), rec])
        with pytest.raises(CorpusFormatError, match="domain must be one of") as exc:
            load_corpus(f)
        assert exc.value.line == 2

    def test_single_label_arity_enforced(self, tmp_path):
        f = tmp_path / "c.jsonl"
        rec = tec_record(0)
        rec["emotions"] = ["joy", "anger"]
        write_jsonl(f, [rec])
        with pytest.raises(CorpusFormatError, match="single-label"):
            load_corpus(f)

    def test_unknown_label_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [tec_record(0, "boredom")])
        with pytest.raises(CorpusFormatError, match="boredom"):
            load_corpus(f)

    def test_invalid_json_reports_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text(json.dumps(tec_record(0)) + "\n{broken\n")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(f)
        assert exc.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_save_load_round_trip(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [tec_record(i, TEC_EMOTIONS[i % 6]) for i in range(8)])
        corpus = load_corpus(f)
        g = tmp_path / "copy.jsonl"
        save_corpus(corpus, g)
        again = load_corpus(g)
        assert again.instances == corpus.instances
        assert again.mode == corpus.mode


class TestSplits:
    def test_split_1000_gives_900_100(self):
        train, test = split_train_test(synthetic_corpus(1000), ratio=0.9, seed=0)
        assert (len(train), len(test)) == (900, 100)

    def test_split_2041_gives_1837_204(self):
        train, test = split_train_test(synthetic_corpus(2041), ratio=0.9, seed=0)
        assert (len(train), len(test)) == (1837, 204)

    def test_split_seeded_and_disjoint(self):
        corpus = synthetic_corpus(50)
        t1, e1 = split_train_test(corpus, seed=7)
        t2, e2 = split_train_test(corpus, seed=7)
        assert [i.id for i in t1] == [i.id for i in t2]
        assert {i.id for i in t1}.isdisjoint({i.id for i in e1})
        assert len(t1) + len(e1) == 50

    def test_invalid_ratio(self):
        with pytest.raises(ConfigError):
            split_train_test(synthetic_corpus(10), ratio=1.0)

    @given(st.integers(10, 300), st.floats(0.5, 0.95), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_split_partitions_exactly(self, n, ratio, seed):
        corpus = synthetic_corpus(n)
        train, test = split_train_test(corpus, ratio=ratio, seed=seed)
        assert len(train) + len(test) == n
        assert {i.id for i in train} | {i.id for i in test} == {i.id for i in corpus}
        assert len(test) == int(n * (1.0 - ratio) + 1e-9)


class TestKfold:
    @given(st.integers(10, 120), st.integers(2, 10), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_folds_partition_indices(self, n, k, seed):
        folds = kfold(synthetic_corpus(n), k=k, seed=seed)
        assert len(folds) == k
        flat = [i for fold in folds for i in fold]
        assert sorted(flat) == list(range(n))
        sizes = {len(f) for f in folds}
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            kfold(synthetic_corpus(5), k=6)
        with pytest.raises(ConfigError):
            kfold(synthetic_corpus(5), k=1)

    def test_seeded(self):
        corpus = synthetic_corpus(30)
        assert kfold(corpus, k=3, seed=5) == kfold(corpus, k=3, seed=5)
        assert kfold(corpus, k=3, seed=5) != kfold(corpus, k=3, seed=6)


def test_components_inventory():
    assert COMPONENTS == ("cognitive_appraisal", "neurophysiological_symptoms",
                          "action_tendencies", "motor_expressions",
                          "subjective_feelings")
    assert len(TEC_EMOTIONS) == 6
    assert len(REMAN_EMOTIONS) == 10
    assert "neutral" in REMAN_EMOTIONS
