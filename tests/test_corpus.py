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


def other_record(i, emotions):
    return {"id": f"o{i}", "text": f"text {i}", "emotions": list(emotions),
            "cpm": [0, 0, 0, 0, 0], "domain": "other"}


def assert_round_trip(corpus, tmp_path):
    path = tmp_path / "saved.jsonl"
    save_corpus(corpus, path)
    again = load_corpus(path)
    assert (again.instances, again.emotion_inventory, again.mode) == (
        corpus.instances, corpus.emotion_inventory, corpus.mode)


@st.composite
def corpus_lines(draw):
    """Lines of a corpus file: records of one domain mixed with headers, id-less
    objects, records with one bad field, non-objects, broken JSON and blank lines."""
    domain = draw(st.sampled_from(["tec", "reman", "other", None]))
    labels = {"tec": TEC_EMOTIONS, "reman": REMAN_EMOTIONS}.get(domain, ("a", "b", "c"))
    one_label = st.sampled_from(labels)
    lines = []
    for n in range(draw(st.integers(0, 6))):
        record = {"id": f"r{n}", "text": draw(st.text(max_size=8)),
                  "emotions": draw(st.lists(one_label, min_size=domain == "tec",
                                            max_size=1 if domain == "tec" else 3, unique=True)),
                  "cpm": draw(st.lists(st.integers(0, 1), min_size=5, max_size=5))}
        if domain:
            record["domain"] = domain
        kinds = ["record"] * 10 + ["header", "id-less", "bad field", "non-object", "broken", "blank"]
        kind = draw(st.sampled_from(kinds + ["header"] * 5 * (n == 0)))   # headers come first
        if kind == "header":
            record = {"mode": draw(st.sampled_from([None, SINGLE_LABEL, MULTI_LABEL, "x"])),
                      "inventory": draw(st.one_of(st.none(), st.just(6), st.permutations(labels),
                                                  st.lists(st.sampled_from(labels + ("a b", "")),
                                                           max_size=4)))}
        elif kind == "id-less":
            del record["id"]
        elif kind == "bad field":
            field, value = draw(st.sampled_from([
                ("id", 5), ("id", "r\t"), ("id", "r0"), ("text", 3), ("emotions", "a"),
                ("emotions", ["a b"]), ("emotions", [labels[0]] * 2), ("cpm", [2, 0, 0, 0, 0]),
                ("cpm", [1]), ("domain", "twitter"), ("domain", "reman")]))
            record[field] = value
        lines.append({"non-object": "[1, 2]", "broken": "{broken", "blank": " "}.get(
            kind, json.dumps(record)))
    return lines


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
        rec = tec_record(1)
        rec["emotions"] = ["joy", "anger"]
        write_jsonl(f, [tec_record(0), rec])
        with pytest.raises(CorpusFormatError, match="single-label") as exc:
            load_corpus(f)
        assert exc.value.line == 2

    def test_unknown_label_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [tec_record(0), tec_record(1, "boredom")])
        with pytest.raises(CorpusFormatError, match="boredom") as exc:
            load_corpus(f)
        assert exc.value.line == 2

    def test_declared_single_label_other_corpus_enforced_with_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [{"mode": SINGLE_LABEL, "inventory": ["a", "b"]},
                        other_record(0, ["a"]), other_record(1, ["a", "b"])])
        with pytest.raises(CorpusFormatError, match="single-label") as exc:
            load_corpus(f)
        assert exc.value.line == 3

    def test_only_the_first_line_is_a_header(self, tmp_path):
        # were the second line a header too, this would load as multi-label
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [{"mode": SINGLE_LABEL}, {"inventory": ["a", "b"]},
                        other_record(0, ["a", "b"])])
        with pytest.raises(CorpusFormatError, match="missing 'id'") as exc:
            load_corpus(f)
        assert exc.value.line == 2

    def test_header_after_blank_lines(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text("\n  \n" + json.dumps({"mode": SINGLE_LABEL, "inventory": ["a", "b"]})
                     + "\n" + json.dumps(other_record(0, ["b"])) + "\n")
        corpus = load_corpus(f)
        assert (corpus.mode, corpus.emotion_inventory) == (SINGLE_LABEL, ("a", "b"))

    @pytest.mark.parametrize("header", [{}, {"mode": None, "inventory": None}],
                             ids=["empty", "nulls"])
    @pytest.mark.parametrize("domain", ["tec", "reman", "other"])
    def test_header_that_declares_nothing_is_accepted(self, header, domain, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [header, {**tec_record(0), "domain": domain}])
        assert len(load_corpus(f)) == 1

    def test_empty_declared_inventory_on_other_takes_the_union(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [{"inventory": []}, other_record(0, ["b"]), other_record(1, ["a"])])
        assert load_corpus(f).emotion_inventory == ("a", "b")

    def test_record_without_domain_is_other(self, tmp_path):
        f = tmp_path / "c.jsonl"
        rec = other_record(0, ["b"])
        del rec["domain"]
        write_jsonl(f, [rec])
        corpus = load_corpus(f)
        assert corpus.instances[0].domain == "other"
        assert (corpus.mode, corpus.emotion_inventory) == (MULTI_LABEL, ("b",))

    @pytest.mark.parametrize("text,mode,inventory", [
        ("", MULTI_LABEL, ()),
        ("\n\n", MULTI_LABEL, ()),
        ('{"mode": "single-label"}\n', SINGLE_LABEL, ()),
        ('{"inventory": ["a", "b"]}\n', MULTI_LABEL, ("a", "b")),
    ], ids=["empty", "blank", "header-mode", "header-inventory"])
    def test_file_without_records(self, text, mode, inventory, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text(text)
        corpus = load_corpus(f)
        assert (corpus.instances, corpus.mode, corpus.emotion_inventory) == ([], mode, inventory)

    def test_repeated_inventory_name_rejected_on_the_header_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [{"mode": MULTI_LABEL, "inventory": ["happy", "sad", "happy"]},
                        other_record(0, ["happy"])])
        with pytest.raises(CorpusFormatError, match="repeats a name") as exc:
            load_corpus(f)
        assert exc.value.line == 1

    @pytest.mark.parametrize("inst_id", ["a\tb", "a\nb", "a\r", "a\x0bb", "a\x1cb", "a\x85b",
                                         "a\u2028b"])
    def test_id_that_breaks_a_tsv_row_rejected_with_line(self, inst_id, tmp_path):
        f = tmp_path / "c.jsonl"
        write_jsonl(f, [tec_record(0), {**tec_record(1), "id": inst_id}])
        with pytest.raises(CorpusFormatError, match="tab or a line break") as exc:
            load_corpus(f)
        assert exc.value.line == 2

    @pytest.mark.parametrize("field,labels", [
        ("emotions", ["very happy"]), ("emotions", [""]), ("emotions", ["a\tb"]),
        ("emotions", ["a", "a"]), ("inventory", ["a", "b c"]), ("inventory", ["a", "\u3000"]),
    ], ids=["emotion-space", "emotion-empty", "emotion-tab", "emotion-repeated",
            "inventory-space", "inventory-ideographic-space"])
    def test_label_that_is_not_one_word_rejected_with_line(self, field, labels, tmp_path):
        f = tmp_path / "c.jsonl"
        records = [other_record(0, ["a"]), other_record(1, ["a"])]
        if field == "inventory":
            records.insert(0, {"inventory": labels})
        else:
            records[1]["emotions"] = labels
        write_jsonl(f, records)
        with pytest.raises(CorpusFormatError, match=field) as exc:
            load_corpus(f)
        assert exc.value.line == (1 if field == "inventory" else 2)

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
        for records in [
            [tec_record(i, TEC_EMOTIONS[i % 6]) for i in range(8)],
            [{**tec_record(i), "domain": "reman", "emotions": list(REMAN_EMOTIONS[:i % 3])}
             for i in range(8)],
            # other: a declared mode and inventory, the labels the records use, no records
            [{"mode": SINGLE_LABEL, "inventory": ["c", "a", "b"]}]
            + [other_record(i, ["abc"[i % 2]]) for i in range(8)],
            [other_record(i, "abc"[:i % 4]) for i in range(8)],
            [{"mode": SINGLE_LABEL, "inventory": ["a"]}],
        ]:
            write_jsonl(f, records)
            assert_round_trip(load_corpus(f), tmp_path)

    @given(corpus_lines())
    @settings(max_examples=100, deadline=None)
    def test_any_file_loads_or_is_a_format_error(self, tmp_path_factory, lines):
        f = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        f.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            corpus = load_corpus(f)
        except CorpusFormatError:
            return
        assert_round_trip(corpus, f.parent)


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
