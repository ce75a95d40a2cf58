import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocomp.errors import DataError, StateError
from emocomp.features import (DictionaryLexicon, dictionary_features, hashed_token_embedding,
                              load_embedding_file, load_lexicon,
                              load_token_embedding_store, load_vector_sidecar,
                              pooled_embedding_features,
                              resolve_token_embeddings, tfidf_fit,
                              tfidf_transform)
from emocomp.text import extract_ngrams

token_lists = st.lists(st.sampled_from(["cat", "dog", "sun", "rain", "run"]),
                       min_size=0, max_size=10)


class TestTfIdf:
    def test_transform_before_fit(self):
        with pytest.raises(StateError):
            tfidf_transform(None, [["x"]])

    def test_rows_fill_vocabulary_columns(self):
        model = tfidf_fit([["a", "b"], ["c"]])
        X = tfidf_transform(model, [["c"], ["a", "zzz"], []])
        assert X.shape == (3, model.dim)
        assert set(np.flatnonzero(X[0])) == {model.vocabulary["c"]}
        assert set(np.flatnonzero(X[1])) == {model.vocabulary["a"]}
        assert not X[2].any()

    @given(st.lists(token_lists, min_size=1, max_size=6),
           st.lists(token_lists, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_rows_match_reference(self, docs, queries):
        # per-document loop: count * idf at the n-gram's column, divided by
        # the L2 norm summed in column order
        model = tfidf_fit(docs)
        X = tfidf_transform(model, queries)
        for row, tokens in zip(X, queries):
            entries = {model.vocabulary[g]: c * model.idf(g)
                       for g, c in extract_ngrams(tokens).items() if g in model.vocabulary}
            norm = math.sqrt(sum(entries[i] * entries[i] for i in sorted(entries)))
            want = np.zeros(model.dim)
            for i, v in entries.items():
                want[i] = v / norm
            np.testing.assert_array_equal(row, want)

    def test_idf_formula(self):
        model = tfidf_fit([["a"], ["a", "b"]])
        assert abs(model.idf("a") - (math.log(3.0 / 3.0) + 1.0)) < 1e-12
        assert abs(model.idf("b") - (math.log(3.0 / 2.0) + 1.0)) < 1e-12

    def test_unseen_ngrams_dropped(self):
        model = tfidf_fit([["a", "b"]])
        X = tfidf_transform(model, [["zzz"]])
        assert X.shape == (1, model.dim) and not X.any()

    def test_bigrams_in_vocabulary(self):
        model = tfidf_fit([["a", "b"]])
        assert "a_b" in model.vocabulary

    @given(st.lists(token_lists, min_size=1, max_size=6), token_lists)
    @settings(max_examples=50, deadline=None)
    def test_unit_norm_or_empty(self, docs, query):
        model = tfidf_fit(docs)
        n = np.linalg.norm(tfidf_transform(model, [query])[0])
        assert n == 0.0 or abs(n - 1.0) < 1e-9

    @given(st.lists(token_lists, min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_values_nonnegative(self, docs):
        model = tfidf_fit(docs)
        assert (tfidf_transform(model, docs) >= 0.0).all()


class TestDictionaries:
    def test_counts_then_flags(self):
        lexes = [DictionaryLexicon("a", frozenset({"x", "y"})),
                 DictionaryLexicon("b", frozenset({"z"}))]
        out = dictionary_features(["x", "x", "q"], lexes)
        np.testing.assert_array_equal(out, [2.0, 0.0, 1.0, 0.0])

    def test_load_lexicon_stems_and_skips_comments(self, tmp_path):
        f = tmp_path / "lex.txt"
        f.write_text("# header\nrunning\nhappiness  # inline\n\n")
        lex = load_lexicon(f, "c")
        assert lex.entries == frozenset({"run", "happi"})

    def test_empty_lexicon_rejected(self, tmp_path):
        f = tmp_path / "lex.txt"
        f.write_text("# only comments\n")
        with pytest.raises(DataError):
            load_lexicon(f, "c")


class TestEmbeddingFiles:
    def test_load_and_pool(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("cat 1.0 2.0\ndog 3.0 4.0\n")
        table = load_embedding_file(f)
        assert table.dimension == 2
        np.testing.assert_array_equal(
            pooled_embedding_features(["cat", "dog", "bird"], table), [2.0, 3.0])

    def test_all_oov_gives_zero_vector(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("cat 1.0 2.0\n")
        np.testing.assert_array_equal(
            pooled_embedding_features(["xyz"], load_embedding_file(f)), [0.0, 0.0])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("cat 1.0 2.0\ndog 0.1\n")
        with pytest.raises(DataError, match="2"):
            load_embedding_file(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("")
        with pytest.raises(DataError):
            load_embedding_file(f)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        f = tmp_path / "emb.txt"
        f.write_text(f"cat 1.0 2.0\ndog 0.1 {value}\n")
        with pytest.raises(DataError, match=r"emb\.txt:2: non-finite"):
            load_embedding_file(f)

    def test_repeated_token_reports_line(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("happy 1.0 2.0\ncat 0.1 0.2\nhappy 3.0 4.0\n")
        with pytest.raises(DataError, match=r"emb\.txt:3: token 'happy' repeats"):
            load_embedding_file(f)


class TestTokenEmbeddingStore:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "store.txt"
        f.write_text("id1\n2\n1.0 2.0\n3.0 4.0\nid2\n1\n5.0 6.0\n")
        store = load_token_embedding_store(f)
        assert store.dimension == 2
        np.testing.assert_array_equal(store.sequences["id1"], [[1.0, 2.0], [3.0, 4.0]])

    def test_duplicate_id_rejected(self, tmp_path):
        f = tmp_path / "store.txt"
        f.write_text("id1\n1\n1.0\nid1\n1\n2.0\n")
        with pytest.raises(DataError):
            load_token_embedding_store(f)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_names_record(self, tmp_path, value):
        f = tmp_path / "store.txt"
        f.write_text(f"id1\n1\n1.0 2.0\nid2\n2\n3.0 4.0\n5.0 {value}\n")
        with pytest.raises(DataError, match=r"store\.txt:7: non-finite value"):
            load_token_embedding_store(f)


# each reader of rows of decimals, returning its rows by key: its text for an
# entry (a key and a row), and the line of the entry that holds the row
DECIMAL_READERS = {
    "embeddings": (lambda p: load_embedding_file(p).vectors,
                   lambda key, row: f"{key} {row}\n", 0),
    "appraisal": (load_vector_sidecar, lambda key, row: f"{key}\t{row}\n", 0),
    "store": (lambda p: load_token_embedding_store(p).sequences,
              lambda key, row: f"{key}\n1\n{row}\n", 2),
}
# an entry after the good entry ``a`` and a blank line: its key, its row and
# the error it raises
BAD_ENTRIES = {
    "non-numeric": ("b", "0.5 x", "non-numeric value"),
    "empty": ("b", "", "entry has no values"),
    "non-finite": ("b", "0.5 nan", "non-finite value"),
    "other-width": ("b", "0.5 0.5 0.5", "expected 2 values, got 3"),
    "repeated-key": ("a", "0.5 0.5", "'a' repeats"),
}


class TestDecimalRows:
    @pytest.mark.parametrize("case", BAD_ENTRIES)
    @pytest.mark.parametrize("reader", DECIMAL_READERS)
    def test_bad_entry_names_its_line(self, reader, case, tmp_path):
        load, entry, row_line = DECIMAL_READERS[reader]
        key, row, message = BAD_ENTRIES[case]
        head = entry("a", "0.1 0.2") + "\n"
        f = tmp_path / "rows.txt"
        f.write_text(head + entry(key, row))
        # a repeated key is caught on its own line, anything else on the row's
        line = head.count("\n") + 1 + (0 if case == "repeated-key" else row_line)
        with pytest.raises(DataError, match=rf"rows\.txt:{line}: .*{message}"):
            load(f)

    @pytest.mark.parametrize("reader", DECIMAL_READERS)
    def test_blank_lines_skipped(self, reader, tmp_path):
        load, entry, _ = DECIMAL_READERS[reader]
        f = tmp_path / "rows.txt"
        f.write_text("\n" + entry("a", "0.1 0.2") + " \t\n\n" + entry("b", "0.3 0.4") + "\n")
        rows = load(f)
        assert sorted(rows) == ["a", "b"]
        np.testing.assert_array_equal(np.reshape(rows["b"], -1), [0.3, 0.4])


class _Inst:
    def __init__(self, id, text):
        self.id = id
        self.text = text


class TestHashedEmbeddings:
    @given(st.text(min_size=1, max_size=10), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_pure_function(self, token, seed):
        a = hashed_token_embedding(token, 8, seed)
        b = hashed_token_embedding(token, 8, seed)
        np.testing.assert_array_equal(a, b)

    def test_distinct_tokens_differ(self):
        assert not np.array_equal(hashed_token_embedding("cat", 16, 0),
                                  hashed_token_embedding("dog", 16, 0))

    def test_seed_changes_vectors(self):
        assert not np.array_equal(hashed_token_embedding("cat", 16, 0),
                                  hashed_token_embedding("cat", 16, 1))

    def test_resolve_prefers_store(self, tmp_path):
        f = tmp_path / "store.txt"
        f.write_text("a\n1\n9.0 9.0\n")
        store = load_token_embedding_store(f)
        out = resolve_token_embeddings([_Inst("a", "hi"), _Inst("b", "yo")],
                                       str.split, store=store, fallback_dim=2)
        np.testing.assert_array_equal(out["a"], [[9.0, 9.0]])
        assert out["b"].shape == (1, 2)

    def test_empty_text_gets_placeholder_row(self):
        out = resolve_token_embeddings([_Inst("e", "")], str.split, fallback_dim=4)
        assert out["e"].shape == (1, 4)

    def test_resolve_hashes_each_distinct_token_once(self, monkeypatch):
        import emocomp.features as features
        calls = []
        original = features.hashed_token_embedding
        monkeypatch.setattr(features, "hashed_token_embedding",
                            lambda t, d, s: calls.append(t) or original(t, d, s))
        texts = {"a": "the cat saw the dog", "b": "the dog", "c": ""}
        out = resolve_token_embeddings([_Inst(i, t) for i, t in texts.items()], str.split,
                                       fallback_dim=4, seed=3)
        assert sorted(calls) == ["<empty>", "cat", "dog", "saw", "the"]
        for inst_id, text in texts.items():
            want = [original(t, 4, 3) for t in text.split() or ["<empty>"]]
            np.testing.assert_array_equal(out[inst_id], np.stack(want))
