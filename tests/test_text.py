from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocomp.text import extract_ngrams, porter_stem, stem_tokens, tokenize


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_mentions_and_hashtags_preserved(self):
        assert tokenize("@Alice loves #NLProc!") == ["@alice", "loves", "#nlproc", "!"]

    def test_emoticons_are_single_tokens(self):
        toks = tokenize("great day :) but then :( wow")
        assert ":)" in toks and ":(" in toks

    def test_contractions_stay_together(self):
        assert tokenize("don't can't") == ["don't", "can't"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    def test_punctuation_and_ellipsis(self):
        toks = tokenize("wait... what?!")
        assert "..." in toks and "?" in toks and "!" in toks


class TestNgrams:
    def test_unigrams_and_bigrams(self):
        grams = extract_ngrams(["a", "b", "a"])
        assert grams == Counter({"a": 2, "b": 1, "a_b": 1, "b_a": 1})

    def test_single_token_has_no_bigrams(self):
        assert extract_ngrams(["x"]) == Counter({"x": 1})

    def test_empty(self):
        assert extract_ngrams([]) == Counter()

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_counts_match_definition(self, tokens):
        grams = extract_ngrams(tokens)
        for t in set(tokens):
            assert grams[t] == tokens.count(t)
        total_bigrams = sum(v for g, v in grams.items() if "_" in g)
        assert total_bigrams == max(len(tokens) - 1, 0)


# Reference pairs from the published algorithm description.
PORTER_VECTORS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    # and words for the rules' other branches: step 4 keeps "ion" after a
    # stem not ending in s or t, and "op" is too short to end
    # consonant-vowel-consonant (steps 1b and 5a)
    ("opinion", "opinion"),
    ("oping", "op"),
    ("ope", "op"),
]


class TestPorterStemmer:
    @pytest.mark.parametrize("word,stem", PORTER_VECTORS)
    def test_reference_vectors(self, word, stem):
        assert porter_stem(word) == stem

    def test_short_words_untouched(self):
        assert porter_stem("at") == "at"
        assert porter_stem("a") == "a"

    def test_stem_tokens_maps(self):
        assert stem_tokens(["running", "cats"]) == ["run", "cat"]
