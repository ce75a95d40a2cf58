"""Tokenization, Porter stemming and n-gram extraction.

The tokenizer lowercases and splits on whitespace/punctuation while
keeping @-mentions, #hashtags and common emoticons as single tokens,
which is what tweet-like input needs.
"""

from __future__ import annotations

import re
from collections import Counter

_EMOTICON = r"[<>]?[:;=8xX][\-o\*']?[\)\(\]\[dDpP3/\\\|@\}\{]"
_TOKEN_RE = re.compile(
    rf"(?:{_EMOTICON})|@\w+|#\w+|[a-z0-9]+(?:'[a-z]+)*|\.{{2,}}|[^\w\s]"
)


def tokenize(text: str) -> list[str]:
    """Lowercase and split into tokens; empty text gives an empty list."""
    return _TOKEN_RE.findall(text.lower())


def extract_ngrams(tokens: list[str]) -> Counter:
    """All unigrams plus contiguous bigrams (joined with '_')."""
    grams = Counter(tokens)
    for a, b in zip(tokens, tokens[1:]):
        grams[f"{a}_{b}"] += 1
    return grams


# ---------------------------------------------------------------------------
# Porter stemmer (Porter 1980, steps 1a through 5b)
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in [C](VC){m}[V]."""
    m = 0
    i = 0
    n = len(stem)
    while i < n and _is_consonant(stem, i):
        i += 1
    while i < n:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)):
        return False
    return word[-1] not in "wxy"


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _replace_suffix(w: str, rules) -> str:
    """``w`` with the first suffix of ``rules`` that it ends in replaced,
    when the stem before it has a measure above 0 (Porter steps 2 and 3)."""
    for suffix, repl in rules:
        if w.endswith(suffix):
            stem = w[:-len(suffix)]
            return stem + repl if _measure(stem) > 0 else w
    return w


def porter_stem(word: str) -> str:
    """Porter (1980) stemming of a lowercase token."""
    if len(word) <= 2:
        return word
    w = word

    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        flag = False
        if w.endswith("ed") and _has_vowel(w[:-2]):
            w = w[:-2]
            flag = True
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            w = w[:-3]
            flag = True
        if flag:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_consonant(w) and not w.endswith(("l", "s", "z")):
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # steps 2 and 3
    w = _replace_suffix(_replace_suffix(w, _STEP2), _STEP3)

    # step 4
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[:-len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    continue
                w = stem
            break

    # step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem

    # step 5b
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        w = w[:-1]

    return w


def stem_tokens(tokens: list[str], stems: dict[str, str] | None = None) -> list[str]:
    """Porter stems of ``tokens``; ``stems`` memoizes them across calls."""
    stems = {} if stems is None else stems
    for t in tokens:
        if t not in stems:
            stems[t] = porter_stem(t)
    return [stems[t] for t in tokens]
