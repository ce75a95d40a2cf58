"""Seeded input generator for the benchmark workloads.

Everything the program reads is written here: JSONL corpora plus the POS,
word-embedding and appraisal sidecars. The same seed gives byte-identical
files. The generator imports nothing from the package under test, so a
change to the program cannot change its own inputs.

Properties the program's behaviour depends on, and how they are set:

* vocabulary: Zipf-Mandelbrot word frequencies over inflected pseudo-words,
  so repeated tokens share stemming work and TF-IDF has a long tail;
* cue words per emotion and per component, so the classifiers learn
  something and test macro-F1 is informative;
* sentence length: a fixed log-normal quantile schedule from 3 to 40
  tokens, well past the largest conv kernel (25), so both the left-padded
  and the unpadded convolution run. The schedule is indexed by position,
  not drawn from the seed, so every seed has the same length profile;
* label mode: multi-label (REMAN-style, 10 labels) or single-label
  (TEC-style, 6 labels).
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import numpy as np

COMPONENTS = ("cognitive_appraisal", "neurophysiological_symptoms",
              "action_tendencies", "motor_expressions", "subjective_feelings")
TEC_EMOTIONS = ("anger", "disgust", "fear", "joy", "sadness", "surprise")
REMAN_EMOTIONS = ("anger", "anticipation", "disgust", "fear", "joy",
                  "neutral", "other", "sadness", "surprise", "trust")

EMOTION_CUES = {
    "anger": ("furious", "rage", "annoy", "mad"),
    "anticipation": ("await", "soon", "hope", "plan"),
    "disgust": ("gross", "nasty", "revolt", "yuck"),
    "fear": ("scare", "terrify", "afraid", "panic"),
    "joy": ("delight", "wonder", "cheer", "yay"),
    "other": ("odd", "whatever", "strange", "random"),
    "sadness": ("sad", "cry", "misery", "gloom"),
    "surprise": ("wow", "unexpect", "astonish", "sudden"),
    "trust": ("rely", "faith", "loyal", "honest"),
}
# terms of the bundled component dictionaries, so dictionary features fire
COMPONENT_CUES = {
    "cognitive_appraisal": ("think", "believe", "expect", "consider", "judge"),
    "neurophysiological_symptoms": ("heart", "tremble", "shiver", "sweat", "breath"),
    "action_tendencies": ("want", "urge", "avoid", "escape", "attack"),
    "motor_expressions": ("smile", "laugh", "frown", "shout", "scream"),
    "subjective_feelings": ("feel", "felt", "feeling", "happy", "angry"),
}
# per-emotion probability of each component flag
COMPONENT_PROFILE = {
    "anger": (0.75, 0.30, 0.55, 0.40, 0.80),
    "anticipation": (0.70, 0.20, 0.60, 0.20, 0.50),
    "disgust": (0.60, 0.45, 0.25, 0.55, 0.70),
    "fear": (0.70, 0.60, 0.50, 0.35, 0.75),
    "joy": (0.55, 0.25, 0.30, 0.65, 0.85),
    "neutral": (0.30, 0.10, 0.20, 0.15, 0.20),
    "other": (0.40, 0.20, 0.30, 0.30, 0.40),
    "sadness": (0.65, 0.35, 0.20, 0.45, 0.80),
    "surprise": (0.80, 0.40, 0.35, 0.50, 0.60),
    "trust": (0.60, 0.15, 0.40, 0.25, 0.55),
}

SUFFIXES = ("", "", "s", "ing", "ed", "er", "ness", "ful", "ly", "ation")
SUFFIX_TAG = {"": "NN", "s": "NNS", "ing": "VBG", "ed": "VBD", "er": "NN",
              "ness": "NN", "ful": "JJ", "ly": "RB", "ation": "NN"}
FUNCTION_WORDS = ("the", "a", "and", "to", "of", "it", "was", "i", "so", "that",
                  "this", "just", "really", "about", "when", "my")
MIN_LEN, MAX_LEN = 3, 40
EMBED_DIM = 16
APPRAISAL_DIM = 3

_ONSETS = ("b", "bl", "br", "d", "dr", "f", "fl", "g", "gr", "k", "kl", "l", "m",
           "n", "p", "pl", "pr", "r", "s", "sk", "sl", "st", "t", "tr", "v", "w", "z")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "k", "m", "n", "nd", "p", "r", "rt", "sk", "st", "t", "x")


def base_stems(n: int) -> list[str]:
    """A fixed, seed-independent list of two-syllable pseudo-word stems."""
    rng = np.random.default_rng(7)
    out, seen = [], set(FUNCTION_WORDS)
    while len(out) < n:
        w = "".join(str(rng.choice(p)) for p in (_ONSETS, _NUCLEI, _ONSETS, _NUCLEI, _CODAS))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def length_schedule(n: int, median: float = 12.0, sigma: float = 0.6) -> list[int]:
    """Sentence lengths for positions 0..n-1: log-normal quantiles, clipped
    to [MIN_LEN, MAX_LEN], laid out in a fixed (seed-independent) order."""
    nd = statistics.NormalDist()
    lengths = [min(MAX_LEN, max(MIN_LEN, round(median * math.exp(sigma * nd.inv_cdf((q + 0.5) / n)))))
               for q in range(n)]
    order = np.random.default_rng(11).permutation(n)
    return [lengths[int(i)] for i in order]


class Vocabulary:
    """Seeded Zipf-Mandelbrot sampler over inflected pseudo-words."""

    def __init__(self, rng: np.random.Generator, n_stems: int):
        stems = base_stems(n_stems)
        words = [(s + suf, s, SUFFIX_TAG[suf]) for s in stems for suf in SUFFIXES[1:]]
        words += [(w, w, "DT") for w in FUNCTION_WORDS]
        order = rng.permutation(len(words))
        self.words = [words[int(i)] for i in order]
        ranks = np.arange(1, len(self.words) + 1)
        p = 1.0 / (ranks + 2.7) ** 1.07
        self.p = p / p.sum()
        self.stems = sorted({s for _, s, _ in self.words})

    def sample(self, rng: np.random.Generator, k: int) -> list[tuple[str, str]]:
        idx = rng.choice(len(self.words), size=k, p=self.p)
        return [(self.words[int(i)][0], self.words[int(i)][2]) for i in idx]


def _inflect(rng, stem: str) -> str:
    return stem + str(rng.choice(("", "", "s", "ing", "ed")))


def make_corpus(rng: np.random.Generator, vocab: Vocabulary, n: int, domain: str,
                id_prefix: str) -> tuple[list[dict], dict[str, list[str]]]:
    """Returns (records, POS tags per id). ``domain`` is reman or tec."""
    lengths = length_schedule(n)
    records, tags = [], {}
    for i in range(n):
        if domain == "tec":
            labels = [TEC_EMOTIONS[int(rng.integers(len(TEC_EMOTIONS)))]]
        else:
            pool = [e for e in REMAN_EMOTIONS if e != "neutral"]
            k = int(rng.choice(3, p=(0.2, 0.5, 0.3)))
            labels = sorted(str(e) for e in rng.choice(pool, size=k, replace=False)) if k else ["neutral"]
        profile = np.mean([COMPONENT_PROFILE[e] for e in labels], axis=0)
        cpm = [int(rng.random() < p) for p in profile]

        cues = []
        for e in labels:
            if e in EMOTION_CUES:
                cues.append((_inflect(rng, str(rng.choice(EMOTION_CUES[e]))), "JJ"))
        for j, flag in enumerate(cpm):
            if flag and rng.random() < 0.7:
                cues.append((_inflect(rng, str(rng.choice(COMPONENT_CUES[COMPONENTS[j]]))), "VB"))
        L = lengths[i]
        cues = cues[:max(1, L // 2)]
        tokens = vocab.sample(rng, L - len(cues))
        for cue in cues:
            tokens.insert(int(rng.integers(len(tokens) + 1)), cue)
        inst_id = f"{id_prefix}{i:05d}"
        records.append({"id": inst_id, "text": " ".join(w for w, _ in tokens),
                        "emotions": labels, "cpm": cpm, "domain": domain})
        # a tagger that is right most of the time
        tags[inst_id] = [t if rng.random() < 0.9 else "NN" for _, t in tokens]
    return records, tags


def write_corpus(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_pos(path: Path, tags: dict[str, list[str]]) -> None:
    path.write_text("".join(f"{i}\t{' '.join(t)}\n" for i, t in tags.items()), encoding="utf-8")


def write_embeddings(path: Path, rng: np.random.Generator, vocab: Vocabulary) -> None:
    """Vectors keyed by stem; cue stems of one class share a direction."""
    lines = []
    for cues in list(EMOTION_CUES.values()) + list(COMPONENT_CUES.values()):
        centre = rng.standard_normal(EMBED_DIM)
        for cue in cues:
            vec = centre + 0.3 * rng.standard_normal(EMBED_DIM)
            lines.append(cue + " " + " ".join(f"{v:.4f}" for v in vec))
    for stem in vocab.stems:
        lines.append(stem + " " + " ".join(f"{v:.4f}" for v in rng.standard_normal(EMBED_DIM)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_appraisal(path: Path, rng: np.random.Generator, records: list[dict]) -> None:
    lines = []
    for rec in records:
        centre = 0.7 if rec["cpm"][0] else 0.3
        vals = np.clip(centre + 0.2 * rng.standard_normal(APPRAISAL_DIM), 0.0, 1.0)
        lines.append(rec["id"] + "\t" + " ".join(f"{v:.4f}" for v in vals))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def describe(records: list[dict]) -> dict:
    """Vocabulary size, length distribution and distinct-token share
    (whitespace tokens, which is how the generator builds the text)."""
    toks = [r["text"].split() for r in records]
    lengths = sorted(len(t) for t in toks)
    flat = [w for t in toks for w in t]
    q = statistics.quantiles(lengths, n=4)
    return {"instances": len(records), "vocabulary": len(set(flat)),
            "distinct_token_share": round(len(set(flat)) / len(flat), 4),
            "length": {"min": lengths[0], "p25": q[0], "median": q[1], "p75": q[2],
                       "max": lengths[-1], "mean": round(sum(lengths) / len(lengths), 2),
                       "share_over_25": round(sum(l > 25 for l in lengths) / len(lengths), 4)}}


def generate(out: Path, seed: int, corpora: dict[str, tuple[str, int]],
             n_stems: int, sidecars: bool) -> dict:
    """Write ``<name>.jsonl`` for each ``name: (domain, size)`` and, with
    ``sidecars``, one POS, embedding and appraisal file covering all of them.
    Returns the description of each corpus."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 20211027])
    vocab = Vocabulary(rng, n_stems)
    all_records, all_tags, info = [], {}, {}
    for name, (domain, size) in corpora.items():
        records, tags = make_corpus(rng, vocab, size, domain, f"{name[:2]}")
        write_corpus(out / f"{name}.jsonl", records)
        all_records += records
        all_tags.update(tags)
        info[name] = describe(records)
    if sidecars:
        write_pos(out / "pos.tsv", all_tags)
        write_embeddings(out / "embeddings.txt", rng, vocab)
        write_appraisal(out / "appraisal.tsv", rng, all_records)
    return info
