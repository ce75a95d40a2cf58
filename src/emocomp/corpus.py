"""Corpus schema, JSONL loading, splits and cross-validation folds.

A corpus file is UTF-8, one JSON object per line with fields ``id``,
``text``, ``emotions`` (array), ``cpm`` (5-int array) and ``domain``
(``tec`` | ``reman`` | ``other``). The first non-blank line, when it has no
``id``, is a header that may declare ``mode`` and ``inventory`` for an
``other``-domain corpus; the other domains fix both, so there it may not.
An ``id`` holds no tab or line break and a label is one run of
non-whitespace characters, so that ``predictions.tsv`` can hold them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorpusFormatError, DataError, stored_names
from .fileio import write_text

COMPONENTS = (
    "cognitive_appraisal",
    "neurophysiological_symptoms",
    "action_tendencies",
    "motor_expressions",
    "subjective_feelings",
)

TEC_EMOTIONS = ("anger", "disgust", "fear", "joy", "sadness", "surprise")
REMAN_EMOTIONS = ("anger", "anticipation", "disgust", "fear", "joy",
                  "neutral", "other", "sadness", "surprise", "trust")

SINGLE_LABEL = "single-label"
MULTI_LABEL = "multi-label"

# the mode and inventory a domain fixes; an ``other`` corpus takes its header's
_DOMAIN_LABELS = {"tec": (SINGLE_LABEL, TEC_EMOTIONS), "reman": (MULTI_LABEL, REMAN_EMOTIONS)}
DOMAINS = (*_DOMAIN_LABELS, "other")


@dataclass(frozen=True)
class Instance:
    id: str
    text: str
    emotions: frozenset[str]
    cpm: tuple[int, int, int, int, int]
    domain: str = "other"


@dataclass
class Corpus:
    instances: list[Instance]
    emotion_inventory: tuple[str, ...]
    mode: str  # SINGLE_LABEL or MULTI_LABEL

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    def subset(self, instances: list[Instance]) -> "Corpus":
        return Corpus(instances, self.emotion_inventory, self.mode)


def _labels(value, what: str, line: int) -> tuple[str, ...]:
    """``value`` as distinct label names (the rule of ``errors.stored_names``), each
    one run of non-whitespace characters: ``predictions.tsv`` joins labels with spaces."""
    try:
        labels = stored_names(value, what)
    except DataError as exc:
        raise CorpusFormatError(str(exc), line=line) from None
    if any(label.split() != [label] for label in labels):
        raise CorpusFormatError(f"{what} must hold non-empty labels without whitespace, "
                                f"got {list(labels)!r}", line=line)
    return labels


def load_corpus(path: str | Path) -> Corpus:
    instances: list[Instance] = []
    seen_ids: set[str] = set()
    first = header_line = domain = mode = inventory = None

    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise CorpusFormatError(f"cannot open corpus file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            first = first or lineno
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:   # or nested too deep
                raise CorpusFormatError(f"invalid JSON: {exc}", line=lineno) from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"a record must be a JSON object, got {record!r}", line=lineno)
            if "id" not in record:
                if lineno != first:
                    raise CorpusFormatError("record missing 'id'", line=lineno)
                mode, inventory = record.get("mode"), record.get("inventory")
                if mode not in (None, SINGLE_LABEL, MULTI_LABEL):
                    raise CorpusFormatError(f"unknown mode {mode!r}", line=lineno)
                if inventory is not None:
                    inventory = _labels(inventory, "inventory", lineno)
                header_line = lineno if mode is not None or inventory is not None else None
                continue
            inst_id = record["id"]
            if not isinstance(inst_id, str):
                raise CorpusFormatError(f"id must be a string, got {inst_id!r}", line=lineno)
            if "\t" in inst_id or "".join(inst_id.splitlines()) != inst_id:
                raise CorpusFormatError(f"id {inst_id!r} holds a tab or a line break", line=lineno)
            if inst_id in seen_ids:
                raise CorpusFormatError(f"duplicate id {inst_id!r}", line=lineno)
            seen_ids.add(inst_id)
            rec_domain = record.get("domain", "other")
            if rec_domain not in DOMAINS:
                raise CorpusFormatError(f"domain must be one of {', '.join(DOMAINS)}, "
                                        f"got {rec_domain!r}", line=lineno)
            if domain is None:
                domain = rec_domain
                if domain in _DOMAIN_LABELS:
                    if header_line is not None:
                        raise CorpusFormatError(
                            f"a header may declare mode and inventory only for an 'other' "
                            f"corpus, not for a {domain!r} one", line=header_line)
                    mode, inventory = _DOMAIN_LABELS[domain]
            elif rec_domain != domain:
                raise CorpusFormatError(f"mixed domains {domain!r} and {rec_domain!r}", line=lineno)
            cpm = record.get("cpm", [])
            if (not isinstance(cpm, list) or len(cpm) != len(COMPONENTS)
                    or any(v not in (0, 1) for v in cpm)):
                raise CorpusFormatError(f"cpm must be 5 binary flags, got {cpm!r}", line=lineno)
            text = record.get("text", "")
            if not isinstance(text, str):
                raise CorpusFormatError(f"text must be a string, got {text!r}", line=lineno)
            emotions = frozenset(_labels(record.get("emotions", []), "emotions", lineno))
            if domain == "reman" and not emotions:
                emotions = frozenset({"neutral"})
            if inventory and not emotions.issubset(inventory):
                raise CorpusFormatError(
                    f"id {inst_id!r}: unknown labels {sorted(emotions.difference(inventory))} "
                    f"(inventory {list(inventory)})", line=lineno)
            if mode == SINGLE_LABEL and len(emotions) != 1:
                raise CorpusFormatError(
                    f"id {inst_id!r}: single-label corpus requires exactly one emotion, "
                    f"got {sorted(emotions)}", line=lineno)
            instances.append(Instance(inst_id, text, emotions, tuple(map(int, cpm)), domain))

    # an ``other`` corpus without a declared inventory has the labels its records use
    inventory = inventory or tuple(sorted(set().union(*(i.emotions for i in instances))))
    return Corpus(instances, inventory, mode or MULTI_LABEL)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write ``corpus`` so that :func:`load_corpus` reads it back equal: a corpus
    whose domain fixes no mode and inventory (``other``, or no instances) starts
    with a header that declares both."""
    fixed = corpus.instances and corpus.instances[0].domain in _DOMAIN_LABELS
    header = [] if fixed else [{"mode": corpus.mode, "inventory": list(corpus.emotion_inventory)}]
    write_text(path, "".join(json.dumps(record) + "\n" for record in header + [{
        "id": inst.id, "text": inst.text,
        "emotions": sorted(inst.emotions),
        "cpm": list(inst.cpm), "domain": inst.domain,
    } for inst in corpus]))


def split_indices(n: int, ratio: float = 0.9, seed: int = 0) -> tuple[list[int], list[int]]:
    """Seeded shuffle then split of ``range(n)``; the test share is floored,
    remainder trains. Train indices ascend; test indices keep shuffle order.
    """
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")
    n_test = int(math.floor(n * (1.0 - ratio) + 1e-9))
    order = np.random.default_rng(seed).permutation(n)
    test = order[:n_test].tolist()
    test_set = set(test)
    return [i for i in range(n) if i not in test_set], test


def split_train_test(corpus: Corpus, ratio: float = 0.9, seed: int = 0) -> tuple[Corpus, Corpus]:
    """:func:`split_indices` applied to the corpus instances.

    1000 instances at 0.9 give 900/100; 2041 give 1837/204.
    """
    train, test = split_indices(len(corpus), ratio, seed)
    return (corpus.subset([corpus.instances[i] for i in train]),
            corpus.subset([corpus.instances[i] for i in test]))


def kfold(corpus: Corpus, k: int = 10, seed: int = 0) -> list[list[int]]:
    """Disjoint, exhaustive folds of size floor(N/k) or ceil(N/k)."""
    n = len(corpus)
    if k < 2 or k > n:
        raise ConfigError(f"k must be in [2, {n}], got {k}")
    order = np.random.default_rng(seed).permutation(n)
    return [part.tolist() for part in np.array_split(order, k)]
