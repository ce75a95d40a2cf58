"""Corpus schema, JSONL loading, splits and cross-validation folds.

A corpus file is UTF-8, one JSON object per line with fields ``id``,
``text``, ``emotions`` (array), ``cpm`` (5-int array) and ``domain``
(``tec`` | ``reman`` | ``other``). An optional first line without an
``id`` acts as a header and may declare ``mode`` and ``inventory`` for
``other``-domain corpora; the other domains fix both, so there it may not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorpusFormatError
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

DOMAINS = ("tec", "reman", "other")

SINGLE_LABEL = "single-label"
MULTI_LABEL = "multi-label"


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


def _mode_for_domain(domain: str) -> str:
    return SINGLE_LABEL if domain == "tec" else MULTI_LABEL


def _inventory_for_domain(domain: str) -> tuple[str, ...] | None:
    if domain == "tec":
        return TEC_EMOTIONS
    if domain == "reman":
        return REMAN_EMOTIONS
    return None


def _names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_corpus(path: str | Path) -> Corpus:
    instances: list[Instance] = []
    seen_ids: set[str] = set()
    header_mode = header_inventory = header_line = domain = None

    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise CorpusFormatError(f"cannot open corpus file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:   # or nested too deep
                raise CorpusFormatError(f"invalid JSON: {exc}", line=lineno) from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"a record must be a JSON object, got {record!r}", line=lineno)
            if "id" not in record:
                if lineno == 1 or not instances:
                    header_mode = record.get("mode")
                    if header_mode not in (None, SINGLE_LABEL, MULTI_LABEL):
                        raise CorpusFormatError(f"unknown mode {header_mode!r}", line=lineno)
                    inv = record.get("inventory")
                    if inv is not None and not _names(inv):
                        raise CorpusFormatError(f"inventory must be an array of label names, "
                                                f"got {inv!r}", line=lineno)
                    header_inventory = tuple(inv) if inv else None
                    if header_mode is not None or inv is not None:
                        header_line = lineno
                    continue
                raise CorpusFormatError("record missing 'id'", line=lineno)
            inst_id = record["id"]
            if not isinstance(inst_id, str):
                raise CorpusFormatError(f"id must be a string, got {inst_id!r}", line=lineno)
            if inst_id in seen_ids:
                raise CorpusFormatError(f"duplicate id {inst_id!r}", line=lineno)
            seen_ids.add(inst_id)
            rec_domain = record.get("domain", "other")
            if rec_domain not in DOMAINS:
                raise CorpusFormatError(f"domain must be one of {', '.join(DOMAINS)}, "
                                        f"got {rec_domain!r}", line=lineno)
            if domain is None:
                domain = rec_domain
            elif rec_domain != domain:
                raise CorpusFormatError(
                    f"mixed domains {domain!r} and {rec_domain!r}", line=lineno)
            cpm = record.get("cpm", [])
            if (not isinstance(cpm, list) or len(cpm) != len(COMPONENTS)
                    or any(v not in (0, 1) for v in cpm)):
                raise CorpusFormatError(
                    f"cpm must be 5 binary flags, got {cpm!r}", line=lineno)
            text, emotions = record.get("text", ""), record.get("emotions", [])
            if not isinstance(text, str):
                raise CorpusFormatError(f"text must be a string, got {text!r}", line=lineno)
            if not _names(emotions):
                raise CorpusFormatError(f"emotions must be an array of label names, "
                                        f"got {emotions!r}", line=lineno)
            emotions = frozenset(emotions)
            if rec_domain == "reman" and not emotions:
                emotions = frozenset({"neutral"})
            instances.append(Instance(inst_id, text, emotions,
                                      tuple(int(v) for v in cpm), rec_domain))

    domain = domain or "other"
    if domain != "other" and header_line is not None:
        raise CorpusFormatError(f"a header may declare mode and inventory only for an 'other' "
                                f"corpus, not for a {domain!r} one", line=header_line)
    inventory = _inventory_for_domain(domain) or header_inventory
    if inventory is None:
        inventory = tuple(sorted(set().union(*(i.emotions for i in instances)) if instances else set()))
    mode = header_mode or _mode_for_domain(domain)

    for inst in instances:
        unknown = inst.emotions - set(inventory)
        if unknown:
            raise CorpusFormatError(
                f"id {inst.id!r}: unknown labels {sorted(unknown)} (inventory {list(inventory)})")
        if mode == SINGLE_LABEL and len(inst.emotions) != 1:
            raise CorpusFormatError(
                f"id {inst.id!r}: single-label corpus requires exactly one emotion, got {sorted(inst.emotions)}")
    return Corpus(instances, tuple(inventory), mode)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    write_text(path, "".join(json.dumps({
        "id": inst.id, "text": inst.text,
        "emotions": sorted(inst.emotions),
        "cpm": list(inst.cpm), "domain": inst.domain,
    }) + "\n" for inst in corpus))


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
