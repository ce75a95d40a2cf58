"""The decision rule that turns label probabilities into label sets,
evaluation metrics, Cohen's kappa and the emotion/component co-occurrence
statistics table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import COMPONENTS, Corpus
from .errors import DataError


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass
class MetricsReport:
    per_class: dict[str, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_precision: float
    micro_recall: float
    micro_f1: float

    def to_tsv(self) -> str:
        lines = ["class\tprecision\trecall\tf1\tsupport"]
        for label, m in self.per_class.items():
            lines.append(f"{label}\t{m.precision:.6f}\t{m.recall:.6f}\t{m.f1:.6f}\t{m.support}")
        lines.append(f"macro\t{self.macro_precision:.6f}\t{self.macro_recall:.6f}\t{self.macro_f1:.6f}\t"
                     f"{sum(m.support for m in self.per_class.values())}")
        lines.append(f"micro\t{self.micro_precision:.6f}\t{self.micro_recall:.6f}\t{self.micro_f1:.6f}\t"
                     f"{sum(m.support for m in self.per_class.values())}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "per_class": {label: {"precision": m.precision, "recall": m.recall,
                                  "f1": m.f1, "support": m.support}
                          for label, m in self.per_class.items()},
            "macro": {"precision": self.macro_precision, "recall": self.macro_recall,
                      "f1": self.macro_f1},
            "micro": {"precision": self.micro_precision, "recall": self.micro_recall,
                      "f1": self.micro_f1},
        }


def decide(probs: np.ndarray, single_label: bool) -> np.ndarray:
    """The decision rule of both model families, as a boolean matrix with
    one row per row of ``probs``: the most probable label for single-label
    data (the first on ties), every label above 0.5 otherwise."""
    if single_label:
        return np.eye(probs.shape[1], dtype=bool)[probs.argmax(axis=1)]
    return probs > 0.5


def label_sets(decisions: np.ndarray, labels: tuple[str, ...]) -> list[set[str]]:
    """The chosen labels of each row of a boolean or 0/1 decision matrix; a
    row that chooses nothing reads ``{"neutral"}`` when ``labels`` has it."""
    fallback = "neutral" in labels
    return [{l for l, chosen in zip(labels, row) if chosen} or ({"neutral"} if fallback else set())
            for row in decisions]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if (p + r) else 0.0


def evaluate(gold: dict[str, set[str]], predicted: dict[str, set[str]],
             inventory: tuple[str, ...]) -> MetricsReport:
    """Per-class P/R/F1 from one-vs-rest TP/FP/FN counting over label sets.

    Single-label corpora pass singleton sets; the counting is identical.
    """
    if set(gold) != set(predicted):
        missing = set(gold) ^ set(predicted)
        raise DataError(f"gold/predicted instance ids differ: {sorted(missing)[:5]}")
    per_class: dict[str, ClassMetrics] = {}
    total_tp = total_fp = total_fn = 0
    for label in inventory:
        tp = fp = fn = support = 0
        for inst_id, g in gold.items():
            p = predicted[inst_id]
            in_g, in_p = label in g, label in p
            if in_g:
                support += 1
            if in_g and in_p:
                tp += 1
            elif in_p:
                fp += 1
            elif in_g:
                fn += 1
        prec, rec = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
        per_class[label] = ClassMetrics(prec, rec, _f1(prec, rec), support, tp, fp, fn)
        total_tp += tp
        total_fp += fp
        total_fn += fn
    n = len(inventory)
    macro_p = sum(m.precision for m in per_class.values()) / n
    macro_r = sum(m.recall for m in per_class.values()) / n
    macro_f = sum(m.f1 for m in per_class.values()) / n
    micro_p = _ratio(total_tp, total_tp + total_fp)
    micro_r = _ratio(total_tp, total_tp + total_fn)
    return MetricsReport(per_class, macro_p, macro_r, macro_f,
                         micro_p, micro_r, _f1(micro_p, micro_r))


# ---------------------------------------------------------------------------
# Cohen's kappa
# ---------------------------------------------------------------------------

def cohen_kappa(a: list[int], b: list[int]) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e) for two annotators.

    When both annotators are constant on the same label (p_e == 1) the
    annotations agree everywhere and 1.0 is returned.
    """
    if len(a) != len(b):
        raise DataError(f"annotation vectors differ in length: {len(a)} vs {len(b)}")
    if not a:
        raise DataError("empty agreement record")
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    categories = set(a) | set(b)
    p_e = sum((a.count(c) / n) * (b.count(c) / n) for c in categories)
    if abs(1.0 - p_e) < 1e-15:
        if p_o == 1.0:
            return 1.0
        raise DataError("kappa undefined: chance agreement is 1 but annotations disagree")
    return (p_o - p_e) / (1.0 - p_e)


def agreement_degenerate(a: list[int], b: list[int]) -> bool:
    """True when neither annotator ever used more than one label value, so
    chance-corrected agreement carries no information (rendered as '--')."""
    return len(set(a)) == 1 and len(set(b)) == 1


# ---------------------------------------------------------------------------
# Co-occurrence statistics
# ---------------------------------------------------------------------------

@dataclass
class CooccurrenceTable:
    emotions: tuple[str, ...]
    counts: dict[str, list[int]]        # emotion -> per-component counts
    emotion_totals: dict[str, int]      # instances carrying the emotion
    component_totals: list[int]         # instances with the component flag set
    corpus_size: int

    def percentage(self, emotion: str, component_index: int) -> float:
        total = self.emotion_totals[emotion]
        return 100.0 * self.counts[emotion][component_index] / total if total else 0.0

    def total_percentage(self, component_index: int) -> float:
        return (100.0 * self.component_totals[component_index] / self.corpus_size
                if self.corpus_size else 0.0)


def round_half_up(x: float) -> int:
    import math
    return int(math.floor(x + 0.5))


def cooccurrence_stats(corpus: Corpus) -> CooccurrenceTable:
    """Per emotion: how many instances carry each component flag, plus a
    totals row counting instances (not emotion mentions) per component."""
    counts = {e: [0] * len(COMPONENTS) for e in corpus.emotion_inventory}
    emotion_totals = {e: 0 for e in corpus.emotion_inventory}
    component_totals = [0] * len(COMPONENTS)
    for inst in corpus:
        for j, flag in enumerate(inst.cpm):
            if flag:
                component_totals[j] += 1
        for e in inst.emotions:
            emotion_totals[e] += 1
            for j, flag in enumerate(inst.cpm):
                if flag:
                    counts[e][j] += 1
    return CooccurrenceTable(corpus.emotion_inventory, counts, emotion_totals,
                             component_totals, len(corpus))
