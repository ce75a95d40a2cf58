#!/usr/bin/env python3
"""Train every feature-based model on the bundled synthetic tweet corpus
and print test-set F1 scores side by side, mirroring the published
evaluation protocol (90/10 split, 0.5 decision threshold).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from importlib import resources as importlib_resources

from emocomp.corpus import COMPONENTS, load_corpus, split_train_test
from emocomp.features import load_lexicon
from emocomp.maxent import AdvResources, MaxEntConfig
from emocomp.pipeline import evaluate_model, train_component_me, train_emotion_me

DATA = Path(__file__).resolve().parent.parent / "data"


def bundled_lexicon_loader(tfidf, instance_ids):
    base = importlib_resources.files("emocomp") / "lexicons"
    lexicons = [load_lexicon(str(base / f"{c}.txt"), c) for c in COMPONENTS]
    res = AdvResources(tfidf, lexicons=lexicons)
    res.fit_pos_inventory(instance_ids)
    return res


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default=str(DATA / "synthetic_tec.jsonl"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    corpus = load_corpus(args.corpus)
    train, test = split_train_test(corpus, ratio=0.9, seed=args.seed)
    config = MaxEntConfig(seed=args.seed)
    print(f"{len(train)} train / {len(test)} test instances\n")
    print(f"{'model':18s}{'macro-F1':>10s}{'micro-F1':>10s}")

    cpm_base = train_component_me(train, config)
    r = evaluate_model(cpm_base, test)
    print(f"{'cpm-me-base':18s}{r.macro_f1:10.4f}{r.micro_f1:10.4f}")

    cpm_adv = train_component_me(train, config, bundled_lexicon_loader,
                                 seed=args.seed)
    r = evaluate_model(cpm_adv, test)
    print(f"{'cpm-me-adv':18s}{r.macro_f1:10.4f}{r.micro_f1:10.4f}")

    emo_base = train_emotion_me(train, config)
    r = evaluate_model(emo_base, test)
    print(f"{'emo-me-base':18s}{r.macro_f1:10.4f}{r.micro_f1:10.4f}")

    emo_gold = train_emotion_me(train, config, stack_source="gold")
    r = evaluate_model(emo_gold, test)
    print(f"{'emo-cpm-me-gold':18s}{r.macro_f1:10.4f}{r.micro_f1:10.4f}")

    emo_pred = train_emotion_me(train, config, stack_source="predicted",
                                cpm_artifact=cpm_adv)
    r = evaluate_model(emo_pred, test)
    print(f"{'emo-cpm-me-pred':18s}{r.macro_f1:10.4f}{r.micro_f1:10.4f}")


if __name__ == "__main__":
    main()
