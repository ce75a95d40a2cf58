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

from emocomp.corpus import load_corpus, split_train_test
from emocomp.pipeline import evaluate_model, train_tag

DATA = Path(__file__).resolve().parent.parent / "data"
TAGS = ("cpm-me-base", "cpm-me-adv", "emo-me-base", "emo-cpm-me-gold", "emo-cpm-me-pred")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default=str(DATA / "synthetic_tec.jsonl"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    corpus = load_corpus(args.corpus)
    train, test = split_train_test(corpus, ratio=0.9, seed=args.seed)
    print(f"{len(train)} train / {len(test)} test instances\n")
    print(f"{'model':18s}{'macro-F1':>10s}{'micro-F1':>10s}")
    for tag in TAGS:
        # cpm-me-adv and emo-cpm-me-pred use the bundled component dictionaries
        model, _ = train_tag(tag, train, {"seed": args.seed}, {})
        r = evaluate_model(model, test)
        print(f"{tag:18s}{r.macro_f1:10.4f}{r.micro_f1:10.4f}")


if __name__ == "__main__":
    main()
