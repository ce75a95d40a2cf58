"""Golden snapshot of the feature-based (maximum entropy) family.

The files under ``tests/golden/me/`` hold the outputs of the CLI calls in
``run_case``: test metrics and predictions for every ME tag on the bundled
REMAN-style corpus, the single-label (multinomial) path on the TEC-style
corpus, and the three ablation tables. A refactor of features, maxent or
pipeline code must reproduce them byte for byte.

``v1/`` holds a version-1 ``model.json`` (emo-cpm-me-pred on 30 instances
without the label "trust", so one one-vs-rest column is a constant
predictor), the corpus it was trained on and its predictions; current code
must read it, predict the same, and write it back in the same layout. It
was written once by ``train --model emo-cpm-me-pred --config me.cfg`` and
``predict`` on that corpus, and is not regenerated.

Regenerate the rest (only when a behaviour change is intended, and say why):

    PYTHONPATH=src python tests/test_golden_me.py tests/golden/me
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from emocomp.cli import main
from emocomp.pipeline import load_model, save_me_artifact

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "me"
CONFIG = GOLDEN / "me.cfg"

REMAN_TAGS = ("emo-me-base", "cpm-me-base", "cpm-me-adv",
              "emo-cpm-me-pred", "emo-cpm-me-gold")
TEC_TAGS = ("emo-me-base", "emo-cpm-me-pred")
TRAIN_OUTPUTS = ("metrics_test.json", "predictions.tsv")
ABLATE_OUTPUTS = ("ablation_single_feature.tsv", "ablation_best.tsv",
                  "ablation_exhaustive.tsv")


# (output subdirectory, files compared) per snapshot case
CASES = ([(f"reman/{tag}", TRAIN_OUTPUTS) for tag in REMAN_TAGS]
         + [(f"tec/{tag}", TRAIN_OUTPUTS) for tag in TEC_TAGS]
         + [("ablate", ABLATE_OUTPUTS)])


def run_case(name: str, out: Path) -> None:
    """Run the CLI calls of one case, writing into ``out / name``."""
    target = out / name
    if name == "ablate":
        calls = [["ablate", "--corpus", DATA / "ablation_corpus.jsonl",
                  "--pos-sidecar", DATA / "ablation_pos.tsv",
                  "--config", CONFIG, "--out", target]]
    else:
        corpus_name, tag = name.split("/")
        corpus = DATA / ("synthetic_reman_1000.jsonl" if corpus_name == "reman"
                         else "synthetic_tec.jsonl")
        calls = [["train", "--model", tag, "--corpus", corpus,
                  "--config", CONFIG, "--out", target],
                 ["predict", "--model-path", target / "model.json",
                  "--corpus", corpus, "--out", target]]
    for argv in calls:
        rc = main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"{' '.join(map(str, argv))} exited {rc}")


@pytest.mark.parametrize("name,files", CASES, ids=[c[0] for c in CASES])
def test_matches_golden(name, files, tmp_path, capsys):
    run_case(name, tmp_path)
    for fname in files:
        got = (tmp_path / name / fname).read_bytes()
        want = (GOLDEN / name / fname).read_bytes()
        assert got == want, f"{name}/{fname} differs from the golden snapshot"


def test_reads_and_writes_v1_model_file(tmp_path, capsys):
    v1 = GOLDEN / "v1"
    assert main(["predict", "--model-path", str(v1 / "model.json"),
                 "--corpus", str(v1 / "corpus.jsonl"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "predictions.tsv").read_bytes() == (v1 / "predictions.tsv").read_bytes()
    save_me_artifact(load_model(v1 / "model.json", {}), tmp_path / "model.json")
    assert (json.loads((tmp_path / "model.json").read_text())
            == json.loads((v1 / "model.json").read_text()))


if __name__ == "__main__":
    dest = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    for case, files in CASES:
        run_case(case, dest)
        for leftover in (dest / case).iterdir():
            if leftover.name not in files:
                leftover.unlink()
