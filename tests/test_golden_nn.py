"""Golden snapshot of the neural family.

The files under ``tests/golden/nn/`` hold the outputs of the CLI calls in
``run_case``: test metrics and predictions of every neural tag after two
epochs with seed 4, on the bundled TEC-style corpus and on the first 300
records of the bundled REMAN-style corpus. A refactor of the autodiff
engine, the layers or the training loop must reproduce them byte for byte.

``v1/`` holds two version-1 checkpoints written once from ``v1/corpus.jsonl``
with ``v1/nn.cfg`` (small layers, 8-dimensional hashed embeddings):
``mtl-xs`` with trunks of unequal size, so the stitch projections are
stored too, and ``emo-cpm-nn-pred`` with its frozen component model.
Each was made by

    emocomp train --model <tag> --corpus v1/corpus.jsonl --config v1/nn.cfg --seed 4
    emocomp predict --model-path checkpoint.json --corpus v1/corpus.jsonl --config v1/nn.cfg --seed 4

and is not regenerated; current code must load them and predict the same.

Regenerate the rest (only when a behaviour change is intended, and say why):

    PYTHONPATH=src python tests/test_golden_nn.py tests/golden/nn
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

from emocomp.cli import main
from emocomp.nn import NN_TAGS, load_checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "nn"
V1 = GOLDEN / "v1"
V1_TAGS = ("mtl-xs", "emo-cpm-nn-pred")
REMAN_RECORDS = 300
OUTPUTS = ("metrics_test.json", "predictions.tsv")
SEED = "4"

CASES = [f"{corpus}/{tag}" for corpus in ("tec", "reman") for tag in NN_TAGS]


def corpus_path(corpus: str, corpora: Path) -> Path:
    """The TEC-style corpus, or the REMAN-style slice written into ``corpora``."""
    if corpus == "tec":
        return DATA / "synthetic_tec.jsonl"
    path = corpora / f"reman_{REMAN_RECORDS}.jsonl"
    if not path.exists():
        lines = (DATA / "synthetic_reman_1000.jsonl").read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:REMAN_RECORDS]) + "\n", encoding="utf-8")
    return path


def run_case(name: str, out: Path, corpora: Path) -> None:
    """Train and predict one case, writing into ``out / name``."""
    corpus_name, tag = name.split("/")
    corpus = corpus_path(corpus_name, corpora)
    target = out / name
    calls = [["train", "--model", tag, "--corpus", corpus, "--epochs", "2",
              "--seed", SEED, "--out", target],
             ["predict", "--model-path", target / "checkpoint.json",
              "--corpus", corpus, "--seed", SEED, "--out", target]]
    for argv in calls:
        rc = main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"{' '.join(map(str, argv))} exited {rc}")


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    return tmp_path_factory.mktemp("corpora")


@pytest.mark.parametrize("name", CASES)
def test_matches_golden(name, corpora, tmp_path, capsys):
    run_case(name, tmp_path, corpora)
    for fname in OUTPUTS:
        got = (tmp_path / name / fname).read_bytes()
        want = (GOLDEN / name / fname).read_bytes()
        assert got == want, f"{name}/{fname} differs from the golden snapshot"


@pytest.mark.parametrize("tag", V1_TAGS)
def test_loads_v1_checkpoint(tag, tmp_path, capsys):
    assert main(["predict", "--model-path", str(V1 / tag / "checkpoint.json"),
                 "--corpus", str(V1 / "corpus.jsonl"), "--config", str(V1 / "nn.cfg"),
                 "--seed", SEED, "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "predictions.tsv").read_bytes()
            == (V1 / tag / "predictions.tsv").read_bytes())


@pytest.mark.parametrize("tag", V1_TAGS)
def test_v1_checkpoint_resaves_byte_identical(tag, tmp_path):
    # fixes the layout of a saved model: parameter names, their order and
    # every number, frozen submodel included
    source = V1 / tag / "checkpoint.json"
    save_checkpoint(load_checkpoint(source), tmp_path / "checkpoint.json")
    assert (tmp_path / "checkpoint.json").read_bytes() == source.read_bytes()


if __name__ == "__main__":
    dest = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            run_case(case, dest, Path(tmp))
            for leftover in (dest / case).iterdir():
                if leftover.name not in OUTPUTS:
                    leftover.unlink()
