"""The three benchmark workloads: inputs, timed verb calls and output checks.

Each workload drives the public CLI in-process through ``emocomp.cli.main``
(looked up at call time, so a tracer's patch applies). The program only
ever sees the generated files under ``inputs/``.

The CLI gets a fixed ``--seed``: the 90/10 split and the dev slice then
pick the same positions for every workload seed, and with the positional
length schedule of ``gen`` the train and test splits have the same length
profile whatever the seed. The workload seed varies the content.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen

CLI_SEED = "1"
NN_EPOCHS = "1"


@dataclass
class Call:
    """One verb call: its wall time and what went wrong, if anything."""
    name: str
    seconds: float
    errors: list[str] = field(default_factory=list)


def _split_sizes(n: int, ratio: float = 0.9) -> tuple[int, int]:
    """(train, test) sizes of the CLI's floored split."""
    n_test = int(math.floor(n * (1.0 - ratio) + 1e-9))
    return n - n_test, n_test


def _read_records(corpus: Path) -> list[dict]:
    return [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines() if line]


def _macro_f1(gold: list[set], pred: list[set], inventory) -> float:
    """Computed here, not with emocomp.metrics, so it does not rest on the
    code under test."""
    f1s = []
    for label in inventory:
        tp = sum(label in g and label in p for g, p in zip(gold, pred))
        fp = sum(label not in g and label in p for g, p in zip(gold, pred))
        fn = sum(label in g and label not in p for g, p in zip(gold, pred))
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return sum(f1s) / len(f1s)


class Workload:
    name = ""
    corpora: dict[str, tuple[str, int]] = {}
    n_stems = 0
    # Adam iterations per maxent fit, passed in a --config file. The default
    # is 300; 100 lets a me-train cycle (116 fits) run twice in a run. The
    # work per iteration is unchanged, the per-fit set-up gets 3x its share
    # (see README.md, "Sizing").
    me_iterations = 100

    def setup(self, work: Path, seed: int) -> dict:
        """Write the inputs; return their description."""
        inputs = work / "inputs"
        info = gen.generate(inputs, seed, self.corpora, self.n_stems, sidecars=True)
        (inputs / "me.cfg").write_text(f"me_iterations = {self.me_iterations}\n",
                                       encoding="utf-8")
        return info

    def calls(self, work: Path, out: Path) -> list[tuple[str, list[str]]]:
        """(name, argv) of each timed verb call, writing under ``out/name``."""
        raise NotImplementedError

    def resources(self, work: Path) -> list[str]:
        i = work / "inputs"
        return ["--advanced", "--pos-sidecar", str(i / "pos.tsv"),
                "--embeddings", str(i / "embeddings.txt"),
                "--appraisal-sidecar", str(i / "appraisal.tsv")]

    def summarise(self, calls: list[Call], out: Path, work: Path) -> dict:
        """Per-cycle figures beyond wall time."""
        return {}


def train_f1s(calls: list[Call], out: Path) -> list[float]:
    return [json.loads((out / c.name / "metrics_test.json").read_text())["macro"]["f1"]
            for c in calls if c.name.startswith("train") and not c.errors]


class NnTrain(Workload):
    """emo-nn-base and mtl-xs training, one epoch each, with dev scoring."""
    name = "nn-train"
    corpora = {"corpus": ("reman", 100)}
    n_stems = 300
    tags = ("emo-nn-base", "mtl-xs")

    def calls(self, work, out):
        corpus = str(work / "inputs" / "corpus.jsonl")
        return [(f"train-{tag}", ["train", "--model", tag, "--corpus", corpus,
                                  "--seed", CLI_SEED, "--epochs", NN_EPOCHS,
                                  "--out", str(out / f"train-{tag}")])
                for tag in self.tags]

    def summarise(self, calls, out, work):
        n_train, _ = _split_sizes(self.corpora["corpus"][1])
        n_fit, _ = _split_sizes(n_train)   # the dev slice is held out of training
        train_s = sum(c.seconds for c in calls)
        return {"train_ex": n_fit * int(NN_EPOCHS) * len(calls), "train_s": train_s,
                "f1": train_f1s(calls, out)}


class MeTrain(Workload):
    """emo-me-base training; cpm-me-adv training and ablate with all four resources."""
    name = "me-train"
    corpora = {"corpus": ("reman", 150)}
    n_stems = 100

    def calls(self, work, out):
        i = work / "inputs"
        corpus = str(i / "corpus.jsonl")
        common = ["--corpus", corpus, "--seed", CLI_SEED, "--config", str(i / "me.cfg")]
        return [
            ("train-emo-me-base", ["train", "--model", "emo-me-base", *common,
                                   "--out", str(out / "train-emo-me-base")]),
            ("train-cpm-me-adv", ["train", "--model", "cpm-me-adv", *common,
                                  *self.resources(work), "--out", str(out / "train-cpm-me-adv")]),
            ("ablate", ["ablate", *common, *self.resources(work), "--out", str(out / "ablate")]),
        ]

    def summarise(self, calls, out, work):
        n_train, _ = _split_sizes(self.corpora["corpus"][1])
        trains = [c for c in calls if c.name.startswith("train")]
        return {"train_ex": n_train * len(trains), "train_s": sum(c.seconds for c in trains),
                "ablate_s": sum(c.seconds for c in calls if c.name == "ablate"),
                "f1": train_f1s(calls, out)}


class Predict(Workload):
    """Prediction with an mtl-xs checkpoint and an emo-cpm-me-pred artifact
    that set-up trains."""
    name = "predict"
    corpora = {"train": ("tec", 60), "heldout": ("tec", 300)}
    n_stems = 150
    models = (("mtl-xs", "checkpoint.json"), ("emo-cpm-me-pred", "model.json"))

    def setup(self, work, seed):
        info = super().setup(work, seed)
        i = work / "inputs"
        argvs = {
            "mtl-xs": ["train", "--model", "mtl-xs", "--corpus", str(i / "train.jsonl"),
                       "--seed", CLI_SEED, "--epochs", NN_EPOCHS, "--out", str(i / "mtl-xs")],
            "emo-cpm-me-pred": ["train", "--model", "emo-cpm-me-pred",
                                "--corpus", str(i / "train.jsonl"), "--seed", CLI_SEED,
                                "--config", str(i / "me.cfg"), *self.resources(work),
                                "--out", str(i / "emo-cpm-me-pred")],
        }
        for tag, argv in argvs.items():
            call = run_call(f"train-{tag}", argv)
            if not call.errors:
                call.errors += check(call.name, i / tag, work)
            if call.errors:
                raise RuntimeError("; ".join(call.errors))
        return info

    def calls(self, work, out):
        i = work / "inputs"
        heldout = str(i / "heldout.jsonl")
        res = self.resources(work)[1:]   # --advanced is a training flag
        # the training seed, so the hashed fallback embeddings of held-out
        # tokens are the ones mtl-xs was trained with
        return [(f"predict-{tag}", ["predict", "--model-path", str(i / tag / fname),
                                    "--corpus", heldout, "--seed", CLI_SEED,
                                    *(res if fname == "model.json" else []),
                                    "--out", str(out / f"predict-{tag}")])
                for tag, fname in self.models]

    def summarise(self, calls, out, work):
        records = _read_records(work / "inputs" / "heldout.jsonl")
        gold = {r["id"]: set(r["emotions"]) for r in records}
        insts, f1s = 0, []
        for c in calls:
            if c.errors:
                continue
            rows = [l.split("\t") for l in
                    (out / c.name / "predictions.tsv").read_text().splitlines()[1:]]
            insts += len(rows)
            f1s.append(_macro_f1([gold[r[0]] for r in rows], [set(r[1].split()) for r in rows],
                                 gen.TEC_EMOTIONS))
        return {"predict_inst": insts, "predict_s": sum(c.seconds for c in calls), "f1": f1s}


WORKLOADS = {w.name: w for w in (NnTrain(), MeTrain(), Predict())}


def _check_train(name: str, out: Path, work: Path) -> list[str]:
    try:
        f1 = json.loads((out / "metrics_test.json").read_text())["macro"]["f1"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{name}: unreadable metrics_test.json ({exc})"]
    return [] if 0.0 <= f1 <= 1.0 else [f"{name}: macro-F1 {f1} outside [0, 1]"]


def _check_ablate(name: str, out: Path, work: Path) -> list[str]:
    errors = []
    for fname in ("ablation_single_feature.tsv", "ablation_best.tsv", "ablation_exhaustive.tsv"):
        path = out / fname
        rows = path.read_text().splitlines()[1:] if path.exists() else []
        got = {r.split("\t")[0] for r in rows}
        if got != set(gen.COMPONENTS):
            errors.append(f"{name}: {fname} covers {sorted(got)}, not the five components")
    return errors


def _check_predict(name: str, out: Path, work: Path) -> list[str]:
    """Every held-out id exactly once, one label from the (single-label,
    TEC) inventory, components from the five."""
    path = out / "predictions.tsv"
    if not path.exists():
        return [f"{name}: no predictions.tsv"]
    lines = path.read_text(encoding="utf-8").splitlines()
    errors = []
    if lines[:1] != ["id\temotions\tcpm"]:
        errors.append(f"{name}: bad header {lines[:1]}")
    rows = [l.split("\t") for l in lines[1:]]
    ids = [r["id"] for r in _read_records(work / "inputs" / "heldout.jsonl")]
    if sorted(r[0] for r in rows) != sorted(ids):
        errors.append(f"{name}: predictions do not cover each input id exactly once")
    bad = [r for r in rows if len(r) != 3 or len(r[1].split()) != 1
           or not set(r[1].split()) <= set(gen.TEC_EMOTIONS)
           or not set(r[2].split()) <= set(gen.COMPONENTS)]
    if bad:
        errors.append(f"{name}: {len(bad)} malformed rows, first {bad[0]}")
    return errors


def check(name: str, out: Path, work: Path) -> list[str]:
    """Output checks beyond the exit code, by verb (the call name's prefix)."""
    verb = name.split("-", 1)[0]
    return {"train": _check_train, "ablate": _check_ablate,
            "predict": _check_predict}[verb](name, out, work)


def run_call(name: str, argv: list[str]) -> Call:
    from emocomp import cli
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    call = Call(name, time.perf_counter() - t0)
    if rc != 0:
        call.errors.append(f"{name}: exit {rc}")
    return call


def run_cycle(wl: Workload, work: Path, out: Path) -> list[Call]:
    calls = []
    for name, argv in wl.calls(work, out):
        call = run_call(name, argv)
        if not call.errors:
            call.errors += check(name, out / name, work)
        calls.append(call)
    return calls


# Model files are outside the determinism contract: the key order of a
# stored TF-IDF table follows string hashing, which changes per process.
MODEL_FILES = ("model.json", "checkpoint.json")


def output_digest(out: Path) -> dict[str, bytes]:
    """The bytes of every file under ``out`` that the README's determinism
    contract covers: all but model files, and the training log without its
    timestamp header."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name not in MODEL_FILES:
            data = path.read_bytes()
            if path.name == "training_log.txt":
                data = data.split(b"\n", 1)[-1]
            files[str(path.relative_to(out))] = data
    return files
