"""Golden snapshot of the neural family.

The files under ``tests/golden/nn/`` hold the outputs of the CLI calls in
``run_case``: test metrics and predictions of every neural tag after two
epochs with seed 4, on the bundled TEC-style corpus and on the first 300
records of the bundled REMAN-style corpus. A refactor of the autodiff
engine, the layers or the training loop must reproduce them byte for byte.
``TRAINED`` pins the trained parameters and the loss curve of each case as
well: the sha256 of its ``checkpoint.json``, and of its ``training_log.txt``
without the timestamp line. Both were recorded with the per-example training
loop, before minibatches ran as one padded batch, so they also prove that
batching changed no bit of training.

OpenBLAS picks its kernel by CPU, and kernels round gemm and gemv
differently, so a trained checkpoint is byte-identical only on one kernel.
``TRAINED`` holds a table per kernel of numpy's bundled OpenBLAS: SkylakeX
(AVX-512) and Haswell (AVX2). The kernel is read from the library; on a
kernel or a BLAS without a table the digest check is skipped, naming it.
``test_matches_golden_on_haswell`` runs every case once more in a
subprocess forced onto Haswell (``OPENBLAS_CORETYPE=Haswell``), so both
tables stay tested on an AVX-512 machine.

``v1/`` holds two version-1 checkpoints written once from ``v1/corpus.jsonl``
with ``v1/nn.cfg`` (small layers, 8-dimensional hashed embeddings):
``mtl-xs`` with trunks of unequal size, so the stitch projections are
stored too, and ``emo-cpm-nn-pred`` with its frozen component model.
Each was made by

    emocomp train --model <tag> --corpus v1/corpus.jsonl --config v1/nn.cfg --seed 4
    emocomp predict --model-path checkpoint.json --corpus v1/corpus.jsonl --config v1/nn.cfg --seed 4

and is not regenerated; current code must load them and predict the same.

Regenerate the rest (only when a behaviour change is intended, and say why;
then record ``TRAINED`` anew as well):

    PYTHONPATH=src python tests/test_golden_nn.py tests/golden/nn

Its last output line is a JSON object with the running BLAS kernel and its
``TRAINED`` table; with ``OPENBLAS_CORETYPE=<kernel>`` set it records the
table of another kernel (into any directory, leaving the goldens alone).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
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

# sha256 of checkpoint.json and of training_log.txt without its timestamp
# line, per OpenBLAS kernel
TRAINED = {
    "SkylakeX": {
        "tec/emo-nn-base": ("22978f6fc1aa6fbcde4fba139bf8f3910b5d66e04251f5b6236af63e18bad553",
                           "3951b6f9033026dbc86570f934250633b481762baac224b8d6774c24efec3af9"),
        "tec/cpm-nn-base": ("5d5d4556e8bcd0fd37c65afa2a2bbb0881b786de45320404431e865c780d8de7",
                           "a923eb20625839ea9111ed8e5d0d1cd5a872b4a292b334b26ba20b359c97677c"),
        "tec/emo-cpm-nn-gold": ("f54cbe2362cdf8158a49e0387848a5f43d5ec340bdfda0aa7a8a8d906c3b16b2",
                               "91ec71abea75857939ec55bbf250730c1728f03eebb6510a1fb6b1d3c1692de8"),
        "tec/emo-cpm-nn-pred": ("f57c39e38860fb554723ce88a056dd5222f5bd90b93b1e4bce2e85643e7ec2db",
                               "bc757dbd8e4bea27fd7ec032a36bbeca96b70ea1e8a5c9c7c89eab15244b53a8"),
        "tec/mtl-mh": ("4bb0d11d83eae20c9e22bbdaa433a97624aba17b60ac938f5fb3fc3b3519d09f",
                      "51ff1b5c1f5441391de32db43459c6e6cfee110ef48572078647ae4ea7743b79"),
        "tec/mtl-xs": ("fc361aeb023e63bdb79cd75aaa1cb9640067902b9fcc6cdcbc4e93cdcf2de6c0",
                      "83ba32224b33d23c3b530a5c74d847b182ade95dedea6b6934250bd53345ea13"),
        "reman/emo-nn-base": ("a5bd98656a79d8a3c5363673657fd7822d3440b62ff3a6c7f4cc25e84c1f599e",
                             "305305995f23ef4995ce21a31dcd0aeb60a0b879db827e2a4edd2a6034a36164"),
        "reman/cpm-nn-base": ("d76bb989a5f688497784bf0c5bbdfa4f7abe5f4d8bb0bff07057b2780a6a7fef",
                             "d3500677fc1eb4e601de7967b95c12f3e57e70f3f6bda35ac9a31f134140a09d"),
        "reman/emo-cpm-nn-gold": ("52757ffcd954712bfd50ad8395f14083383ec5b8d309a28ffd36e4166d7f9524",
                                 "7a238c194f9a1b7dd1331b49f2c722fd6901dbdb31f6f2f22d50bf6bce2de838"),
        "reman/emo-cpm-nn-pred": ("57aa29f084adc37bd88ebcd375fe396b9eea36921f0d07ae15421762b2070152",
                                 "784133532dade52e83612266db51e7b4623d3651744e74d2302d56d1c8bf429e"),
        "reman/mtl-mh": ("175fc67cd3c1b07831a750f20ca190275224fda237d6e2f9ac66b32664b93581",
                        "569911b5803aaecd745a05b3def4590b1289d427e69f3ea07d452675fa47e3df"),
        "reman/mtl-xs": ("700fa11593642d6421eb1179fdef6ce91a733e6a49bec18b09a4d35bdf1bcc84",
                        "5b9a17ac80340f9180c72e7fc61e829b7b5baec347949ed54aa95e3216cc3f89"),
    },
    "Haswell": {
        "tec/emo-nn-base": ("1a30a255b2693facdc9d2a12703ba8e1b5975c624c45b6a539fe4b4051446c66",
                            "3951b6f9033026dbc86570f934250633b481762baac224b8d6774c24efec3af9"),
        "tec/cpm-nn-base": ("283b4800e4e08b4dd36057d3691c5077d5ec32267cdfccf75f2c0281d9a0a1e9",
                            "a923eb20625839ea9111ed8e5d0d1cd5a872b4a292b334b26ba20b359c97677c"),
        "tec/emo-cpm-nn-gold": ("ea2056229850531b4ec64080e4deb00bee5302ec303b3e02b2589a66fbfbf517",
                                "91ec71abea75857939ec55bbf250730c1728f03eebb6510a1fb6b1d3c1692de8"),
        "tec/emo-cpm-nn-pred": ("8702708c92663a5756ce1aa7cb2729f1e671ed41a2acde9da1e8836afc671823",
                                "bc757dbd8e4bea27fd7ec032a36bbeca96b70ea1e8a5c9c7c89eab15244b53a8"),
        "tec/mtl-mh": ("c99792cc1b46ba3049ac81392b4b8d99d8b1521866be469297eda890daabd872",
                       "51ff1b5c1f5441391de32db43459c6e6cfee110ef48572078647ae4ea7743b79"),
        "tec/mtl-xs": ("f8830e97ec0b64364a7e50c0a0dde3008dd73bbbbaf1165116f92fbecbfb5bcf",
                       "83ba32224b33d23c3b530a5c74d847b182ade95dedea6b6934250bd53345ea13"),
        "reman/emo-nn-base": ("c5e113b1c2b78824687a6c805f670a8f443f8bd0fe90db337f312154959ba1d9",
                              "305305995f23ef4995ce21a31dcd0aeb60a0b879db827e2a4edd2a6034a36164"),
        "reman/cpm-nn-base": ("c3938abc17b3f8028672166e8700733a02f548591ab848612758368ab01a9e0a",
                              "d3500677fc1eb4e601de7967b95c12f3e57e70f3f6bda35ac9a31f134140a09d"),
        "reman/emo-cpm-nn-gold": ("674acd5a09dd41e78ef3abba3650b8db05089b6436daa6ed5b66a58dc5cce459",
                                  "7a238c194f9a1b7dd1331b49f2c722fd6901dbdb31f6f2f22d50bf6bce2de838"),
        "reman/emo-cpm-nn-pred": ("8e0a2d0295194416dd365f80a3ed178b1d565b5b02451bd262bc34ad2cd7da25",
                                  "784133532dade52e83612266db51e7b4623d3651744e74d2302d56d1c8bf429e"),
        "reman/mtl-mh": ("031c99f7d1c04fc180b5196445265d074049986c8c49b0d976545445f703ca74",
                         "569911b5803aaecd745a05b3def4590b1289d427e69f3ea07d452675fa47e3df"),
        "reman/mtl-xs": ("017f71bc837aa59eb84bf4a5fab5fb2084be05540f3e73e979149c410d8f456d",
                         "5b9a17ac80340f9180c72e7fc61e829b7b5baec347949ed54aa95e3216cc3f89"),
    },
}


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


def trained_digests(case_dir: Path) -> tuple[str, str]:
    """sha256 of a case's ``checkpoint.json`` and of its training log
    without the timestamp line."""
    log = (case_dir / "training_log.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    untimed = "".join(line for line in log if not line.startswith("# run completed "))
    return (hashlib.sha256((case_dir / "checkpoint.json").read_bytes()).hexdigest(),
            hashlib.sha256(untimed.encode("utf-8")).hexdigest())


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs on (``SkylakeX``,
    ``Haswell``, ...), or a description of the BLAS when it is another one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if blas.get("name") != "scipy-openblas" or not libs:
        return f"{blas.get('name')} {blas.get('version')} (not numpy's bundled scipy-openblas)"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode("ascii")


def assert_matches_golden(name: str, out: Path, digests: tuple[str, str], kernel: str) -> None:
    for fname in OUTPUTS:
        got = (out / name / fname).read_bytes()
        want = (GOLDEN / name / fname).read_bytes()
        assert got == want, f"{name}/{fname} differs from the golden snapshot"
    if kernel not in TRAINED:
        pytest.skip(f"outputs match, but no checkpoint digests are recorded for BLAS kernel {kernel}")
    assert digests == TRAINED[kernel][name], f"{name}: trained parameters or training log changed"


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    return tmp_path_factory.mktemp("corpora")


@pytest.mark.parametrize("name", CASES)
def test_matches_golden(name, corpora, tmp_path, capsys):
    run_case(name, tmp_path, corpora)
    assert_matches_golden(name, tmp_path, trained_digests(tmp_path / name), blas_kernel())


def test_matches_golden_on_haswell(tmp_path):
    # every case once more, in a process whose OpenBLAS is forced onto Haswell
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode == -signal.SIGILL:
        pytest.skip("this CPU cannot run OpenBLAS's Haswell kernel (no AVX2)")
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    if report["kernel"] != "Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell ran BLAS kernel {report['kernel']}")
    for name in CASES:
        assert_matches_golden(name, tmp_path, tuple(report["trained"][name]), "Haswell")


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
    trained = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            run_case(case, dest, Path(tmp))
            trained[case] = trained_digests(dest / case)
            for leftover in (dest / case).iterdir():
                if leftover.name not in OUTPUTS:
                    leftover.unlink()
    print(json.dumps({"kernel": blas_kernel(), "trained": trained}))
