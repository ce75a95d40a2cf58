"""Property tests: a mutated model file makes ``predict`` exit 0 or 2, and a
mutated corpus makes ``stats`` and ``train`` exit 0 or 2.

Each example takes one tiny stored model and mutates either its document or
its text. A document mutation walks from the root to a node (each step
picks a child; a container may also be the node), and drops the node or
replaces it with one of the values below. A text mutation truncates the
text, or deletes or inserts one JSON delimiter, at a random offset; the
model reader must then fail where ``json.loads`` fails, with its message.
``predict`` must succeed (the file is still a usable model) or report a
data error: never a config error (1) or a crash (3). A corpus mutation
applies the same node mutations to one record of the corpus, or drops its
line.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocomp.cli import main
from emocomp.corpus import load_corpus
from emocomp.nn import ModelConfig, SingleTaskModel, build_model, read_model_text, save_checkpoint

TAGS = ["emo-cpm-nn-pred", "mtl-xs", "emo-cpm-me-pred"]
DROP = object()
MUTATIONS = [DROP, None, "x", [], {}, -1, 1.5, float("nan"), True, 10**9]
DELIMITERS = '{}[],:"'


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The tiny corpus and the three model files, parsed."""
    root = tmp_path_factory.mktemp("mutations")
    source = Path(__file__).resolve().parent.parent / "data" / "synthetic_tec.jsonl"
    corpus = root / "corpus.jsonl"
    corpus.write_text("".join(source.read_text(encoding="utf-8").splitlines(True)[:40]),
                      encoding="utf-8")
    labels = load_corpus(corpus).emotion_inventory
    tiny = dict(cnn_filters=2, kernel_sizes=(2,), fc_neurons_emo=2, fc_neurons_cpm=2,
                fc_neurons_combined=2, minibatch_size=8)
    frozen = SingleTaskModel(ModelConfig(bilstm_units=2, seed=1, **tiny), 8, "cpm")
    models = {
        "emo-cpm-nn-pred": build_model("emo-cpm-nn-pred", ModelConfig(bilstm_units=2, **tiny),
                                       8, labels, frozen_cpm=frozen),
        "mtl-xs": build_model("mtl-xs", ModelConfig(**{**tiny, "bilstm_units": (3, 2),
                                                       "cnn_filters": (2, 3)},
                                                    per_channel_stitch=True), 8, labels),
    }
    docs = {}
    for tag, model in models.items():
        save_checkpoint(model, root / f"{tag}.json")
        docs[tag] = json.loads((root / f"{tag}.json").read_text())
    (root / "cfg.txt").write_text("me_iterations = 5\n")
    assert main(["train", "--model", "emo-cpm-me-pred", "--corpus", str(corpus),
                 "--config", str(root / "cfg.txt"), "--out", str(root / "me")]) == 0
    docs["emo-cpm-me-pred"] = json.loads((root / "me" / "model.json").read_text())
    return root, corpus, docs


@st.composite
def mutated(draw, doc):
    """A copy of ``doc`` with one node dropped or replaced."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.integers(0, 3))):
        parent, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                 else range(len(node))))
        node = parent[key]
    value = draw(st.sampled_from(MUTATIONS))
    if value is DROP:
        del parent[key]
    else:
        parent[key] = value
    return doc


@st.composite
def mutated_text(draw, text):
    """``text`` cut at an offset, or with one delimiter deleted (the first
    at or after the offset) or inserted there."""
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["cut", "delete", "insert"]))
    char = draw(st.sampled_from(DELIMITERS))
    if edit == "cut":
        return text[:at]
    if edit == "insert":
        return text[:at] + char + text[at:]
    at = text.find(char, at) if text.find(char, at) >= 0 else text.find(char)
    return text[:at] + text[at + 1:]


def predicts_or_data_error(root, corpus, text):
    path = root / "mutated.json"
    path.write_text(text)
    code = main(["predict", "--model-path", str(path), "--corpus", str(corpus),
                 "--fallback-dim", "8", "--out", str(root / "out")])
    assert code in (0, 2)


@pytest.mark.parametrize("tag", TAGS)
def test_mutated_model_file_is_usable_or_data_error(tag, files):
    root, corpus, docs = files

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(mutated(docs[tag]))
    def check(doc):
        predicts_or_data_error(root, corpus, json.dumps(doc))

    check()


@pytest.mark.parametrize("tag", TAGS)
def test_mutated_model_text_is_usable_or_data_error(tag, files):
    root, corpus, docs = files

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(mutated_text(json.dumps(docs[tag])))
    def check(text):
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            with pytest.raises(json.JSONDecodeError) as got:
                read_model_text(text)
            assert (got.value.msg, got.value.pos) == (exc.msg, exc.pos)
        predicts_or_data_error(root, corpus, text)

    check()


@pytest.mark.parametrize("tag,edit", [
    ("mtl-xs", lambda d: d["params"]["emo.out.b"].__setitem__(0, -10**9)),
    ("emo-cpm-me-pred", lambda d: d["cpm_artifact"]["component_models"]["cognitive_appraisal"][
        "bias"].__setitem__(0, -10**9)),
], ids=["mtl-xs", "emo-cpm-me-pred"])
def test_saturated_sigmoid_predicts(tag, edit, files):
    # exp overflows to inf and the sigmoid reads its limit, 0: no warning
    root, corpus, docs = files
    doc = json.loads(json.dumps(docs[tag]))
    edit(doc)
    (root / "saturated.json").write_text(json.dumps(doc))
    assert main(["predict", "--model-path", str(root / "saturated.json"), "--corpus", str(corpus),
                 "--fallback-dim", "8", "--out", str(root / "out")]) == 0


@st.composite
def mutated_corpus(draw, lines):
    """``lines`` with one record mutated as :func:`mutated` mutates a model
    document, or with its line dropped."""
    at = draw(st.integers(0, len(lines) - 1))
    if draw(st.integers(0, len(MUTATIONS))) == 0:   # one choice in eleven
        return lines[:at] + lines[at + 1:]
    return lines[:at] + [json.dumps(draw(mutated(json.loads(lines[at])))) + "\n"] + lines[at + 1:]


def test_mutated_corpus_is_usable_or_data_error(files):
    root, corpus, _ = files
    path = root / "mutated_corpus.jsonl"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(mutated_corpus(corpus.read_text(encoding="utf-8").splitlines(True)))
    def check(lines):
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["stats", str(path), "--out", str(root / "corpus_stats")]) in (0, 2)
        assert main(["train", "--model", "emo-me-base", "--corpus", str(path),
                     "--config", str(root / "short.txt"), "--out", str(root / "corpus_run")]) in (0, 2)

    (root / "short.txt").write_text("me_iterations = 3\n")
    check()
