"""Property tests: a mutated model file makes ``predict`` exit 0 or 2, a
mutated corpus makes ``stats`` and ``train`` exit 0 or 2, a mutated POS or
appraisal sidecar, embeddings file or token-embedding store makes ``train``
exit 0 or 2, and a mutated ``--config`` file makes it exit 0 or 1.

Each example takes one tiny stored model and mutates either its document or
its text. A document mutation walks from the root to a node (each step
picks a child; a container may also be the node), and drops the node or
replaces it with one of the values below. A text mutation truncates the
text, or deletes or inserts one JSON delimiter, at a random offset; the
model reader must then fail where ``json.loads`` fails, with its message.
``predict`` must succeed (the file is still a usable model) or report a
data error: never a config error (1) or a crash (3). A corpus mutation
applies the same node mutations to one record of the corpus, or drops or
duplicates its line. A mutation of a line-oriented text file cuts one line,
replaces one of its whitespace-separated fields with a bad one or with
nothing, or drops or duplicates the line.

A sweep drops every member of a model file, at any depth, and replaces it
with ``"x"`` (a boolean also with its negation): ``predict`` must exit 2,
except for the members listed with the reason they may be missing. Another
adds an unknown member to every object of a model file: ``predict`` must
exit 2, except for the objects listed, whose keys are data. One
swept model is a cpm-me-adv model whose combinations read the lexicons,
POS tags, embeddings and appraisal predictions; its predicts read the
sidecar files.

Each stored number of both model families passes one rule
(``errors.stored_numbers``): a table of values in a checkpoint parameter and
in a maxent bias must predict or exit 2 as listed.
"""

import functools
import json
import operator
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocomp import pipeline
from emocomp.cli import main
from emocomp.corpus import COMPONENTS, load_corpus
from emocomp.maxent import FEATURE_FLAGS
from emocomp.nn import ModelConfig, SingleTaskModel, build_model, read_model_text, save_checkpoint

TAGS = ["emo-cpm-nn-pred", "mtl-xs", "emo-cpm-me-pred"]
DROP = object()
MUTATIONS = [DROP, None, "x", [], {}, -1, 1.5, float("nan"), True, 10**9]
DELIMITERS = '{}[],:"'
BAD_FIELDS = ["x", "nan", "1e400", "-1", ""]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The tiny corpus and the six model files, parsed."""
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
    for tag in ("emo-cpm-me-gold", "cpm-me-base"):
        assert main(["train", "--model", tag, "--corpus", str(corpus),
                     "--config", str(root / "cfg.txt"), "--out", str(root / tag)]) == 0
        docs[tag] = json.loads((root / tag / "model.json").read_text())
    # cpm-me-adv with each component's combination of the most flags, so
    # that together they read the lexicons and all three resource files
    instances = load_corpus(corpus).instances
    (root / "pos.tsv").write_text("".join(
        f"{i.id}\t{' '.join('NN' if len(w) > 4 else 'VB' for w in i.text.split())}\n"
        for i in instances), encoding="utf-8")
    (root / "appraisal.tsv").write_text("".join(
        f"{i.id}\t{0.2 + 0.6 * i.cpm[0]:.1f} 0.5\n" for i in instances), encoding="utf-8")
    tokens = sorted({w for i in instances for w in i.text.lower().split()})
    (root / "embeddings.txt").write_text("".join(
        f"{t} {0.1 * (k % 7):.1f} {0.1 * (k % 3):.1f}\n" for k, t in enumerate(tokens)),
        encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "best_combination", lambda scores: max(scores, key=len))
        assert main(["train", "--model", "cpm-me-adv", "--corpus", str(corpus),
                     "--config", str(root / "cfg.txt"), *resource_flags(root, "cpm-me-adv"),
                     "--out", str(root / "adv")]) == 0
    docs["cpm-me-adv"] = json.loads((root / "adv" / "model.json").read_text())
    assert {f for combo in docs["cpm-me-adv"]["combinations"].values()
            for f in combo} == set(FEATURE_FLAGS)
    return root, corpus, docs


def resource_flags(root, tag):
    """The resource files a predict of model ``tag`` reads."""
    if tag != "cpm-me-adv":
        return []
    return ["--pos-sidecar", str(root / "pos.tsv"), "--embeddings", str(root / "embeddings.txt"),
            "--appraisal-sidecar", str(root / "appraisal.tsv")]


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
        read_model_text(json.dumps(doc))   # well-formed text: no error from the reader
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


@pytest.mark.parametrize("where", [
    lambda d: d["emotion_model"]["model"],
    lambda d: d["cpm_artifact"]["component_models"]["cognitive_appraisal"],
], ids=["emotion", "component"])
def test_degenerate_trained_model_is_data_error(where, files):
    # save_me_artifact writes degenerate: true only for a model with zero
    # weights and bias; a trained model marked so would predict a constant
    root, corpus, docs = files
    doc = json.loads(json.dumps(docs["emo-cpm-me-pred"]))
    model = where(doc)
    assert model["degenerate"] is False and any(model["bias"])
    model["degenerate"] = True
    (root / "degenerate.json").write_text(json.dumps(doc))
    assert main(["predict", "--model-path", str(root / "degenerate.json"), "--corpus", str(corpus),
                 "--out", str(root / "out")]) == 2


LONG_MAPS = {"params", "vocabulary", "document_frequency"}


def members(node, path=()):
    """The path of every object member at any depth; a long map stands for
    its members by its first one, as a list stands for its entries by its
    first entry."""
    if isinstance(node, dict):
        items = list(node.items())[:1 if path and path[-1] in LONG_MAPS else None]
        for key, value in items:
            yield path + (key,)
            yield from members(value, path + (key,))
    elif isinstance(node, list) and node:
        yield from members(node[0], path + (0,))


UNREAD = "read by no stored combination"
# each member whose removal still predicts (exit 0), with its reason
DROPPABLE = {
    "mtl-xs": {},   # a stored config holds every field
    "emo-cpm-me-pred": {f"cpm_artifact/resources/lexicons/{c}": UNREAD for c in COMPONENTS},
    "cpm-me-adv": {},   # its combinations read every resource, so it needs every member
}


@pytest.mark.parametrize("tag", DROPPABLE)
def test_every_member_dropped_or_mistyped_is_data_error(tag, files):
    # each member is dropped and replaced by "x", a boolean also by its
    # negation (a trained model marked degenerate); only the members listed
    # in DROPPABLE may be dropped and still predict
    root, corpus, docs = files
    path = root / "swept.json"
    exit_0 = set()
    for where in members(docs[tag]):
        value = functools.reduce(operator.getitem, where, docs[tag])
        for edit in [DROP, "x"] + ([not value] if isinstance(value, bool) else []):
            doc = json.loads(json.dumps(docs[tag]))
            parent = functools.reduce(operator.getitem, where[:-1], doc)
            if edit is DROP:
                del parent[where[-1]]
            else:
                parent[where[-1]] = edit
            path.write_text(json.dumps(doc))
            code = main(["predict", "--model-path", str(path), "--corpus", str(corpus),
                         "--fallback-dim", "8", *resource_flags(root, tag),
                         "--out", str(root / "out")])
            assert code == 2 or (code == 0 and edit is DROP), (where, edit, code)
            if code == 0:
                exit_0.add("/".join(map(str, where)))
    assert exit_0 == set(DROPPABLE[tag])


# each object that may gain an unknown member and still predict (exit 0), with its reason
ADDABLE = {
    "emo-cpm-nn-pred": {},
    "mtl-xs": {},
    "emo-cpm-me-pred": {"cpm_artifact/resources/lexicons": f"lexicons by any name, {UNREAD}"},
    "cpm-me-adv": {},   # its combinations read the lexicons, one per stored lexicon
}


@pytest.mark.parametrize("tag", ADDABLE)
def test_unknown_member_is_data_error(tag, files):
    # every object, the root too, gains a member that holds a copy of its
    # first member's value (null in an empty object): a file holds exactly
    # the members that save writes for its tag
    root, corpus, docs = files
    path = root / "added.json"
    exit_0 = set()
    objects = [()] + [where for where in members(docs[tag])
                      if isinstance(functools.reduce(operator.getitem, where, docs[tag]), dict)]
    for where in objects:
        doc = json.loads(json.dumps(docs[tag]))
        node = functools.reduce(operator.getitem, where, doc)
        node["mystery"] = json.loads(json.dumps(next(iter(node.values()), None)))
        path.write_text(json.dumps(doc))
        code = main(["predict", "--model-path", str(path), "--corpus", str(corpus),
                     "--fallback-dim", "8", *resource_flags(root, tag), "--out", str(root / "out")])
        assert code in (0, 2), (where, code)
        if code == 0:
            exit_0.add("/".join(map(str, where)))
    assert exit_0 == set(ADDABLE[tag])


@pytest.mark.parametrize("tag,edit,message", [
    ("emo-cpm-me-gold", lambda d: d.update(tag="emo-me-base"),
     "model stack_source must be one of (None,), got 'gold'"),
    ("cpm-me-base", lambda d: d.update(tag="cpm-me-adv"), "model lacks required key 'resources'"),
    ("cpm-me-base", lambda d: d["combinations"].update(cognitive_appraisal=[]),
     "model combinations holds unknown member 'cognitive_appraisal'"),
], ids=["gold-retagged-emo-me-base", "base-retagged-cpm-me-adv", "base-with-combination"])
def test_file_that_save_cannot_write_is_data_error(tag, edit, message, files, capsys):
    # each loaded with exit 0 before the tag fixed the members
    root, corpus, docs = files
    doc = json.loads(json.dumps(docs[tag]))
    edit(doc)
    (root / "retagged.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--model-path", str(root / "retagged.json"), "--corpus", str(corpus),
                 "--out", str(root / "out")]) == 2
    assert f"data error: {message}" in capsys.readouterr().err


def nested(depth):
    value = 0.5
    for _ in range(depth):
        value = [value]
    return value


# where each family stores a number list: a parent and its key
STORED = {
    "mtl-xs": lambda d: (d["params"], "emo.out.b"),
    "emo-cpm-me-pred": lambda d: (d["cpm_artifact"]["component_models"]["cognitive_appraisal"],
                                  "bias"),
}
ENTRIES = {"true": True, "false": False, "text": "0.5", "null": None, "object": {},
           "huge-int": 10**400, "nan": float("nan")}   # each replaces the list's first entry
VALUES = {"ragged": [[0.5], [0.5, 0.5]], "scalar": 0.5,
          "nested-33": nested(33), "nested-70": nested(70)}   # each replaces the list


@pytest.mark.parametrize("case", [*ENTRIES, *VALUES, "integers"])
@pytest.mark.parametrize("tag", STORED)
def test_stored_numbers_rule(tag, case, files):
    root, corpus, docs = files
    doc = json.loads(json.dumps(docs[tag]))
    parent, key = STORED[tag](doc)
    if case in ENTRIES:
        parent[key][0] = ENTRIES[case]
    elif case in VALUES:
        parent[key] = VALUES[case]
    else:
        parent[key] = [round(v) for v in parent[key]]
    text = json.dumps(doc)
    assert read_model_text(text)["version"] == 1   # the reader only decodes
    (root / "stored.json").write_text(text)
    assert main(["predict", "--model-path", str(root / "stored.json"), "--corpus", str(corpus),
                 "--fallback-dim", "8", "--out", str(root / "out")]) == (0 if case == "integers" else 2)


@st.composite
def mutated_lines(draw, lines, mutate_line):
    """``lines`` with one line dropped or duplicated (one choice in twelve
    each), or replaced by a draw from ``mutate_line`` of it."""
    at = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.integers(0, 11))
    if edit == 0:
        return lines[:at] + lines[at + 1:]
    if edit == 1:
        return lines[:at + 1] + lines[at:]
    return lines[:at] + [draw(mutate_line(lines[at]))] + lines[at + 1:]


def mutated_record(line):
    """A corpus record mutated as :func:`mutated` mutates a model document."""
    return mutated(json.loads(line)).map(lambda doc: json.dumps(doc) + "\n")


@st.composite
def mutated_fields(draw, line):
    """``line`` cut at an offset, or with one of its whitespace-separated
    fields replaced by a bad one or by nothing, its separators kept."""
    text = line.rstrip("\n")
    if draw(st.booleans()):
        return text[:draw(st.integers(0, len(text)))] + "\n"
    parts = re.split(r"(\s+)", text)   # the fields at even indices
    parts[2 * draw(st.integers(0, len(parts) // 2))] = draw(st.sampled_from(BAD_FIELDS))
    return "".join(parts) + "\n"


def test_mutated_corpus_is_usable_or_data_error(files):
    root, corpus, _ = files
    path = root / "mutated_corpus.jsonl"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(mutated_lines(corpus.read_text(encoding="utf-8").splitlines(True), mutated_record))
    def check(lines):
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["stats", str(path), "--out", str(root / "corpus_stats")]) in (0, 2)
        assert main(["train", "--model", "emo-me-base", "--corpus", str(path),
                     "--config", str(root / "short.txt"), "--out", str(root / "corpus_run")]) in (0, 2)

    (root / "short.txt").write_text("me_iterations = 3\n")
    check()


@pytest.mark.parametrize("sidecar", ["pos_sidecar", "appraisal_sidecar"])
def test_mutated_sidecar_is_usable_or_data_error(sidecar, files):
    root, corpus, _ = files
    instances = load_corpus(corpus).instances
    sidecars = {
        "pos_sidecar": [f"{i.id}\t{' '.join('NN' if len(w) > 4 else 'VB' for w in i.text.split())}\n"
                        for i in instances],
        "appraisal_sidecar": [f"{i.id}\t{' '.join(f'{0.1 * (k + v):.1f}' for k, v in enumerate(i.cpm[:3]))}\n"
                              for i in instances],
    }
    paths = {name: root / f"{name}.tsv" for name in sidecars}
    for name, lines in sidecars.items():
        paths[name].write_text("".join(lines), encoding="utf-8")
    (root / "short.txt").write_text("me_iterations = 3\n")

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mutated_lines(sidecars[sidecar], mutated_fields))
    def check(lines):
        mutated_path = root / f"mutated_{sidecar}.tsv"
        mutated_path.write_text("".join(lines), encoding="utf-8")
        flags = {name: mutated_path if name == sidecar else path for name, path in paths.items()}
        assert main(["train", "--model", "cpm-me-adv", "--corpus", str(corpus),
                     "--pos-sidecar", str(flags["pos_sidecar"]),
                     "--appraisal-sidecar", str(flags["appraisal_sidecar"]),
                     "--config", str(root / "short.txt"), "--out", str(root / "sidecar_run")]) in (0, 2)

    check()


def test_mutated_embeddings_file_is_usable_or_data_error(files):
    root, corpus, _ = files
    tokens = sorted({w for i in load_corpus(corpus).instances for w in i.text.lower().split()})[:12]
    lines = [f"{t} {' '.join(f'{0.1 * (k + j):.1f}' for j in range(3))}\n"
             for k, t in enumerate(tokens)]
    path = root / "mutated_embeddings.txt"
    (root / "short.txt").write_text("me_iterations = 3\n")

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mutated_lines(lines, mutated_fields))
    def check(mutated_file):
        path.write_text("".join(mutated_file), encoding="utf-8")
        assert main(["train", "--model", "cpm-me-adv", "--corpus", str(corpus),
                     "--embeddings", str(path), "--config", str(root / "short.txt"),
                     "--out", str(root / "embeddings_run")]) in (0, 2)

    check()


TINY_NN_CONFIG = """# a tiny neural run
bilstm_units = 2/3
cnn_filters = 2
kernel_sizes = 2, 3
fc_neurons_emo = 2
minibatch_size = 8
dropout_rate = 0.5
learning_rate = 0.01
split_ratio = 0.8
seed = 1
"""


def test_mutated_token_store_is_usable_or_data_error(files):
    root, corpus, _ = files
    lines = []
    for k, inst in enumerate(load_corpus(corpus).instances[:8]):
        rows = 1 + k % 3
        lines += [f"{inst.id}\n", f"{rows}\n"]
        lines += [f"{' '.join(f'{0.1 * (k - t + j):.1f}' for j in range(3))}\n" for t in range(rows)]
    path = root / "mutated_store.txt"
    (root / "tiny_nn.txt").write_text(TINY_NN_CONFIG)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mutated_lines(lines, mutated_fields))
    def check(mutated_file):
        path.write_text("".join(mutated_file), encoding="utf-8")
        assert main(["train", "--model", "emo-nn-base", "--corpus", str(corpus), "--epochs", "1",
                     "--token-embeddings", str(path), "--config", str(root / "tiny_nn.txt"),
                     "--out", str(root / "store_run")]) in (0, 2)

    check()


def test_mutated_config_file_is_usable_or_config_error(files):
    root, corpus, _ = files
    path = root / "mutated_config.txt"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mutated_lines(TINY_NN_CONFIG.splitlines(True), mutated_fields))
    def check(mutated_file):
        path.write_text("".join(mutated_file), encoding="utf-8")
        assert main(["train", "--model", "emo-nn-base", "--corpus", str(corpus), "--epochs", "1",
                     "--fallback-dim", "8", "--config", str(path),
                     "--out", str(root / "config_run")]) in (0, 1)

    check()
