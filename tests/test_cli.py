import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from emocomp import cli, pipeline
from emocomp.cli import fold_workers, main, read_config_file
from emocomp.corpus import TEC_EMOTIONS, load_corpus
from emocomp.errors import ConfigError
from emocomp.nn import ModelConfig, build_model, save_checkpoint


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def tec_path(data_dir):
    return data_dir / "synthetic_tec.jsonl"


@pytest.fixture
def overfit_path(data_dir):
    return data_dir / "overfit_tec.jsonl"


class TestConfigFile:
    def test_parses_known_keys(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("epochs = 5  # comment\nbilstm_units = 8/6\n"
                     "kernel_sizes = 2, 3, 5\ndropout_rate = 0.25\nseed = 7\n")
        cfg = read_config_file(f)
        assert cfg == {"epochs": 5, "bilstm_units": (8, 6),
                       "kernel_sizes": (2, 3, 5), "dropout_rate": 0.25, "seed": 7}

    def test_every_default_parses_back(self, tmp_path):
        # the text form of each setting's default, as a config file gives it
        def text(value):
            if isinstance(value, bool):
                return str(value).lower()
            if isinstance(value, tuple):
                return "/".join(map(str, value)) if len(value) == 2 else ", ".join(map(str, value))
            return str(value)

        f = tmp_path / "cfg.txt"
        f.write_text("".join(f"{key} = {text(value)}\n" for key, value in pipeline.SETTINGS.items()))
        parsed = read_config_file(f)
        assert parsed == pipeline.SETTINGS and len(pipeline.SETTINGS) == 22
        assert all(type(parsed[key]) is type(value) for key, value in pipeline.SETTINGS.items())

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("mystery = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            read_config_file(f)

    def test_repeated_key_reports_line(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("epochs = 1\nseed = 3\nepochs = 2\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt:3: config key 'epochs' repeats"):
            read_config_file(f)

    def test_malformed_line_rejected(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("epochs 5\n")
        with pytest.raises(ConfigError):
            read_config_file(f)

    def test_flag_beats_env_beats_file(self, tmp_path, tec_path, monkeypatch, capsys):
        f = tmp_path / "cfg.txt"
        f.write_text("epochs = 50\n")
        monkeypatch.setenv("EMOCOMP_EPOCHS", "2")
        # env (2) should beat the file (50); a flag (1) should beat both
        assert run(["train", "--model", "emo-nn-base", "--corpus", tec_path,
                    "--config", f, "--epochs", "1",
                    "--out", tmp_path / "o1"]) == 0
        log = (tmp_path / "o1" / "training_log.txt").read_text()
        assert "epoch    1" in log and "epoch    2" not in log
        assert run(["train", "--model", "emo-nn-base", "--corpus", tec_path,
                    "--config", f, "--out", tmp_path / "o2"]) == 0
        log = (tmp_path / "o2" / "training_log.txt").read_text()
        assert "epoch    2" in log and "epoch    3" not in log


class TestExitCodes:
    def test_success(self, tmp_path, tec_path, capsys):
        assert run(["stats", tec_path, "--out", tmp_path]) == 0

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        assert run(["stats", tmp_path / "nope.jsonl", "--out", tmp_path]) == 2

    def test_missing_config_is_config_error(self, tmp_path, tec_path, capsys):
        assert run(["train", "--model", "emo-me-base", "--corpus", tec_path,
                    "--config", tmp_path / "nope.txt", "--out", tmp_path]) == 1

    def test_bad_corpus_content_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x", "text": "t", "emotions": ["joy"], "cpm": [9], "domain": "tec"}\n')
        assert run(["stats", bad, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("field,value,line", [
        ("text", 5, 1),
        ("emotions", 3, 1),
        ("emotions", None, 1),
        ("emotions", [["joy"]], 1),
        ("cpm", None, 1),
        ("header", {"inventory": 6}, 1),
        ("header", ["mode", "single-label"], 1),
        # the bundled corpus is tec: its mode and inventory are the domain's
        ("header", {"mode": "multi-label"}, 1),
        ("header", {"inventory": ["x"]}, 1),
        ("header", {"inventory": []}, 1),
        # predictions.tsv could not hold these ids
        ("id", "tec\t0000", 1),
        ("id", "tec\n0000", 1),
        ("header", {"mode": "x"}, 1),
    ], ids=["text-number", "emotions-number", "emotions-null", "emotions-nested",
            "cpm-null", "header-inventory-number", "header-array", "header-mode-on-tec",
            "header-inventory-on-tec", "header-empty-inventory-on-tec", "id-tab",
            "id-newline", "header-unknown-mode"])
    def test_malformed_record_is_data_error(self, field, value, line, tmp_path, tec_path,
                                            capsys):
        # the first record of the bundled corpus edited, or a header put before it
        lines = tec_path.read_text(encoding="utf-8").splitlines()
        if field == "header":
            lines.insert(0, json.dumps(value))
        else:
            record = json.loads(lines[0])
            record[field] = value
            lines[0] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["stats", bad, "--out", tmp_path]) == 2
        assert f"line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("header,emotions,line", [
        # only the first line can be a header, or this would train as multi-label
        ([{"mode": "single-label"}, {"inventory": ["a", "b"]}], ["a", "b"], 2),
        # a repeated name would score macro-F1 over 3 labels and write a model that
        # predict cannot load
        ([{"mode": "multi-label", "inventory": ["happy", "sad", "happy"]}], ["happy"], 1),
        # predictions.tsv joins labels with spaces, where this would read as two
        ([], ["very happy"], 1),
    ], ids=["second-header-line", "inventory-repeats-a-name", "label-with-space"])
    def test_malformed_other_corpus_is_data_error(self, header, emotions, line, tmp_path,
                                                  capsys):
        records = header + [{"id": f"o{i}", "text": f"text {i}", "emotions": emotions,
                             "cpm": [0, 0, 0, 0, 0], "domain": "other"} for i in range(20)]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert run(["train", "--model", "emo-me-base", "--corpus", bad,
                    "--out", tmp_path / "o"]) == 2
        assert f"line {line}:" in capsys.readouterr().err

    def test_unknown_domain_is_data_error_for_a_neural_model(self, tmp_path, tec_path, capsys):
        # an unhashable domain once reached the neural config's set of domains
        records = [json.loads(line) for line in tec_path.read_text(encoding="utf-8").splitlines()]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps({**r, "domain": []}) + "\n" for r in records),
                       encoding="utf-8")
        assert run(["train", "--model", "emo-nn-base", "--corpus", bad,
                    "--out", tmp_path / "o"]) == 2
        assert "line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("inst_id", [None, True, 1, {"a": [1]}],
                             ids=["null", "true", "int", "object"])
    def test_id_that_is_not_a_string_is_data_error(self, inst_id, tmp_path, tec_path, capsys):
        lines = tec_path.read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "id": inst_id})
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["train", "--model", "emo-me-base", "--corpus", bad,
                    "--out", tmp_path / "o"]) == 2
        assert "line 3: id must be a string" in capsys.readouterr().err

    def test_unknown_verb_is_usage_error(self, capsys):
        assert run(["transmogrify"]) == 1

    def test_maxent_learning_rate_of_0_is_config_error(self, tmp_path, tec_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("me_learning_rate = 0\n")
        assert run(["train", "--model", "emo-me-base", "--corpus", tec_path, "--config", cfg,
                    "--out", tmp_path / "o"]) == 1
        assert "config error: maxent learning_rate must be > 0, got 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("tag", ["emo-me-base", "emo-cpm-me-gold", "emo-nn-base"])
    def test_emotion_model_needs_an_inventory(self, tag, tmp_path, capsys):
        # an ``other`` corpus whose records carry no emotions declares none
        path = tmp_path / "unlabeled.jsonl"
        path.write_text("".join(json.dumps({"id": f"o{i}", "text": f"text {i}", "cpm": [i % 2] * 5,
                                            "domain": "other"}) + "\n" for i in range(20)))
        message = f"model {tag!r} needs an emotion inventory but the corpus declares none"
        with pytest.raises(ConfigError, match=re.escape(message)):
            pipeline.train_tag(tag, load_corpus(path), {}, {})
        for verb in (["train"], ["crossval", "--k", "2"]):
            assert run([*verb, "--model", tag, "--corpus", path, "--out", tmp_path / "o"]) == 1
            assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("setting,tag", [
        ("bilstm_units", "emo-nn-base"), ("cnn_filters", "emo-nn-base"),
        ("kernel_sizes", "emo-nn-base"), ("fc_neurons_emo", "emo-nn-base"),
        ("fc_neurons_cpm", "cpm-nn-base"), ("fc_neurons_combined", "emo-cpm-nn-gold"),
    ])
    def test_model_too_large_to_build_is_config_error(self, setting, tag, tmp_path,
                                                      overfit_path, capsys):
        # numpy refuses a parameter this large before it allocates anything
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"epochs = 1\n{setting} = {10**18}\n")
        for verb in (["train"], ["crossval", "--k", "2"]):
            assert run([*verb, "--model", tag, "--corpus", overfit_path, "--config", cfg,
                        "--out", tmp_path / "o"]) == 1
            err = capsys.readouterr().err
            assert f"config error: model {tag} is too large to build" in err, err
            assert "bilstm_units, cnn_filters, kernel_sizes or fc_neurons_*" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tag,config,env,flags", [
        ("emo-me-base", "epochs = x", {}, []),
        ("emo-me-base", "kernel_sizes = a", {}, []),
        ("emo-me-base", "bilstm_units = 1/2/3", {}, []),
        ("emo-me-base", "seed = -1", {}, []),
        ("emo-me-base", "", {"EMOCOMP_EPOCHS": "abc"}, []),
        ("emo-me-base", "", {}, ["--seed", "-1"]),
        ("emo-me-base", "me_iterations = -1", {}, []),
        ("emo-nn-base", "kernel_sizes = 0", {}, []),
        ("emo-nn-base", "kernel_sizes = -2", {}, []),
        ("emo-nn-base", "fallback_dim = -3", {}, []),
        ("emo-nn-base", "fallback_dim = 0", {}, []),
        ("emo-me-base", "per_channel_stitch = maybe", {}, []),
        ("emo-me-base", "me_learning_rate = nan", {}, []),
        ("emo-me-base", "me_l2 = nan", {}, []),
        ("emo-me-base", "me_l2 = -1", {}, []),
        ("emo-me-base", "me_learning_rate = 1e300", {}, []),
        ("emo-nn-base", "learning_rate = 0", {}, []),
        ("emo-nn-base", "", {}, ["--learning-rate", "-0.001"]),
        ("emo-nn-base", "loss_weight_emo = 0", {}, []),
        ("cpm-nn-base", "loss_weight_cpm = 0", {}, []),
    ])
    def test_bad_config_value_is_config_error(self, tag, config, env, flags, tmp_path,
                                              tec_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"epochs = 1\n{config}\n")
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert run(["train", "--model", tag, "--corpus", tec_path, "--config", cfg,
                    "--out", tmp_path / "o", *flags]) == 1
        assert "config error" in capsys.readouterr().err


class TestRatios:
    """A split or dev ratio outside (0, 1), or one that leaves a split empty
    where a model needs it, is a config error naming the setting."""

    @pytest.mark.parametrize("tag,flags", [
        ("emo-me-base", ["--dev-ratio", "0"]),
        ("emo-nn-base", ["--dev-ratio", "0"]),
        ("emo-me-base", ["--dev-ratio", "1"]),
        ("emo-me-base", ["--split-ratio", "0"]),
        ("emo-me-base", ["--split-ratio", "1.5"]),
        ("emo-me-base", ["--split-ratio", "nan"]),
        ("cpm-me-adv", ["--dev-ratio", "0.001"]),
        ("emo-cpm-me-pred", ["--dev-ratio", "0.001"]),
        ("emo-me-base", ["--split-ratio", "0.999"]),
    ], ids=["dev-0-me", "dev-0-nn", "dev-1", "split-0", "split-1.5", "split-nan",
            "empty-dev-slice-adv", "empty-dev-slice-pred", "empty-test-split"])
    def test_train_rejects(self, tag, flags, tmp_path, tec_path, capsys):
        assert run(["train", "--model", tag, "--corpus", tec_path, "--epochs", "1",
                    "--out", tmp_path, *flags]) == 1
        key = flags[0][2:].replace("-", "_")
        assert f"config error: {key} " in capsys.readouterr().err

    def test_ablate_rejects_an_empty_dev_slice(self, tmp_path, data_dir, monkeypatch, capsys):
        monkeypatch.setenv("EMOCOMP_DEV_RATIO", "0.001")
        assert run(["ablate", "--corpus", data_dir / "ablation_corpus.jsonl",
                    "--pos-sidecar", data_dir / "ablation_pos.tsv", "--out", tmp_path]) == 1
        assert "config error: dev_ratio 0.001 leaves no dev instances" in capsys.readouterr().err
        assert not (tmp_path / "ablation_best.tsv").exists()

    def test_neural_training_allows_an_empty_dev_slice(self, tmp_path, overfit_path, capsys):
        assert run(["train", "--model", "emo-nn-base", "--corpus", overfit_path, "--epochs", "1",
                    "--fallback-dim", "8", "--dev-ratio", "0.001", "--out", tmp_path]) == 0


class TestStats:
    def test_matches_precomputed_table(self, tmp_path, tec_path, data_dir, capsys):
        assert run(["stats", tec_path, "--out", tmp_path]) == 0
        expected = json.loads((data_dir / "synthetic_tec_stats.json").read_text())
        rows = (tmp_path / "stats.tsv").read_text().strip().splitlines()
        total = rows[-1].split("\t")
        assert total[0] == "total"
        assert [int(v) for v in total[1:-1:2]] == expected["component_totals"]
        assert [int(v) for v in total[2:-1:2]] == expected["total_percentages"]
        assert int(total[-1]) == expected["corpus_size"]


class TestAgreement:
    def test_self_agreement_is_one(self, tmp_path, tec_path, capsys):
        assert run(["agreement", tec_path, tec_path, "--out", tmp_path]) == 0
        out = (tmp_path / "agreement.tsv").read_text()
        assert out.count("1.000") == 5

    def test_degenerate_rendered_as_dashes(self, tmp_path, capsys):
        recs = [{"id": f"i{j}", "text": "t", "emotions": ["joy"],
                 "cpm": [1, 0, 0, 0, 0], "domain": "tec"} for j in range(4)]
        f = tmp_path / "c.jsonl"
        f.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        assert run(["agreement", f, f, "--out", tmp_path]) == 0
        out = (tmp_path / "agreement.tsv").read_text()
        # every component column is constant here, so kappa is uninformative
        assert out.count("--") == 5

    def test_ids_missing_from_the_second_file_is_data_error(self, tmp_path, tec_path, capsys):
        lines = tec_path.read_text(encoding="utf-8").splitlines(True)
        (tmp_path / "b.jsonl").write_text("".join(lines[2:]), encoding="utf-8")
        assert run(["agreement", tec_path, tmp_path / "b.jsonl", "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "data error: ids missing from second file: ['tec0000', 'tec0001']" in err
        assert not (tmp_path / "o").exists()


class TestTrainEvalPredict:
    def test_me_round_trip(self, tmp_path, tec_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--model", "emo-me-base", "--corpus", tec_path,
                    "--out", out, "--seed", "1"]) == 0
        assert (out / "model.json").exists()
        assert (out / "metrics_test.tsv").exists()
        assert run(["eval", "--model-path", out / "model.json",
                    "--corpus", tec_path, "--out", tmp_path / "ev"]) == 0
        assert run(["predict", "--model-path", out / "model.json",
                    "--corpus", tec_path, "--out", tmp_path / "pr"]) == 0
        lines = (tmp_path / "pr" / "predictions.tsv").read_text().strip().splitlines()
        assert len(lines) == 121  # header + 120 instances

    def test_nn_checkpoint_round_trip(self, tmp_path, overfit_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--model", "cpm-nn-base", "--corpus", overfit_path,
                    "--out", out, "--seed", "1", "--epochs", "2"]) == 0
        assert run(["eval", "--model-path", out / "checkpoint.json",
                    "--corpus", overfit_path, "--out", tmp_path / "ev"]) == 0
        assert (tmp_path / "ev" / "metrics.json").exists()

    def test_stored_checkpoint_embeds_with_its_training_seed(self, tmp_path, overfit_path,
                                                             capsys):
        # hashed fallback embeddings are a function of the seed: eval and
        # predict embed with the stored one, whatever the run's --seed
        out = tmp_path / "run"
        assert run(["train", "--model", "emo-nn-base", "--corpus", overfit_path,
                    "--out", out, "--seed", "1", "--epochs", "2"]) == 0
        for verb in ("eval", "predict"):
            written = []
            for name, seed in (("1", ["--seed", "1"]), ("7", ["--seed", "7"]), ("none", [])):
                dest = tmp_path / verb / name
                assert run([verb, "--model-path", out / "checkpoint.json", "--corpus",
                            overfit_path, "--out", dest, *seed]) == 0
                written.append({p.name: p.read_bytes() for p in dest.iterdir()})
            assert written[0] and written[1] == written[0] and written[2] == written[0]

    def test_failed_train_or_predict_saves_nothing(self, tmp_path, overfit_path, capsys):
        # each fails after its arguments were accepted, and leaves no --out
        (tmp_path / "cfg.txt").write_text("me_iterations = 0\n")
        assert run(["train", "--model", "emo-nn-base", "--corpus", overfit_path,
                    "--out", tmp_path / "run", "--epochs", "1"]) == 0
        failing = [
            ["train", "--model", "emo-nn-base", "--corpus", overfit_path, "--learning-rate", "0"],
            ["train", "--model", "emo-me-base", "--corpus", overfit_path,
             "--config", tmp_path / "cfg.txt"],
            ["predict", "--model-path", tmp_path / "run" / "checkpoint.json",
             "--corpus", overfit_path, "--fallback-dim", "8"],
        ]
        for i, argv in enumerate(failing):
            out = tmp_path / f"failed{i}"
            assert run([*argv, "--out", out]) == 1, argv
            assert not out.exists(), argv

    def test_single_label_model_on_a_multi_label_corpus_is_config_error(self, tmp_path, tec_path,
                                                                          capsys):
        # the same labels, declared multi-label by an ``other`` corpus
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("me_iterations = 5\n")
        assert run(["train", "--model", "emo-me-base", "--corpus", tec_path, "--config", cfg,
                    "--out", tmp_path / "run"]) == 0
        records = [json.loads(line) for line in tec_path.read_text(encoding="utf-8").splitlines()]
        other = tmp_path / "other.jsonl"
        other.write_text("".join(json.dumps(r) + "\n" for r in [
            {"mode": "multi-label", "inventory": list(TEC_EMOTIONS)},
            *({**r, "domain": "other"} for r in records)]), encoding="utf-8")
        assert run(["eval", "--model-path", tmp_path / "run" / "model.json", "--corpus", other,
                    "--out", tmp_path / "ev"]) == 1
        err = capsys.readouterr().err
        assert "config error: model was trained single-label but the corpus is multi-label" in err

    def test_metrics_reports_byte_identical_across_reruns(self, tmp_path, overfit_path, capsys):
        for name in ("a", "b"):
            assert run(["train", "--model", "emo-nn-base", "--corpus", overfit_path,
                        "--out", tmp_path / name, "--seed", "5", "--epochs", "2"]) == 0
        a = (tmp_path / "a" / "metrics_test.tsv").read_bytes()
        b = (tmp_path / "b" / "metrics_test.tsv").read_bytes()
        assert a == b
        aj = (tmp_path / "a" / "metrics_test.json").read_bytes()
        bj = (tmp_path / "b" / "metrics_test.json").read_bytes()
        assert aj == bj


# each error names the object and the member
MESSAGES = {
    "no_tfidf": "data error: model lacks required key 'tfidf'",
    "unknown_top_level_member": "data error: model holds unknown member 'mystery'",
    "unknown_tfidf_member": "data error: model tfidf holds unknown member 'mystery'",
    "label_model_missing": "data error: model emotion_model models lacks required key 'joy'",
    "empty_emotion_inventory": "data error: a single-label model tagged emo-me-base needs emotion labels",
    "cpm_artifact_on_gold": "data error: model cpm_artifact must be null for tag emo-cpm-me-gold",
    "emotion_model_on_component_model":
        "data error: model emotion_model must be null for tag cpm-me-adv",
    "stacked_component_model_missing":
        "data error: model cpm_artifact component_models lacks required key 'cognitive_appraisal'",
    "classes_not_inventory": "data error: model emotion_model model must be a multinomial model of",
    "seedless_config": "data error: checkpoint config lacks required key 'seed'",
    "unknown_config_key": "data error: checkpoint config holds unknown member 'mystery'",
    "seedless_frozen_cpm_config":
        "data error: checkpoint frozen_cpm_config lacks required key 'seed'",
    "unknown_checkpoint_member": "data error: checkpoint holds unknown member 'mystery'",
    "frozen_cpm_config_on_component_model":
        "data error: checkpoint holds unknown member 'frozen_cpm_config'",
}


class TestModelFiles:
    def test_model_json_independent_of_hash_seed(self, tmp_path, tec_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("me_iterations = 5\n")
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            subprocess.run([sys.executable, "-m", "emocomp.cli", "train",
                            "--model", "emo-cpm-me-pred", "--corpus", str(tec_path),
                            "--config", str(cfg), "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            outputs.append((out / "model.json").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text,message", [
        ("[1]", "does not hold a JSON object"),
        ("{}", "lacks required key 'version'"),
        ('{"params": {}}', "unsupported checkpoint version None (expected 1)"),
    ], ids=["array", "empty-object", "params-alone"])
    def test_file_that_holds_no_model_is_data_error(self, text, message, tmp_path, tec_path,
                                                     capsys):
        (tmp_path / "model.json").write_text(text)
        assert run(["predict", "--model-path", tmp_path / "model.json", "--corpus", tec_path,
                    "--out", tmp_path / "o"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["predict", "eval"])
    def test_bad_model_file_is_data_error(self, verb, tmp_path, tec_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("me_iterations = 5\n")
        assert run(["train", "--model", "emo-me-base", "--corpus", tec_path,
                    "--config", cfg, "--out", tmp_path / "run"]) == 0
        text = (tmp_path / "run" / "model.json").read_text()
        truncated = tmp_path / "truncated.json"
        truncated.write_text(text[:len(text) // 2])
        bad_files = [truncated]

        def variant(name, edit, source=json.loads(text)):
            payload = json.loads(json.dumps(source))
            edit(payload)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            bad_files.append(path)

        variant("no_tfidf", lambda p: p.pop("tfidf"))
        variant("text_weights", lambda p: p["emotion_model"]["model"].update(weights="x"))
        variant("short_weights", lambda p: p["emotion_model"]["model"].update(
            weights=p["emotion_model"]["model"]["weights"][1:]))
        variant("long_bias", lambda p: p["emotion_model"]["model"].update(
            bias=p["emotion_model"]["model"]["bias"] * 2))
        variant("vocabulary_entry_deleted", lambda p: p["tfidf"]["vocabulary"].popitem())
        variant("tfidf_list", lambda p: p.update(tfidf=[]))
        variant("text_corpus_size", lambda p: p["tfidf"].update(corpus_size="x"))

        def drop_top_ngram(p):
            vocab = p["tfidf"]["vocabulary"]
            top = max(vocab, key=vocab.get)
            del vocab[top], p["tfidf"]["document_frequency"][top]

        variant("top_ngram_dropped", drop_top_ngram)

        def renumber_first_ngram(p):   # its index moved past the last
            vocab = p["tfidf"]["vocabulary"]
            vocab[next(iter(vocab))] = len(vocab)

        variant("vocabulary_renumbered", renumber_first_ngram)
        variant("nan_weight", lambda p: p["emotion_model"]["model"]["weights"][0].__setitem__(
            0, float("nan")))
        variant("inf_bias", lambda p: p["emotion_model"]["model"]["bias"].__setitem__(
            0, float("inf")))
        # numpy would parse a string and read a boolean as 1.0
        variant("text_number_weight", lambda p: p["emotion_model"]["model"]["weights"][0]
                .__setitem__(0, "0.5"))
        variant("boolean_weight", lambda p: p["emotion_model"]["model"]["weights"][0]
                .__setitem__(0, True))
        variant("boolean_bias", lambda p: p["emotion_model"]["model"]["bias"].__setitem__(
            0, False))
        variant("huge_integer_weight", lambda p: p["emotion_model"]["model"]["weights"][0]
                .__setitem__(0, 10**400))
        variant("float_feature_dim", lambda p: p.update(feature_dim=float(p["feature_dim"])))
        variant("float_model_feature_dim", lambda p: p["emotion_model"]["model"].update(
            feature_dim=float(p["emotion_model"]["model"]["feature_dim"])))
        variant("unknown_maxent_mode", lambda p: p["emotion_model"]["model"].update(mode="x"))
        # each stored mode must be the one of its place
        variant("multinomial_model_binary", lambda p: p["emotion_model"]["model"].update(
            mode="binary"))
        variant("artifact_mode_flipped", lambda p: p.update(mode="multi-label"))
        v1 = json.loads((Path(__file__).resolve().parent / "golden" / "me" / "v1" / "model.json")
                        .read_text())
        variant("label_model_multinomial", lambda p: p["emotion_model"]["models"]["joy"].update(
            mode="multinomial"), v1)
        variant("unknown_emotion_model_kind", lambda p: p["emotion_model"].update(kind="x"))
        variant("number_classes", lambda p: p["emotion_model"]["model"].update(classes=5))
        variant("number_emotion_inventory", lambda p: p.update(emotion_inventory=5))
        variant("combinations_list", lambda p: p.update(combinations=[]))
        variant("component_models_list", lambda p: p.update(component_models=[]))
        variant("emotion_model_list", lambda p: p.update(emotion_model=[]))
        variant("version_2", lambda p: p.update(version=2))
        variant("version_true", lambda p: p.update(version=True))
        variant("number_tag", lambda p: p.update(tag=5))
        variant("text_feature_dim", lambda p: p.update(feature_dim="x"))
        variant("unknown_mode", lambda p: p.update(mode="x"))
        variant("unknown_constant_class", lambda p: p["emotion_model"]["model"].update(
            degenerate=True, constant_class="mystery"))
        for i, value in enumerate(["x", -1, float("nan")]):
            variant(f"degenerate_not_boolean_{i}",
                    lambda p, v=value: p["emotion_model"]["model"].update(degenerate=v))

        def set_first_df(value):
            return lambda p: p["tfidf"]["document_frequency"].update(
                {next(iter(p["tfidf"]["document_frequency"])): value})

        variant("negative_document_frequency", set_first_df(-1))
        variant("zero_document_frequency", set_first_df(0))
        variant("zero_corpus_size", lambda p: p["tfidf"].update(corpus_size=0))
        variant("emotion_model_model_list", lambda p: p["emotion_model"].update(model=[]))
        variant("emotion_model_null", lambda p: p.update(emotion_model=None))
        variant("classes_not_inventory", lambda p: p["emotion_model"]["model"].update(
            classes=p["emotion_model"]["model"]["classes"][::-1]))

        def repeat_first_emotion(p):   # the last name replaced by the first
            for names in (p["emotion_inventory"], p["emotion_model"]["model"]["classes"]):
                names[-1] = names[0]

        variant("emotion_repeated", repeat_first_emotion)
        variant("empty_emotion_inventory", lambda p: p.update(emotion_inventory=[]))
        variant("unknown_top_level_member", lambda p: p.update(mystery=1))
        variant("unknown_tfidf_member", lambda p: p["tfidf"].update(mystery=1))
        variant("label_models_reordered", lambda p: p["emotion_model"].update(
            labels=p["emotion_model"]["labels"][::-1]), v1)
        variant("label_model_missing", lambda p: p["emotion_model"]["models"].pop("joy"), v1)
        assert run(["train", "--model", "cpm-me-adv", "--corpus", tec_path,
                    "--config", cfg, "--out", tmp_path / "adv"]) == 0
        adv = json.loads((tmp_path / "adv" / "model.json").read_text())
        assert run(["train", "--model", "emo-cpm-me-gold", "--corpus", tec_path,
                    "--config", cfg, "--out", tmp_path / "gold"]) == 0
        gold = json.loads((tmp_path / "gold" / "model.json").read_text())
        assert run(["train", "--model", "emo-cpm-me-pred", "--corpus", tec_path,
                    "--config", cfg, "--out", tmp_path / "pred"]) == 0
        pred = json.loads((tmp_path / "pred" / "model.json").read_text())
        variant("unknown_stack_source", lambda p: p.update(stack_source="x"), gold)
        variant("predicted_without_cpm_artifact", lambda p: p.update(stack_source="predicted"),
                gold)
        variant("unknown_combination_flag", lambda p: p["combinations"].update(
            cognitive_appraisal=["mystery"]), adv)
        variant("lexicons_list", lambda p: p["resources"].update(
            lexicons=list(p["resources"]["lexicons"])), adv)
        variant("resources_list", lambda p: p.update(resources=[]), adv)
        variant("text_appraisal_dim", lambda p: p["resources"].update(appraisal_dim="x"), adv)
        variant("component_models_empty", lambda p: p.update(component_models={}), adv)
        variant("component_model_missing",
                lambda p: p["component_models"].pop("cognitive_appraisal"), adv)
        variant("component_model_number",
                lambda p: p["component_models"].update(cognitive_appraisal=5), adv)
        variant("component_model_multinomial", lambda p: p["component_models"][
            "cognitive_appraisal"].update(mode="multinomial"), adv)
        variant("stacked_component_model_missing", lambda p: p["cpm_artifact"][
            "component_models"].pop("cognitive_appraisal"), pred)
        variant("stacked_component_model_list", lambda p: p["cpm_artifact"][
            "component_models"].update(cognitive_appraisal=[]), pred)
        variant("stacked_component_models_empty",
                lambda p: p["cpm_artifact"].update(component_models={}), pred)
        variant("stacked_version_true", lambda p: p["cpm_artifact"].update(version=True), pred)
        variant("cpm_artifact_on_gold", lambda p: p.update(cpm_artifact=pred["cpm_artifact"]), gold)
        variant("emotion_model_on_component_model",
                lambda p: p.update(emotion_model=gold["emotion_model"]), adv)
        model = build_model("emo-nn-base", ModelConfig(bilstm_units=2, cnn_filters=2,
                                                       kernel_sizes=(2,), fc_neurons_emo=2),
                            4, ("joy", "sadness"))
        save_checkpoint(model, tmp_path / "checkpoint.json")
        checkpoint = json.loads((tmp_path / "checkpoint.json").read_text())
        name = next(iter(checkpoint["params"]))
        variant("text_param", lambda p: p["params"].update({name: "x"}), checkpoint)
        variant("ragged_param", lambda p: p["params"].update({name: [[1.0], [1.0, 2.0]]}),
                checkpoint)
        variant("short_param", lambda p: p["params"].update({name: p["params"][name][1:]}),
                checkpoint)
        variant("params_list", lambda p: p.update(params=[]), checkpoint)
        variant("checkpoint_version_true", lambda p: p.update(version=True), checkpoint)
        variant("unknown_config_key", lambda p: p["config"].update(mystery=1), checkpoint)
        variant("seedless_config", lambda p: p["config"].pop("seed"), checkpoint)
        variant("text_input_dim", lambda p: p.update(input_dim="x"), checkpoint)
        variant("text_kernel_sizes", lambda p: p["config"].update(kernel_sizes="ab"), checkpoint)
        variant("number_emo_labels", lambda p: p.update(emo_labels=5), checkpoint)
        variant("unknown_checkpoint_tag", lambda p: p.update(tag="mystery"), checkpoint)
        variant("empty_emo_labels", lambda p: p.update(emo_labels=[]), checkpoint)
        variant("nan_param", lambda p: p["params"][name][0].__setitem__(0, float("nan")),
                checkpoint)
        variant("boolean_param", lambda p: p["params"][name][0].__setitem__(0, True), checkpoint)
        variant("text_number_param", lambda p: p["params"][name][0].__setitem__(0, "0.5"),
                checkpoint)
        deep = tmp_path / "deep_param.json"   # deeper than json can decode
        deep.write_text(json.dumps(checkpoint).replace(
            f'"{name}": ', f'"{name}": {"[" * 100000}{"]" * 100000}, "mystery": ', 1))
        bad_files.append(deep)
        variant("three_bilstm_units", lambda p: p["config"]["bilstm_units"].append(9), checkpoint)
        # sizes, counts and the seed are integers; the stored shapes are
        # checked before a model of the stored sizes is allocated
        for key, value in [("minibatch_size", 1.5), ("fc_neurons_emo", True), ("seed", "x"),
                           ("seed", -1), ("fc_neurons_emo", 10**9), ("cnn_filters", 10**9),
                           ("kernel_sizes", [10**9])]:
            variant(f"config_{key}_{value}", lambda p, k=key, v=value: p["config"].update({k: v}),
                    checkpoint)
        # each stored config value has its field default's type, and the
        # labels and the component count are checked too
        for key, value in [("learning_rate", True), ("loss_weight_emo", float("nan")),
                           ("per_channel_stitch", "yes"), ("learning_rate", 0.0),
                           ("loss_weight_emo", 0.0), ("loss_weight_cpm", 0.0)]:
            variant(f"config_{key}_{value}", lambda p, k=key, v=value: p["config"].update({k: v}),
                    checkpoint)
        variant("components_7", lambda p: p.update(components=7), checkpoint)
        variant("components_text", lambda p: p.update(components="5"), checkpoint)
        variant("emo_labels_repeated", lambda p: p["emo_labels"].__setitem__(
            -1, p["emo_labels"][0]), checkpoint)
        for value in (10**9, 10**18):   # too large to allocate, too large for any array
            variant(f"input_dim_{value}", lambda p, v=value: p.update(input_dim=v), checkpoint)
        stitched = build_model("mtl-xs", ModelConfig(bilstm_units=2, cnn_filters=2, kernel_sizes=(2,),
                                                     fc_neurons_emo=2, fc_neurons_cpm=2,
                                                     per_channel_stitch=True),
                               4, ("joy", "sadness"))
        save_checkpoint(stitched, tmp_path / "stitched.json")
        stitched = json.loads((tmp_path / "stitched.json").read_text())
        variant("huge_per_channel_stitch", lambda p: p["config"].update(cnn_filters=10**9),
                stitched)
        tiny = ModelConfig(bilstm_units=2, cnn_filters=2, kernel_sizes=(2,), fc_neurons_emo=2,
                           fc_neurons_cpm=2, fc_neurons_combined=2)
        injected = build_model("emo-cpm-nn-pred", tiny, 4, ("joy", "sadness"),
                               frozen_cpm=build_model("cpm-nn-base", tiny, 4))
        save_checkpoint(injected, tmp_path / "injected.json")
        injected = json.loads((tmp_path / "injected.json").read_text())
        variant("seedless_frozen_cpm_config", lambda p: p["frozen_cpm_config"].pop("seed"),
                injected)
        # every model with an emotion head checks its labels alike
        variant("empty_emo_labels_injected", lambda p: p.update(emo_labels=[]), injected)
        variant("empty_emo_labels_stitched", lambda p: p.update(emo_labels=[]), stitched)
        component = build_model("cpm-nn-base", tiny, 4)
        save_checkpoint(component, tmp_path / "component.json")
        component = json.loads((tmp_path / "component.json").read_text())
        # a model without an emotion head keeps no labels, so it stores none
        variant("labels_on_component_model", lambda p: p.update(emo_labels=["joy"]), component)
        variant("unknown_checkpoint_member", lambda p: p.update(mystery=1), component)
        variant("frozen_cpm_config_on_component_model",
                lambda p: p.update(frozen_cpm_config=p["config"]), component)
        for bad in bad_files:
            assert run([verb, "--model-path", bad, "--corpus", tec_path,
                        "--out", tmp_path / "o"]) == 2
            err = capsys.readouterr().err
            assert "data error" in err
            if bad.stem.startswith("empty_emo_labels"):
                assert "emo_labels" in err and "label inventory" in err, err
            if bad.stem == "vocabulary_renumbered":
                assert "tfidf vocabulary must number its" in err, err
            if bad.stem == "labels_on_component_model":
                assert "checkpoint emo_labels ['joy'] are not the cpm-nn-base model's []" in err, err
            if bad.stem in MESSAGES:
                assert MESSAGES[bad.stem] in err, err


class TestInputFiles:
    DEEP = b"[" * 100000 + b"]" * 100000
    DEEP_LINE = b'{"id": "t0", "emotions": ' + DEEP + b"}\n"
    STORE = "train --model emo-nn-base --corpus TEC --epochs 1 --token-embeddings FILE"

    @pytest.mark.parametrize("argv,content,code", [
        (STORE, b"tec0000\n0\n", 2),
        (STORE, b"tec0000\n-3\n", 2),
        (STORE, b"tec0000\n2\n0.1 0.2\n0.3\n", 2),
        ("stats DIR", None, 2),
        ("train --model emo-me-base --corpus TEC --config DIR", None, 1),
        ("predict --model-path DIR --corpus TEC", None, 1),
        ("train --model cpm-me-adv --corpus TEC --pos-sidecar DIR", None, 1),
        ("stats TEC --out FILE", b"", 1),
        ("stats FILE", b'{"id": "\xff"}\n', 2),
        ("train --model emo-me-base --corpus TEC --config FILE", b"epochs = 1  # \xff\n", 2),
        ("train --model emo-me-base --corpus TEC --config FILE", b"epochs = 1\nepochs = 2\n", 1),
        ("train --model cpm-me-adv --corpus TEC --embeddings FILE", b"happy 1 2\nhappy 3 4\n", 2),
        ("train --model cpm-me-adv --corpus TEC --pos-sidecar FILE", b"tec0000\tNN \xff\n", 2),
        # a checkpoint of 8-wide embeddings scored with the default 64-wide ones
        ("eval --model-path V1/mtl-xs/checkpoint.json --corpus V1/corpus.jsonl", None, 1),
        ("predict --model-path V1/mtl-xs/checkpoint.json --corpus V1/corpus.jsonl", None, 1),
        # JSON nested deeper than json can decode
        ("predict --model-path FILE --corpus TEC", DEEP, 2),
        ("stats FILE", DEEP_LINE, 2),
        ("train --model emo-me-base --corpus FILE", DEEP_LINE, 2),
    ], ids=["store-zero-rows", "store-negative-rows", "store-ragged", "corpus-directory",
            "config-directory", "model-path-directory", "pos-sidecar-directory", "out-file",
            "corpus-not-utf8", "config-not-utf8", "config-key-repeated",
            "embeddings-token-repeated", "pos-sidecar-not-utf8", "eval-width",
            "predict-width", "model-nested-deep", "stats-corpus-nested-deep",
            "train-corpus-nested-deep"])
    def test_unusable_input_is_config_or_data_error(self, argv, content, code, tmp_path,
                                                     tec_path, capsys):
        (tmp_path / "dir").mkdir()
        if content is not None:
            (tmp_path / "file").write_bytes(content)
        paths = {"TEC": tec_path, "DIR": tmp_path / "dir", "FILE": tmp_path / "file",
                 "V1": Path(__file__).resolve().parent / "golden" / "nn" / "v1"}
        args = []
        for token in argv.split():
            head, _, rest = token.partition("/")
            args.append(paths[head] / rest if head in paths else token)
        if "--out" not in args:
            args += ["--out", tmp_path / "o"]
        assert run(args) == code
        assert ("config error", "data error")[code - 1] in capsys.readouterr().err

    @pytest.mark.parametrize("verb,flag", [
        ("train", "--lexicons"), ("crossval", "--embeddings"), ("ablate", "--token-embeddings"),
        ("eval", "--lexicons"), ("predict", "--pos-sidecar"),
    ])
    def test_missing_resource_path_is_config_error(self, verb, flag, tmp_path, capsys):
        # every verb that takes resource paths checks that each exists, read or not
        v1 = Path(__file__).resolve().parent / "golden" / "me" / "v1"
        model = (["--model-path", v1 / "model.json"] if verb in ("eval", "predict")
                 else [] if verb == "ablate" else ["--model", "emo-me-base"])
        assert run([verb, *model, "--corpus", v1 / "corpus.jsonl", flag, tmp_path / "missing",
                    "--out", tmp_path / "o"]) == 1
        assert f"{flag} path does not exist" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_predict_reads_only_the_resource_files_its_combinations_read(
            self, tmp_path, tec_path, data_dir, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("x y\n")   # no valid embeddings file, POS or appraisal sidecar
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("me_iterations = 20\n")
        # emo-me-base reads no resource, so train and predict both leave the file unread
        for verb, model in (("train", ["--model", "emo-me-base"]),
                            ("predict", ["--model-path", tmp_path / "base" / "model.json"])):
            assert run([verb, *model, "--corpus", tec_path, "--embeddings", bad,
                        "--config", cfg, "--out", tmp_path / "base"]) == 0
        # on the ablation corpus every component's combination reads POS tags
        corpus = data_dir / "ablation_corpus.jsonl"
        assert run(["train", "--model", "cpm-me-adv", "--corpus", corpus, "--config", cfg,
                    "--pos-sidecar", data_dir / "ablation_pos.tsv", "--out", tmp_path / "adv"]) == 0
        stored = json.loads((tmp_path / "adv" / "model.json").read_text())
        assert all("pos_tags" in combo for combo in stored["combinations"].values())
        predict = ["predict", "--model-path", tmp_path / "adv" / "model.json", "--corpus", corpus,
                   "--out", tmp_path / "adv_out"]
        capsys.readouterr()
        assert run([*predict, "--pos-sidecar", bad]) == 2
        assert "data error" in capsys.readouterr().err
        assert run([*predict, "--pos-sidecar", data_dir / "ablation_pos.tsv",
                    "--embeddings", bad, "--appraisal-sidecar", bad]) == 0


class TestCrossval:
    def test_three_folds(self, tmp_path, tec_path, capsys):
        assert run(["crossval", "--model", "cpm-me-base", "--corpus", tec_path,
                    "--k", "3", "--out", tmp_path]) == 0
        rows = (tmp_path / "crossval.tsv").read_text().strip().splitlines()
        assert len(rows) == 5  # header + 3 folds + mean
        assert rows[-1].startswith("mean")

    def test_parallel_folds_write_the_same_table(self, tmp_path, tec_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("me_iterations = 20\n")
        for jobs in ("1", "2"):
            assert run(["crossval", "--model", "emo-me-base", "--corpus", tec_path,
                        "--k", "3", "--jobs", jobs, "--config", cfg,
                        "--out", tmp_path / jobs]) == 0
        assert ((tmp_path / "1" / "crossval.tsv").read_bytes()
                == (tmp_path / "2" / "crossval.tsv").read_bytes())

    def test_reads_the_corpus_once(self, tmp_path, tec_path, monkeypatch, capsys):
        # each fold is given the loaded corpus, in-process and in a worker
        calls = []
        load = cli.load_corpus
        monkeypatch.setattr(cli, "load_corpus", lambda path: calls.append(path) or load(path))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("me_iterations = 5\n")
        assert run(["crossval", "--model", "emo-me-base", "--corpus", tec_path, "--k", "3",
                    "--jobs", "1", "--config", cfg, "--out", tmp_path]) == 0
        assert calls == [str(tec_path)]

    def test_workers_capped_at_folds(self):
        assert fold_workers(1, 10) == 1
        assert fold_workers(4, 10) == 4
        assert fold_workers(10**9, 3) == 3

    @pytest.mark.parametrize("flags", [["--jobs", "0"], ["--jobs", "-2"], ["--k", "0"],
                                       ["--k", "1"]])
    def test_bad_jobs_or_k_is_config_error(self, flags, tmp_path, tec_path, capsys):
        assert run(["crossval", "--model", "emo-me-base", "--corpus", tec_path,
                    "--k", "3", *flags, "--out", tmp_path]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "crossval.tsv").exists()


class TestEmbeddings:
    def test_non_finite_token_embedding_is_data_error(self, tmp_path, tec_path, capsys):
        store = tmp_path / "store.txt"
        store.write_text("tec0000\n2\n0.1 0.2 0.3\n0.4 nan 0.6\n")
        assert run(["train", "--model", "emo-nn-base", "--corpus", tec_path,
                    "--token-embeddings", store, "--epochs", "1",
                    "--out", tmp_path / "o"]) == 2
        assert "store.txt:4: non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "o" / "checkpoint.json").exists()

    def test_empty_token_store_is_data_error(self, tmp_path, tec_path, capsys):
        store = tmp_path / "store.txt"
        store.write_text("\n")
        assert run(["train", "--model", "emo-nn-base", "--corpus", tec_path,
                    "--token-embeddings", store, "--epochs", "1", "--out", tmp_path / "o"]) == 2
        assert f"data error: token embedding store {store} is empty" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_divergence_is_config_error(self, tmp_path, tec_path, capsys):
        assert run(["train", "--model", "emo-nn-base", "--corpus", tec_path,
                    "--learning-rate", "1e300", "--epochs", "2",
                    "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert "config error: non-finite loss or gradient in epoch" in err
        assert not (tmp_path / "o" / "checkpoint.json").exists()

    def test_train_resolves_token_embeddings_once(self, tmp_path, tec_path, monkeypatch,
                                                  capsys):
        calls = []
        resolve = pipeline.resolve_token_embeddings

        def counting(*args, **kwargs):
            calls.append(args)
            return resolve(*args, **kwargs)

        monkeypatch.setattr(pipeline, "resolve_token_embeddings", counting)
        assert run(["train", "--model", "emo-nn-base", "--corpus", tec_path,
                    "--epochs", "1", "--out", tmp_path]) == 0
        assert len(calls) == 1


class TestAblate:
    def test_selects_informative_block(self, tmp_path, data_dir, capsys):
        assert run(["ablate", "--corpus", data_dir / "ablation_corpus.jsonl",
                    "--pos-sidecar", data_dir / "ablation_pos.tsv",
                    "--out", tmp_path]) == 0
        best = (tmp_path / "ablation_best.tsv").read_text()
        for line in best.strip().splitlines()[1:]:
            assert "pos_tags" in line.split("\t")[1]
        single = (tmp_path / "ablation_single_feature.tsv").read_text()
        assert single.splitlines()[0].startswith("component\tbase")

    def test_runs_the_search_only(self, tmp_path, data_dir, monkeypatch, capsys):
        # the search is one joint fit, and ablate fits no component model after it
        from emocomp import maxent
        calls = []
        train = maxent.train_maxent

        def counting(*args, **kwargs):
            calls.append(args[2])
            return train(*args, **kwargs)

        monkeypatch.setattr(maxent, "train_maxent", counting)
        monkeypatch.setattr(pipeline, "train_maxent", counting)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("me_iterations = 5\n")
        assert run(["ablate", "--corpus", data_dir / "ablation_corpus.jsonl",
                    "--pos-sidecar", data_dir / "ablation_pos.tsv",
                    "--config", cfg, "--out", tmp_path]) == 0
        assert len(calls) == 1
