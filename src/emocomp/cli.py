"""Batch command-line front end.

Verbs: ``stats``, ``agreement``, ``train``, ``eval``, ``predict``,
``crossval``, ``ablate``. Configuration precedence: command-line flags >
``EMOCOMP_*`` environment variables > ``--config`` file > per-model
defaults. All randomness flows from ``--seed``.

Exit status: 0 success, 1 usage/config error, 2 data error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources as importlib_resources
from pathlib import Path

from .corpus import Corpus, COMPONENTS, load_corpus, kfold, split_train_test
from .errors import ConfigError, DataError, EmocompError
from .features import load_embedding_file, load_lexicon
from .maxent import (AdvResources, MaxEntConfig, load_tagged_sidecar,
                     load_vector_sidecar)
from .metrics import (agreement_degenerate, cohen_kappa, cooccurrence_stats,
                      round_half_up)
from .nn import (ModelConfig, default_config, load_checkpoint, predict_example,
                 predicted_components, save_checkpoint)
from . import pipeline
from .pipeline import ALL_TAGS, ME_TAGS

ENV_PREFIX = "EMOCOMP_"

# keys the flat config file understands beyond ModelConfig fields
EXTRA_KEYS = ("split_ratio", "dev_ratio", "fallback_dim",
              "me_iterations", "me_learning_rate", "me_l2")

MODEL_CONFIG_KEYS = ("bilstm_units", "cnn_filters", "fc_neurons_cpm",
                     "fc_neurons_emo", "fc_neurons_combined", "loss_weight_emo",
                     "loss_weight_cpm", "task_weight_emo", "task_weight_cpm",
                     "minibatch_size", "kernel_sizes", "dropout_rate",
                     "learning_rate", "epochs", "per_channel_stitch")


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in ("bilstm_units", "cnn_filters"):
        if "/" in raw:
            a, b = raw.split("/")
            return (int(a), int(b))
        return int(raw)
    if key == "kernel_sizes":
        return tuple(int(v) for v in raw.replace(",", " ").split())
    if key == "per_channel_stitch":
        return raw.lower() in ("1", "true", "yes", "on")
    if key in ("minibatch_size", "epochs", "fc_neurons_cpm", "fc_neurons_emo",
               "fc_neurons_combined", "fallback_dim", "me_iterations"):
        return int(raw)
    return float(raw)


def read_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` text format, '#' comments."""
    out = {}
    known = set(MODEL_CONFIG_KEYS) | set(EXTRA_KEYS) | {"seed"}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _parse_value(key, raw) if key != "seed" else int(raw)
    return out


def gather_settings(args) -> dict:
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(read_config_file(args.config))
    for key in list(MODEL_CONFIG_KEYS) + list(EXTRA_KEYS) + ["seed"]:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            settings[key] = _parse_value(key, env) if key != "seed" else int(env)
    for key in ("seed", "epochs", "minibatch_size", "learning_rate", "dropout_rate",
                "fallback_dim", "split_ratio", "dev_ratio"):
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    return settings


def default_lexicons() -> list:
    lexicons = []
    base = importlib_resources.files("emocomp") / "lexicons"
    for comp in COMPONENTS:
        lexicons.append(load_lexicon(str(base / f"{comp}.txt"), comp))
    return lexicons


def _maxent_config(settings: dict) -> MaxEntConfig:
    return MaxEntConfig(iterations=settings.get("me_iterations", 300),
                        learning_rate=settings.get("me_learning_rate", 0.05),
                        l2=settings.get("me_l2", 1e-4),
                        seed=settings.get("seed", 0))


def _resources_loader(args, settings):
    """Builds an AdvResources factory from resource flags; None when no
    auxiliary resource was requested (Cpm-ME-Base behaviour)."""
    lexicon_dir = getattr(args, "lexicons", None)
    use_default_lex = getattr(args, "advanced", False)
    embeddings_path = getattr(args, "embeddings", None)
    pos_path = getattr(args, "pos_sidecar", None)
    appraisal_path = getattr(args, "appraisal_sidecar", None)
    if not any((lexicon_dir, use_default_lex, embeddings_path, pos_path, appraisal_path)):
        return None

    def loader(tfidf, instance_ids):
        if lexicon_dir:
            lexicons = [load_lexicon(Path(lexicon_dir) / f"{c}.txt", c) for c in COMPONENTS]
        else:
            lexicons = default_lexicons()
        res = AdvResources(
            tfidf, lexicons=lexicons,
            pos_tags=load_tagged_sidecar(pos_path) if pos_path else None,
            embeddings=load_embedding_file(embeddings_path) if embeddings_path else None,
            appraisal=load_vector_sidecar(appraisal_path) if appraisal_path else None,
        )
        res.fit_pos_inventory(instance_ids)
        res.fit_appraisal_dim()
        return res

    return loader


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_log(path: Path, lines: list[str]) -> None:
    # the timestamp lives only in this header line so every other output
    # file is byte-stable across reruns
    header = f"# run completed {time.strftime('%Y-%m-%dT%H:%M:%S')}"
    path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# stats / agreement
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus)
    table = cooccurrence_stats(corpus)
    out = _out_dir(args)
    short = ("cognitive", "physiological", "action", "expression", "feeling")

    tsv = ["emotion\t" + "\t".join(f"{c}_count\t{c}_pct" for c in short) + "\ttotal"]
    text = [f"{len(corpus)} instances"]
    for emotion in table.emotions:
        cells = []
        for j in range(len(COMPONENTS)):
            cells.append(str(table.counts[emotion][j]))
            cells.append(str(round_half_up(table.percentage(emotion, j))))
        tsv.append(emotion + "\t" + "\t".join(cells) + f"\t{table.emotion_totals[emotion]}")
        pretty = "  ".join(f"{table.counts[emotion][j]:5d} ({round_half_up(table.percentage(emotion, j)):3d}%)"
                           for j in range(len(COMPONENTS)))
        text.append(f"{emotion:<14}{pretty}  total {table.emotion_totals[emotion]}")
    total_cells = []
    for j in range(len(COMPONENTS)):
        total_cells.append(str(table.component_totals[j]))
        total_cells.append(str(round_half_up(table.total_percentage(j))))
    tsv.append("total\t" + "\t".join(total_cells) + f"\t{table.corpus_size}")
    text.append("total         " + "  ".join(
        f"{table.component_totals[j]:5d} ({round_half_up(table.total_percentage(j)):3d}%)"
        for j in range(len(COMPONENTS))))

    (out / "stats.tsv").write_text("\n".join(tsv) + "\n", encoding="utf-8")
    (out / "stats.txt").write_text("\n".join(text) + "\n", encoding="utf-8")
    print("\n".join(text))
    return 0


def cmd_agreement(args) -> int:
    a_corpus = load_corpus(args.file_a)
    b_corpus = load_corpus(args.file_b)
    b_by_id = {i.id: i for i in b_corpus}
    missing = [i.id for i in a_corpus if i.id not in b_by_id]
    if missing:
        raise DataError(f"ids missing from second file: {missing[:5]}")
    out = _out_dir(args)
    lines = ["component\tkappa"]
    display = []
    for j, comp in enumerate(COMPONENTS):
        a = [i.cpm[j] for i in a_corpus]
        b = [b_by_id[i.id].cpm[j] for i in a_corpus]
        if agreement_degenerate(a, b):
            rendered = "--"
        else:
            rendered = f"{cohen_kappa(a, b):.3f}"
        lines.append(f"{comp}\t{rendered}")
        display.append(f"{comp:<28}{rendered}")
    (out / "agreement.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(display))
    return 0


# ---------------------------------------------------------------------------
# train / eval / predict
# ---------------------------------------------------------------------------

def _check_tag_mode(tag: str, corpus: Corpus, args=None) -> None:
    if tag not in ALL_TAGS:
        raise ConfigError(f"unknown model tag {tag!r} (expected one of {', '.join(ALL_TAGS)})")
    needs_emotions = not tag.startswith("cpm-")
    if needs_emotions and not corpus.emotion_inventory:
        raise ConfigError(f"model {tag!r} needs an emotion inventory but the corpus declares none")
    if args is not None:
        for attr in ("lexicons", "embeddings", "pos_sidecar", "appraisal_sidecar",
                     "token_embeddings", "config"):
            path = getattr(args, attr, None)
            if path and not Path(path).exists():
                raise ConfigError(f"--{attr.replace('_', '-')} path does not exist: {path}")


def _check_model_corpus(model_kind: str, model, corpus: Corpus) -> None:
    """Refuse to score a model against a corpus with a different task mode
    or label inventory before any featurization happens."""
    if model_kind == "me":
        if model.emotion_model is not None and model.mode != corpus.mode:
            raise ConfigError(f"model was trained {model.mode} but the corpus is {corpus.mode}")
        if model.emotion_model is not None and tuple(model.emotion_inventory) != corpus.emotion_inventory:
            raise ConfigError("model and corpus emotion inventories differ")
    else:
        if model.has_emo and tuple(model.emo_labels) != corpus.emotion_inventory:
            raise ConfigError("checkpoint and corpus emotion inventories differ")


def _nn_domain(corpus: Corpus) -> str:
    domains = {i.domain for i in corpus.instances}
    return domains.pop() if len(domains) == 1 else "other"


def _nn_config(tag: str, corpus: Corpus, settings: dict) -> ModelConfig:
    overrides = {k: v for k, v in settings.items() if k in MODEL_CONFIG_KEYS}
    overrides["seed"] = settings.get("seed", 0)
    return default_config(tag, _nn_domain(corpus), overrides)


def _train_me(tag, train_corpus, settings, args):
    me_config = _maxent_config(settings)
    seed = settings.get("seed", 0)
    dev_ratio = settings.get("dev_ratio", 0.1)
    if tag in ("cpm-me-base", "cpm-me-adv"):
        loader = _resources_loader(args, settings) if tag == "cpm-me-adv" else None
        if tag == "cpm-me-adv" and loader is None:
            # advanced tag without explicit resources: fall back to the
            # bundled dictionaries so the tag stays runnable out of the box
            args.advanced = True
            loader = _resources_loader(args, settings)
        return pipeline.train_component_me(train_corpus, me_config, loader,
                                           dev_ratio=dev_ratio, seed=seed)
    if tag == "emo-me-base":
        return pipeline.train_emotion_me(train_corpus, me_config)
    source = "gold" if tag == "emo-cpm-me-gold" else "predicted"
    stemmed = [pipeline.preprocess(i) for i in train_corpus]   # shared by both models
    cpm_art = None
    if source == "predicted":
        args.advanced = True
        loader = _resources_loader(args, settings)
        cpm_art = pipeline.train_component_me(train_corpus, me_config, loader,
                                              dev_ratio=dev_ratio, seed=seed, stemmed=stemmed)
    return pipeline.train_emotion_me(train_corpus, me_config, stack_source=source,
                                     cpm_artifact=cpm_art, stemmed=stemmed)


def _embeddings(corpus, settings, store_path):
    """Token embeddings of every instance in ``corpus``, and their dimension."""
    return pipeline.embeddings_for(corpus, store_path, settings.get("fallback_dim", 64),
                                   settings.get("seed", 0))


def _train_nn(tag, train_corpus, settings, table, dim):
    """Train on ``train_corpus``; ``table`` embeds at least its instances."""
    config = _nn_config(tag, train_corpus, settings)
    frozen = None
    if tag == "emo-cpm-nn-pred":
        sub_cfg = _nn_config("cpm-nn-base", train_corpus, settings)
        sub, _ = pipeline.train_neural("cpm-nn-base", train_corpus, sub_cfg, table, dim,
                                       dev_ratio=settings.get("dev_ratio", 0.1))
        frozen = sub
    model, log = pipeline.train_neural(tag, train_corpus, config, table, dim,
                                       dev_ratio=settings.get("dev_ratio", 0.1),
                                       frozen_cpm=frozen)
    return model, log


def _write_metrics(out: Path, name: str, report) -> None:
    (out / f"{name}.tsv").write_text(report.to_tsv(), encoding="utf-8")
    (out / f"{name}.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                                      encoding="utf-8")


def cmd_train(args) -> int:
    settings = gather_settings(args)
    corpus = load_corpus(args.corpus)
    _check_tag_mode(args.model, corpus, args)
    seed = settings.get("seed", 0)
    train_corpus, test_corpus = split_train_test(
        corpus, ratio=settings.get("split_ratio", 0.9), seed=seed)
    out = _out_dir(args)

    if args.model in ME_TAGS:
        artifact = _train_me(args.model, train_corpus, settings, args)
        pipeline.save_me_artifact(artifact, out / "model.json")
        report = pipeline.evaluate_me(artifact, test_corpus)
        log_lines = [f"model {args.model}", f"train {len(train_corpus)}",
                     f"test {len(test_corpus)}"]
    else:
        table, dim = _embeddings(corpus, settings, args.token_embeddings)
        model, log = _train_nn(args.model, train_corpus, settings, table, dim)
        save_checkpoint(model, out / "checkpoint.json")
        report = pipeline.evaluate_neural(model, test_corpus, table)
        log_lines = ([f"model {args.model}", f"train {len(train_corpus)}",
                      f"test {len(test_corpus)}"] + log.lines())

    _write_metrics(out, "metrics_test", report)
    _write_log(out / "training_log.txt", log_lines)
    print(f"macro-F1 {report.macro_f1:.4f}  micro-F1 {report.micro_f1:.4f}")
    return 0


def _load_any_model(args):
    """Parse the model file once; unreadable JSON or a missing key is a data error."""
    path = args.model_path
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path} is not a JSON model file: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path} does not hold a JSON object")
    try:
        if "params" in payload:
            return "nn", load_checkpoint(payload)
        embeddings = load_embedding_file(args.embeddings) if getattr(args, "embeddings", None) else None
        pos = load_tagged_sidecar(args.pos_sidecar) if getattr(args, "pos_sidecar", None) else None
        appraisal = load_vector_sidecar(args.appraisal_sidecar) if getattr(args, "appraisal_sidecar", None) else None
        return "me", pipeline.load_me_artifact(payload, embeddings=embeddings,
                                               pos_tags=pos, appraisal=appraisal)
    except KeyError as exc:
        raise DataError(f"{path} lacks required key {exc}") from exc


def cmd_eval(args) -> int:
    settings = gather_settings(args)
    corpus = load_corpus(args.corpus)
    kind, model = _load_any_model(args)
    _check_model_corpus(kind, model, corpus)
    out = _out_dir(args)
    if kind == "nn":
        table, _ = _embeddings(corpus, settings, args.token_embeddings)
        report = pipeline.evaluate_neural(model, corpus, table)
    else:
        report = pipeline.evaluate_me(model, corpus)
    _write_metrics(out, "metrics", report)
    print(report.to_tsv(), end="")
    return 0


def cmd_predict(args) -> int:
    settings = gather_settings(args)
    corpus = load_corpus(args.corpus)
    kind, model = _load_any_model(args)
    out = _out_dir(args)
    lines = ["id\temotions\tcpm"]
    if kind == "nn":
        table, _ = _embeddings(corpus, settings, args.token_embeddings)
        for ex in pipeline.build_examples(corpus, table):
            labels, cpm_probs = predict_example(model, ex, corpus.mode)
            cpm_txt = " ".join(predicted_components(cpm_probs)) if cpm_probs is not None else ""
            lines.append(f"{ex.id}\t{' '.join(sorted(labels))}\t{cpm_txt}")
    else:
        stemmed = [pipeline.preprocess(i) for i in corpus]
        ids = [i.id for i in corpus]
        emotions = (model.predict_emotions(corpus.instances, stemmed) if model.emotion_model
                    else [set()] * len(ids))
        cpms = ([" ".join(predicted_components(flags))
                 for flags in model.predict_components(stemmed, ids)]
                if model.component_models else [""] * len(ids))
        for inst_id, labels, cpm_txt in zip(ids, emotions, cpms):
            lines.append(f"{inst_id}\t{' '.join(sorted(labels))}\t{cpm_txt}")
    (out / "predictions.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines[:11]))
    return 0


# ---------------------------------------------------------------------------
# crossval / ablate
# ---------------------------------------------------------------------------

def _run_fold(payload):
    (fold_index, corpus_path, tag, settings, resource_args) = payload
    corpus = load_corpus(corpus_path)
    folds = kfold(corpus, k=settings["_k"], seed=settings.get("seed", 0))
    test_idx = set(folds[fold_index])
    train_corpus = corpus.subset([i for j, i in enumerate(corpus.instances) if j not in test_idx])
    test_corpus = corpus.subset([corpus.instances[j] for j in sorted(test_idx)])
    fold_settings = dict(settings)
    fold_settings["seed"] = settings.get("seed", 0) + fold_index
    if tag in ME_TAGS:
        report = pipeline.evaluate_me(
            _train_me(tag, train_corpus, fold_settings, argparse.Namespace(**resource_args)),
            test_corpus)
    else:
        table, dim = _embeddings(corpus, fold_settings, resource_args["token_embeddings"])
        model, _ = _train_nn(tag, train_corpus, fold_settings, table, dim)
        report = pipeline.evaluate_neural(model, test_corpus, table)
    return fold_index, report.macro_f1, report.micro_f1


def cmd_crossval(args) -> int:
    settings = gather_settings(args)
    corpus = load_corpus(args.corpus)
    _check_tag_mode(args.model, corpus, args)
    settings["_k"] = args.k
    resource_args = {k: getattr(args, k, None) for k in
                     ("lexicons", "advanced", "embeddings", "pos_sidecar",
                      "appraisal_sidecar", "token_embeddings")}
    payloads = [(i, args.corpus, args.model, settings, resource_args)
                for i in range(args.k)]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = sorted(pool.map(_run_fold, payloads))
    else:
        results = [_run_fold(p) for p in payloads]
    out = _out_dir(args)
    lines = ["fold\tmacro_f1\tmicro_f1"]
    for i, macro, micro in results:
        lines.append(f"{i}\t{macro:.6f}\t{micro:.6f}")
    mean_macro = sum(r[1] for r in results) / len(results)
    mean_micro = sum(r[2] for r in results) / len(results)
    lines.append(f"mean\t{mean_macro:.6f}\t{mean_micro:.6f}")
    (out / "crossval.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def cmd_ablate(args) -> int:
    settings = gather_settings(args)
    corpus = load_corpus(args.corpus)
    seed = settings.get("seed", 0)
    train_corpus, _ = split_train_test(corpus, ratio=settings.get("split_ratio", 0.9),
                                       seed=seed)
    args.advanced = True
    loader = _resources_loader(args, settings)
    artifact = pipeline.train_component_me(train_corpus, _maxent_config(settings),
                                           loader, dev_ratio=settings.get("dev_ratio", 0.1),
                                           seed=seed)
    out = _out_dir(args)
    single_lines = ["component\tbase\t" + "\t".join(
        ("dictionaries", "pos_tags", "word_embeddings", "appraisal_predictions"))]
    best_lines = ["component\tbest_combination\tdev_f1"]
    full_lines = ["component\tcombination\tdev_f1"]
    for comp in COMPONENTS:
        result = artifact.search_results[comp]
        base = result.all_results[()]
        row = [f"{base:.4f}"]
        for flag in ("dictionaries", "pos_tags", "word_embeddings", "appraisal_predictions"):
            row.append(f"{result.single_feature[flag]:.4f}" if flag in result.single_feature else "--")
        single_lines.append(comp + "\t" + "\t".join(row))
        enabled = "+".join(result.best.enabled()) or "(none)"
        best_lines.append(f"{comp}\t{enabled}\t{result.best_f1:.4f}")
        for subset, f1 in sorted(result.all_results.items()):
            full_lines.append(f"{comp}\t{'+'.join(subset) or '(none)'}\t{f1:.4f}")
    (out / "ablation_single_feature.tsv").write_text("\n".join(single_lines) + "\n", encoding="utf-8")
    (out / "ablation_best.tsv").write_text("\n".join(best_lines) + "\n", encoding="utf-8")
    (out / "ablation_exhaustive.tsv").write_text("\n".join(full_lines) + "\n", encoding="utf-8")
    print("\n".join(best_lines))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output directory (default: out)")


def _add_resources(p):
    p.add_argument("--lexicons", help="directory with <component>.txt files")
    p.add_argument("--advanced", action="store_true",
                   help="enable the bundled component dictionaries")
    p.add_argument("--embeddings", help="word embedding text file")
    p.add_argument("--pos-sidecar", dest="pos_sidecar", help="id<TAB>tags file")
    p.add_argument("--appraisal-sidecar", dest="appraisal_sidecar",
                   help="id<TAB>decimals file")
    p.add_argument("--token-embeddings", dest="token_embeddings",
                   help="per-token embedding store file (fallback: hashed embeddings)")
    p.add_argument("--fallback-dim", dest="fallback_dim", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emocomp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="emotion/component co-occurrence table")
    p.add_argument("corpus")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("agreement", help="Cohen's kappa between two annotation files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_common(p)
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("train", help="train a model on a 90/10 split")
    p.add_argument("--model", required=True, choices=ALL_TAGS)
    p.add_argument("--corpus", required=True)
    _add_common(p)
    _add_resources(p)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--minibatch-size", dest="minibatch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--dropout-rate", dest="dropout_rate", type=float, default=None)
    p.add_argument("--split-ratio", dest="split_ratio", type=float, default=None)
    p.add_argument("--dev-ratio", dest="dev_ratio", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a stored model on a corpus")
    p.add_argument("--model-path", dest="model_path", required=True)
    p.add_argument("--corpus", required=True)
    _add_common(p)
    _add_resources(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="per-instance predictions")
    p.add_argument("--model-path", dest="model_path", required=True)
    p.add_argument("--corpus", required=True)
    _add_common(p)
    _add_resources(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("crossval", help="k-fold cross-validation")
    p.add_argument("--model", required=True, choices=ALL_TAGS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)
    _add_resources(p)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("ablate", help="per-component feature ablation and search")
    p.add_argument("--corpus", required=True)
    _add_common(p)
    _add_resources(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except EmocompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        # remaining missing-file cases are resource paths: a config problem
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
