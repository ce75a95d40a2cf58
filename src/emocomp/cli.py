"""Batch command-line front end.

Verbs: ``stats``, ``agreement``, ``train``, ``eval``, ``predict``,
``crossval``, ``ablate``. Configuration precedence: command-line flags >
``EMOCOMP_*`` environment variables > ``--config`` file > per-model
defaults. All randomness flows from ``--seed``.

The model verbs take one path through :mod:`emocomp.pipeline` for both
model families.

Exit status: 0 success, 1 usage/config error, 2 data error, 3 runtime
failure. An input or output path that is missing, a directory or not
permitted is a config error, but a corpus path is a data error; input that
is not UTF-8 is a data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from .corpus import COMPONENTS, load_corpus, kfold, split_train_test
from .errors import ConfigError, DataError
from .fileio import write_lines, write_text
from .maxent import FEATURE_FLAGS, best_combination
from .metrics import (agreement_degenerate, cohen_kappa, cooccurrence_stats,
                      round_half_up)
from . import pipeline
from .pipeline import ALL_TAGS, SETTINGS, setting

ENV_PREFIX = "EMOCOMP_"

BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}

# OS errors that name a bad path given on the command line
PATH_ERRORS = (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
               PermissionError)


def _parse_value(key: str, raw: str, where: str):
    """The value of ``key`` as its default's type; ``where`` names the source
    of ``raw``. A size pair is ``a/b`` or one size, kernel sizes a list."""
    default, raw = SETTINGS[key], raw.strip()
    try:
        if type(default) is bool:
            return BOOLEANS[raw.lower()]
        if type(default) is not tuple:
            return type(default)(raw)
        if len(default) != 2:
            return tuple(int(v) for v in raw.replace(",", " ").split())
        if "/" not in raw:
            return int(raw)
        a, b = raw.split("/")
        return (int(a), int(b))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{where}: bad value {raw!r} for {key}") from exc


def read_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` text format, each key once, '#' comments."""
    out = {}
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
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats")
        out[key] = _parse_value(key, raw, f"{path}:{lineno}")
    return out


def gather_settings(args) -> dict:
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(read_config_file(args.config))
    for key in SETTINGS:
        env, flag = os.environ.get(ENV_PREFIX + key.upper()), getattr(args, key, None)
        if env is not None:
            settings[key] = _parse_value(key, env, ENV_PREFIX + key.upper())
        if flag is not None:   # a flag is named as its key
            settings[key] = flag
    if setting(settings, "seed") < 0:
        raise ConfigError(f"seed must be >= 0, got {settings['seed']}")
    for key in ("split_ratio", "dev_ratio"):
        if not 0.0 < setting(settings, key) < 1.0:
            raise ConfigError(f"{key} must be in (0, 1), got {settings[key]}")
    return settings


def _resources(args) -> dict:
    """The resource file paths given on the command line, by flag name; a
    path that does not exist is a config error, whether or not it is read."""
    paths = {k: getattr(args, k, None) for k in ("lexicons", "embeddings", "pos_sidecar",
                                                 "appraisal_sidecar", "token_embeddings")}
    for attr, path in paths.items():
        if path and not Path(path).exists():
            raise ConfigError(f"--{attr.replace('_', '-')} path does not exist: {path}")
    return paths


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_log(path: Path, lines: list[str]) -> None:
    # the timestamp lives only in this header line so every other output
    # file is byte-stable across reruns
    header = f"# run completed {time.strftime('%Y-%m-%dT%H:%M:%S')}"
    write_lines(path, [header] + lines)


# ---------------------------------------------------------------------------
# stats / agreement
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus)
    table = cooccurrence_stats(corpus)
    out = _out_dir(args)
    short = ("cognitive", "physiological", "action", "expression", "feeling")

    # a row: its name, a (count, rounded percentage) pair per component, its total
    rows = [(e, [(n, round_half_up(table.percentage(e, j))) for j, n in enumerate(table.counts[e])],
             table.emotion_totals[e]) for e in table.emotions]
    rows.append(("total", [(n, round_half_up(table.total_percentage(j)))
                           for j, n in enumerate(table.component_totals)], table.corpus_size))
    tsv = ["emotion\t" + "\t".join(f"{c}_count\t{c}_pct" for c in short) + "\ttotal"]
    tsv += [name + "".join(f"\t{n}\t{pct}" for n, pct in cells) + f"\t{total}"
            for name, cells, total in rows]
    text = [f"{len(corpus)} instances"]
    text += [f"{name:<14}" + "  ".join(f"{n:5d} ({pct:3d}%)" for n, pct in cells)
             + (f"  total {total}" if i < len(table.emotions) else "")   # not on the totals row
             for i, (name, cells, total) in enumerate(rows)]

    write_lines(out / "stats.tsv", tsv)
    write_lines(out / "stats.txt", text)
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
    write_lines(out / "agreement.tsv", lines)
    print("\n".join(display))
    return 0


# ---------------------------------------------------------------------------
# train / eval / predict
# ---------------------------------------------------------------------------

def _write_metrics(out: Path, name: str, report) -> None:
    write_text(out / f"{name}.tsv", report.to_tsv())
    write_text(out / f"{name}.json", json.dumps(report.to_dict(), indent=2) + "\n")


def cmd_train(args) -> int:
    settings, corpus, resources = gather_settings(args), load_corpus(args.corpus), _resources(args)
    ratio = setting(settings, "split_ratio")
    train_corpus, test_corpus = split_train_test(corpus, ratio=ratio, seed=setting(settings, "seed"))
    if not len(test_corpus):
        raise ConfigError(f"split_ratio {ratio} leaves no test instances among {len(corpus)}")
    embed = pipeline.embedder(corpus, settings, resources)
    model, log_lines = pipeline.train_tag(args.model, train_corpus, settings, resources, embed)
    out = _out_dir(args)
    pipeline.save_model(model, out)
    report = pipeline.evaluate_model(model, test_corpus, embed)
    _write_metrics(out, "metrics_test", report)
    _write_log(out / "training_log.txt", [f"model {args.model}", f"train {len(train_corpus)}",
                                          f"test {len(test_corpus)}"] + log_lines)
    print(f"macro-F1 {report.macro_f1:.4f}  micro-F1 {report.micro_f1:.4f}")
    return 0


def _stored_model(args):
    """The stored model, the corpus and an embedder for it (eval, predict)."""
    settings, corpus, resources = gather_settings(args), load_corpus(args.corpus), _resources(args)
    model = pipeline.load_model(args.model_path, resources)
    return model, corpus, pipeline.embedder(corpus, settings, resources)


def cmd_eval(args) -> int:
    report = pipeline.evaluate_model(*_stored_model(args))
    _write_metrics(_out_dir(args), "metrics", report)
    print(report.to_tsv(), end="")
    return 0


def cmd_predict(args) -> int:
    model, corpus, embed = _stored_model(args)
    emotions, components = pipeline.predict(model, corpus, embed)
    no_labels = [set()] * len(corpus)
    lines = ["id\temotions\tcpm"] + [
        f"{inst.id}\t{' '.join(sorted(labels))}\t{' '.join(c for c in COMPONENTS if c in comps)}"
        for inst, labels, comps in zip(corpus, emotions or no_labels, components or no_labels)]
    write_lines(_out_dir(args) / "predictions.tsv", lines)
    print("\n".join(lines[:11]))
    return 0


# ---------------------------------------------------------------------------
# crossval / ablate
# ---------------------------------------------------------------------------

def _run_fold(payload):
    (fold_index, test_rows, corpus, tag, settings, resources) = payload
    test_idx = set(test_rows)
    train_corpus = corpus.subset([i for j, i in enumerate(corpus.instances) if j not in test_idx])
    test_corpus = corpus.subset([corpus.instances[j] for j in sorted(test_idx)])
    fold_settings = dict(settings, seed=setting(settings, "seed") + fold_index)
    embed = pipeline.embedder(corpus, fold_settings, resources)
    model, _ = pipeline.train_tag(tag, train_corpus, fold_settings, resources, embed)
    report = pipeline.evaluate_model(model, test_corpus, embed)
    return fold_index, report.macro_f1, report.micro_f1


def fold_workers(jobs: int, k: int) -> int:
    """Worker processes for ``crossval``: ``--jobs``, at most one per fold."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, k)


def cmd_crossval(args) -> int:
    settings, corpus, resources = gather_settings(args), load_corpus(args.corpus), _resources(args)
    folds = kfold(corpus, k=args.k, seed=setting(settings, "seed"))   # a bad --k fails here
    payloads = [(i, fold, corpus, args.model, settings, resources)
                for i, fold in enumerate(folds)]
    workers = fold_workers(args.jobs, args.k)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    write_lines(out / "crossval.tsv", lines)
    print("\n".join(lines))
    return 0


def cmd_ablate(args) -> int:
    settings = gather_settings(args)
    corpus = load_corpus(args.corpus)
    train_corpus, _ = split_train_test(corpus, ratio=setting(settings, "split_ratio"),
                                       seed=setting(settings, "seed"))
    tables = pipeline.search_features(train_corpus, settings, _resources(args))
    out = _out_dir(args)
    single_lines = ["component\tbase\t" + "\t".join(FEATURE_FLAGS)]
    best_lines = ["component\tbest_combination\tdev_f1"]
    full_lines = ["component\tcombination\tdev_f1"]
    for comp in COMPONENTS:
        scores, best = tables[comp], best_combination(tables[comp])
        row = [f"{scores[combo]:.4f}" if combo in scores else "--"
               for combo in [()] + [(flag,) for flag in FEATURE_FLAGS]]
        single_lines.append(comp + "\t" + "\t".join(row))
        best_lines.append(f"{comp}\t{'+'.join(best) or '(none)'}\t{scores[best]:.4f}")
        for subset, f1 in sorted(scores.items()):
            full_lines.append(f"{comp}\t{'+'.join(subset) or '(none)'}\t{f1:.4f}")
    write_lines(out / "ablation_single_feature.tsv", single_lines)
    write_lines(out / "ablation_best.tsv", best_lines)
    write_lines(out / "ablation_exhaustive.tsv", full_lines)
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
                   help="use the bundled component dictionaries (the default "
                        "whenever --lexicons is not given)")
    p.add_argument("--embeddings", help="word embedding text file")
    p.add_argument("--pos-sidecar", dest="pos_sidecar", help="id<TAB>tags file")
    p.add_argument("--appraisal-sidecar", dest="appraisal_sidecar",
                   help="id<TAB>decimals file")
    p.add_argument("--token-embeddings", dest="token_embeddings",
                   help="per-token embedding store file (fallback: hashed embeddings)")
    p.add_argument("--fallback-dim", dest="fallback_dim", type=int, default=None)


@functools.cache   # parsing leaves the parser as it was, so one serves every call
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
    except PATH_ERRORS as exc:
        # corpus paths are data errors already (load_corpus); the rest are
        # config, resource, model and output paths: a config problem
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"data error: an input file is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":   # a script run only; tests call main()
    sys.exit(main())
