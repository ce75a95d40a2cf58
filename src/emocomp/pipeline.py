"""End-to-end plumbing from corpora to trained models and reports.

This is what the CLI calls into; tests use it directly as well. Both model
families, feature-based (maximum entropy) and neural, sit behind the same
functions: :func:`train_tag` (the tag picks the family), :func:`predict`,
:func:`evaluate_model` (built on :func:`predict`), :func:`save_model` and
:func:`load_model` (the payload picks the family). They share the protocol:
90/10 train/test, with a slice of the training split held out as
development data where a model needs one.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields
from importlib import resources as importlib_resources
from pathlib import Path

import numpy as np

from .corpus import (COMPONENTS, MULTI_LABEL, SINGLE_LABEL, Corpus, Instance,
                     split_indices, split_train_test)
from .errors import ConfigError, DataError, ResourceError, stored_names, stored_numbers
from .features import (DictionaryLexicon, TfIdfModel, load_embedding_file, load_lexicon,
                       load_tagged_sidecar, load_token_embedding_store, load_vector_sidecar,
                       resolve_token_embeddings, tfidf_fit, tfidf_transform)
from .fileio import write_text
from .maxent import (BINARY, FEATURE_FLAGS, GOLD, MULTINOMIAL, PREDICTED, AdvResources,
                     MaxEntConfig, MaxEntModel, available_flags, best_combination,
                     build_cpm_adv_features, combination_columns, combination_mask,
                     combination_width, feature_combination_search, predict_maxent,
                     split_labels, stack_component_features, stack_labels, train_maxent)
from .metrics import MetricsReport, evaluate, label_sets
from .nn import (NN_TAGS, Example, ModelConfig, NeuralModel, SharedTrunkModel,
                 TrainingLog, build_model, default_config, load_checkpoint,
                 predict_examples, read_model_text, save_checkpoint, train_model)
from .text import stem_tokens, tokenize

ME_TAGS = ("emo-me-base", "cpm-me-base", "cpm-me-adv",
           "emo-cpm-me-pred", "emo-cpm-me-gold")
EMOTION_ME_TAGS = {None: "emo-me-base", GOLD: "emo-cpm-me-gold", PREDICTED: "emo-cpm-me-pred"}
ALL_TAGS = ME_TAGS + NN_TAGS

# Each run setting and its default (a value parses as the default's type): the
# ModelConfig fields, MaxEntConfig's as me_* but its seed, and three run keys.
SETTINGS = {**{f.name: f.default for f in fields(ModelConfig)},
            **{f"me_{f.name}": f.default for f in fields(MaxEntConfig) if f.name != "seed"},
            "split_ratio": 0.9, "dev_ratio": 0.1, "fallback_dim": 64}


def setting(settings: dict, key: str):
    """The value of ``key`` in ``settings``, or its default."""
    return settings.get(key, SETTINGS[key])


def preprocess(instance: Instance, stems: dict[str, str] | None = None) -> list[str]:
    """Lowercased, tokenized, Porter-stemmed tokens; ``stems`` memoizes the
    stemmer across calls."""
    return stem_tokens(tokenize(instance.text), stems)


def preprocess_corpus(instances) -> list[list[str]]:
    """:func:`preprocess` of each instance, stemming each distinct word once
    per call."""
    stems: dict[str, str] = {}
    return [preprocess(i, stems) for i in instances]


def emotion_multi_hot(instance: Instance, inventory: tuple[str, ...]) -> np.ndarray:
    return np.array([1.0 if label in instance.emotions else 0.0 for label in inventory])


# ---------------------------------------------------------------------------
# Feature-based family
# ---------------------------------------------------------------------------

@dataclass
class MeArtifact:
    """A trained feature-based model together with its featurizer state."""

    tag: str
    mode: str
    emotion_inventory: tuple[str, ...]
    tfidf: TfIdfModel
    emotion_model: MaxEntModel | None = None   # binary: one-vs-rest, one column per label
    component_models: dict[str, MaxEntModel] = field(default_factory=dict)
    combinations: dict[str, tuple[str, ...]] = field(default_factory=dict)
    resources: AdvResources | None = None
    stack_source: str | None = None          # gold | predicted for emo-cpm-me-*
    cpm_artifact: "MeArtifact | None" = None  # predictor used for stacking

    @property
    def emo_labels(self) -> tuple[str, ...]:
        """The emotion labels the model predicts; none for a component model."""
        return self.emotion_inventory if self.emotion_model is not None else ()

    @property
    def feature_dim(self) -> int:
        """Columns of the emotion features: TF-IDF, plus the stacked flags."""
        return self.tfidf.dim + (len(COMPONENTS) if self.stack_source is not None else 0)

    def predict_components(self, stemmed: list[list[str]], inst_ids: list[str]) -> np.ndarray:
        """0/1 flags with one row per document and one column per component."""
        used = tuple(f for f in FEATURE_FLAGS if any(f in c for c in self.combinations.values()))
        X, offsets = build_cpm_adv_features(stemmed, inst_ids, used, self.tfidf, self.resources)
        flags = np.zeros((len(stemmed), len(COMPONENTS)), dtype=int)
        for j, comp in enumerate(COMPONENTS):
            cols = combination_columns(offsets, self.combinations.get(comp, ()))
            flags[:, j] = predict_maxent(self.component_models[comp], X[:, cols])[0][:, 0]
        return flags

    def emotion_features(self, instances: list[Instance], stemmed: list[list[str]]) -> np.ndarray:
        """The emotion model's design matrix for ``instances``, given their
        stemmed tokens: TF-IDF, then the gold or the predicted component
        flags when the model stacks them."""
        X = tfidf_transform(self.tfidf, stemmed)
        if self.stack_source is None:
            return X
        cpm = ([i.cpm for i in instances] if self.stack_source == GOLD
               else self.cpm_artifact.predict_components(stemmed, [i.id for i in instances]))
        return stack_component_features(X, cpm)

    def predict_emotions(self, instances: list[Instance], stemmed: list[list[str]]) -> list[set[str]]:
        """Emotion label sets of ``instances``, given their stemmed tokens."""
        decisions, _ = predict_maxent(self.emotion_model, self.emotion_features(instances, stemmed))
        return label_sets(decisions, self.emotion_model.classes)


def _maxent_to_dict(m: MaxEntModel) -> dict:
    """Version-1 layout of a multinomial or single-class binary model."""
    return {"classes": list(m.classes), "mode": m.mode,
            "weights": m.weights.tolist(), "bias": m.bias.tolist(),
            "feature_dim": m.feature_dim, "degenerate": bool(m.constant),
            "constant_class": next((c for c, v in m.constant.items() if v), None)}


def _maxent_from_dict(d: dict, mode: str = BINARY) -> MaxEntModel:
    """A stored maxent model, which must be of ``mode``: binary for a
    component or one-vs-rest label model, multinomial for a multinomial one."""
    if not isinstance(d, dict):
        raise DataError(f"maxent model must be an object, got {type(d).__name__}")
    classes = stored_names(d["classes"], "maxent classes")
    if d["mode"] != mode:
        raise DataError(f"maxent mode must be {mode!r} here, got {d['mode']!r}")
    if type(d["feature_dim"]) is not int:
        raise DataError(f"maxent feature_dim must be an integer, got {d['feature_dim']!r}")
    weights, bias = stored_numbers(d["weights"]), stored_numbers(d["bias"])
    if weights is None or bias is None:
        raise DataError("maxent weights and bias must hold arrays of numbers")
    if weights.shape != (d["feature_dim"], len(classes)) or bias.shape != (len(classes),):
        raise DataError(f"maxent weights {weights.shape} / bias {bias.shape} do not fit "
                        f"{d['feature_dim']} features x {len(classes)} classes")
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise DataError("maxent weights and bias must be finite")
    if type(d["degenerate"]) is not bool or d["constant_class"] not in (None, *classes):
        raise DataError("maxent degenerate must be a boolean and constant_class one of its classes")
    if d["degenerate"] and (weights.any() or bias.any()):   # a constant class is never fit
        raise DataError("a degenerate maxent model must store zero weights and bias")
    constant = {}
    if d["degenerate"]:
        constant = ({d["constant_class"]: True} if d["constant_class"] is not None
                    else {classes[0]: False})
    return MaxEntModel(classes, d["mode"], weights, bias, d["feature_dim"], constant)


def _tfidf_from_dict(d: dict) -> TfIdfModel:
    """The stored featurizer: integer counts, and a vocabulary that numbers
    its n-grams 0..n-1 and has a document frequency for each."""
    if not isinstance(d, dict):
        raise DataError(f"tfidf must be an object, got {type(d).__name__}")
    vocab, df, n = d["vocabulary"], d["document_frequency"], d["corpus_size"]
    if not (isinstance(vocab, dict) and isinstance(df, dict)) or set(vocab) != set(df):
        raise DataError("tfidf vocabulary and document_frequency must cover the same n-grams")
    if not all(type(v) is int for v in (n, *vocab.values(), *df.values())):
        raise DataError("tfidf indices, document frequencies and corpus_size must be integers")
    if n < 1 or not all(1 <= v <= n for v in df.values()):
        raise DataError("tfidf document frequencies must lie in 1..corpus_size, and corpus_size >= 1")
    if sorted(vocab.values()) != list(range(len(vocab))):
        raise DataError(f"tfidf vocabulary must number its {len(vocab)} n-grams 0..{len(vocab) - 1}")
    return TfIdfModel(vocab, df, n)


def save_me_artifact(artifact: MeArtifact, path: str | Path) -> None:
    """Persist a feature-based model with its featurizer state.

    Lexicons and the POS tag inventory travel with the file; embedding and
    appraisal resources must be re-supplied at load time when a stored
    combination uses them. A one-vs-rest emotion model is stored as one
    single-class model per label.
    """
    def emotion_model_dict(a: MeArtifact):
        if a.emotion_model is None:
            return None
        if a.emotion_model.mode == BINARY:
            return {"kind": "ovr", "labels": list(a.emotion_model.classes),
                    "models": {l: _maxent_to_dict(m)
                               for l, m in split_labels(a.emotion_model).items()}}
        return {"kind": "multinomial", "model": _maxent_to_dict(a.emotion_model)}

    def artifact_dict(a: MeArtifact) -> dict:
        d = {
            "version": 1,
            "tag": a.tag,
            "mode": a.mode,
            "emotion_inventory": list(a.emotion_inventory),
            "tfidf": {"vocabulary": a.tfidf.vocabulary,
                      "document_frequency": a.tfidf.document_frequency,
                      "corpus_size": a.tfidf.corpus_size},
            "feature_dim": a.feature_dim,
            "emotion_model": emotion_model_dict(a),
            "component_models": {c: _maxent_to_dict(m) for c, m in a.component_models.items()},
            "combinations": {c: list(combo) for c, combo in a.combinations.items()},
            "stack_source": a.stack_source,
            "cpm_artifact": artifact_dict(a.cpm_artifact) if a.cpm_artifact else None,
        }
        if a.resources is not None:
            d["resources"] = {
                "lexicons": {lex.component: sorted(lex.entries) for lex in a.resources.lexicons},
                "pos_inventory": list(a.resources.pos_inventory),
                "appraisal_dim": a.resources.appraisal_dim,
                "embedding_dim": a.resources.embeddings.dimension if a.resources.embeddings else None,
            }
        return d

    write_text(path, json.dumps(artifact_dict(artifact)))


def load_me_artifact(payload: dict, sidecar=lambda flag: None) -> MeArtifact:
    """Rebuild an artifact from a decoded ``model.json`` (``load_model`` opens
    the file). ``sidecar(flag)`` gives the loaded resource of a feature flag
    that reads a file, or None; it is called only for a flag that a stored
    combination reads."""

    def from_dict(d: dict, tags: tuple[str, ...] = ME_TAGS) -> MeArtifact:
        for key, allowed in (("version", (1,)), ("tag", tags),
                             ("mode", (SINGLE_LABEL, MULTI_LABEL)),
                             ("stack_source", tuple(EMOTION_ME_TAGS))):
            if not any(type(d[key]) is type(a) and d[key] == a for a in allowed):
                raise DataError(f"model {key} must be one of {allowed}, got {d[key]!r}")
        for key, kind in (("emotion_model", (dict, type(None))), ("component_models", dict),
                          ("combinations", dict), ("cpm_artifact", (dict, type(None)))):
            if not isinstance(d[key], kind):
                raise DataError(f"model {key} must be an object, got {type(d[key]).__name__}")
        if d["stack_source"] == PREDICTED and d["cpm_artifact"] is None:
            raise DataError("a model stacking predicted components needs its cpm_artifact")
        tfidf = _tfidf_from_dict(d["tfidf"])
        a = MeArtifact(d["tag"], d["mode"], stored_names(d["emotion_inventory"], "emotion_inventory"),
                       tfidf, stack_source=d["stack_source"])
        if type(d["feature_dim"]) is not int or d["feature_dim"] != a.feature_dim:
            raise DataError(f"stored feature_dim {d['feature_dim']!r} is not {a.feature_dim}")
        em = d["emotion_model"]
        if em is not None:
            if em["kind"] == "ovr" and isinstance(em["models"], dict) and em["labels"]:
                a.emotion_model = stack_labels([_maxent_from_dict(em["models"][l])
                                                for l in stored_names(em["labels"], "labels")])
            elif em["kind"] == "multinomial":
                a.emotion_model = _maxent_from_dict(em["model"], MULTINOMIAL)
            else:
                raise DataError(f"emotion_model of kind {em['kind']!r} is not a model set or model")
            if (a.mode == SINGLE_LABEL) != (a.emotion_model.mode == MULTINOMIAL):
                raise DataError(f"a {a.mode} model cannot hold an emotion model of kind {em['kind']!r}")
        a.component_models = {c: _maxent_from_dict(m) for c, m in d["component_models"].items()}
        for comp, flags in d["combinations"].items():
            unknown = set(stored_names(flags, "combination")) - set(FEATURE_FLAGS)
            if unknown:
                raise DataError(f"combination of {comp} names unknown flags {sorted(unknown)}")
            a.combinations[comp] = tuple(f for f in FEATURE_FLAGS if f in flags)
        used = {f for combo in a.combinations.values() for f in combo}
        res = d.get("resources")
        if res is not None:
            if not (isinstance(res, dict) and isinstance(res["lexicons"], dict)
                    and type(res["appraisal_dim"]) is int and res["appraisal_dim"] >= 0
                    and (res["embedding_dim"] is None
                         or type(res["embedding_dim"]) is int and res["embedding_dim"] >= 1)):
                raise DataError("resources must be an object with a lexicons map of term lists, "
                                "a non-negative integer appraisal_dim and an embedding_dim "
                                "that is a positive integer or null")
            lexicons = [DictionaryLexicon(c, frozenset(stored_names(entries, "lexicon")))
                        for c, entries in res["lexicons"].items()]
            read = {f: sidecar(f) if f in used else None for f in SIDECARS}
            a.resources = AdvResources(lexicons=lexicons,
                                       pos_tags=read["pos_tags"],
                                       pos_inventory=stored_names(res["pos_inventory"], "pos_inventory"),
                                       embeddings=read["word_embeddings"],
                                       appraisal=read["appraisal_predictions"],
                                       appraisal_dim=res["appraisal_dim"])
        missing = used - set(available_flags(a.resources))
        if missing:
            raise ResourceError("stored combinations use feature flags whose resources are not "
                                f"loaded: {', '.join(f for f in FEATURE_FLAGS if f in missing)}")
        if "word_embeddings" in used and res["embedding_dim"] != a.resources.embeddings.dimension:
            raise DataError(f"stored model reads embeddings {res['embedding_dim']} wide, but "
                            f"the embedding file's are {a.resources.embeddings.dimension} wide")
        check_models(a)
        if d["cpm_artifact"] is not None:
            a.cpm_artifact = from_dict(d["cpm_artifact"], ("cpm-me-base", "cpm-me-adv"))
        return a

    def check_models(a: MeArtifact) -> None:
        """The tag's models must be there, each over its classes and reading
        as many columns as its featurizer makes."""
        cpm = a.tag.startswith("cpm-")
        if (set(a.component_models) != (set(COMPONENTS) if cpm else set())
                or (a.emotion_model is None) != cpm or not (cpm or a.emotion_inventory)):
            raise DataError(f"a model tagged {a.tag} needs exactly "
                            + ("one model per component" if cpm else "an emotion model and labels"))
        expected = [(comp, m, (comp,),
                     a.tfidf.dim + combination_width(a.resources, a.combinations.get(comp, ())))
                    for comp, m in a.component_models.items()]
        if a.emotion_model is not None:
            expected.append(("emotion", a.emotion_model, a.emotion_inventory, a.feature_dim))
        for name, m, classes, width in expected:
            if m.classes != classes:
                raise DataError(f"stored {name} model predicts {list(m.classes)}, not {list(classes)}")
            if m.feature_dim != width:
                raise DataError(f"stored {name} model reads {m.feature_dim} features, "
                                f"but its featurizer makes {width}")

    return from_dict(payload)


def train_emotion_me(corpus: Corpus, config: MaxEntConfig | None = None,
                     stack_source: str | None = None,
                     cpm_artifact: MeArtifact | None = None,
                     stemmed: list[list[str]] | None = None) -> MeArtifact:
    """Emo-ME-Base when ``stack_source`` is None; Emo-Cpm-ME-Gold when it
    is 'gold', which stacks each instance's gold component flags onto its
    TF-IDF features; Emo-Cpm-ME-Pred when it is 'predicted', which stacks
    the flags that ``cpm_artifact``, a trained component model, predicts.
    ``stemmed`` is the corpus's preprocessed tokens, if already at hand."""
    if stack_source not in EMOTION_ME_TAGS:
        raise ConfigError(f"unknown component source {stack_source!r}")
    if stack_source == PREDICTED and cpm_artifact is None:
        raise ConfigError("predicted component stacking needs a component model")
    stemmed = stemmed or preprocess_corpus(corpus)
    inventory = corpus.emotion_inventory
    artifact = MeArtifact(EMOTION_ME_TAGS[stack_source], corpus.mode, inventory,
                          tfidf_fit(stemmed), stack_source=stack_source, cpm_artifact=cpm_artifact)
    X = artifact.emotion_features(corpus.instances, stemmed)
    if corpus.mode == SINGLE_LABEL:
        y = [next(iter(i.emotions)) for i in corpus]
        artifact.emotion_model = train_maxent(X, y, inventory, MULTINOMIAL, X.shape[1], config)
    else:
        Y = np.array([emotion_multi_hot(i, inventory) for i in corpus])
        artifact.emotion_model = train_maxent(X, Y, inventory, BINARY, X.shape[1], config)
    return artifact


def train_component_me(corpus: Corpus, config: MaxEntConfig | None = None,
                       resources: AdvResources | None = None, dev_ratio: float = 0.1,
                       seed: int = 0, stemmed: list[list[str]] | None = None) -> MeArtifact:
    """Cpm-ME-Base when ``resources`` is None; otherwise Cpm-ME-Adv, which
    fits the POS tag inventory and the appraisal width of a copy of
    ``resources`` on ``corpus`` and picks each component's feature
    combination by an exhaustive search on a held-out dev slice.
    Both fit the five components in one binary fit, each masked to its
    combination's columns (TF-IDF alone for Cpm-ME-Base), and store each
    component's column over those columns only.
    ``stemmed`` is the corpus's preprocessed tokens, if already at hand."""
    stemmed = stemmed or preprocess_corpus(corpus)
    tfidf = tfidf_fit(stemmed)
    Y = np.array([i.cpm for i in corpus], dtype=float)
    artifact = MeArtifact("cpm-me-base", corpus.mode, corpus.emotion_inventory, tfidf)
    if resources is None:
        X, offsets = build_cpm_adv_features(stemmed, [i.id for i in corpus], (), tfidf, None)
    else:
        artifact.tag = "cpm-me-adv"
        artifact.resources, X, offsets, scores = _adv_search(
            corpus, stemmed, tfidf, config, resources, dev_ratio, seed)
        artifact.combinations = {c: best_combination(s) for c, s in scores.items()}
    mask = combination_mask(offsets, [artifact.combinations.get(c, ()) for c in COMPONENTS])
    model = train_maxent(X, Y, COMPONENTS, BINARY, X.shape[1], config, mask)
    artifact.component_models = split_labels(model, mask)
    return artifact


def _adv_search(corpus: Corpus, stemmed: list[list[str]], tfidf: TfIdfModel,
                config: MaxEntConfig | None, resources: AdvResources, dev_ratio: float,
                seed: int) -> tuple:
    """Cpm-ME-Adv's feature search on ``corpus``: the copy of ``resources``
    fit on it, the design matrix of every available block with the blocks'
    spans, and each component's score table."""
    ids = [i.id for i in corpus]
    resources = resources.fitted(ids)
    sub_rows, dev_rows = split_indices(len(corpus), 1.0 - dev_ratio, seed)
    if not dev_rows:
        raise ConfigError(f"dev_ratio {dev_ratio} leaves no dev instances among {len(corpus)}")
    order = sub_rows + dev_rows
    # features depend only on the instance and on resources fit on this
    # split, so a matrix built in search order holds the sub-split and the
    # dev slice as views, and reordered it is the corpus's own
    X, offsets = build_cpm_adv_features([stemmed[r] for r in order], [ids[r] for r in order],
                                        available_flags(resources), tfidf, resources)
    n = len(sub_rows)
    Y = np.array([corpus.instances[r].cpm for r in order], dtype=float)
    scores = feature_combination_search(X, offsets, Y, COMPONENTS, slice(0, n),
                                        slice(n, None), config)
    return resources, X[np.argsort(order)], offsets, scores


# ---------------------------------------------------------------------------
# Neural family
# ---------------------------------------------------------------------------

def build_examples(corpus: Corpus, embeddings: dict[str, np.ndarray]) -> list[Example]:
    out = []
    for inst in corpus:
        out.append(Example(inst.id, embeddings[inst.id],
                           emotion_multi_hot(inst, corpus.emotion_inventory),
                           np.array([float(v) for v in inst.cpm])))
    return out


def embeddings_for(corpus: Corpus, store_path: str | None = None,
                   fallback_dim: int = 64, seed: int = 0) -> tuple[dict[str, np.ndarray], int]:
    if fallback_dim < 1:
        raise ConfigError(f"fallback_dim must be >= 1, got {fallback_dim}")
    store = load_token_embedding_store(store_path) if store_path else None
    table = resolve_token_embeddings(corpus.instances, tokenize, store=store,
                                     fallback_dim=fallback_dim, seed=seed)
    dim = store.dimension if store else fallback_dim
    return table, dim


def train_neural(tag: str, train_corpus: Corpus, config: ModelConfig,
                 embeddings: dict[str, np.ndarray], input_dim: int,
                 dev_ratio: float = 0.1,
                 frozen_cpm: SharedTrunkModel | None = None) -> tuple[NeuralModel, TrainingLog]:
    train_split, dev_split = split_train_test(train_corpus, ratio=1.0 - dev_ratio,
                                              seed=config.seed)
    model = build_model(tag, config, input_dim, train_corpus.emotion_inventory,
                        frozen_cpm=frozen_cpm)
    log = train_model(model, build_examples(train_split, embeddings), train_corpus.mode,
                      dev=build_examples(dev_split, embeddings) or None)
    return model, log


def evaluate_neural(model: NeuralModel, corpus: Corpus,
                    embeddings: dict[str, np.ndarray]) -> MetricsReport:
    """:func:`evaluate_model` given a token-embedding table covering ``corpus``."""
    return evaluate_model(model, corpus, lambda: (embeddings, model.input_dim))


def _nn_config(tag: str, corpus: Corpus, settings: dict) -> ModelConfig:
    """The tag's defaults for the corpus domain ("other" when it mixes
    domains), overridden by the ModelConfig fields in ``settings``."""
    domains = {i.domain for i in corpus}
    overrides = {k: v for k, v in settings.items() if k in ModelConfig.__dataclass_fields__}
    return default_config(tag, domains.pop() if len(domains) == 1 else "other", overrides)


# ---------------------------------------------------------------------------
# One surface for both families. ``settings`` maps keys of SETTINGS to values;
# ``resources`` maps its resource flags (lexicons, pos_sidecar, ...) to paths.
# ---------------------------------------------------------------------------

def embedder(corpus: Corpus, settings: dict, resources: dict):
    """A function returning :func:`embeddings_for` of ``corpus``, computed on
    its first call; only neural models call it."""
    return functools.cache(functools.partial(
        embeddings_for, corpus, resources.get("token_embeddings"),
        setting(settings, "fallback_dim"), setting(settings, "seed")))


# the resource key and reader of each feature flag that reads a sidecar file
SIDECARS = {"word_embeddings": ("embeddings", load_embedding_file),
            "pos_tags": ("pos_sidecar", load_tagged_sidecar),
            "appraisal_predictions": ("appraisal_sidecar", load_vector_sidecar)}


def _sidecar(resources: dict, flag: str):
    """The loaded sidecar file of feature ``flag``, None where not given."""
    key, load = SIDECARS[flag]
    return load(resources[key]) if resources.get(key) else None


def _adv_resources(resources: dict) -> AdvResources:
    """The resources of cpm-me-adv; lexicons default to the bundled ones."""
    base = (Path(resources["lexicons"]) if resources.get("lexicons")
            else importlib_resources.files("emocomp") / "lexicons")
    return AdvResources(lexicons=[load_lexicon(str(base / f"{c}.txt"), c) for c in COMPONENTS],
                        pos_tags=_sidecar(resources, "pos_tags"),
                        embeddings=_sidecar(resources, "word_embeddings"),
                        appraisal=_sidecar(resources, "appraisal_predictions"))


def _me_config(settings: dict) -> MaxEntConfig:
    return MaxEntConfig(seed=setting(settings, "seed"),
                        **{k[3:]: v for k, v in settings.items() if k.startswith("me_")})


def search_features(corpus: Corpus, settings: dict,
                    resources: dict) -> dict[str, dict[tuple[str, ...], float]]:
    """Each component's score table of cpm-me-adv's feature search on ``corpus``,
    without the component fits that training adds after it."""
    stemmed = preprocess_corpus(corpus)
    return _adv_search(corpus, stemmed, tfidf_fit(stemmed), _me_config(settings),
                       _adv_resources(resources), setting(settings, "dev_ratio"),
                       setting(settings, "seed"))[3]


def train_tag(tag: str, corpus: Corpus, settings: dict, resources: dict, embed=None):
    """Train model ``tag`` on ``corpus``; the tag picks the family. ``embed``
    is an :func:`embedder` covering ``corpus``, needed by neural tags only.
    Returns the model and the lines its training adds to the run log."""
    seed, dev_ratio = setting(settings, "seed"), setting(settings, "dev_ratio")
    if tag in ME_TAGS:
        config = _me_config(settings)
        if tag in ("emo-me-base", "emo-cpm-me-gold"):
            stack = GOLD if tag == "emo-cpm-me-gold" else None
            return train_emotion_me(corpus, config, stack_source=stack), []
        if tag == "cpm-me-base":
            return train_component_me(corpus, config), []
        stemmed = preprocess_corpus(corpus)   # shared by both models of emo-cpm-me-pred
        cpm = train_component_me(corpus, config, _adv_resources(resources), dev_ratio=dev_ratio,
                                 seed=seed, stemmed=stemmed)
        if tag == "cpm-me-adv":
            return cpm, []
        return train_emotion_me(corpus, config, stack_source=PREDICTED, cpm_artifact=cpm,
                                stemmed=stemmed), []
    table, dim = embed()
    frozen = None
    if tag == "emo-cpm-nn-pred":
        frozen, _ = train_neural("cpm-nn-base", corpus, _nn_config("cpm-nn-base", corpus, settings),
                                 table, dim, dev_ratio=dev_ratio)
    model, log = train_neural(tag, corpus, _nn_config(tag, corpus, settings), table, dim,
                              dev_ratio=dev_ratio, frozen_cpm=frozen)
    return model, log.lines()


@np.errstate(over="ignore")   # a saturated sigmoid's exp overflows to its limit
def predict(model, corpus: Corpus, embed=None) -> tuple[list[set[str]] | None,
                                                        list[set[str]] | None]:
    """The emotion label sets and the component label sets of the instances
    of ``corpus``; each list is None when the model does not predict that
    task. ``embed`` is an :func:`embedder` covering ``corpus``; a neural
    model needs embeddings as wide as it was trained on."""
    if isinstance(model, MeArtifact):
        stemmed = preprocess_corpus(corpus)
        emotions = (model.predict_emotions(corpus.instances, stemmed)
                    if model.emotion_model is not None else None)
        components = (label_sets(model.predict_components(stemmed, [i.id for i in corpus]),
                                 COMPONENTS) if model.component_models else None)
        return emotions, components
    table, dim = embed()
    if dim != model.input_dim:
        raise ConfigError(f"the token embeddings are {dim} wide but the model was trained on "
                          f"{model.input_dim}; pass the same --token-embeddings or --fallback-dim")
    return predict_examples(model, build_examples(corpus, table), corpus.mode)


def evaluate_model(model, corpus: Corpus, embed=None) -> MetricsReport:
    """Metrics for the model's primary task over ``corpus``: emotions when it
    predicts them, components otherwise."""
    if model.emo_labels:
        if isinstance(model, MeArtifact) and model.mode != corpus.mode:
            raise ConfigError(f"model was trained {model.mode} but the corpus is {corpus.mode}")
        if tuple(model.emo_labels) != corpus.emotion_inventory:
            raise ConfigError("model and corpus emotion inventories differ")
    emotions, components = predict(model, corpus, embed)
    if emotions is not None:
        gold, pred, inventory = [set(i.emotions) for i in corpus], emotions, corpus.emotion_inventory
    else:
        gold = [{c for c, v in zip(COMPONENTS, i.cpm) if v} for i in corpus]
        pred, inventory = components, COMPONENTS
    ids = [i.id for i in corpus]
    return evaluate(dict(zip(ids, gold)), dict(zip(ids, pred)), inventory)


def save_model(model, out_dir: str | Path) -> None:
    """Write ``model.json`` (feature-based) or ``checkpoint.json`` (neural)."""
    if isinstance(model, MeArtifact):
        return save_me_artifact(model, Path(out_dir) / "model.json")
    save_checkpoint(model, Path(out_dir) / "checkpoint.json")


def load_model(path: str | Path, resources: dict):
    """Open and decode a model file, the one place that does; a ``params``
    key marks a neural checkpoint. A feature-based model reads, once each,
    the sidecar files named in ``resources`` that its stored combinations
    read. Unreadable JSON, JSON nested too deep to decode or a missing key
    is a data error."""
    try:
        payload = read_model_text(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"{path} is not a JSON model file: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path} does not hold a JSON object")
    try:
        if "params" in payload:
            return load_checkpoint(payload)
        return load_me_artifact(payload, functools.cache(functools.partial(_sidecar, resources)))
    except KeyError as exc:
        raise DataError(f"{path} lacks required key {exc}") from exc
