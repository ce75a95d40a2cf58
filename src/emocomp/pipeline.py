"""End-to-end plumbing from corpora to trained models and reports.

This is what the CLI calls into; tests use it directly as well. The
feature-based (maximum entropy) and neural families share the corpus
splitting and evaluation protocol: 90/10 train/test, with a slice of the
training split held out as development data where a model needs one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (COMPONENTS, SINGLE_LABEL, Corpus, Instance,
                     split_indices, split_train_test)
from .errors import ConfigError, DataError, ResourceError
from .features import (DictionaryLexicon, TfIdfModel, load_token_embedding_store,
                       resolve_token_embeddings, tfidf_fit, tfidf_transform)
from .maxent import (BINARY, MULTINOMIAL, AdvResources, FeatureCombination,
                     FeatureSearchResult, MaxEntConfig, MaxEntModel,
                     available_flags, build_cpm_adv_features,
                     combination_columns, feature_combination_search,
                     feature_dim, label_sets, predict_maxent, split_labels,
                     stack_component_features, stack_labels, train_maxent)
from .metrics import evaluate
from .nn import (Example, ModelConfig, NeuralModel, SingleTaskModel,
                 TrainingLog, build_model, predict_example, train_model)
from .text import stem_tokens, tokenize

ME_TAGS = ("emo-me-base", "cpm-me-base", "cpm-me-adv",
           "emo-cpm-me-pred", "emo-cpm-me-gold")
ALL_TAGS = ME_TAGS + ("emo-nn-base", "cpm-nn-base", "emo-cpm-nn-pred",
                      "emo-cpm-nn-gold", "mtl-mh", "mtl-xs")


def preprocess(instance: Instance) -> list[str]:
    """Lowercased, tokenized, Porter-stemmed tokens."""
    return stem_tokens(tokenize(instance.text))


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
    feature_dim: int
    emotion_model: MaxEntModel | None = None   # binary: one-vs-rest, one column per label
    component_models: dict[str, MaxEntModel] = field(default_factory=dict)
    combinations: dict[str, FeatureCombination] = field(default_factory=dict)
    resources: AdvResources | None = None
    stack_source: str | None = None          # gold | predicted for emo-cpm-me-*
    cpm_artifact: "MeArtifact | None" = None  # predictor used for stacking
    search_results: dict[str, FeatureSearchResult] = field(default_factory=dict)

    def predict_components(self, stemmed: list[list[str]], inst_ids: list[str]) -> np.ndarray:
        """0/1 flags with one row per document and one column per component."""
        used = {f for combo in self.combinations.values() for f in combo.enabled()}
        X, offsets = build_cpm_adv_features(stemmed, inst_ids,
                                            FeatureCombination(**{f: True for f in used}),
                                            self.resources or AdvResources(self.tfidf))
        flags = np.zeros((len(stemmed), len(COMPONENTS)), dtype=int)
        for j, comp in enumerate(COMPONENTS):
            cols = combination_columns(offsets, self.combinations.get(comp, FeatureCombination()))
            flags[:, j] = predict_maxent(self.component_models[comp], X[:, cols])[0][:, 0]
        return flags

    def predict_emotions(self, instances: list[Instance], stemmed: list[list[str]]) -> list[set[str]]:
        """Emotion label sets of ``instances``, given their stemmed tokens."""
        X = tfidf_transform(self.tfidf, stemmed)
        if self.stack_source is not None:
            if self.stack_source == "gold":
                cpm = [i.cpm for i in instances]
            else:
                cpm = self.cpm_artifact.predict_components(stemmed, [i.id for i in instances])
            X = stack_component_features(X, cpm, self.stack_source)
        decisions, _ = predict_maxent(self.emotion_model, X)
        labels = label_sets(decisions, self.emotion_model.classes)
        if "neutral" in self.emotion_inventory:
            labels = [s or {"neutral"} for s in labels]
        return labels


def _maxent_to_dict(m: MaxEntModel) -> dict:
    """Version-1 layout of a multinomial or single-class binary model."""
    return {"classes": list(m.classes), "mode": m.mode,
            "weights": m.weights.tolist(), "bias": m.bias.tolist(),
            "feature_dim": m.feature_dim, "degenerate": bool(m.constant),
            "constant_class": next((c for c, v in m.constant.items() if v), None)}


def _maxent_from_dict(d: dict) -> MaxEntModel:
    classes = tuple(d["classes"])
    try:
        weights, bias = np.array(d["weights"], dtype=float), np.array(d["bias"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"maxent weights and bias must be numeric arrays: {exc}") from exc
    if weights.shape != (d["feature_dim"], len(classes)) or bias.shape != (len(classes),):
        raise DataError(f"maxent weights {weights.shape} / bias {bias.shape} do not fit "
                        f"{d['feature_dim']} features x {len(classes)} classes")
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
            "combinations": {c: list(combo.enabled()) for c, combo in a.combinations.items()},
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

    Path(path).write_text(json.dumps(artifact_dict(artifact)), encoding="utf-8")


def load_me_artifact(source: str | Path | dict, embeddings=None, pos_tags=None,
                     appraisal=None) -> MeArtifact:
    """Rebuild an artifact from a model file or its parsed JSON payload."""

    def from_dict(d: dict) -> MeArtifact:
        tfidf = _tfidf_from_dict(d["tfidf"])
        a = MeArtifact(d["tag"], d["mode"], tuple(d["emotion_inventory"]), tfidf,
                       d["feature_dim"], stack_source=d["stack_source"])
        em = d["emotion_model"]
        if em is not None:
            if em["kind"] == "ovr":
                a.emotion_model = stack_labels([_maxent_from_dict(em["models"][l])
                                                for l in em["labels"]])
            else:
                a.emotion_model = _maxent_from_dict(em["model"])
        a.component_models = {c: _maxent_from_dict(m) for c, m in d["component_models"].items()}
        a.combinations = {c: FeatureCombination(**{f: True for f in flags})
                          for c, flags in d["combinations"].items()}
        res = d.get("resources")
        if res is not None:
            lexicons = [DictionaryLexicon(c, frozenset(entries))
                        for c, entries in res["lexicons"].items()]
            a.resources = AdvResources(tfidf, lexicons=lexicons,
                                       pos_tags=pos_tags,
                                       pos_inventory=tuple(res["pos_inventory"]),
                                       embeddings=embeddings,
                                       appraisal=appraisal,
                                       appraisal_dim=res["appraisal_dim"])
            used = {f for combo in a.combinations.values() for f in combo.enabled()}
            if "word_embeddings" in used and embeddings is None:
                raise ResourceError("stored model uses embedding features; pass an embedding file")
            if "pos_tags" in used and pos_tags is None:
                raise ResourceError("stored model uses POS features; pass a POS sidecar")
            if "appraisal_predictions" in used and appraisal is None:
                raise ResourceError("stored model uses appraisal features; pass an appraisal sidecar")
        if d["cpm_artifact"]:
            a.cpm_artifact = from_dict(d["cpm_artifact"])
        return a

    return from_dict(source if isinstance(source, dict)
                     else json.loads(Path(source).read_text(encoding="utf-8")))


def train_emotion_me(corpus: Corpus, config: MaxEntConfig | None = None,
                     stack_source: str | None = None,
                     cpm_artifact: MeArtifact | None = None,
                     stemmed: list[list[str]] | None = None) -> MeArtifact:
    """Emo-ME-Base, or its component-stacked variants when ``stack_source``
    is 'gold' or 'predicted' (the latter needs a component artifact).
    ``stemmed`` is the corpus's preprocessed tokens, if already at hand."""
    stemmed = stemmed or [preprocess(i) for i in corpus]
    tfidf = tfidf_fit(stemmed)
    X = tfidf_transform(tfidf, stemmed)
    if stack_source is not None:
        if stack_source == "predicted":
            if cpm_artifact is None:
                raise ConfigError("predicted component stacking needs a component model")
            cpm_values = cpm_artifact.predict_components(stemmed, [i.id for i in corpus])
        else:
            cpm_values = [i.cpm for i in corpus]
        X = stack_component_features(X, cpm_values, stack_source)
    inventory = corpus.emotion_inventory
    if corpus.mode == SINGLE_LABEL:
        y = [next(iter(i.emotions)) for i in corpus]
        model = train_maxent(X, y, inventory, MULTINOMIAL, X.shape[1], config)
    else:
        Y = np.array([emotion_multi_hot(i, inventory) for i in corpus])
        model = train_maxent(X, Y, inventory, BINARY, X.shape[1], config)
    tag = "emo-me-base" if stack_source is None else f"emo-cpm-me-{'gold' if stack_source == 'gold' else 'pred'}"
    return MeArtifact(tag, corpus.mode, inventory, tfidf, X.shape[1],
                      emotion_model=model, stack_source=stack_source,
                      cpm_artifact=cpm_artifact)


def train_component_me(corpus: Corpus, config: MaxEntConfig | None = None,
                       resources_loader=None, dev_ratio: float = 0.1,
                       seed: int = 0, stemmed: list[list[str]] | None = None) -> MeArtifact:
    """Cpm-ME-Base (no resources) or Cpm-ME-Adv with an exhaustive feature
    combination search on a held-out dev slice, per component.
    ``stemmed`` is the corpus's preprocessed tokens, if already at hand."""
    stemmed = stemmed or [preprocess(i) for i in corpus]
    ids = [i.id for i in corpus]
    tfidf = tfidf_fit(stemmed)
    Y = np.array([i.cpm for i in corpus], dtype=float)
    artifact = MeArtifact("cpm-me-base", corpus.mode, corpus.emotion_inventory,
                          tfidf, tfidf.dim)
    if resources_loader is None:
        model = train_maxent(tfidf_transform(tfidf, stemmed), Y, COMPONENTS, BINARY,
                             tfidf.dim, config)
        artifact.component_models = split_labels(model)
        return artifact

    resources: AdvResources = resources_loader(tfidf, ids)
    artifact.tag = "cpm-me-adv"
    artifact.resources = resources
    # features depend only on the instance and on resources fit on this
    # split, so the search's sub-split and dev slice are row selections
    X, offsets = build_cpm_adv_features(
        stemmed, ids, FeatureCombination(**{f: True for f in available_flags(resources)}),
        resources)
    sub_rows, dev_rows = split_indices(len(corpus), 1.0 - dev_ratio, seed)
    artifact.search_results = feature_combination_search(
        X, offsets, Y, COMPONENTS, sub_rows, dev_rows, resources, config)
    for j, comp in enumerate(COMPONENTS):
        combo = artifact.search_results[comp].best
        artifact.combinations[comp] = combo
        artifact.component_models[comp] = train_maxent(
            X[:, combination_columns(offsets, combo)], Y[:, j], (comp,), BINARY,
            feature_dim(resources, combo), config)
    return artifact


def evaluate_components_me(artifact: MeArtifact, corpus: Corpus):
    gold = {i.id: {c for c, v in zip(COMPONENTS, i.cpm) if v} for i in corpus}
    flags = artifact.predict_components([preprocess(i) for i in corpus], [i.id for i in corpus])
    pred = {i.id: labels for i, labels in zip(corpus, label_sets(flags, COMPONENTS))}
    return evaluate(gold, pred, COMPONENTS)


def evaluate_emotions_me(artifact: MeArtifact, corpus: Corpus):
    gold = {i.id: set(i.emotions) for i in corpus}
    labels = artifact.predict_emotions(corpus.instances, [preprocess(i) for i in corpus])
    pred = {i.id: l for i, l in zip(corpus, labels)}
    return evaluate(gold, pred, corpus.emotion_inventory)


def evaluate_me(artifact: MeArtifact, corpus: Corpus):
    """The component report of a cpm-* artifact, the emotion report otherwise."""
    if artifact.tag.startswith("cpm-"):
        return evaluate_components_me(artifact, corpus)
    return evaluate_emotions_me(artifact, corpus)


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
    store = load_token_embedding_store(store_path) if store_path else None
    table = resolve_token_embeddings(corpus.instances, tokenize, store=store,
                                     fallback=True, fallback_dim=fallback_dim, seed=seed)
    dim = store.dimension if store else fallback_dim
    return table, dim


def train_neural(tag: str, train_corpus: Corpus, config: ModelConfig,
                 embeddings: dict[str, np.ndarray], input_dim: int,
                 dev_ratio: float = 0.1,
                 frozen_cpm: SingleTaskModel | None = None) -> tuple[NeuralModel, TrainingLog]:
    train_split, dev_split = split_train_test(train_corpus, ratio=1.0 - dev_ratio,
                                              seed=config.seed)
    model = build_model(tag, config, input_dim, train_corpus.emotion_inventory,
                        frozen_cpm=frozen_cpm)
    log = train_model(model, build_examples(train_split, embeddings), train_corpus.mode,
                      dev=build_examples(dev_split, embeddings) or None)
    return model, log


def evaluate_neural(model: NeuralModel, corpus: Corpus,
                    embeddings: dict[str, np.ndarray]):
    """Metrics for the model's primary task over ``corpus``."""
    from .metrics import evaluate
    examples = build_examples(corpus, embeddings)
    if model.has_emo:
        gold = {i.id: set(i.emotions) for i in corpus}
        pred = {ex.id: predict_example(model, ex, corpus.mode)[0] for ex in examples}
        return evaluate(gold, pred, corpus.emotion_inventory)
    gold = {i.id: {c for c, v in zip(COMPONENTS, i.cpm) if v} for i in corpus}
    pred = {}
    for ex in examples:
        _, cpm_probs = predict_example(model, ex, corpus.mode)
        pred[ex.id] = {c for c, p in zip(COMPONENTS, cpm_probs) if p > 0.5}
    return evaluate(gold, pred, COMPONENTS)
