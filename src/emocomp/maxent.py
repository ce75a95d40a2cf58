"""Maximum-entropy (logistic regression) classifiers over dense design
matrices (one row per instance), the advanced per-component feature stack,
exhaustive feature combination search, and component-to-emotion feature
stacking.

Training is L2-regularized multinomial or binary logistic regression fit
with full-batch Adam from zero-initialized weights, which makes fits
deterministic. The objective is convex and its gradient has a closed
form, so fitting computes it directly in numpy and builds no autodiff
tape. A binary fit takes one 0/1 target column per label and fits them
all in one call: the columns share no parameters, so this is one-vs-rest
with a single design matrix. Prediction scores a whole matrix at once,
with the same probability function that training uses.

A feature combination is a tuple of names from :data:`FEATURE_FLAGS`, in
that order; the empty tuple is TF-IDF alone. A masked binary fit confines
each weight column to its combination's blocks (:func:`combination_mask`).
The exhaustive search fits all combinations jointly in one such fit and
keeps only their dev decisions; the final component models come from one
such fit too, one column per component, each at its chosen combination.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .autodiff import Parameter
from .corpus import COMPONENTS
from .errors import ConfigError, DataError, DimensionError, ResourceError, check_fields
from .features import (DictionaryLexicon, EmbeddingTable, TfIdfModel,
                       dictionary_features,
                       pooled_embedding_features, tfidf_transform)
from .metrics import decide, evaluate, label_sets
from .optim import Adam

MULTINOMIAL = "multinomial"
BINARY = "binary"


@dataclass
class MaxEntConfig:
    iterations: int = 300
    learning_rate: float = 0.05
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "maxent ")
        if self.iterations < 1:
            raise ConfigError(f"maxent iterations must be >= 1, got {self.iterations}")
        if self.learning_rate <= 0:
            raise ConfigError(f"maxent learning_rate must be > 0, got {self.learning_rate}")
        if self.l2 < 0:
            raise ConfigError(f"maxent l2 must be >= 0, got {self.l2}")


@dataclass
class MaxEntModel:
    classes: tuple[str, ...]
    mode: str
    weights: np.ndarray       # features x classes
    bias: np.ndarray          # classes
    feature_dim: int
    # classes whose training column held a single class: their fixed decision
    constant: dict[str, bool] = field(default_factory=dict)


def train_maxent(X: np.ndarray, y, classes: tuple[str, ...],
                 mode: str, feature_dim: int,
                 config: MaxEntConfig | None = None,
                 mask: np.ndarray | None = None) -> MaxEntModel:
    """Fit a logistic model on the N x ``feature_dim`` design matrix ``X``.

    ``y`` is an N x L 0/1 matrix with one column per class in both modes (a
    1-d ``y`` is one column), as ``Corpus.emotion_targets`` and
    ``Corpus.component_targets`` give it. Multinomial: each row holds exactly
    one 1, its class; any other row is a data error. Binary: the columns are
    independent one-vs-rest problems fit in one call. A binary column, or a
    multinomial target, with a single class present becomes a zero-weight
    constant predictor.

    ``mask`` (the feature search's and the component fit's, not a user
    option), ``feature_dim`` x classes and boolean, confines each class to
    its True features: it fits as if ``X`` held only those, and its other
    weights stay exactly 0.
    """
    config = config or MaxEntConfig()
    if len(X) == 0:
        raise DataError("empty training set")
    if len(X) != len(y):
        raise DataError(f"{len(X)} feature vectors but {len(y)} targets")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != feature_dim:
        raise DimensionError(f"design matrix of shape {X.shape}, expected {feature_dim} columns")

    if mode not in (MULTINOMIAL, BINARY):
        raise ConfigError(f"unknown mode {mode!r}")
    Y = np.asarray(y, dtype=float).reshape(len(y), -1)
    if Y.shape[1] != len(classes):
        raise DimensionError(f"{Y.shape[1]} target columns for {len(classes)} classes")
    positives = Y.sum(axis=0)
    if mode == MULTINOMIAL:
        if not (np.isin(Y, (0.0, 1.0)).all() and (Y.sum(axis=1) == 1.0).all()):
            raise DataError("a multinomial target must hold exactly one 1 per row and 0 elsewhere")
        present = np.flatnonzero(positives)
        constant = {classes[present[0]]: True} if len(present) < 2 else {}
        live = [] if constant else list(range(len(classes)))
    else:
        constant = {c: bool(positives[j]) for j, c in enumerate(classes)
                    if positives[j] in (0, len(Y))}
        live = [j for j, c in enumerate(classes) if c not in constant]

    if constant:
        warnings.warn(f"single class present in training data for {', '.join(constant)}; "
                      "fitting a constant predictor")
    weights = np.zeros((feature_dim, len(classes)))
    bias = np.zeros(len(classes))
    if live:
        weights[:, live], bias[live] = _fit(X, Y[:, live], mode, config,
                                            None if mask is None else mask[:, live])
    return MaxEntModel(classes, mode, weights, bias, feature_dim, constant)


def _probabilities(X: np.ndarray, W: np.ndarray, b: np.ndarray, mode: str) -> np.ndarray:
    """Row-wise softmax (multinomial) or elementwise sigmoid (binary) of the logits."""
    z = X @ W + b
    if mode == MULTINOMIAL:
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    return 1.0 / (1.0 + np.exp(-z))


def _distinct_columns(X: np.ndarray, mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The first column of each group of equal columns of ``X`` (with equal
    ``mask`` rows too), in order, and each column's group number."""
    firsts: dict[bytes, int] = {}
    first_of = np.array([firsts.setdefault(X[:, j].tobytes() + (b"" if mask is None
                                                               else mask[j].tobytes()), j)
                         for j in range(X.shape[1])], dtype=np.intp)
    return np.unique(first_of, return_inverse=True)


def _fit(X: np.ndarray, Y: np.ndarray, mode: str, config: MaxEntConfig,
         mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch Adam from zero weights on an N x K one-hot or 0/1 target.
    Loss: mean negative log-likelihood per row plus ``l2 * ||W||^2``; a binary
    row sums its K columns, so each column steps as in its own fit. The
    gradient at the logits is ``(P - Y) / N`` in both modes. A masked-out
    weight gets a zero gradient, and Adam from zero moments steps it by 0.
    Weights that turn non-finite stop the fit.

    Equal columns (under equal mask rows) get equal gradients at every step,
    so they follow one Adam path: one weight row is fit per distinct column,
    counted once per copy in the logits, and is copied back to each."""
    n, k = Y.shape
    first, group = _distinct_columns(X, mask)
    # one row-major copy serves both products: a second, count-scaled copy
    # of X_u measured ~10% slower on a 900 x 782 design (cache)
    X_u = np.ascontiguousarray(X[:, first])
    counts = np.bincount(group)[:, None]
    mask_u = None if mask is None else mask[first]
    W = Parameter(np.zeros((len(first), k)), "maxent.W")
    b = Parameter(np.zeros(k), "maxent.b")
    opt = Adam([W, b], lr=config.learning_rate)
    # X.T @ G as (G.T @ X).T: the same values from a faster gemm
    dW, grad_t = W.grad, np.empty((k, len(first)))
    # a diverging fit overflows; the check below reports it, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.iterations):
            G = (_probabilities(X_u, W.data * counts, b.data, mode) - Y) / n
            np.multiply(W.data, 2.0 * config.l2, out=dW)
            dW += np.matmul(G.T, X_u, out=grad_t).T
            if mask_u is not None:
                dW *= mask_u
            b.grad[...] = G.sum(axis=0)
            opt.step()
    if not (np.isfinite(W.data).all() and np.isfinite(b.data).all()):
        raise ConfigError("maxent weights turned non-finite; lower the maxent learning rate")
    return W.data[group], b.data


def predict_maxent(model: MaxEntModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decisions (N x classes, bool, by :func:`metrics.decide`) and
    probabilities for each row of ``X``; constant classes keep their fixed
    decision."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise DimensionError(f"design matrix of shape {X.shape}, expected {model.feature_dim} columns")
    probs = _probabilities(X, model.weights, model.bias, model.mode)
    decisions = decide(probs, model.mode == MULTINOMIAL)
    if model.mode == MULTINOMIAL and model.constant:
        decisions[:] = False
    for label, value in model.constant.items():
        decisions[:, model.classes.index(label)] = value
    return decisions, probs


def split_labels(model: MaxEntModel, mask: np.ndarray | None = None) -> dict[str, MaxEntModel]:
    """One single-class binary model per class of a binary model; with the
    ``mask`` it was fit under, each reads only its class's True features."""
    out = {}
    for j, c in enumerate(model.classes):
        weights = model.weights[slice(None) if mask is None else mask[:, j], j:j + 1]
        out[c] = MaxEntModel((c,), BINARY, weights, model.bias[[j]], len(weights),
                             {c: model.constant[c]} if c in model.constant else {})
    return out


def stack_labels(models: list[MaxEntModel]) -> MaxEntModel:
    """Inverse of :func:`split_labels`: one binary model over all classes."""
    return MaxEntModel(tuple(c for m in models for c in m.classes), BINARY,
                       np.hstack([m.weights for m in models]),
                       np.concatenate([m.bias for m in models]),
                       models[0].feature_dim,
                       {c: v for m in models for c, v in m.constant.items()})


# ---------------------------------------------------------------------------
# Advanced component features
# ---------------------------------------------------------------------------

COGNITIVE_COMPONENT = "cognitive_appraisal"

FEATURE_FLAGS = ("dictionaries", "pos_tags", "word_embeddings", "appraisal_predictions")


def permits(combination: tuple[str, ...], component: str) -> bool:
    """Appraisal predictions are only permitted for the cognitive-appraisal component."""
    return "appraisal_predictions" not in combination or component == COGNITIVE_COMPONENT


@dataclass
class AdvResources:
    """The external resources the advanced feature stack can draw on, plus
    the two values fit on the training split: the POS tag inventory and the
    width of the appraisal vectors. The TF-IDF model is passed separately."""
    lexicons: list[DictionaryLexicon] = field(default_factory=list)
    pos_tags: dict[str, list[str]] | None = None
    pos_inventory: tuple[str, ...] = ()
    embeddings: EmbeddingTable | None = None
    appraisal: dict[str, np.ndarray] | None = None
    appraisal_dim: int = 0

    def fitted(self, instance_ids: list[str]) -> AdvResources:
        """A copy with the POS tag inventory of ``instance_ids`` and the
        width of the appraisal vectors, where those resources are loaded."""
        pos = (tuple(sorted({t for i in instance_ids for t in self.pos_tags.get(i, [])}))
               if self.pos_tags is not None else self.pos_inventory)
        width = len(next(iter(self.appraisal.values()))) if self.appraisal else self.appraisal_dim
        return replace(self, pos_inventory=pos, appraisal_dim=width)


def _block_width(flag: str, resources: AdvResources) -> int:
    if flag == "dictionaries":
        return 2 * len(resources.lexicons)
    if flag == "pos_tags":
        return len(resources.pos_inventory)
    if flag == "word_embeddings":
        return resources.embeddings.dimension
    return resources.appraisal_dim


def combination_width(resources: AdvResources | None, combination: tuple[str, ...]) -> int:
    """Columns the blocks of ``combination`` add to the TF-IDF columns."""
    return sum(_block_width(f, resources) for f in combination)


def _block(flag: str, stemmed: list[list[str]], inst_ids: list[str],
           resources: AdvResources) -> np.ndarray:
    if flag == "dictionaries":
        rows = [dictionary_features(s, resources.lexicons) for s in stemmed]
    elif flag == "pos_tags":
        tags = [resources.pos_tags.get(i, []) for i in inst_ids]
        rows = [[float(t.count(tag)) for tag in resources.pos_inventory] for t in tags]
    elif flag == "word_embeddings":
        rows = [pooled_embedding_features(s, resources.embeddings) for s in stemmed]
    else:
        missing = [i for i in inst_ids if i not in resources.appraisal]
        if missing:
            raise ResourceError(f"no appraisal predictions for instance {missing[0]!r}")
        rows = [resources.appraisal[i] for i in inst_ids]
    return np.array(rows, dtype=float).reshape(len(rows), _block_width(flag, resources))


def build_cpm_adv_features(stemmed: list[list[str]], inst_ids: list[str],
                           combination: tuple[str, ...], tfidf: TfIdfModel,
                           resources: AdvResources | None) -> tuple[np.ndarray, dict[str, tuple[int, int]]]:
    """The TF-IDF block and the block of each flag in ``combination``,
    column-stacked with one row per document; also returns each block's
    (offset, length) span. ``resources`` may be None for the empty combination;
    a flag not among their :func:`available_flags` is a resource error.

    Every feature depends only on its instance and on resources fit on the
    training split, so the rows of any subset are row selections of this
    matrix and any sub-combination is a column selection of it."""
    loaded = available_flags(resources)
    missing = [f for f in combination if f not in loaded]
    if missing:
        raise ResourceError(f"feature flags {', '.join(missing)} enabled but their "
                            "resources are not loaded")
    blocks = [("tfidf", tfidf_transform(tfidf, stemmed))]
    blocks += [(f, _block(f, stemmed, inst_ids, resources)) for f in combination]
    offsets, pos = {}, 0
    for name, block in blocks:
        offsets[name] = (pos, block.shape[1])
        pos += block.shape[1]
    return np.hstack([block for _, block in blocks]), offsets


def combination_columns(offsets: dict[str, tuple[int, int]],
                        combination: tuple[str, ...]) -> np.ndarray:
    """Column indices of the blocks ``combination`` uses, in a matrix whose
    block spans are ``offsets``."""
    return np.concatenate([np.arange(start, start + length) for start, length in
                           (offsets[b] for b in ("tfidf",) + combination)])


def combination_mask(offsets: dict[str, tuple[int, int]],
                     combos: list[tuple[str, ...]]) -> np.ndarray:
    """The binary fit mask with one column per entry of ``combos``: True at
    the columns of that combination's blocks, in a matrix whose block spans
    are ``offsets``."""
    mask = np.zeros((sum(length for _, length in offsets.values()), len(combos)), dtype=bool)
    for k, combo in enumerate(combos):
        mask[combination_columns(offsets, combo), k] = True
    return mask


def available_flags(resources: AdvResources | None) -> tuple[str, ...]:
    """The feature flags whose resources are loaded; none without resources."""
    if resources is None:
        return ()
    loaded = (bool(resources.lexicons), resources.pos_tags is not None,
              resources.embeddings is not None, resources.appraisal is not None)
    return tuple(f for f, ok in zip(FEATURE_FLAGS, loaded) if ok)


def feature_combination_search(X: np.ndarray, offsets: dict[str, tuple[int, int]],
                               Y: np.ndarray, components: tuple[str, ...],
                               train_rows: list[int] | slice, dev_rows: list[int] | slice,
                               config: MaxEntConfig | None = None,
                               ) -> dict[str, dict[tuple[str, ...], float]]:
    """Exhaustive search over all subsets of the feature blocks of ``X``:
    each component's score table, the dev F1 of every combination it
    permits, in the order the combinations are searched.

    ``X`` and ``offsets`` come from :func:`build_cpm_adv_features` with every
    available flag; ``Y`` holds one 0/1 column per entry of ``components``.
    The training and dev rows are index lists or slices (which copy nothing).
    Every combination is fit in one binary fit over all of ``X``, with one
    weight column per combination and component it permits, masked to the
    combination's blocks: each column is that combination's own fit, up to
    gemm rounding. Only the dev decisions are kept, never the weights.
    """
    Y = np.asarray(Y).reshape(len(Y), -1)
    flags = tuple(f for f in FEATURE_FLAGS if f in offsets)
    fits = [(combo, j) for r in range(len(flags) + 1) for combo in combinations(flags, r)
            for j, c in enumerate(components) if permits(combo, c)]
    names = tuple(f"{components[j]} ({'+'.join(combo) or 'tfidf'})" for combo, j in fits)
    mask = combination_mask(offsets, [combo for combo, _ in fits])
    targets = Y[:, [j for _, j in fits]]
    model = train_maxent(X[train_rows], targets[train_rows], names, BINARY, X.shape[1],
                         config, mask)
    pred = predict_maxent(model, X[dev_rows])[0]
    report = evaluate(dict(enumerate(label_sets(targets[dev_rows], names))),
                      dict(enumerate(label_sets(pred, names))), names)
    scores: dict[str, dict[tuple[str, ...], float]] = {c: {} for c in components}
    for (combo, j), name in zip(fits, names):
        scores[components[j]][combo] = report.per_class[name].f1
    return scores


def best_combination(scores: dict[tuple[str, ...], float]) -> tuple[str, ...]:
    """The combination a score table picks: the highest dev F1, ties to fewer
    flags, then to the combination searched first."""
    return max(scores, key=lambda s: (scores[s], -len(s)))


# ---------------------------------------------------------------------------
# Component -> emotion stacking
# ---------------------------------------------------------------------------

GOLD = "gold"
PREDICTED = "predicted"


def stack_component_features(base: np.ndarray, cpm) -> np.ndarray:
    """Extend each row of a design matrix by its binary component flags, one per component."""
    n = len(COMPONENTS)
    cpm = np.zeros((0, n)) if len(base) == 0 else np.asarray(cpm, dtype=float)
    if cpm.shape != (len(base), n) or not np.isin(cpm, (0.0, 1.0)).all():
        raise DimensionError(f"cpm features must be {n} binary values per row, got shape {cpm.shape}")
    return np.hstack([base, cpm])
