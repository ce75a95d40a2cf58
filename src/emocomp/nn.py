"""Neural architectures and their training loop.

All variants share the same trunk: BiLSTM over per-token embeddings,
multi-kernel CNN with max-over-time pooling, then fully connected layers
into per-class sigmoid outputs. On top of that trunk:

* single-task emotion / component models, each an FC layer and a sigmoid
  output (a task's head) on one trunk; the multi-head model (MTL-MH) is the
  single-task model with both heads on its one trunk,
* component injection: a 5-flag vector through its own layer,
  concatenated into a combining layer; the flags are the gold annotations,
  or (emo-cpm-nn-pred) the predictions of a frozen component model,
* a cross-stitch model with two parallel trunks whose pooled vectors are
  mixed by a trainable 2x2 matrix, then the same two heads.

A forward pass takes a whole minibatch: a zero-padded B x T_max x d
embedding array and the length of each example, or one T x d example as a
batch of one. ``NeuralModel.forward`` serves every architecture; each
declares the layers followed by dropout (``_dropped``) and its wiring
(``_forward(x, lengths, drop, cpm)``, where ``drop`` is the dropout after
each layer in ``_dropped``). Training builds one graph per minibatch and
prediction scores ``minibatch_size`` examples per pass. The losses,
gradients and predictions are bitwise those of one graph per example (see
``autodiff``). Dropout is decided here: a forward pass trains exactly when
it is given a generator, and then builds the batch's masks from uniforms
drawn in the order such a per-example loop draws them; ``autodiff.dropout``
only applies one.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Parameter, Tensor, concat, dropout, filled, no_tape, shapes_only, stitch
from .corpus import COMPONENTS, SINGLE_LABEL
from .errors import ConfigError, DataError, DimensionError, check_fields, stored_names, stored_numbers, stored_object
from .fileio import write_text
from .layers import BiLstm, ConvPool, Dense
from .losses import weighted_bce
from .metrics import MetricsReport, decide, evaluate, label_sets
from .optim import Adam

CHECKPOINT_VERSION = 1

NN_TAGS = ("emo-nn-base", "cpm-nn-base", "emo-cpm-nn-pred", "emo-cpm-nn-gold",
           "mtl-mh", "mtl-xs")

N_COMPONENTS = len(COMPONENTS)


@dataclass
class ModelConfig:
    # one size for both tasks or an (emo, cpm) pair, held as the pair
    bilstm_units: tuple[int, int] = (24, 24)
    cnn_filters: tuple[int, int] = (10, 10)
    fc_neurons_cpm: int = 128
    fc_neurons_emo: int = 128
    fc_neurons_combined: int = 128
    loss_weight_emo: float = 4.0
    loss_weight_cpm: float = 1.5
    task_weight_emo: float = 1.0
    task_weight_cpm: float = 1.0
    minibatch_size: int = 50
    kernel_sizes: tuple[int, ...] = (2, 3, 5, 7, 13, 25)
    dropout_rate: float = 0.5
    learning_rate: float = 1e-3
    epochs: int = 100
    seed: int = 0
    per_channel_stitch: bool = False

    def __post_init__(self):
        for name in ("bilstm_units", "cnn_filters"):   # one size, or an (emo, cpm) pair
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)):
                value = (value, value)
            if len(value) != 2:
                raise ConfigError(f"{name} must be one size or an (emo, cpm) pair, got {value!r}")
            setattr(self, name, tuple(value))
        if isinstance(self.kernel_sizes, list):
            self.kernel_sizes = tuple(self.kernel_sizes)
        check_fields(self)
        if not self.kernel_sizes:
            raise ConfigError("kernel_sizes must be non-empty")
        for name in ("bilstm_units", "cnn_filters", "kernel_sizes", "fc_neurons_cpm",
                     "fc_neurons_emo", "fc_neurons_combined", "minibatch_size", "epochs"):
            if np.min(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("seed", "task_weight_emo", "task_weight_cpm"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("learning_rate", "loss_weight_emo", "loss_weight_cpm"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def units_emo(self) -> int:
        return self.bilstm_units[0]

    @property
    def units_cpm(self) -> int:
        return self.bilstm_units[1]

    @property
    def filters_emo(self) -> int:
        return self.cnn_filters[0]

    @property
    def filters_cpm(self) -> int:
        return self.cnn_filters[1]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict, what: str = "stored model config") -> "ModelConfig":
        """Rebuild stored config ``what``; a missing, unknown or invalid field is a data error."""
        try:
            return cls(**stored_object(d, tuple(cls.__dataclass_fields__), what))
        except ConfigError as exc:
            raise DataError(f"{what} is invalid: {exc}") from exc


# Per-(tag, domain) hyperparameter defaults for the studied corpora.
CONFIG_DEFAULTS: dict[tuple[str, str], dict] = {
    ("cpm-nn-base", "reman"): dict(bilstm_units=24, cnn_filters=10, fc_neurons_cpm=128,
                                   loss_weight_cpm=1.5, task_weight_cpm=1.0, minibatch_size=60),
    ("emo-nn-base", "reman"): dict(bilstm_units=24, cnn_filters=10, fc_neurons_emo=128,
                                   loss_weight_emo=4.0, task_weight_emo=1.0, minibatch_size=50),
    ("emo-cpm-nn-gold", "reman"): dict(bilstm_units=24, cnn_filters=16, fc_neurons_cpm=96,
                                       fc_neurons_emo=128, fc_neurons_combined=128,
                                       loss_weight_emo=6.0, task_weight_emo=1.0, minibatch_size=50),
    ("emo-cpm-nn-pred", "reman"): dict(bilstm_units=24, cnn_filters=16, fc_neurons_cpm=64,
                                       fc_neurons_emo=128, fc_neurons_combined=96,
                                       loss_weight_emo=4.0, task_weight_emo=1.0, minibatch_size=50),
    ("mtl-xs", "reman"): dict(bilstm_units=(32, 24), cnn_filters=(12, 10),
                              fc_neurons_cpm=128, fc_neurons_emo=128,
                              loss_weight_emo=7.8, loss_weight_cpm=1.5,
                              task_weight_emo=0.75, task_weight_cpm=0.5, minibatch_size=25),
    ("mtl-mh", "reman"): dict(bilstm_units=24, cnn_filters=16, fc_neurons_cpm=128,
                              fc_neurons_emo=128, loss_weight_emo=7.8, loss_weight_cpm=1.5,
                              task_weight_emo=0.75, task_weight_cpm=0.35, minibatch_size=25),
    ("cpm-nn-base", "tec"): dict(bilstm_units=24, cnn_filters=32, fc_neurons_cpm=32,
                                 loss_weight_cpm=1.0, task_weight_cpm=1.0, minibatch_size=40),
    ("emo-nn-base", "tec"): dict(bilstm_units=24, cnn_filters=32, fc_neurons_emo=128,
                                 loss_weight_emo=1.0, task_weight_emo=1.0, minibatch_size=80),
    ("emo-cpm-nn-gold", "tec"): dict(bilstm_units=24, cnn_filters=32, fc_neurons_cpm=64,
                                     fc_neurons_emo=128, fc_neurons_combined=256,
                                     loss_weight_emo=1.0, task_weight_emo=1.0, minibatch_size=80),
    ("emo-cpm-nn-pred", "tec"): dict(bilstm_units=24, cnn_filters=32, fc_neurons_cpm=64,
                                     fc_neurons_emo=128, fc_neurons_combined=256,
                                     loss_weight_emo=1.0, task_weight_emo=1.0, minibatch_size=80),
    ("mtl-xs", "tec"): dict(bilstm_units=(32, 24), cnn_filters=(24, 24),
                            fc_neurons_cpm=128, fc_neurons_emo=128,
                            loss_weight_emo=1.0, loss_weight_cpm=1.0,
                            task_weight_emo=0.75, task_weight_cpm=0.5, minibatch_size=80),
    ("mtl-mh", "tec"): dict(bilstm_units=24, cnn_filters=32, fc_neurons_cpm=32,
                            fc_neurons_emo=128, loss_weight_emo=1.0, loss_weight_cpm=1.0,
                            task_weight_emo=0.5, task_weight_cpm=0.5, minibatch_size=80),
}


def default_config(tag: str, domain: str, overrides: dict | None = None) -> ModelConfig:
    base = dict(CONFIG_DEFAULTS.get((tag, domain), {}))
    if overrides:
        base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# Architectures
# ---------------------------------------------------------------------------

class _Trunk:
    """BiLSTM -> multi-kernel CNN -> max-over-time pooling, with dropout
    after the BiLSTM (per token) and after the pooled vector."""

    def __init__(self, d_in: int, units: int, filters: int,
                 kernel_sizes: tuple[int, ...], rng, name: str):
        self.bilstm = BiLstm(d_in, units, rng, f"{name}.bilstm")
        self.convpool = ConvPool(2 * units, kernel_sizes, filters, rng, f"{name}.cnn")

    @property
    def out_dim(self) -> int:
        return self.convpool.out_dim

    def params(self) -> list[Parameter]:
        return self.bilstm.params() + self.convpool.params()

    def __call__(self, x: Tensor, lengths: list[int], drop) -> Tensor:
        h = drop(self.bilstm(x, lengths))
        return drop(self.convpool(h, lengths))


def _example_order_masks(rng: np.random.Generator, lengths: list[int], layers,
                         rate: float) -> list[np.ndarray]:
    """The masks of the dropout after each of ``layers`` in one batched
    forward pass, in forward order; a trunk drops out per token after its
    BiLSTM and again after pooling. The uniforms are drawn from ``rng`` as
    one pass per example draws them: example by example and, within one,
    site by site, with zeros past each length. A unit whose uniform is below
    ``rate`` is dropped and the rest are scaled by 1 / (1 - ``rate``)."""
    sites = []
    for layer in layers:
        if isinstance(layer, _Trunk):
            sites.append((layer.bilstm.out_dim, True))
        sites.append((layer.out_dim, False))
    batch, longest = len(lengths), max(lengths)
    masks = [np.zeros((batch, longest, w) if per_token else (batch, w)) for w, per_token in sites]
    for k, n in enumerate(lengths):
        for mask in masks:
            row = mask[k, :n] if mask.ndim == 3 else mask[k]
            row[...] = rng.random(row.shape)
    for mask in masks:
        np.divide(mask >= rate, 1.0 - rate, out=mask)
    return masks


def _per_example_bce(p: Tensor, y, pos_weight: float) -> Tensor:
    return weighted_bce(p, Tensor(np.asarray(y, dtype=float).reshape(p.data.shape)),
                        pos_weight, per_row=True)


class NeuralModel:
    """Common surface of all architectures."""

    tag: str = ""
    emo_labels: tuple[str, ...] = ()
    has_emo = False
    has_cpm = False
    # the attributes of the layers followed by dropout, in forward order
    _dropped: tuple[str, ...] = ()

    def __init__(self, config: ModelConfig, input_dim: int, emo_labels: tuple[str, ...] = ()):
        """A model with an emotion head keeps ``emo_labels``, which must not be empty."""
        self.config = config
        self.input_dim = input_dim
        if self.has_emo:
            self.emo_labels = tuple(emo_labels)
            if not self.emo_labels:
                raise ConfigError("emotion head needs a label inventory")

    def params(self) -> list[Parameter]:
        """The parameters of the model's layers in the order the layers were
        created, which is also the order of their rng draws."""
        out = []
        for value in vars(self).values():
            if isinstance(value, Parameter):
                out.append(value)
            elif hasattr(value, "params"):
                out.extend(value.params())
        return out

    def forward(self, x: Tensor, *, rng: np.random.Generator | None = None,
                cpm=None, lengths=None) -> dict[str, Tensor]:
        """Outputs per head, one row per example. ``x`` is a zero-padded
        B x T_max x d batch with ``lengths`` (all of T_max without them),
        or one T x d example, a batch of one; ``cpm`` holds the gold
        component flags (B x 5, or 5 for one example), which only the
        gold-injection model reads. A pass trains exactly when it is given
        ``rng``: then each layer in ``_dropped`` is followed by dropout with
        the masks of ``_example_order_masks``. Without ``rng``, or at rate 0,
        nothing is drawn and dropout is the identity."""
        if x.data.ndim == 2:
            x, lengths = Tensor(x.data[None]), [x.data.shape[0]]
        else:
            lengths = [x.data.shape[1]] * x.data.shape[0] if lengths is None else list(lengths)
        rate = self.config.dropout_rate
        if rng is None or rate == 0.0:
            return self._forward(x, lengths, lambda t: t, cpm)
        layers = [getattr(self, name) for name in self._dropped]
        masks = iter(_example_order_masks(rng, lengths, layers, rate))

        def drop(t: Tensor) -> Tensor:
            mask = next(masks)
            if mask.shape != t.data.shape:
                raise DimensionError(f"dropout site of shape {t.data.shape}, expected {mask.shape}")
            return dropout(t, mask)

        return self._forward(x, lengths, drop, cpm)

    def _add_heads(self, width: int, rng: np.random.Generator) -> None:
        """An FC layer and a sigmoid output per task, emotions first, on a ``width``-wide input."""
        cfg = self.config
        if self.has_emo:
            self.fc_emo = Dense(width, cfg.fc_neurons_emo, rng, "emo.fc", "relu")
            self.out_emo = Dense(cfg.fc_neurons_emo, len(self.emo_labels), rng, "emo.out", "sigmoid")
        if self.has_cpm:
            self.fc_cpm = Dense(width, cfg.fc_neurons_cpm, rng, "cpm.fc", "relu")
            self.out_cpm = Dense(cfg.fc_neurons_cpm, N_COMPONENTS, rng, "cpm.out", "sigmoid")

    def _heads(self, emo: Tensor, cpm: Tensor, drop) -> dict[str, Tensor]:
        """The output of each task's head on its input, with dropout after its FC layer."""
        out = {}
        if self.has_emo:
            out["emo"] = self.out_emo(drop(self.fc_emo(emo)))
        if self.has_cpm:
            out["cpm"] = self.out_cpm(drop(self.fc_cpm(cpm)))
        return out

    def loss(self, outputs: dict[str, Tensor], y_emo=None, y_cpm=None) -> Tensor:
        """Mean loss over the batch: each example's task-weighted losses,
        added example by example, times 1/B. Targets have one row per
        example (or are one example's flat vector)."""
        cfg = self.config
        terms = []
        if self.has_emo:
            if y_emo is None:
                raise DataError("emotion targets required")
            terms.append(cfg.task_weight_emo * _per_example_bce(
                outputs["emo"], y_emo, cfg.loss_weight_emo))
        if self.has_cpm:
            if y_cpm is None:
                raise DataError("component targets required")
            terms.append(cfg.task_weight_cpm * _per_example_bce(
                outputs["cpm"], y_cpm, cfg.loss_weight_cpm))
        per_example = sum(terms[1:], terms[0])
        return per_example.sum() * (1.0 / per_example.data.shape[0])

    def state_dict(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.params()}

    def load_state(self, state: dict) -> None:
        """Set each parameter to its value in ``state``, with a zero
        gradient buffer. ``state`` must map exactly the parameters' names to
        finite arrays, or what ``errors.stored_numbers`` converts, of their
        shapes; otherwise a DataError, and no parameter is set. A writeable
        float64 array that owns its data is taken as it is."""
        if not isinstance(state, dict):
            raise DataError(f"checkpoint params must be an object, not {type(state).__name__}")
        arrays = {n: np.require(a, np.float64, "OW") if isinstance(a, np.ndarray)
                  else stored_numbers(a) for n, a in state.items()}
        not_numbers = sorted(n for n, a in arrays.items() if a is None)
        if not_numbers:
            raise DataError(f"checkpoint parameters must hold numbers: {', '.join(not_numbers[:4])}")
        params = self.params()
        shapes = {p.name: p.data.shape for p in params}
        wrong = sorted(n for n in arrays.keys() | shapes.keys()
                       if n not in arrays or arrays[n].shape != shapes.get(n))
        if wrong:
            raise DataError(f"checkpoint parameters do not match the stored config: "
                            f"{', '.join(wrong[:4])}")
        bad = [n for n, a in arrays.items() if not np.isfinite(a).all()]
        if bad:
            raise DataError(f"checkpoint parameters hold non-finite values: {', '.join(bad[:4])}")
        for p in params:
            p.data, p.grad = arrays[p.name], np.zeros_like(arrays[p.name])


class SharedTrunkModel(NeuralModel):
    """Emo-NN-Base, Cpm-NN-Base and MTL-MH: one trunk, sized and named for
    the first task, then one head per task, emotions first. With
    task_weight_cpm == 0, MTL-MH's parameters follow Emo-NN-Base's."""

    TASKS = {"emo-nn-base": ("emo",), "cpm-nn-base": ("cpm",), "mtl-mh": ("emo", "cpm")}

    def __init__(self, tag: str, config: ModelConfig, input_dim: int,
                 emo_labels: tuple[str, ...] = ()):
        tasks = self.TASKS[tag]
        self.tag = tag
        self.has_emo, self.has_cpm = "emo" in tasks, "cpm" in tasks
        super().__init__(config, input_dim, emo_labels)
        rng = np.random.default_rng(config.seed)
        size = 0 if self.has_emo else 1   # the emo or the cpm entry of each size pair
        self.trunk = _Trunk(input_dim, config.bilstm_units[size], config.cnn_filters[size],
                            config.kernel_sizes, rng, tasks[0])
        self._add_heads(self.trunk.out_dim, rng)
        self._dropped = ("trunk", *(f"fc_{task}" for task in tasks))

    def _forward(self, x, lengths, drop, cpm):
        pooled = self.trunk(x, lengths, drop)
        return self._heads(pooled, pooled, drop)


class SingleTaskModel(SharedTrunkModel):
    """Emo-NN-Base (``head`` "emo") or Cpm-NN-Base (``head`` "cpm")."""

    def __init__(self, config: ModelConfig, input_dim: int, head: str,
                 emo_labels: tuple[str, ...] = ()):
        super().__init__(f"{head}-nn-base", config, input_dim, emo_labels)


class MtlMultiHead(SharedTrunkModel):
    """MTL-MH: the single-task model with both heads on its one trunk."""

    def __init__(self, config: ModelConfig, input_dim: int, emo_labels: tuple[str, ...]):
        super().__init__("mtl-mh", config, input_dim, emo_labels)


class CpmInjectModel(NeuralModel):
    """Emo-Cpm-NN-Gold: the base emotion path plus a 5-flag component
    vector through its own FC layer, concatenated into a combining FC.
    Given ``frozen_cpm`` it is Emo-Cpm-NN-Pred: that model's predictions
    replace the gold flags, take no gradient and are output as "cpm"."""

    tag = "emo-cpm-nn-gold"
    has_emo = True

    def __init__(self, config: ModelConfig, input_dim: int, emo_labels: tuple[str, ...],
                 frozen_cpm: SharedTrunkModel | None = None):
        super().__init__(config, input_dim, emo_labels)
        rng = np.random.default_rng(config.seed)
        self.trunk = _Trunk(input_dim, config.units_emo, config.filters_emo,
                            config.kernel_sizes, rng, "emo")
        self.fc = Dense(self.trunk.out_dim, config.fc_neurons_emo, rng, "emo.fc", "relu")
        self.cpm_branch = Dense(N_COMPONENTS, config.fc_neurons_cpm, rng, "cpmin.fc", "relu")
        self.combiner = Dense(config.fc_neurons_emo + config.fc_neurons_cpm,
                              config.fc_neurons_combined, rng, "comb.fc", "relu")
        self.out = Dense(config.fc_neurons_combined, len(self.emo_labels), rng,
                         "emo.out", "sigmoid")
        # last, so its parameters follow this model's own in params()
        self.frozen_cpm = frozen_cpm
        if frozen_cpm is not None:
            if not frozen_cpm.has_cpm:
                raise ConfigError("the frozen submodel must be a component model")
            self.tag = "emo-cpm-nn-pred"
            for p in frozen_cpm.params():
                p.frozen = True

    _dropped = ("trunk", "fc", "cpm_branch", "combiner")

    def _forward(self, x, lengths, drop, cpm):
        if self.frozen_cpm is not None:
            with no_tape():
                cpm = self.frozen_cpm.forward(x, lengths=lengths)["cpm"].data
        if cpm is None:
            raise DataError("emo-cpm-nn-gold requires a component input vector")
        cpm = np.asarray(cpm, dtype=float)
        if cpm.size != len(lengths) * N_COMPONENTS:
            raise DimensionError(f"component vectors must have {N_COMPONENTS} entries each, got "
                                 f"shape {cpm.shape} for {len(lengths)} example(s)")
        cpm_rows = Tensor(cpm.reshape(len(lengths), N_COMPONENTS))
        pen = drop(self.fc(self.trunk(x, lengths, drop)))
        branch = drop(self.cpm_branch(cpm_rows))
        combined = drop(self.combiner(concat([pen, branch], axis=1)))
        out = {"emo": self.out(combined)}
        if self.frozen_cpm is not None:
            out["cpm"] = cpm_rows
        return out


class MtlCrossStitch(NeuralModel):
    """MTL-XS: two parallel trunks whose pooled activations are mixed by a
    trainable 2x2 matrix before the task-specific layers.

    When the trunks pool to different widths, trainable linear projections
    map both to the larger width before mixing.
    """

    tag = "mtl-xs"
    has_emo = True
    has_cpm = True

    def __init__(self, config: ModelConfig, input_dim: int,
                 emo_labels: tuple[str, ...], freeze_stitch: bool = False):
        super().__init__(config, input_dim, emo_labels)
        rng = np.random.default_rng(config.seed)
        self.trunk_emo = _Trunk(input_dim, config.units_emo, config.filters_emo,
                                config.kernel_sizes, rng, "emo")
        self.trunk_cpm = _Trunk(input_dim, config.units_cpm, config.filters_cpm,
                                config.kernel_sizes, rng, "cpm")
        we, wc = self.trunk_emo.out_dim, self.trunk_cpm.out_dim
        self.width = max(we, wc)
        self.proj_emo = self.proj_cpm = None
        if we != wc:
            self.proj_emo = Dense(we, self.width, rng, "stitch.proj_emo", activation=None)
            self.proj_cpm = Dense(wc, self.width, rng, "stitch.proj_cpm", activation=None)
        alpha_init = np.array([[0.9, 0.1], [0.1, 0.9]])
        if config.per_channel_stitch:
            alpha_init = filled((2, 2, self.width), alpha_init[:, :, None])
        self.alpha = Parameter(alpha_init, "stitch.alpha", frozen=freeze_stitch)
        self._add_heads(self.width, rng)

    def set_identity_stitch(self) -> None:
        ident = np.array([[1.0, 0.0], [0.0, 1.0]])
        if self.config.per_channel_stitch:
            ident = np.repeat(ident[:, :, None], self.width, axis=2)
        self.alpha.data[...] = ident

    _dropped = ("trunk_emo", "trunk_cpm", "fc_emo", "fc_cpm")

    def _forward(self, x, lengths, drop, cpm):
        pe = self.trunk_emo(x, lengths, drop)
        pc = self.trunk_cpm(x, lengths, drop)
        if self.proj_emo is not None:
            pe = self.proj_emo(pe)
            pc = self.proj_cpm(pc)
        return self._heads(stitch(self.alpha, 0, pe, pc), stitch(self.alpha, 1, pe, pc), drop)


def build_model(tag: str, config: ModelConfig, input_dim: int,
                emo_labels: tuple[str, ...] = (),
                frozen_cpm: SharedTrunkModel | None = None) -> NeuralModel:
    if tag in SharedTrunkModel.TASKS:
        return SharedTrunkModel(tag, config, input_dim, emo_labels)
    if tag == "emo-cpm-nn-gold":
        return CpmInjectModel(config, input_dim, emo_labels)
    if tag == "emo-cpm-nn-pred":
        if frozen_cpm is None:
            raise ConfigError("emo-cpm-nn-pred needs a trained component model")
        return CpmInjectModel(config, input_dim, emo_labels, frozen_cpm)
    if tag == "mtl-xs":
        return MtlCrossStitch(config, input_dim, emo_labels)
    raise ConfigError(f"unknown neural model tag {tag!r}")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class Example:
    id: str
    x: np.ndarray                      # T x d token embeddings
    y_emo: np.ndarray                  # multi-hot over the emotion inventory
    y_cpm: np.ndarray                  # one binary flag per component


@dataclass
class TrainingLog:
    entries: list[dict] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            parts = [f"epoch {e['epoch']:4d}", f"train_loss {e['train_loss']:.6f}"]
            if "dev_macro_f1" in e:
                parts.append(f"dev_macro_f1 {e['dev_macro_f1']:.6f}")
            out.append("  ".join(parts))
        return out


def _pad(batch: list[Example]) -> tuple[Tensor, list[int]]:
    """The batch's embeddings as a zero-padded B x T_max x d array, and the
    length of each example."""
    lengths = [len(ex.x) for ex in batch]
    x = np.zeros((len(batch), max(lengths), batch[0].x.shape[1]))
    for row, ex in zip(x, batch):
        row[:len(ex.x)] = ex.x
    return Tensor(x), lengths


def _stack(batch: list[Example], field_name: str) -> np.ndarray:
    """One row per example of a target field."""
    return np.stack([getattr(ex, field_name) for ex in batch])


def predict_example(model: NeuralModel, ex: Example, mode: str):
    """``predict_examples`` of a batch of one; ``perfbench/calibrate.py`` calls it."""
    # no test calls it: it stays while the benchmark's calibration does
    return predict_examples(model, [ex], mode)


def predict_examples(model: NeuralModel, examples: list[Example],
                     mode: str) -> tuple[list[set[str]] | None, list[set[str]] | None]:
    """The emotion label sets and the component label sets of ``examples``,
    under :func:`metrics.decide` (components are multi-label); each list is
    None when the model has no output for that task. Each forward pass
    scores ``minibatch_size`` examples, with the same results as one
    example at a time."""
    emotions, components = [], []
    for start in range(0, len(examples), model.config.minibatch_size):
        batch = examples[start:start + model.config.minibatch_size]
        x, lengths = _pad(batch)
        with no_tape():
            out = model.forward(x, cpm=_stack(batch, "y_cpm"), lengths=lengths)
        if model.has_emo:
            emotions += label_sets(decide(out["emo"].data, mode == SINGLE_LABEL), model.emo_labels)
        if "cpm" in out:
            components += label_sets(decide(out["cpm"].data, False), COMPONENTS)
        else:
            components = None
    return (emotions if model.has_emo else None), components


def evaluate_examples(model: NeuralModel, examples: list[Example], mode: str) -> MetricsReport:
    """Metrics for the model's primary task: emotions when it has an
    emotion head, components otherwise."""
    emotions, components = predict_examples(model, examples, mode)
    inventory = model.emo_labels if model.has_emo else COMPONENTS
    gold = {ex.id: {l for l, v in zip(inventory, ex.y_emo if model.has_emo else ex.y_cpm) if v}
            for ex in examples}
    pred = {ex.id: p for ex, p in zip(examples, emotions if model.has_emo else components)}
    return evaluate(gold, pred, inventory)


def train_model(model: NeuralModel, train: list[Example], mode: str,
                dev: list[Example] | None = None) -> TrainingLog:
    """Minibatch Adam training, one graph per minibatch; with a dev set, the
    best-dev-macro-F1 parameters are restored at the end. Deterministic under
    a fixed seed. A non-finite loss or gradient stops training before the
    update."""
    if not train:
        raise DataError("empty training split")
    cfg = model.config
    data_rng = np.random.default_rng([cfg.seed, 1])
    drop_rng = np.random.default_rng([cfg.seed, 2])
    opt = Adam(model.params(), lr=cfg.learning_rate)
    log = TrainingLog()
    best_f1, best_state = -1.0, None
    n = len(train)
    for epoch in range(cfg.epochs):
        order = data_rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.minibatch_size):
            batch = [train[i] for i in order[start:start + cfg.minibatch_size]]
            x, lengths = _pad(batch)
            # a diverging step overflows; the check below reports it, not numpy
            with np.errstate(over="ignore", invalid="ignore"):
                out = model.forward(x, rng=drop_rng, cpm=_stack(batch, "y_cpm"), lengths=lengths)
                loss = model.loss(out, _stack(batch, "y_emo"), _stack(batch, "y_cpm"))
                loss.backward()
            finite = np.isfinite(loss.item()) and all(np.isfinite(p.grad).all() for p in opt.params)
            if not finite:
                opt.zero_grad()
                raise ConfigError(f"non-finite loss or gradient in epoch {epoch + 1}, batch "
                                  f"{n_batches + 1}; lower the learning rate")
            opt.step()
            epoch_loss += loss.item()
            n_batches += 1
        entry = {"epoch": epoch + 1, "train_loss": epoch_loss / n_batches}
        if dev:
            f1 = evaluate_examples(model, dev, mode).macro_f1
            entry["dev_macro_f1"] = f1
            if f1 > best_f1:
                best_f1 = f1
                best_state = model.state_dict()
        log.entries.append(entry)
    if best_state is not None:
        model.load_state(best_state)
    return log


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: NeuralModel, path: str | Path) -> None:
    write_text(path, _checkpoint_pieces(model))


def _checkpoint_pieces(model: NeuralModel):
    """The v1 checkpoint, ``json.dumps`` of {version, tag, input_dim, config,
    emo_labels, components, params by name[, frozen_cpm_config]} byte for
    byte, one parameter at a time, so only one parameter's text exists at
    once."""
    head = json.dumps({
        "version": CHECKPOINT_VERSION,
        "tag": model.tag,
        "input_dim": model.input_dim,
        "config": model.config.to_dict(),
        "emo_labels": list(model.emo_labels),
        "components": N_COMPONENTS,
    })
    yield head[:-1] + ', "params": {'
    for i, p in enumerate(model.params()):
        yield f'{", " if i else ""}{json.dumps(p.name)}: {json.dumps(p.data.tolist())}'
    yield "}"
    if model.tag == "emo-cpm-nn-pred":
        yield f', "frozen_cpm_config": {json.dumps(model.frozen_cpm.config.to_dict())}'
    yield "}"


_decode = json.JSONDecoder().raw_decode
_space = json.decoder.WHITESPACE.match


def _object(text: str, i: int, member) -> tuple[dict, int]:
    """The JSON object whose '{' is at ``text[i]`` and the index after it,
    decoded and checked as ``json.loads`` does; ``member(key, j)`` decodes
    the value at ``text[j]`` to (value, index after it)."""
    obj = {}
    i = _space(text, i + 1).end()
    if text[i:i + 1] == "}":
        return obj, i + 1
    while True:
        if text[i:i + 1] != '"':
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, i)
        key, i = json.decoder.scanstring(text, i + 1)
        i = _space(text, i).end()
        if text[i:i + 1] != ":":
            raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
        obj[key], i = member(key, _space(text, i + 1).end())
        i = _space(text, i).end()
        if text[i:i + 1] == "}":
            return obj, i + 1
        if text[i:i + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
        i = _space(text, i + 1).end()


def read_model_text(text: str) -> object:
    """``json.loads(text)``, except that each member of a top-level
    ``params`` object that ``errors.stored_numbers`` converts becomes that
    float64 array as soon as it is decoded, so only one parameter's list
    exists at a time; any other keeps its decoded value for ``load_state``
    to reject. The reader raises only what ``json.loads`` raises."""
    start = _space(text, 0).end()
    if text[start:start + 1] != "{":
        return json.loads(text)

    def param(name, i):
        value, end = _decode(text, i)
        array = stored_numbers(value)
        return (value if array is None else array), end

    def member(key, i):
        if key == "params" and text[i:i + 1] == "{":
            return _object(text, i, param)
        return _decode(text, i)

    payload, end = _object(text, start, member)
    end = _space(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return payload


def load_checkpoint(payload: dict) -> NeuralModel:
    """Rebuild a model from a decoded checkpoint (``pipeline.load_model`` opens the
    file), which holds what ``save_checkpoint`` writes for its tag."""
    for key, value in (("version", CHECKPOINT_VERSION), ("components", N_COMPONENTS)):
        if type(payload.get(key)) is not int or payload[key] != value:
            raise DataError(f"unsupported checkpoint {key} {payload.get(key)!r} (expected {value})")
    pred = payload.get("tag") == "emo-cpm-nn-pred"
    stored_object(payload, ("version", "tag", "input_dim", "config", "emo_labels", "components",
                            "params") + ("frozen_cpm_config",) * pred, "checkpoint")
    config, frozen_config = (ModelConfig.from_dict(payload[key], f"checkpoint {key}") if key in payload
                             else None for key in ("config", "frozen_cpm_config"))
    tag, input_dim = payload["tag"], payload["input_dim"]
    labels = stored_names(payload["emo_labels"], "checkpoint emo_labels")
    if type(input_dim) is not int or input_dim < 1:
        raise DataError(f"checkpoint input_dim must be a positive integer, got {input_dim!r}")
    if tag not in NN_TAGS:
        raise DataError(f"unknown checkpoint tag {tag!r}")
    try:
        # the stored config's shapes, allocated only as load_state sets them
        with shapes_only():
            frozen = SharedTrunkModel("cpm-nn-base", frozen_config, input_dim) if pred else None
            model = build_model(tag, config, input_dim, labels, frozen_cpm=frozen)
    except ValueError as exc:   # a parameter larger than any array can be
        raise DataError(f"stored model config is invalid: {exc}") from exc
    except ConfigError as exc:   # an emotion head without labels
        raise DataError(f"checkpoint emo_labels: {exc}") from exc
    if labels != model.emo_labels:   # a model without an emotion head keeps none
        raise DataError(f"checkpoint emo_labels {list(labels)} are not the {tag} model's "
                        f"{list(model.emo_labels)}")
    model.load_state(payload["params"])
    return model
