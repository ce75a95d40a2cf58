"""Neural architectures and their training loop.

All variants share the same trunk: BiLSTM over per-token embeddings,
multi-kernel CNN with max-over-time pooling, then fully connected layers
into per-class sigmoid outputs. On top of that trunk:

* single-task emotion / component models,
* component injection (gold annotations, or predictions from a frozen
  component model) concatenated into a combining layer,
* a multi-head model with one shared trunk and two output heads,
* a cross-stitch model with two parallel trunks whose pooled vectors are
  mixed by a trainable 2x2 matrix.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Parameter, Tensor, concat, dropout
from .errors import ConfigError, DataError, DimensionError
from .layers import BiLstm, ConvPool, Dense
from .losses import weighted_bce
from .optim import Adam

CHECKPOINT_VERSION = 1

NN_TAGS = ("emo-nn-base", "cpm-nn-base", "emo-cpm-nn-gold", "emo-cpm-nn-pred",
           "mtl-mh", "mtl-xs")

N_COMPONENTS = 5


def _pair(value) -> tuple[int, int]:
    """Accept a single size or an (emotion, cpm) pair."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ConfigError(f"expected one size or an (emo, cpm) pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


@dataclass
class ModelConfig:
    bilstm_units: int | tuple[int, int] = 24
    cnn_filters: int | tuple[int, int] = 10
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
        self.kernel_sizes = tuple(int(k) for k in self.kernel_sizes)
        if not self.kernel_sizes:
            raise ConfigError("kernel_sizes must be non-empty")
        for name in ("fc_neurons_cpm", "fc_neurons_emo", "fc_neurons_combined",
                     "minibatch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("loss_weight_emo", "loss_weight_cpm",
                     "task_weight_emo", "task_weight_cpm"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for u in _pair(self.bilstm_units) + _pair(self.cnn_filters):
            if u < 1:
                raise ConfigError("layer sizes must be >= 1")

    @property
    def units_emo(self) -> int:
        return _pair(self.bilstm_units)[0]

    @property
    def units_cpm(self) -> int:
        return _pair(self.bilstm_units)[1]

    @property
    def filters_emo(self) -> int:
        return _pair(self.cnn_filters)[0]

    @property
    def filters_cpm(self) -> int:
        return _pair(self.cnn_filters)[1]

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["bilstm_units"] = list(_pair(self.bilstm_units))
        d["cnn_filters"] = list(_pair(self.cnn_filters))
        d["kernel_sizes"] = list(self.kernel_sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Rebuild a stored config; unknown keys or mistyped values are data errors."""
        if not isinstance(d, dict):
            raise DataError(f"model config must be an object, got {type(d).__name__}")
        d = dict(d)
        try:
            for key in ("bilstm_units", "cnn_filters"):
                v = d.get(key)
                if isinstance(v, list):
                    d[key] = int(v[0]) if v[0] == v[1] else (int(v[0]), int(v[1]))
            if "kernel_sizes" in d:
                if not isinstance(d["kernel_sizes"], list):
                    raise TypeError("kernel_sizes must be a list")
                d["kernel_sizes"] = tuple(d["kernel_sizes"])
            return cls(**d)
        except (TypeError, ValueError, IndexError, ConfigError) as exc:
            raise DataError(f"stored model config is invalid: {exc}") from exc


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
    after the BiLSTM and after the pooled vector."""

    def __init__(self, d_in: int, units: int, filters: int,
                 kernel_sizes: tuple[int, ...], rng, name: str):
        self.bilstm = BiLstm(d_in, units, rng, f"{name}.bilstm")
        self.convpool = ConvPool(2 * units, kernel_sizes, filters, rng, f"{name}.cnn")

    @property
    def out_dim(self) -> int:
        return self.convpool.out_dim

    def params(self) -> list[Parameter]:
        return self.bilstm.params() + self.convpool.params()

    def __call__(self, x: Tensor, rate: float, training: bool, rng) -> Tensor:
        h = dropout(self.bilstm(x), rate, training, rng)
        return dropout(self.convpool(h), rate, training, rng)


class NeuralModel:
    """Common surface of all architectures."""

    tag: str = ""
    emo_labels: tuple[str, ...] = ()
    has_emo = False
    has_cpm = False

    def __init__(self, config: ModelConfig, input_dim: int):
        self.config = config
        self.input_dim = input_dim

    def params(self) -> list[Parameter]:
        raise NotImplementedError

    def forward(self, x: Tensor, training: bool = False, rng=None,
                cpm=None) -> dict[str, Tensor]:
        raise NotImplementedError

    def loss(self, outputs: dict[str, Tensor], y_emo=None, y_cpm=None) -> Tensor:
        cfg = self.config
        terms = []
        if self.has_emo:
            if y_emo is None:
                raise DataError("emotion targets required")
            terms.append(cfg.task_weight_emo * weighted_bce(
                outputs["emo"], Tensor(np.asarray(y_emo, dtype=float).reshape(1, -1)),
                cfg.loss_weight_emo))
        if self.has_cpm:
            if y_cpm is None:
                raise DataError("component targets required")
            terms.append(cfg.task_weight_cpm * weighted_bce(
                outputs["cpm"], Tensor(np.asarray(y_cpm, dtype=float).reshape(1, -1)),
                cfg.loss_weight_cpm))
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        return total

    def state_dict(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.params()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        own = {p.name: p for p in self.params()}
        if set(own) != set(state):
            raise DataError(f"checkpoint parameters do not match architecture "
                            f"(missing {sorted(set(own) ^ set(state))[:4]})")
        for name, arr in state.items():
            arr = np.asarray(arr, dtype=np.float64)
            if own[name].data.shape != arr.shape:
                raise DimensionError(f"parameter {name}: shape {arr.shape} does not "
                                     f"match {own[name].data.shape}")
            own[name].data[...] = arr


class SingleTaskModel(NeuralModel):
    """Emo-NN-Base / Cpm-NN-Base: one trunk, one FC layer, one sigmoid head."""

    def __init__(self, config: ModelConfig, input_dim: int, head: str,
                 emo_labels: tuple[str, ...] = (), rng=None):
        super().__init__(config, input_dim)
        if head not in ("emo", "cpm"):
            raise ConfigError(f"head must be 'emo' or 'cpm', got {head!r}")
        self.head = head
        self.has_emo = head == "emo"
        self.has_cpm = head == "cpm"
        self.tag = "emo-nn-base" if self.has_emo else "cpm-nn-base"
        self.emo_labels = tuple(emo_labels)
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        if self.has_emo:
            units, filters, fc = config.units_emo, config.filters_emo, config.fc_neurons_emo
            n_out = len(self.emo_labels)
            if n_out == 0:
                raise ConfigError("emotion head needs a label inventory")
        else:
            units, filters, fc = config.units_cpm, config.filters_cpm, config.fc_neurons_cpm
            n_out = N_COMPONENTS
        self.trunk = _Trunk(input_dim, units, filters, config.kernel_sizes, rng, head)
        self.fc = Dense(self.trunk.out_dim, fc, rng, f"{head}.fc", activation="relu")
        self.out = Dense(fc, n_out, rng, f"{head}.out", activation="sigmoid")

    def params(self) -> list[Parameter]:
        return self.trunk.params() + self.fc.params() + self.out.params()

    def forward(self, x: Tensor, training: bool = False, rng=None, cpm=None) -> dict[str, Tensor]:
        rate = self.config.dropout_rate
        pooled = self.trunk(x, rate, training, rng)
        hidden = dropout(self.fc(pooled), rate, training, rng)
        return {self.head: self.out(hidden)}


class CpmInjectModel(NeuralModel):
    """Emo-Cpm-NN-Gold: the base emotion path plus a 5-flag component
    vector through its own FC layer, concatenated into a combining FC."""

    tag = "emo-cpm-nn-gold"
    has_emo = True

    def __init__(self, config: ModelConfig, input_dim: int,
                 emo_labels: tuple[str, ...], rng=None):
        super().__init__(config, input_dim)
        self.emo_labels = tuple(emo_labels)
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.trunk = _Trunk(input_dim, config.units_emo, config.filters_emo,
                            config.kernel_sizes, rng, "emo")
        self.fc = Dense(self.trunk.out_dim, config.fc_neurons_emo, rng, "emo.fc", "relu")
        self.cpm_branch = Dense(N_COMPONENTS, config.fc_neurons_cpm, rng, "cpmin.fc", "relu")
        self.combiner = Dense(config.fc_neurons_emo + config.fc_neurons_cpm,
                              config.fc_neurons_combined, rng, "comb.fc", "relu")
        self.out = Dense(config.fc_neurons_combined, len(self.emo_labels), rng,
                         "emo.out", "sigmoid")

    def params(self) -> list[Parameter]:
        return (self.trunk.params() + self.fc.params() + self.cpm_branch.params()
                + self.combiner.params() + self.out.params())

    def _forward_with_cpm(self, x: Tensor, cpm_row: Tensor, training, rng) -> dict[str, Tensor]:
        rate = self.config.dropout_rate
        pooled = self.trunk(x, rate, training, rng)
        pen = dropout(self.fc(pooled), rate, training, rng)
        branch = dropout(self.cpm_branch(cpm_row), rate, training, rng)
        combined = dropout(self.combiner(concat([pen, branch], axis=1)), rate, training, rng)
        return {"emo": self.out(combined)}

    def forward(self, x: Tensor, training: bool = False, rng=None, cpm=None) -> dict[str, Tensor]:
        if cpm is None:
            raise DataError("emo-cpm-nn-gold requires a component input vector")
        cpm = np.asarray(cpm, dtype=float).reshape(-1)
        if cpm.shape[0] != N_COMPONENTS:
            raise DimensionError(f"component vector must have 5 entries, got {cpm.shape[0]}")
        return self._forward_with_cpm(x, Tensor(cpm.reshape(1, -1)), training, rng)


class CpmPredModel(NeuralModel):
    """Emo-Cpm-NN-Pred: like the gold variant, but the component vector
    comes from a frozen trained component model; no gradient crosses into it."""

    tag = "emo-cpm-nn-pred"
    has_emo = True

    def __init__(self, config: ModelConfig, input_dim: int,
                 emo_labels: tuple[str, ...], frozen_cpm: "SingleTaskModel", rng=None):
        super().__init__(config, input_dim)
        if not frozen_cpm.has_cpm:
            raise ConfigError("the frozen submodel must be a component model")
        self.emo_labels = tuple(emo_labels)
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.inner = CpmInjectModel(config, input_dim, emo_labels, rng)
        self.inner.tag = self.tag
        self.frozen_cpm = frozen_cpm
        for p in self.frozen_cpm.params():
            p.frozen = True

    def params(self) -> list[Parameter]:
        return self.inner.params() + self.frozen_cpm.params()

    def forward(self, x: Tensor, training: bool = False, rng=None, cpm=None) -> dict[str, Tensor]:
        sub = self.frozen_cpm.forward(x, training=False)["cpm"]
        out = self.inner._forward_with_cpm(x, sub.detach(), training, rng)
        out["cpm"] = sub.detach()
        return out


class MtlMultiHead(NeuralModel):
    """MTL-MH: shared trunk, two task-specific FC+output heads, joint loss."""

    tag = "mtl-mh"
    has_emo = True
    has_cpm = True

    def __init__(self, config: ModelConfig, input_dim: int,
                 emo_labels: tuple[str, ...], rng=None):
        super().__init__(config, input_dim)
        self.emo_labels = tuple(emo_labels)
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        # trunk and emotion head first: with task_weight_cpm == 0 this makes
        # the parameter trajectory match the single-task emotion model
        self.trunk = _Trunk(input_dim, config.units_emo, config.filters_emo,
                            config.kernel_sizes, rng, "emo")
        self.fc_emo = Dense(self.trunk.out_dim, config.fc_neurons_emo, rng, "emo.fc", "relu")
        self.out_emo = Dense(config.fc_neurons_emo, len(self.emo_labels), rng, "emo.out", "sigmoid")
        self.fc_cpm = Dense(self.trunk.out_dim, config.fc_neurons_cpm, rng, "cpm.fc", "relu")
        self.out_cpm = Dense(config.fc_neurons_cpm, N_COMPONENTS, rng, "cpm.out", "sigmoid")

    def params(self) -> list[Parameter]:
        return (self.trunk.params() + self.fc_emo.params() + self.out_emo.params()
                + self.fc_cpm.params() + self.out_cpm.params())

    def forward(self, x: Tensor, training: bool = False, rng=None, cpm=None) -> dict[str, Tensor]:
        rate = self.config.dropout_rate
        pooled = self.trunk(x, rate, training, rng)
        he = dropout(self.fc_emo(pooled), rate, training, rng)
        hc = dropout(self.fc_cpm(pooled), rate, training, rng)
        return {"emo": self.out_emo(he), "cpm": self.out_cpm(hc)}


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
                 emo_labels: tuple[str, ...], rng=None, freeze_stitch: bool = False):
        super().__init__(config, input_dim)
        self.emo_labels = tuple(emo_labels)
        rng = rng if rng is not None else np.random.default_rng(config.seed)
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
            alpha_init = np.repeat(alpha_init[:, :, None], self.width, axis=2)
        self.alpha = Parameter(Tensor(alpha_init), "stitch.alpha", frozen=freeze_stitch)
        self.fc_emo = Dense(self.width, config.fc_neurons_emo, rng, "emo.fc", "relu")
        self.out_emo = Dense(config.fc_neurons_emo, len(self.emo_labels), rng, "emo.out", "sigmoid")
        self.fc_cpm = Dense(self.width, config.fc_neurons_cpm, rng, "cpm.fc", "relu")
        self.out_cpm = Dense(config.fc_neurons_cpm, N_COMPONENTS, rng, "cpm.out", "sigmoid")

    def params(self) -> list[Parameter]:
        out = self.trunk_emo.params() + self.trunk_cpm.params()
        if self.proj_emo is not None:
            out += self.proj_emo.params() + self.proj_cpm.params()
        out.append(self.alpha)
        return (out + self.fc_emo.params() + self.out_emo.params()
                + self.fc_cpm.params() + self.out_cpm.params())

    def set_identity_stitch(self) -> None:
        ident = np.array([[1.0, 0.0], [0.0, 1.0]])
        if self.config.per_channel_stitch:
            ident = np.repeat(ident[:, :, None], self.width, axis=2)
        self.alpha.data[...] = ident

    def _mix(self, pe: Tensor, pc: Tensor) -> tuple[Tensor, Tensor]:
        a = self.alpha.tensor
        if self.config.per_channel_stitch:
            a00, a01, a10, a11 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
        else:
            a00, a01 = a[0:1, 0:1], a[0:1, 1:2]
            a10, a11 = a[1:2, 0:1], a[1:2, 1:2]
        return a00 * pe + a01 * pc, a10 * pe + a11 * pc

    def forward(self, x: Tensor, training: bool = False, rng=None, cpm=None) -> dict[str, Tensor]:
        rate = self.config.dropout_rate
        pe = self.trunk_emo(x, rate, training, rng)
        pc = self.trunk_cpm(x, rate, training, rng)
        if self.proj_emo is not None:
            pe = self.proj_emo(pe)
            pc = self.proj_cpm(pc)
        me, mc = self._mix(pe, pc)
        he = dropout(self.fc_emo(me), rate, training, rng)
        hc = dropout(self.fc_cpm(mc), rate, training, rng)
        return {"emo": self.out_emo(he), "cpm": self.out_cpm(hc)}


def build_model(tag: str, config: ModelConfig, input_dim: int,
                emo_labels: tuple[str, ...] = (),
                frozen_cpm: SingleTaskModel | None = None) -> NeuralModel:
    if tag == "emo-nn-base":
        return SingleTaskModel(config, input_dim, "emo", emo_labels)
    if tag == "cpm-nn-base":
        return SingleTaskModel(config, input_dim, "cpm")
    if tag == "emo-cpm-nn-gold":
        return CpmInjectModel(config, input_dim, emo_labels)
    if tag == "emo-cpm-nn-pred":
        if frozen_cpm is None:
            raise ConfigError("emo-cpm-nn-pred needs a trained component model")
        return CpmPredModel(config, input_dim, emo_labels, frozen_cpm)
    if tag == "mtl-mh":
        return MtlMultiHead(config, input_dim, emo_labels)
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
    y_emo: np.ndarray | None = None    # multi-hot over the emotion inventory
    y_cpm: np.ndarray | None = None    # 5 binary flags


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


def _batch_loss(model: NeuralModel, batch: list[Example], training: bool, rng) -> Tensor:
    losses = []
    for ex in batch:
        out = model.forward(Tensor(ex.x), training=training, rng=rng,
                            cpm=ex.y_cpm if isinstance(model, CpmInjectModel) else None)
        losses.append(model.loss(out, ex.y_emo, ex.y_cpm))
    total = losses[0]
    for l in losses[1:]:
        total = total + l
    return total * (1.0 / len(batch))


def predict_example(model: NeuralModel, ex: Example, mode: str,
                    neutral_label: str = "neutral") -> tuple[set[str], np.ndarray | None]:
    """Decision rule: argmax for single-label, threshold 0.5 for multi-label
    (empty sets map to the neutral class when the inventory has one)."""
    out = model.forward(Tensor(ex.x), training=False,
                        cpm=ex.y_cpm if isinstance(model, CpmInjectModel) else None)
    cpm_probs = out["cpm"].data.reshape(-1) if "cpm" in out else None
    if not model.has_emo:
        return set(), cpm_probs
    probs = out["emo"].data.reshape(-1)
    if mode == "single-label":
        labels = {model.emo_labels[int(np.argmax(probs))]}
    else:
        labels = {l for l, p in zip(model.emo_labels, probs) if p > 0.5}
        if not labels and neutral_label in model.emo_labels:
            labels = {neutral_label}
    return labels, cpm_probs


def _dev_macro_f1(model: NeuralModel, dev: list[Example], mode: str) -> float:
    from .metrics import evaluate
    if model.has_emo:
        inventory = model.emo_labels
        gold = {ex.id: {l for l, v in zip(inventory, ex.y_emo) if v} for ex in dev}
        pred = {ex.id: predict_example(model, ex, mode)[0] for ex in dev}
        return evaluate(gold, pred, inventory).macro_f1
    inventory = tuple(f"c{i}" for i in range(N_COMPONENTS))
    gold = {ex.id: {c for c, v in zip(inventory, ex.y_cpm) if v} for ex in dev}
    pred = {}
    for ex in dev:
        _, cpm_probs = predict_example(model, ex, mode)
        pred[ex.id] = {c for c, p in zip(inventory, cpm_probs) if p > 0.5}
    return evaluate(gold, pred, inventory).macro_f1


def train_model(model: NeuralModel, train: list[Example], mode: str,
                dev: list[Example] | None = None) -> TrainingLog:
    """Minibatch Adam training; with a dev set, the best-dev-macro-F1
    parameters are restored at the end. Deterministic under a fixed seed."""
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
            loss = _batch_loss(model, batch, training=True, rng=drop_rng)
            loss.backward()
            opt.step()
            epoch_loss += loss.item()
            n_batches += 1
        entry = {"epoch": epoch + 1, "train_loss": epoch_loss / n_batches}
        if dev:
            f1 = _dev_macro_f1(model, dev, mode)
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
    payload = {
        "version": CHECKPOINT_VERSION,
        "tag": model.tag,
        "input_dim": model.input_dim,
        "config": model.config.to_dict(),
        "emo_labels": list(model.emo_labels),
        "components": N_COMPONENTS,
        "params": {name: arr.tolist() for name, arr in model.state_dict().items()},
    }
    if isinstance(model, CpmPredModel):
        payload["frozen_cpm_config"] = model.frozen_cpm.config.to_dict()
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_checkpoint(source: str | Path | dict) -> NeuralModel:
    """Rebuild a model from a checkpoint file or its parsed JSON payload."""
    payload = source if isinstance(source, dict) else json.loads(Path(source).read_text(encoding="utf-8"))
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {payload.get('version')!r}")
    config = ModelConfig.from_dict(payload["config"])
    tag, input_dim, labels = payload["tag"], payload["input_dim"], payload["emo_labels"]
    if type(input_dim) is not int or input_dim < 1:
        raise DataError(f"checkpoint input_dim must be a positive integer, got {input_dim!r}")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise DataError(f"checkpoint emo_labels must be a list of names, got {labels!r}")
    frozen = None
    if tag == "emo-cpm-nn-pred":
        frozen = SingleTaskModel(ModelConfig.from_dict(payload["frozen_cpm_config"]),
                                 input_dim, "cpm")
    model = build_model(tag, config, input_dim, tuple(labels), frozen_cpm=frozen)
    try:
        model.load_state({n: np.array(a, dtype=float) for n, a in payload["params"].items()})
    except (AttributeError, TypeError, ValueError, DimensionError) as exc:
        raise DataError(f"checkpoint parameter is not a numeric array of its shape: {exc}") from exc
    return model
