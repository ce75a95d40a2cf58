"""Emotion and emotion-component classification toolkit.

Feature-based (maximum-entropy) and neural (BiLSTM + multi-kernel CNN)
classifiers for emotions and the five emotion components (cognitive
appraisal, neurophysiological symptoms, action tendencies, motor
expressions, subjective feelings), including component-injection and
multi-task variants, built on an internal reverse-mode autodiff engine.
"""

from .autodiff import Parameter, Tensor
from .corpus import (COMPONENTS, MULTI_LABEL, REMAN_EMOTIONS, SINGLE_LABEL,
                     TEC_EMOTIONS, Corpus, Instance, kfold, load_corpus,
                     save_corpus, split_train_test)
from .errors import (ConfigError, CorpusFormatError, DataError,
                     DimensionError, EmocompError, ResourceError, StateError)
from .gradcheck import GradCheckReport, gradient_check
from .losses import weighted_bce
from .maxent import (AdvResources, FeatureCombination, FeatureSearchResult,
                     MaxEntConfig, MaxEntModel, feature_combination_search,
                     predict_maxent, train_maxent)
from .metrics import (CooccurrenceTable, MetricsReport, agreement_degenerate,
                      cohen_kappa, cooccurrence_stats, evaluate)
from .nn import (ModelConfig, NeuralModel, build_model, default_config,
                 load_checkpoint, save_checkpoint, train_model)
from .optim import Adam
from .pipeline import (ALL_TAGS, ME_TAGS, MeArtifact, evaluate_neural,
                       load_me_artifact, save_me_artifact,
                       train_component_me, train_emotion_me, train_neural)

__all__ = [
    "Tensor", "Parameter", "Adam", "weighted_bce",
    "gradient_check", "GradCheckReport",
    "Corpus", "Instance", "COMPONENTS", "TEC_EMOTIONS", "REMAN_EMOTIONS",
    "SINGLE_LABEL", "MULTI_LABEL",
    "load_corpus", "save_corpus", "split_train_test", "kfold",
    "evaluate", "MetricsReport", "cohen_kappa", "agreement_degenerate",
    "cooccurrence_stats", "CooccurrenceTable",
    "MaxEntConfig", "MaxEntModel", "AdvResources",
    "FeatureCombination", "FeatureSearchResult",
    "train_maxent", "predict_maxent", "feature_combination_search",
    "ModelConfig", "NeuralModel", "build_model", "default_config",
    "train_model", "save_checkpoint", "load_checkpoint",
    "ME_TAGS", "ALL_TAGS", "MeArtifact",
    "train_emotion_me", "train_component_me", "train_neural",
    "evaluate_neural", "save_me_artifact", "load_me_artifact",
    "EmocompError", "ConfigError", "DataError", "CorpusFormatError",
    "ResourceError", "DimensionError", "StateError",
]

__version__ = "0.1.0"
