"""Layer probe: forward and backward of BiLstm, ConvPool, Dense and
weighted_bce timed separately, on one fixed input.

The input is the instance of median token length in the nn-train corpus,
embedded the way ``emocomp train`` embeds it (hashed fallback vectors,
dimension 64); layer sizes are the emo-nn-base defaults for REMAN-style
corpora. Each case runs a fixed number of repetitions after one warm-up
and reports the median in milliseconds.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

REPS = {"layers.bilstm": 30, "layers.convpool": 60, "layers.dense": 300, "losses.bce": 300}


def layer_probe(corpus_path: Path, cli_seed: int) -> dict[str, float]:
    from emocomp.autodiff import Tensor
    from emocomp.corpus import load_corpus
    from emocomp.features import resolve_token_embeddings
    from emocomp.layers import BiLstm, ConvPool, Dense
    from emocomp.losses import weighted_bce
    from emocomp.nn import default_config
    from emocomp.text import tokenize

    corpus = load_corpus(corpus_path)
    by_len = sorted(corpus.instances, key=lambda i: (len(tokenize(i.text)), i.id))
    inst = by_len[len(by_len) // 2]
    x = resolve_token_embeddings([inst], tokenize, fallback_dim=64, seed=cli_seed)[inst.id]

    cfg = default_config("emo-nn-base", "reman")
    rng = np.random.default_rng(0)
    bilstm = BiLstm(x.shape[1], cfg.units_emo, rng, "probe.bilstm")
    convpool = ConvPool(2 * cfg.units_emo, cfg.kernel_sizes, cfg.filters_emo, rng, "probe.cnn")
    dense = Dense(convpool.out_dim, cfg.fc_neurons_emo, rng, "probe.fc")
    h = bilstm(Tensor(x)).data
    pooled = convpool(Tensor(h)).data
    n_out = len(corpus.emotion_inventory)
    p = 1.0 / (1.0 + np.exp(-rng.standard_normal((1, n_out))))
    y = (rng.random((1, n_out)) < 0.3).astype(float)

    # inputs that sit on a gradient path in training require a gradient here too
    cases = {
        "layers.bilstm": lambda: bilstm(Tensor(x)),
        "layers.convpool": lambda: convpool(Tensor(h, requires_grad=True)),
        "layers.dense": lambda: dense(Tensor(pooled, requires_grad=True)),
        "losses.bce": lambda: weighted_bce(Tensor(p, requires_grad=True), Tensor(y),
                                           cfg.loss_weight_emo),
    }
    out = {}
    for name, forward in cases.items():
        fwd, bwd = [], []
        for _ in range(REPS[name] + 1):
            t0 = time.perf_counter()
            result = forward()
            t1 = time.perf_counter()
            result.backward(np.ones_like(result.data))
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        out[f"{name}.fwd_ms"] = 1e3 * statistics.median(fwd[1:])
        out[f"{name}.bwd_ms"] = 1e3 * statistics.median(bwd[1:])
    out["probe.tokens"] = x.shape[0]
    return out
