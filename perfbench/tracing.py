"""Per-layer tracing from outside the package.

The layers are the package's modules. Every public function and method of
those modules is wrapped at run time, in every namespace that bound it
(``pipeline`` and ``cli`` import many names directly), and methods are
patched on their class. Nothing under ``src/`` changes.

Two kinds of wrapper, never installed together:

* ``Tracer`` records a span per call: name, start, end and parent index.
  Spans stay in memory and are written out at the end of the run; self
  time is a span's duration minus the time its child spans cover.
* ``Counter`` counts calls and the work inside them: tape nodes by
  context, gradient bytes for tensors that lead to no trainable leaf,
  stemmed words, design-matrix sizes. Its graph walk in ``Tensor.backward``
  distorts timings, so the pass that runs it reports no times.

``Tensor`` arithmetic methods run hundreds of times per example; spanning
them would swamp the trace, so only ``Tensor.backward`` gets a span and the
forward cost of tape ops lands in the self time of the layer that issued
them. ``Tensor.__init__`` is wrapped by the counting pass only.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import sys
import time
import warnings

LAYERS = ("cli", "pipeline", "corpus", "text", "features", "maxent", "nn", "layers",
          "autodiff", "losses", "optim", "metrics")

# Tensor methods that get a span; the rest are per-op and too fine-grained
TENSOR_SPANNED = {"backward"}

# inclusive time of the outermost span among these names
INCLUSIVE = {
    "layers.bilstm_s": {"layers.BiLstm.__call__"},
    "layers.convpool_s": {"layers.ConvPool.__call__"},
    "layers.dense_s": {"layers.Dense.__call__"},
    "losses.bce_s": {"losses.weighted_bce"},
    "optim.adam_step_s": {"optim.Adam.step"},
    "nn.train_model_s": {"nn.train_model"},
    "nn.predict_example_s": {"nn.predict_example"},
    "nn.checkpoint_save_s": {"nn.save_checkpoint"},
    "nn.checkpoint_load_s": {"nn.load_checkpoint"},
    "maxent.fit_s": {"maxent.train_maxent"},
    "maxent.predict_s": {"maxent.predict_maxent", "maxent.predict_one_vs_rest"},
    "features.tfidf_s": {"features.tfidf_fit", "features.tfidf_transform"},
    "features.adv_build_s": {"maxent.build_cpm_adv_features"},
    "features.embed_s": {"features.resolve_token_embeddings", "features.hashed_token_embedding",
                         "features.load_embedding_file", "features.load_token_embedding_store",
                         "features.pooled_embedding_features"},
    "text.stem_s": {"text.porter_stem", "text.stem_tokens"},
    "text.tokenize_s": {"text.tokenize"},
    "corpus.load_s": {"corpus.load_corpus"},
    "metrics.evaluate_s": {"metrics.evaluate"},
}
# corpus- or file-level embedding builds
EMBED_BUILDERS = ("features.resolve_token_embeddings", "features.load_embedding_file",
                  "features.load_token_embedding_store")


def _targets():
    """(owner, attribute, original, span name) for each public function and
    method defined in a layer module, plus ``__call__``."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"emocomp.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, name, obj, f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, val in vars(obj).items():
                    if attr.startswith("_") and attr != "__call__":
                        continue
                    if obj.__name__ == "Tensor" and attr not in TENSOR_SPANNED:
                        continue
                    if inspect.isfunction(val) or isinstance(val, (classmethod, staticmethod)):
                        out.append((obj, attr, val, f"{layer}.{obj.__name__}.{attr}"))
    return out


class _Patcher:
    """Installs wrappers everywhere the originals are bound; ``remove``
    restores every binding."""

    def __init__(self):
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, make_wrapper) -> None:
        targets = _targets()   # imports every layer module first
        modules = [m for n, m in sys.modules.items() if n == "emocomp" or n.startswith("emocomp.")]
        for owner, attr, orig, name in targets:
            if isinstance(orig, (classmethod, staticmethod)):
                wrapper = type(orig)(make_wrapper(name, orig.__func__))
            else:
                wrapper = make_wrapper(name, orig)
            self._set(owner, attr, wrapper)
            if inspect.ismodule(owner):
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, alias, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer(_Patcher):
    def __init__(self):
        super().__init__()
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def __enter__(self):
        self.install(self._wrap)
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer times from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out["autodiff.backward_s"] = 0.0
        for i, (name, start, end, _) in enumerate(spans):
            self_time = end - start - child[i]
            out[name.split(".", 1)[0] + ".self_s"] += self_time
            if name == "autodiff.Tensor.backward":
                out["autodiff.backward_s"] += self_time
        for metric, names in INCLUSIVE.items():
            inside = [False] * len(spans)
            total = 0.0
            for i, (name, start, end, parent) in enumerate(spans):
                outer = parent >= 0 and inside[parent]
                inside[i] = outer or name in names
                if name in names and not outer:
                    total += end - start
            out[metric] = total
        return out

    def write(self, path) -> None:
        """One JSON list per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Counter(_Patcher):
    def __init__(self):
        super().__init__()
        self.calls: collections.Counter = collections.Counter()
        self._depth: collections.Counter = collections.Counter()
        self.nodes = collections.Counter()     # train / predict / all
        self.train_ex = 0
        self.instances = 0
        self.grad_bytes = 0
        self.wasted_grad_bytes = 0
        self.design_bytes: list[int] = []
        self.stemmed: set[str] = set()
        self.runtime_warnings = 0
        self._caught = None

    def __enter__(self):
        from emocomp.autodiff import Tensor
        self.install(self._wrap)
        init, depth, nodes = Tensor.__init__, self._depth, self.nodes

        def counting_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            nodes["all"] += 1
            if depth["nn.predict_example"]:
                nodes["predict"] += 1
            elif depth["nn.train_model"]:
                nodes["train"] += 1

        self._set(Tensor, "__init__", counting_init)
        self._caught = warnings.catch_warnings(record=True)
        self._records = self._caught.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        return self

    def __exit__(self, *exc):
        self.runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in self._records)
        self._caught.__exit__(*exc)
        self.remove()

    def _wrap(self, name, fn):
        calls, depth = self.calls, self._depth
        hook = {
            "nn.train_model": self._on_train_model,
            "maxent.train_maxent": self._on_train_maxent,
            "text.porter_stem": self.stemmed.add,
            "autodiff.Tensor.backward": self._on_backward,
        }.get(name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if hook is not None:
                hook(*args, **kwargs)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
            if name == "corpus.load_corpus":
                self.instances += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_train_model(self, model, train, *args, **kwargs):
        self.train_ex += len(train) * model.config.epochs

    def _on_train_maxent(self, X, y, classes, mode, feature_dim, *args, **kwargs):
        self.design_bytes.append(len(X) * feature_dim * 8)

    def _on_backward(self, root, grad=None):
        """Bytes of parent gradients the sweep will compute, and the share
        for parents from which no requires_grad leaf is reachable."""
        topo, seen, stack = [], set(), [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
        needs = {}
        for node in topo:   # parents come before children
            needs[id(node)] = node.requires_grad or any(needs[id(p)] for p in node._parents)
        for node in topo:
            if node._backward is None:
                continue
            for parent in node._parents:
                nbytes = parent.data.nbytes
                self.grad_bytes += nbytes
                if not needs[id(parent)]:
                    self.wasted_grad_bytes += nbytes

    def metrics(self) -> dict[str, float]:
        c = self.calls
        stem_calls = c["text.porter_stem"]
        per_inst = lambda n: n / self.instances if self.instances else 0.0
        return {
            "autodiff.nodes": self.nodes["all"],
            "autodiff.nodes_per_train_ex": self.nodes["train"] / self.train_ex if self.train_ex else 0.0,
            "autodiff.nodes_per_predict_inst":
                self.nodes["predict"] / c["nn.predict_example"] if c["nn.predict_example"] else 0.0,
            "autodiff.wasted_grad_share":
                self.wasted_grad_bytes / self.grad_bytes if self.grad_bytes else 0.0,
            "autodiff.runtime_warnings": self.runtime_warnings,
            "losses.bce_calls": c["losses.weighted_bce"],
            "optim.steps": c["optim.Adam.step"],
            "nn.predict_example_calls": c["nn.predict_example"],
            "maxent.fits": c["maxent.train_maxent"],
            "maxent.predict_calls": c["maxent.predict_maxent"],
            "maxent.design_mb": max(self.design_bytes, default=0) / 1e6,
            "features.tfidf_per_inst": per_inst(c["features.tfidf_transform"]),
            "features.embed_calls": sum(c[n] for n in EMBED_BUILDERS),
            "text.stem_calls": stem_calls,
            "text.stem_distinct_share": len(self.stemmed) / stem_calls if stem_calls else 0.0,
            "pipeline.preprocess_per_inst": per_inst(c["pipeline.preprocess"]),
        }
