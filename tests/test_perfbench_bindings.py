"""What ``perfbench/`` binds in the package, exercised in-process.

``perfbench/tracing.py`` wraps every public function and method of the
package, and some of its hooks bind their parameters by position (the fifth
of ``maxent.train_maxent`` is ``feature_dim``). ``perfbench/probe.py`` calls
``resolve_token_embeddings`` and the layers directly. A change to one of
those signatures in ``src/`` breaks the benchmark and no other test. So this
test runs a traced pass, a counted pass and the layer probe the way the
benchmark runs them, on the bundled corpora, and edits nothing under
``perfbench/``.
"""

import importlib.util
import math
from pathlib import Path

from emocomp import maxent
from emocomp.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_verbs(out, data_dir):
    """A neural training and its predict, and a feature-based training that
    reads a sidecar; the exit code of each."""
    overfit = data_dir / "overfit_tec.jsonl"
    runs = [
        ["train", "--model", "mtl-xs", "--epochs", "1", "--corpus", overfit, "--out", out / "xs"],
        ["train", "--model", "cpm-me-adv", "--corpus", data_dir / "ablation_corpus.jsonl",
         "--pos-sidecar", data_dir / "ablation_pos.tsv", "--out", out / "adv"],
        ["predict", "--model-path", out / "xs" / "checkpoint.json", "--corpus", overfit,
         "--out", out / "predict"],
    ]
    return [main([str(a) for a in argv]) for argv in runs]


def test_traced_and_counted_runs_and_the_layer_probe(tmp_path, data_dir):
    tracing, probe = perfbench_module("tracing"), perfbench_module("probe")
    with tracing.Tracer() as tracer:
        codes = run_verbs(tmp_path / "traced", data_dir)
    metrics = tracer.metrics()
    with tracing.Counter() as counter:
        codes += run_verbs(tmp_path / "counted", data_dir)
    metrics.update(counter.metrics())
    metrics.update(probe.layer_probe(data_dir / "synthetic_reman_1000.jsonl", 1))
    assert codes == [0] * 6
    assert not hasattr(maxent.train_maxent, "__wrapped__")   # every wrapper removed
    not_finite = sorted(name for name, value in metrics.items() if not math.isfinite(value))
    assert not not_finite
    for name in ("maxent.fits", "optim.steps", "autodiff.nodes"):
        assert metrics[name] > 0, name
