"""Calibration against the ROADMAP baselines on the bundled corpus.

    python3 perfbench/calibrate.py

Run from the repository root. On ``data/synthetic_reman_1000.jsonl`` it
measures, through the library rather than the CLI, what the ROADMAP
re-anchor measured:

* emo-nn-base and mtl-xs training throughput: one epoch over the first 200
  instances, hashed embeddings of dimension 64, no dev set;
* tape nodes per training example and per predicted instance;
* emo-me-base and cpm-me-base fit time on the 900-instance train split,
  default maxent settings (300 iterations);
* the wasted-gradient share of each.

Times are the median of REPS repeats, with min and max, once with
the cyclic garbage collector on and once off; counts come from one separate
counting pass. BLAS threads are pinned as in the benchmark. The result is printed and written to
``.perfbench_work/calibration.json``.

    python3 perfbench/calibrate.py --me-shares     # ~25 min on 2 CPUs

instead checks the me-train sizing: it runs one traced me-train cycle (same
verb calls, same generator) at the benchmark's size and at the bundled size
(1000 instances, default 300 maxent iterations; that cycle alone takes
about 20 minutes), and prints each layer's share of the traced wall time
side by side. Written to ``.perfbench_work/me_shares.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BLAS_THREADS, PROGRAM_ENV_PREFIX  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
for _var in [v for v in os.environ if v.startswith(PROGRAM_ENV_PREFIX)]:
    del os.environ[_var]

CORPUS = Path("data") / "synthetic_reman_1000.jsonl"
REPS = 3
BASELINES = {"emo-nn-base": {"ex_per_s": 150, "nodes_per_train_ex": 361, "nodes_per_predict_inst": 331},
             "mtl-xs": {"ex_per_s": 68, "nodes_per_train_ex": 736, "nodes_per_predict_inst": 675},
             "emo-me-base": {"fit_s": 9.5},
             "cpm-me-base": {"fit_s": 4.2}}


def nn_case(tag: str, corpus):
    # module attributes are looked up at call time, so the counting pass sees them
    from emocomp import nn, pipeline
    sub = corpus.subset(corpus.instances[:200])
    table, dim = pipeline.embeddings_for(sub, None, 64, 0)
    examples = pipeline.build_examples(sub, table)

    def train():
        model = nn.build_model(tag, nn.default_config(tag, "reman", {"epochs": 1}), dim,
                               corpus.emotion_inventory)
        nn.train_model(model, examples, corpus.mode)
        return model

    def predict(model):
        for ex in examples:
            nn.predict_example(model, ex, corpus.mode)

    return train, predict, len(examples)


def me_case(tag: str, corpus):
    from emocomp import pipeline
    from emocomp.corpus import split_train_test
    from emocomp.maxent import MaxEntConfig
    train_split, _ = split_train_test(corpus, 0.9, seed=0)
    name = "train_emotion_me" if tag == "emo-me-base" else "train_component_me"
    return lambda: getattr(pipeline, name)(train_split, MaxEntConfig(seed=0))


def timed(fn, reps: int, gc_on: bool) -> list[float]:
    """Wall times of ``reps`` calls, with the cyclic garbage collector on
    (as every CLI run has it) or off (as ``timeit`` measures)."""
    times = []
    try:
        if not gc_on:
            gc.disable()
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return times


ME_SHARES_SEED = 1
# (instances, maxent iterations) of the bundled-size me-train cycle
ME_BUNDLED = (1000, 300)
# inclusive times reported beside the per-layer self times
ME_INCLUSIVE = ("autodiff.backward_s", "maxent.fit_s", "losses.bce_s", "optim.adam_step_s",
                "features.tfidf_s", "features.adv_build_s", "text.stem_s")


def me_shares() -> dict:
    import tracing
    import workloads
    from worker import environment
    bundled = workloads.MeTrain()
    bundled.corpora = {"corpus": ("reman", ME_BUNDLED[0])}
    bundled.me_iterations = ME_BUNDLED[1]
    out = {}
    for label, wl in (("benchmark", workloads.WORKLOADS["me-train"]), ("bundled", bundled)):
        work = Path(".perfbench_work") / f"me-shares-{label}"
        shutil.rmtree(work, ignore_errors=True)
        wl.setup(work, ME_SHARES_SEED)
        with tracing.Tracer() as tracer:
            t0 = time.perf_counter()
            calls = workloads.run_cycle(wl, work, work / "out")
            wall = time.perf_counter() - t0
        times = tracer.metrics()
        del tracer
        shutil.rmtree(work)
        out[label] = {
            "instances": wl.corpora["corpus"][1], "me_iterations": wl.me_iterations,
            "traced_wall_s": wall, "errors": [e for c in calls for e in c.errors],
            "shares": {k: v / wall for k, v in times.items()
                       if k.endswith(".self_s") or k in ME_INCLUSIVE}}
        print(f"{label}: {out[label]['instances']} instances, {wl.me_iterations} iterations, "
              f"traced wall {wall:.1f} s, errors {out[label]['errors']}", flush=True)
    for key in out["benchmark"]["shares"]:
        print(f"share {key} " + " ".join(f"{label}={r['shares'][key]:.3f}" for label, r in out.items()))
    out["env"] = environment()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="calibration of the emocomp benchmark")
    p.add_argument("--me-shares", action="store_true",
                   help="compare me-train layer shares at benchmark and bundled size")
    args = p.parse_args(argv)
    if not CORPUS.is_file():
        print(f"calibrate: {CORPUS} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    if args.me_shares:
        record = me_shares()
        dest = Path(".perfbench_work") / "me_shares.json"
        dest.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        return 1 if any(r["errors"] for k, r in record.items() if k != "env") else 0
    import tracing
    from emocomp.corpus import load_corpus
    from worker import environment
    corpus = load_corpus(CORPUS)
    out = {}
    for tag in ("emo-nn-base", "mtl-xs"):
        train, predict, n = nn_case(tag, corpus)
        times = timed(train, REPS, gc_on=True)
        times_off = timed(train, REPS, gc_on=False)
        with tracing.Counter() as counter:
            predict(train())
        counts = counter.metrics()
        out[tag] = {"ex_per_s": n / statistics.median(times),
                    "ex_per_s_range": [n / max(times), n / min(times)],
                    "ex_per_s_gc_off": n / statistics.median(times_off),
                    "ex_per_s_gc_off_range": [n / max(times_off), n / min(times_off)],
                    "nodes_per_train_ex": counts["autodiff.nodes_per_train_ex"],
                    "nodes_per_predict_inst": counts["autodiff.nodes_per_predict_inst"],
                    "wasted_grad_share": counts["autodiff.wasted_grad_share"]}
    for tag in ("emo-me-base", "cpm-me-base"):
        fit = me_case(tag, corpus)
        times = timed(fit, REPS, gc_on=True)
        times_off = timed(fit, REPS, gc_on=False)
        with tracing.Counter() as counter:
            fit()
        counts = counter.metrics()
        out[tag] = {"fit_s": statistics.median(times), "fit_s_range": [min(times), max(times)],
                    "fit_s_gc_off": statistics.median(times_off),
                    "fit_s_gc_off_range": [min(times_off), max(times_off)],
                    "fits": counts["maxent.fits"],
                    "wasted_grad_share": counts["autodiff.wasted_grad_share"]}
    record = {"env": environment(), "reps": REPS, "measured": out, "baseline": BASELINES}
    for tag, figures in out.items():
        for name, value in figures.items():
            base = BASELINES[tag].get(name.replace("_gc_off", ""))
            print(f"{tag} {name} {value if isinstance(value, list) else round(value, 4)}"
                  + (f" (baseline {base})" if base is not None else ""))
    print(f"env {json.dumps(record['env'])}")
    dest = Path(".perfbench_work") / "calibration.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
