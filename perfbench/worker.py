"""Workload process, started fresh by ``run.py`` for every set-up and every
measurement, so that set-up time includes interpreter start and imports and
peak RSS belongs to one workload.

    worker.py setup   --workload W --seed N --dir D
    worker.py measure --workload W --seed N --dir D --seconds S --trace 0|1 --result F

``setup`` writes the inputs under ``D/inputs`` (and, for predict, trains the
models it predicts with). ``measure`` repeats the workload's verb calls for
at least S seconds and at least twice, checks every output, and writes its
figures as JSON to F.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import WORKLOADS, output_digest, run_cycle  # noqa: E402

MIN_CYCLES = 2


def environment() -> dict:
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu}


class Cycles:
    """Runs cycles and checks that each repeat writes the same bytes."""

    def __init__(self, wl, work: Path):
        self.wl, self.work = wl, work
        self.reference: dict[str, dict] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.count = 0

    def run(self) -> dict:
        out = self.work / "out" / f"c{self.count}"
        calls = run_cycle(self.wl, self.work, out)
        for call in calls:
            digest = output_digest(out / call.name)
            ref = self.reference.setdefault(call.name, digest)
            if digest != ref:
                diff = sorted(k for k in set(ref) | set(digest) if ref.get(k) != digest.get(k))
                call.errors.append(f"{call.name}: cycle {self.count} output differs from cycle 0: {diff}")
            self.attempted += 1
            self.failed += bool(call.errors)
            self.errors += call.errors
        summary = self.wl.summarise(calls, out, self.work)
        if self.count:
            shutil.rmtree(out)
        self.count += 1
        return {"wall": sum(c.seconds for c in calls), **summary}


def median_of(cycles: list[dict], key: str) -> float:
    return statistics.median(c[key] for c in cycles)


def ratio_of(cycles: list[dict], num: str, den: str) -> float:
    return statistics.median(c[num] / c[den] for c in cycles)


def end_to_end(cycles: list[dict]) -> dict:
    """The end-to-end figures, the workload-specific ones included."""
    out = {"wall_s": median_of(cycles, "wall")}
    if "train_ex" in cycles[0]:
        out["train_ex_per_s"] = ratio_of(cycles, "train_ex", "train_s")
    if "ablate_s" in cycles[0]:
        out["ablate_s"] = median_of(cycles, "ablate_s")
    if "predict_inst" in cycles[0]:
        out["predict_inst_per_s"] = ratio_of(cycles, "predict_inst", "predict_s")
    f1s = cycles[0]["f1"]
    out["test_macro_f1"] = sum(f1s) / len(f1s) if f1s else 0.0
    return out


def measure(wl, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    cyc = Cycles(wl, work)
    start = time.perf_counter()
    result: dict = {}
    if not trace:
        cycles = []
        while len(cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
            cycles.append(cyc.run())
        result["metrics"] = end_to_end(cycles)
        result["cycles"] = {"walls": [c["wall"] for c in cycles]}
    else:
        import tracing as tr
        from probe import layer_probe
        plain, traced, layer = [], [], []
        while len(traced) < 1 or time.perf_counter() - start < seconds:
            plain.append(cyc.run()["wall"])
            with tr.Tracer() as tracer:
                traced.append(cyc.run()["wall"])
            layer.append(tracer.metrics())
        tracer.write(work / "spans.jsonl")   # the last traced cycle
        del tracer                            # free its spans before counting
        with tr.Counter() as counter:
            cyc.run()
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        metrics.update(counter.metrics())
        probe_dir = work / "probe"
        nn = WORKLOADS["nn-train"]
        workloads.gen.generate(probe_dir, seed, nn.corpora, nn.n_stems, sidecars=False)
        probe = layer_probe(probe_dir / "corpus.jsonl", int(workloads.CLI_SEED))
        result["probe_tokens"] = probe.pop("probe.tokens")
        metrics.update(probe)
        metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
        result["metrics"] = metrics
        result["cycles"] = {"untraced_walls": plain, "traced_walls": traced, "counting": 1}
    result.update(attempted=cyc.attempted, failed=cyc.failed, errors=cyc.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                  env=environment())
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--result", type=Path)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        import emocomp.cli  # noqa: F401 - the program's import time is set-up time
        info = wl.setup(args.dir, args.seed)
        (args.dir / "inputs.json").write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")
        return 0
    result = measure(wl, args.dir, args.seed, args.seconds, bool(args.trace))
    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
