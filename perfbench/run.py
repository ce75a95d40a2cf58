"""emocomp benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload nn-train --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
Workloads (see ``workloads.py``): nn-train, me-train, predict.

Set-up (input generation, and for predict the training of the models it
predicts with) runs SETUP_REPS times, each in a fresh process; ``setup_s`` is
the median and every repeat must write the same bytes. The measurement runs
in one more fresh process: with ``--trace 0`` it reports the end-to-end
metrics named in BENCHMARK.json, with ``--trace 1`` the per-layer ones. The
lines before the last one give every figure by name and unit, with the
inputs' description and the environment; the last line is one JSON object.
Working files, and a ``report.json`` with everything printed, go to
``.perfbench_work/<workload>-s<seed>-t<trace>/`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SETUP_REPS = 3
DEADLINE_S = 170
# BLAS threads in the workload process (at most nproc on any machine); see
# README.md for the comparison with one thread per CPU
BLAS_THREADS = 1
# the CLI reads settings from variables with this prefix; the workloads set
# theirs by flags and --config only
PROGRAM_ENV_PREFIX = "EMOCOMP_"

UNITS = {"train_ex_per_s": "ex/s", "ablate_s": "s", "predict_inst_per_s": "inst/s",
         "test_macro_f1": "ratio", "error_rate": "ratio"}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "emocomp" / "cli.py").is_file():
        return fail(f"no emocomp sources under {root / 'src'}; run from the repository root")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        return fail(f"unknown workload {args.workload!r}")
    from workloads import WORKLOADS, output_digest
    wl = WORKLOADS[args.workload]

    deadline = time.monotonic() + DEADLINE_S
    work = root / ".perfbench_work" / f"{wl.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith(PROGRAM_ENV_PREFIX)}
    env.update(PYTHONPATH=str(root / "src"),
               **{v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS")})
    base = [sys.executable, str(HERE / "worker.py")]
    common = ["--workload", wl.name, "--seed", str(args.seed)]

    def run(cmd: list[str]) -> float:
        """Wall time of one worker process. A blocking wait times the exit
        exactly (``subprocess.run`` with a timeout polls in 50 ms steps);
        a timer kills the worker at the deadline."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:   # interrupted: leave no worker behind
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
        return elapsed

    try:
        setup_times = [run(base + ["setup", *common, "--dir", str(work / f"setup{r}")])
                       for r in range(SETUP_REPS)]
        # every set-up repeat must write the same inputs (and, for predict, models)
        reference = output_digest(work / "setup0")
        setup_failed = sum(output_digest(work / f"setup{r}") != reference
                           for r in range(1, SETUP_REPS))
        for r in range(1, SETUP_REPS):
            shutil.rmtree(work / f"setup{r}")
        result_path = work / "result.json"
        run(base + ["measure", *common, "--dir", str(work / "setup0"),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--result", str(result_path)])
    except subprocess.CalledProcessError as exc:
        return fail(f"workload process failed: {exc}")
    res = json.loads(result_path.read_text(encoding="utf-8"))

    errors = res["errors"] + ["set-up repeat wrote different files"] * setup_failed
    attempted = res["attempted"] + SETUP_REPS
    failed = res["failed"] + setup_failed

    inputs = json.loads((work / "setup0" / "inputs.json").read_text(encoding="utf-8"))
    print(f"workload {wl.name}: {why[wl.name]}")
    for name, info in inputs.items():
        print(f"inputs {name}: {json.dumps(info)}")
    print(f"env {json.dumps(res['env'])}")
    print(f"cycles {json.dumps(res['cycles'])}")
    for err in errors:
        print(f"error {err}", file=sys.stderr)

    figures = dict(res["metrics"])
    if args.trace:
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]
        figures.update(setup_s=statistics.median(setup_times), peak_rss_mb=res["peak_rss_mb"],
                       error_rate=failed / attempted)
        print(f"setup_s runs {json.dumps(setup_times)}")
    units = dict(UNITS, **{m["name"]: m["unit"] for m in declared})
    for name, value in figures.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")

    shutil.rmtree(work / "setup0" / "out", ignore_errors=True)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                           for m in declared}}
    report = {"workload": wl.name, "why": why[wl.name], "seed": args.seed, "inputs": inputs,
              "env": res["env"], "cycles": res["cycles"], "setup_runs": setup_times,
              "figures": figures, "errors": errors, **summary}
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
