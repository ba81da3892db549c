"""Benchmark for ptfcount's three entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: gauss-multilinear, gauss-replicated, boolean-tree, moments (see
corpora.py and README.md).  The run builds the workload's round of inputs
from the seed, computes a reference for every input in this process
(reference.py), and hands the inputs to fresh worker processes
(worker.py) that import ptfcount from ``src/`` with every numeric thread
pool pinned to one thread.

``--trace 0`` starts SETUP_RUNS workers in a row; each times its own set-up
and the last one also repeats whole rounds for about S seconds.  The last
line of standard output is one JSON object with the end-to-end metrics.
``--trace 1`` runs a warm-up round, then two rounds without and two with
the per-layer spans of tracer.py, and prints the per-layer metrics of the
first traced round instead.
Each run writes its latencies or spans, answers and verdicts to
``perfbench/out/``.

Every answer is checked: an operation fails when it raises or misses its
reference by more than the tolerance.  ``correct`` is false when an answer
that did not fail breaks a property the method must have (a probability in
[0, 1], a moment inside its own bracket, bit-identical repeats).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import corpora
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ENTRY = {"gauss-multilinear": "count_gaussian",
         "gauss-replicated": "count_gaussian",
         "boolean-tree": "count_boolean",
         "moments": "absolute_moment"}
END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s",
                    "latency_p50_s": "s", "peak_rss_mb": "MB"}
P90_MIN_SAMPLES = 100


def worker(mode: str, entry: str, job: dict | None = None) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, entry],
        input=json.dumps(job) if job is not None else "",
        capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(ops: list[dict], refs: list[dict], res: dict) -> dict:
    """Per-operation verdicts against the references and properties."""
    rounds = res["values"]
    rows, broken = [], []
    for i, (op, ref) in enumerate(zip(ops, refs)):
        vals = [r[i] for r in rounds]
        errors = [e[i] for e in res["errors"] if e[i] is not None]
        row = {"label": op["label"], "reference": ref["value"],
               "tol": ref["tol"]}
        rows.append(row)
        if errors:
            row.update(failed=True, error=errors[0])
            continue
        if any(v != vals[0] for v in vals) or (
                i == 0 and "repeat" in res and res["repeat"] != vals[0]):
            broken.append(f"{op['label']}: repeated calls differ")
        if op["call"] == "absolute_moment":
            value, lower, upper = vals[0]
            if not 0.0 <= lower <= value <= upper:
                broken.append(f"{op['label']}: {value} outside its bracket "
                              f"[{lower}, {upper}]")
        else:
            value = vals[0]
            if not 0.0 <= value <= 1.0:
                broken.append(f"{op['label']}: {value} outside [0, 1]")
        miss = abs(value - ref["value"])
        row.update(value=value, miss=miss, failed=miss > ref["tol"])
    failed = [row for row in rows if row["failed"]]
    return {"rows": rows, "failed_ops": failed, "broken": broken,
            "attempted": len(ops) * len(rounds),
            "failed": len(failed) * len(rounds)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--slice", type=int, default=0,
                    help="run only the first N operations of the round "
                         "(for the self-check)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ptfcount" / "__init__.py").is_file():
        print(f"ptfcount sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    ops = corpora.build(args.workload, args.seed)
    if args.slice:
        ops = ops[:args.slice]
    refs = [reference.reference(op) for op in ops]
    entry = ENTRY[args.workload]
    job = {"ops": ops, "seconds": args.seconds}

    if args.trace:
        res = worker("trace", entry, job)
        verdict = check(ops, refs, res)
        if not res["counts_repeat"]:
            verdict["broken"].append(
                "per-layer counts differ between the two traced rounds")
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in res["layer_metrics"].items()}
        for name in ("untraced_s", "traced_s"):
            metrics[f"trace.{name}"] = {"value": res[name], "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": res["traced_s"] - res["untraced_s"], "unit": "s"}
        record = {"spans": res["spans"]}
    else:
        setups = [worker("setup", entry)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        res = worker("measure", entry, job)
        setups.append(res["setup_s"])
        verdict = check(ops, refs, res)
        lat = res["latencies"]
        values = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": len(lat) / res["elapsed_s"],
            "latency_p50_s": statistics.median(lat),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
        record = {"setups_s": setups, "latencies_s": lat}
        if len(lat) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(lat, n=10)[-1]
            print(f"latency_p90_s {p90:.6f} s over {len(lat)} operations")

    OUT.mkdir(exist_ok=True)
    mode = "trace" if args.trace else "run"
    with open(OUT / f"{mode}-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": metrics, "verdict": verdict,
                   **record}, fh, indent=1)
    for item in verdict["failed_ops"]:
        print(f"failed: {json.dumps(item)}")
    for line in verdict["broken"]:
        print(f"incorrect: {line}")
    correct = not verdict["broken"]
    print(json.dumps({"correct": correct,
                      "attempted": verdict["attempted"],
                      "failed": verdict["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
