"""The measuring process: one fresh interpreter per call from run.py.

Usage: ``python3 perfbench/worker.py MODE ENTRY`` with ENTRY one of
count_gaussian, count_boolean, absolute_moment.  It times its own set-up
(importing ptfcount from ``src/`` and one warm-up call of ENTRY), then reads
a job as JSON on stdin and prints one JSON line.  MODE is one of:

* ``setup``: set-up only.
* ``measure``: whole rounds of the job's operations, each call timed, for
  about ``seconds`` seconds (at least one round), then one untimed repeat
  of the first operation.
* ``trace``: a warm-up round, then two rounds without and two with the
  per-layer spans of tracer.py, each timed as a whole.  The per-layer
  metrics are those of the first traced round.

No reference is computed here, so the peak resident set it reports is the
program's own.
"""

import json
import os
import resource
import sys
import time

T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ptfcount  # noqa: E402  (its import is part of the timed set-up)

WARMUP = ptfcount.Polynomial(3, {(): -0.1, (1, 2): 1.0, (3,): 0.5})


def call(name, poly, eps, k=None):
    if name == "count_gaussian":
        return ptfcount.count_gaussian(poly, eps).value
    if name == "count_boolean":
        return ptfcount.count_boolean(poly, eps).value
    if name == "absolute_moment":
        est = ptfcount.absolute_moment(poly, k, eps)
        return [est.value, est.lower, est.upper]
    raise ValueError(f"unknown entry point {name!r}")


def run_op(op):
    """(result, error message or None)."""
    try:
        return call(op["call"], op["poly"], op["eps"], op.get("k")), None
    except Exception as exc:  # a raising operation counts as failed
        return None, f"{type(exc).__name__}: {exc}"


def one_round(ops, latencies=None):
    values, errors = [], []
    for op in ops:
        t0 = time.perf_counter()
        value, err = run_op(op)
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
        values.append(value)
        errors.append(err)
    return values, errors


def main():
    mode, entry = sys.argv[1:3]
    call(entry, WARMUP, 0.05, 1)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return
    job = json.loads(sys.stdin.read())
    ops = []
    for op in job["ops"]:
        poly = ptfcount.Polynomial(
            op["dim"], {tuple(key): c for key, c in op["terms"]})
        ops.append({**op, "poly": poly})
    rounds = []
    if mode == "measure":
        latencies = []
        t0 = time.perf_counter()
        while True:
            rounds.append(one_round(ops, latencies))
            elapsed = time.perf_counter() - t0
            # stop when another round would end past the run's length by
            # more than half a round
            if elapsed + 0.5 * elapsed / len(rounds) >= job["seconds"]:
                break
        result.update(latencies=latencies, elapsed_s=elapsed,
                      repeat=run_op(ops[0])[0])
    elif mode == "trace":
        from tracer import Tracer
        # The first round in a process runs slower than later ones, so it is
        # left out; the untraced and traced rounds then run in the order
        # U T T U, so that a steady drift in machine speed cancels out of
        # the overhead.
        rounds.append(one_round(ops))
        times = {False: [], True: []}
        tracers = []
        for traced in (False, True, True, False):
            tracer = Tracer() if traced else None
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            rounds.append(one_round(ops))
            times[traced].append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
                tracers.append(tracer)
        first, second = (t.metrics() for t in tracers)
        result.update(
            untraced_s=sum(times[False]) / 2, traced_s=sum(times[True]) / 2,
            layer_metrics=first,
            counts_repeat=all(first[k] == second[k] for k, (_, unit)
                              in first.items() if unit == "count"),
            spans=tracers[0].table())
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result["values"] = [values for values, _ in rounds]
    result["errors"] = [errors for _, errors in rounds]
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
