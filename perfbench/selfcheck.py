"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json on a tiny slice of its round, once
without and once with tracing, and checks the last line each prints: its
keys, whole-number counts, and that the metric names and units are exactly
the ``end_to_end`` (untraced) or ``per_layer`` (traced) ones declared in
BENCHMARK.json.  It also checks that run.py refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark's files.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SLICE = "3"


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run(cwd: Path, workload: str, trace: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", trace,
         "--slice", SLICE], capture_output=True, text=True, cwd=cwd,
        timeout=300)


def check_result(res: dict, declared: list[dict], where: str) -> None:
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: keys {sorted(res)}")
    if res["correct"] is not True:
        raise SystemExit(f"{where}: correct is {res['correct']}")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or res[key] < 0:
            raise SystemExit(f"{where}: {key} = {res[key]!r}")
    if res["attempted"] < 1:
        raise SystemExit(f"{where}: nothing attempted")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        raise SystemExit(f"{where}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, units "
                         f"{[n for n in want if got.get(n, want[n]) != want[n]]}")
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise SystemExit(f"{where}: {name} = {m['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            where = f"{wl['name']} --trace {trace}"
            proc = run(ROOT, wl["name"], trace)
            if proc.returncode != 0:
                raise SystemExit(f"{where}: exit {proc.returncode}\n"
                                 f"{proc.stderr[-2000:]}")
            check_result(last_json(proc.stdout), declared, where)
            print(f"ok  {where}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        (bare / path).mkdir(parents=True)
        for f in (ROOT / path).glob("*"):
            if f.is_file():
                shutil.copy(f, bare / path)
    proc = run(bare, spec["workloads"][0]["name"], "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("run.py ran without the program's sources")
    print("ok  refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
