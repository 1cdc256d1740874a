#!/usr/bin/env python3
"""Fast self-check of the campaign benchmark (about a minute).

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json on the reduced --smoke grid and
checks that
  - with --trace 0 every end-to-end metric, and with --trace 1 every
    per-layer metric, is printed by name with the unit BENCHMARK.json
    gives it, and the result is correct;
  - a deliberately corrupted result table (--corrupt) is counted as a
    failed operation and makes the result incorrect;
  - every per-layer metric has an entry in perfbench/layers.json,
    naming the end-to-end metrics it should move.
Exits non-zero on the first violation.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"selfcheck: {workload} trace={trace} {extra} exited "
                 f"with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, message):
    if not cond:
        sys.exit("selfcheck: " + message)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    names = {w["name"] for w in spec["workloads"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect(per_layer == set(layers),
           f"layers.json and BENCHMARK.json disagree: "
           f"{sorted(per_layer ^ set(layers))}")
    for name, entry in layers.items():
        expect(set(entry["moves"]) <= names,
               f"{name}: moves names an unknown workload")

    for workload in sorted(names):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want,
                   f"{workload} trace={trace}: printed metrics/units "
                   f"differ from BENCHMARK.json: "
                   f"{sorted(set(got.items()) ^ set(want.items()))}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: result not correct")
            expect(result["attempted"] >= 1,
                   f"{workload} trace={trace}: nothing attempted")
        bad = run(workload, 0, "--corrupt")
        expect(not bad["correct"] and bad["failed"] >= 1,
               f"{workload}: a corrupted table was not counted as a "
               f"failure")
        print(f"selfcheck: {workload} ok")
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
