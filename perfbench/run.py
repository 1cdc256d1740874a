#!/usr/bin/env python3
"""Campaign benchmark of the gpusimpow sweep stack.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold_sweep --seed 1 \
        --seconds 20 --trace 0

Builds perfbench_runner (and the simulator library it links) from
source into .bench_build/, prepares the workload's inputs (kept there
for later runs of the same binary), runs the runner and relays its
output. The last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}; --trace 0
prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
PREP = ROOT / ".bench_build" / "perfbench-prep"
WORKLOADS = ("cold_sweep", "warm_sweep", "served_mixed")
# Keep every runner process well under three minutes.
RUNNER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the runner; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources next to {HERE.name}/; "
             "run from a full checkout")
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", "4",
                 "--target", "perfbench_runner"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench_runner"


def run_runner(binary, args):
    """Run perfbench_runner to completion; return its stdout."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner timed out after {RUNNER_TIMEOUT_S} s: {args}")
    if proc.returncode != 0:
        fail(f"runner exited with {proc.returncode}: {args}")
    return proc.stdout


def prepared(binary, grid):
    """The warm workload's input: the store and table a cold campaign
    leaves. Made once per runner binary and grid and reused, since
    the warm campaigns only read it."""
    key = hashlib.sha256(binary.read_bytes() + repr(grid).encode())
    final = PREP / key.hexdigest()[:16]
    if final.is_dir():
        return final
    shutil.rmtree(PREP, ignore_errors=True)  # inputs of older binaries
    tmp = PREP / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        # A process of its own, so the measured process's peak RSS is
        # the warm campaign's.
        run_runner(binary, ["prep", "--dir", str(tmp)] + grid)
        tmp.rename(final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-check hooks (perfbench/selfcheck.py): a reduced grid, and a
    # deliberately corrupted table that must count as a failure.
    ap.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    grid = ["--smoke"] if args.smoke else []
    extra = grid + (["--corrupt"] if args.corrupt else [])
    if args.workload == "warm_sweep":
        # Benchmark preparation, not set-up.
        extra += ["--prep", str(prepared(binary, grid))]
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = run_runner(binary, [
            "run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--dir", str(work)] + extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("runner printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
