#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
simulator from src/) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls only rebuild what changed. A run prints the
benchmark's report and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the span
file is written under <build dir>/traces/ and checked with the
repository's trace-validate tool; a file it rejects makes the run
incorrect. At seed 1 the run's event census is compared with the one
recorded in perfbench/census.json, and any drift is reported.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources not found under "
                 f"{ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)


def census_note(workload, lines):
    """Compare the seed-1 census printed by the run with the recorded one."""
    recorded = json.loads((HERE / "census.json").read_text())["seed_1"]
    want = recorded.get(workload)
    got = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric" and \
                parts[1] in ("sim.events", "gpu.sim_cycles"):
            got[parts[1]] = int(float(parts[2]))
    if want is None or not got:
        return None
    if all(got.get(k) == v for k, v in want.items()):
        return f"census: matches the recorded seed-1 census {want}"
    return f"census: DRIFT from the recorded seed-1 census {want}: now {got}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true",
                    help="build, then run the benchmark's own tests")
    args = ap.parse_args()

    out = build_dir()
    build(out)
    if args.self_test:
        sys.exit(subprocess.run(["ctest", "--test-dir", str(out),
                                 "--output-on-failure"]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    trace_file = None
    if args.trace == "1":
        (out / "traces").mkdir(exist_ok=True)
        trace_file = out / "traces" / \
            f"{args.workload}-seed{args.seed}.trace.json"
        cmd += ["--trace-out", str(trace_file)]

    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        sys.exit(f"perfbench: benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if trace_file is not None:
        check = subprocess.run([str(out / "trace-validate"),
                                str(trace_file)],
                               stdout=subprocess.PIPE, text=True)
        print(check.stdout.strip())
        if check.returncode != 0:
            result["correct"] = False
    if args.seed == 1:
        note = census_note(args.workload, lines)
        if note:
            print(note)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
