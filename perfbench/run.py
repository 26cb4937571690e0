#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (the ysmart
library from src/ plus the harness, in Release) under
.bench_build/perfbench, or under $CARGO_TARGET_DIR/perfbench when that is
set, then runs the harness. The harness prints a report and, as its last
stdout line, one JSON object with the metrics BENCHMARK.json lists for the
chosen --trace mode. The exit code is the harness's, or non-zero when the
build fails or the printed metrics do not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build() -> str:
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/ not found next to perfbench/; run from a "
                 "checkout of the repository")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "ysmart_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "ysmart_perfbench")


def check_metrics(result: dict, trace: int) -> None:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        sys.exit("perfbench: printed metrics differ from BENCHMARK.json: "
                 f"missing {sorted(declared.keys() - printed.keys())}, "
                 f"extra {sorted(printed.keys() - declared.keys())}, "
                 "units " + str(sorted(k for k in declared.keys() & printed.keys()
                                       if declared[k] != printed[k])))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: harness exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: no result line (harness exit {proc.returncode})")
    check_metrics(result, args.trace)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
