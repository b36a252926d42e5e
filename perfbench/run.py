#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1> --fleet-rate <edits/s>

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; registry files, access logs and span traces go
to a work directory next to it.  Build output goes to stderr.  The last line
of stdout is the JSON result: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer ones.  setup_s is the median over the main process
and a few fresh processes that only set up.  `--workload all` runs every
workload in turn, each in its own process, and prints each one's table and
result line.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("table8_serial", "paper76_audit", "fleet_edit")
SETUP_PROBES = 4
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    """Configures once, then builds incrementally (a no-op when current)."""
    if not os.path.isdir(os.path.join(os.path.dirname(bench_dir), "src")):
        fail("the iotsan sources (src/) are not next to perfbench/")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", build_dir, "-j", jobs])
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def run_step(cmd):
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build step failed: {' '.join(cmd)}: {e}")


def run_binary(cmd, timeout):
    """Runs perfbench; returns (stdout lines, parsed JSON result line)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return lines[:-1], json.loads(lines[-1])


def run_workload(binary, args, workload, bench_dir, work_dir):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--reference-dir", os.path.join(bench_dir, "reference"),
           "--work-dir", work_dir, "--fleet-rate", repr(args.fleet_rate)]
    lines, result = run_binary(cmd, RUN_TIMEOUT_S)
    for line in lines:
        print(line)
    if not args.trace:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_PROBES):
            _, probe = run_binary(cmd + ["--setup-only"], PROBE_TIMEOUT_S)
            setups.append(probe["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s median of {len(setups)} processes: "
              + " ".join(f"{s:.4f}" for s in setups))
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fleet-rate", type=float, required=True,
                        help="open-loop arrival rate of fleet_edit")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(bench_dir, os.path.join(target, "perfbench"))
    work_dir = os.path.join(target, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        run_workload(binary, args, workload, bench_dir, work_dir)


if __name__ == "__main__":
    main()
