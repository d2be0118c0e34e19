#!/usr/bin/env python3
"""Build and run the DIMM-Link simulator benchmark.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload idc_pr --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

The script builds the `perfbench` crate in release mode (into
`$CARGO_TARGET_DIR`, default `.bench_build` at the repository root), runs
one process per workload, and prints the host context first (core count,
rustc version, git commit, build profile). The last line of standard output
is the result object with the keys `correct`, `attempted`, `failed` and
`metrics`.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("idc_pr", "local_km", "host_pr")

# glibc malloc settings for the benchmark process: serve allocations of up
# to 32 MiB (the largest threshold glibc accepts) from the heap and never
# return freed heap memory to the kernel. Every iteration then reuses the
# pages the warm-up iteration faulted in, instead of faulting its trace in
# anew. Page-fault time depends on the host's memory state, not on the
# simulator, and swung `setup_s` on `local_km` by a fifth between runs.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def output_of(cmd, env=None):
    """Stripped standard output of `cmd`, or None if it cannot run."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def build():
    """Builds the benchmark and returns the path of its executable."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release", "perfbench")


def git_commit():
    """The checked-out commit, or None outside a git checkout.

    The search for a repository stops at the checkout root, so a checkout
    that is not itself a repository never reports an enclosing one.
    """
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return output_of(["git", "rev-parse", "HEAD"], env=env)


def host_context():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "rustc": output_of(["rustc", "--version"]),
        "git_commit": git_commit(),
        "build_profile": "release",
    }


def run_workload(binary, workload, args):
    """Runs one workload in its own process and returns (detail, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden")]
    if args.record_golden:
        cmd.append("--record-golden")
    env = dict(os.environ, **MALLOC_ENV)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload}: benchmark exited with status {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write the run's fingerprint as the golden one")
    args = parser.parse_args()
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the simulator sources are not beside the benchmark")

    binary = build()
    print(json.dumps({"context": host_context()}), flush=True)
    if args.workload != "all":
        detail, result = run_workload(binary, args.workload, args)
        print("\n".join(detail))
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        detail, result = run_workload(binary, workload, args)
        print("\n".join(detail), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            rows.append((workload, name, metric["value"], metric["unit"]))
        rows.append((workload, "failed", f"{result['failed']} of {result['attempted']}", ""))
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<9} {name:<34} {shown:>16} {unit}")
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
