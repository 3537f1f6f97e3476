#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Configures and builds perfbench/ (the
seer-htm libraries from ../src plus the measuring binary) into
.bench_build/perfbench, then runs one workload. Its output ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. Untraced runs
(--trace 0) report the end-to-end metrics; traced runs (--trace 1) the
per-layer metrics, and write sampled spans under .bench_build/traces/.

Exit status is the measuring binary's: 0 when every correctness check held,
non-zero on a violation, a failed build, or a missing source tree.

--self-test builds and runs the benchmark's own tests (C++ and Python).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ("sim-fig3", "sim-wide", "serve-mixed")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; build output goes to a log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", target])
    with open(log_path, "w") as out:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
            if r.returncode != 0:
                break
    if r.returncode != 0:
        tail = log_path.read_text(errors="replace").splitlines()[-25:]
        log("build failed:\n" + "\n".join(tail))
        sys.exit(1)
    return BUILD / target


def check_catalogue(result, trace):
    """The result's metrics must be exactly BENCHMARK.json's, with its units."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return
    spec = json.loads(spec_path.read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        log(f"metric catalogue drifted from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"unit mismatches {sorted(k for k in want if k in got and want[k] != got[k])}")
        sys.exit(1)


def run(args):
    binary = build("perfbench")
    TRACES.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--config", str(HERE / "serve_mixed.json"), "--trace-dir", str(TRACES)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if not lines:
        log(f"no output (exit {r.returncode})")
        return r.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not a result (exit {r.returncode})")
        return r.returncode or 1
    check_catalogue(result, args.trace)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


def self_test():
    binary = build("perfbench_test")
    status = subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", str(HERE),
                         "-p", "test_*.py"], timeout=RUN_TIMEOUT_S).returncode
    return status or py


def main():
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
