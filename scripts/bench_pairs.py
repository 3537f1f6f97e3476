#!/usr/bin/env python3
"""Interleaved before/after runs of the repository benchmark.

    scripts/bench_pairs.py REF [--workload W]... [--pairs N] [--seconds S]
                               [--seed N] [--out FILE]

Checks REF out into a temporary `git worktree` (the "before" side) and
runs `perfbench/run.py --trace 0` there and in this checkout (the "after"
side, working tree as it stands) alternately, N pairs per workload. The
side that runs first alternates pair by pair, so drift on a shared host
biases neither side. Each side's run.py builds its own tree into its own
.bench_build/ on first use.

Every run's `attempted`/`failed` counts and exit status are kept, so a
change that fails a larger share of operations shows up here, not after
submission. The series JSON (stdout, or --out) holds every run, the
failure totals per side, and per end-to-end metric of BENCHMARK.json the
median and quartiles of each side (perfbench/compare.py's summary), the
pairs the after side won, and the ratio of medians. Exit status 1 when any
run failed an operation or exited non-zero, on either side.
"""
import argparse
import contextlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import compare  # noqa: E402  (perfbench/compare.py)

RUN_TIMEOUT_S = 1200


def run_perfbench(tree, workload, seed, seconds):
    """One `perfbench/run.py` run in `tree`: (exit status, result or None)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S, check=False)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return r.returncode, None


@contextlib.contextmanager
def ref_worktree(ref):
    """REF checked out in a temporary worktree, removed afterwards."""
    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    tree = Path(tmp) / "ref"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                    str(tree), ref], check=True, stdout=subprocess.DEVNULL)
    try:
        yield tree
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                        str(tree)], check=False, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        subprocess.run(["rm", "-rf", tmp], check=False)


def run_pairs(trees, workload, pairs, seed, seconds, runner=run_perfbench, log=None):
    """`pairs` alternating runs of both sides; one record per run.

    `trees` maps "before"/"after" to a checkout. A run whose output carries
    no result counts as correct=False with nothing attempted.
    """
    records = []
    for i in range(pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for position, side in enumerate(order):
            status, result = runner(trees[side], workload, seed, seconds)
            result = result or {}
            rec = {
                "workload": workload, "pair": i, "side": side, "first": position == 0,
                "exit": status,
                "correct": bool(result.get("correct", False)),
                "attempted": int(result.get("attempted", 0)),
                "failed": int(result.get("failed", 0)),
                "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
            }
            records.append(rec)
            if log:
                log(f"{workload} pair {i} {side}: exit {status}, "
                    f"failed {rec['failed']}/{rec['attempted']}")
    return records


def failure_totals(records):
    """Per side: runs, attempted and failed operations, and bad runs."""
    out = {}
    for side in ("before", "after"):
        mine = [r for r in records if r["side"] == side]
        out[side] = {
            "runs": len(mine),
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "bad_runs": sum(1 for r in mine
                            if r["exit"] != 0 or not r["correct"] or r["failed"]),
        }
    return out


def metric_results(records, bench):
    """Per end-to-end metric: both sides' summaries, wins and median ratio."""
    results = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        by_pair = {}
        for r in records:
            if name in r["metrics"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
        full = [p for p in by_pair.values() if len(p) == 2]
        if not full:
            continue
        before = [p["before"] for p in full]
        after = [p["after"] for p in full]
        if m["better"] == "lower":
            wins = sum(1 for p in full if p["after"] < p["before"])
        else:
            wins = sum(1 for p in full if p["after"] > p["before"])
        sb, sa = compare.summary(before), compare.summary(after)
        results[name] = {
            "pairs": len(full), "better": m["better"],
            "before": sb, "after": sa, "wins": wins,
            "ratio_median": sa["median"] / sb["median"] if sb["median"] else None,
        }
    return results


def series(ref, workloads, records, bench, seed, seconds):
    """The series JSON document."""
    return {
        "ref": ref,
        "method": {
            "command": f"python3 perfbench/run.py --workload W --seconds {seconds} "
                       f"--seed {seed} --trace 0",
            "pairs": "REF in a temporary git worktree against this checkout, run "
                     "alternately, the side that runs first alternating pair by pair",
            "statistic": "median with first and third quartiles over each side's runs",
        },
        "workloads": {
            w: {
                "failures": failure_totals([r for r in records if r["workload"] == w]),
                "results": metric_results([r for r in records if r["workload"] == w],
                                          bench),
            }
            for w in workloads
        },
        "runs": records,
    }


def main(argv=None, runner=run_perfbench, worktree=ref_worktree):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ref", help="git revision of the before side")
    p.add_argument("--workload", action="append", choices=("sim-fig3", "sim-wide",
                                                           "serve-mixed"))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="write the series JSON here instead of stdout")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    workloads = args.workload or ["sim-fig3"]

    def log(msg):
        print(f"bench_pairs: {msg}", file=sys.stderr, flush=True)

    records = []
    with worktree(args.ref) as before:
        trees = {"before": before, "after": ROOT}
        for w in workloads:
            records += run_pairs(trees, w, args.pairs, args.seed, args.seconds,
                                 runner=runner, log=log)
    doc = series(args.ref, workloads, records, compare.load_benchmark(), args.seed,
                 args.seconds)
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    bad = sum(t["bad_runs"] for w in doc["workloads"].values()
              for t in w["failures"].values())
    for w, v in doc["workloads"].items():
        for side, t in v["failures"].items():
            log(f"{w} {side}: {t['failed']}/{t['attempted']} operations failed, "
                f"{t['bad_runs']}/{t['runs']} runs bad")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
