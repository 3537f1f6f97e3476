#!/usr/bin/env python3
"""Run comparison for the repository benchmark.

Each input file holds result lines of `perfbench/run.py`, one JSON object
per line (the last stdout line of each run). Two uses:

  compare.py spread RUNS.jsonl
      per metric: median, quartiles and the spread (q3 - q1) / median, with
      each end-to-end metric's spread checked against its bound.

  compare.py regress BASE.jsonl NEW.jsonl
      per metric: whether NEW's median is worse than BASE's by more than
      the metric's bound, in the metric's own direction.

Bounds and directions come from BENCHMARK.json. Quartiles are those of
Python's statistics.quantiles(values, n=4). Exit status 1 when a check fails.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark(path=ROOT / "BENCHMARK.json"):
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    """Result objects from a JSONL file, skipping blank lines."""
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def summary(values):
    """Median, quartiles and relative spread of one metric's values."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread}


def worse_share(base, new, better):
    """How much worse `new` is than `base`, as a share of |base| (<= 0: not worse)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = new - base if better == "lower" else base - new
    return delta / abs(base)


def spread_report(runs, bench):
    """(metric, summary, ok) for every end-to-end metric present in `runs`."""
    rows = []
    for m in bench["end_to_end"]:
        values = metric_values(runs, m["name"])
        if not values:
            continue
        s = summary(values)
        ok = s["spread"] <= m["bound"]
        rows.append((m, s, ok))
    return rows


def regress_report(base_runs, new_runs, bench):
    """(metric, base summary, new summary, worse share, ok) per end-to-end metric."""
    rows = []
    for m in bench["end_to_end"]:
        a, b = metric_values(base_runs, m["name"]), metric_values(new_runs, m["name"])
        if not a or not b:
            continue
        sa, sb = summary(a), summary(b)
        w = worse_share(sa["median"], sb["median"], m["better"])
        rows.append((m, sa, sb, w, w <= m["bound"]))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("runs")
    r = sub.add_parser("regress")
    r.add_argument("base")
    r.add_argument("new")
    args = p.parse_args(argv)
    bench = load_benchmark()
    failed = False
    if args.cmd == "spread":
        runs = load_runs(args.runs)
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        print(f"{len(runs)} runs, {len(bad)} with failures")
        failed = bool(bad)
        for m, st, ok in spread_report(runs, bench):
            print(f"{m['name']:<16} median {st['median']:<14.6g} q1 {st['q1']:<14.6g} "
                  f"q3 {st['q3']:<14.6g} spread {st['spread']:.4f} "
                  f"(bound {m['bound']}) {'ok' if ok else 'TOO WIDE'}")
            failed |= not ok
    else:
        for m, sa, sb, w, ok in regress_report(load_runs(args.base),
                                               load_runs(args.new), bench):
            print(f"{m['name']:<16} base {sa['median']:<14.6g} new {sb['median']:<14.6g} "
                  f"worse by {w:+.4f} (bound {m['bound']}) {'ok' if ok else 'REGRESSED'}")
            failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
