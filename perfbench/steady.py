#!/usr/bin/env python3
"""Steadiness and comparison helper for the repository benchmark.

Run each workload once per seed and record the end-to-end metrics:

    python3 perfbench/steady.py run --workloads all --seeds 1-10 \\
        --seconds 20 --out .bench_build/perfbench/runs-parent.json

prints, per workload and metric, the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.

Compare two recorded sets of runs (e.g. parent commit vs change, measured
with the same benchmark code and settings):

    python3 perfbench/steady.py compare BASE.json NEW.json

prints one row per workload and metric: both medians, the change in the
"worse" direction as a share of the base median, the bound, and a verdict:
"ok" (not worse by more than the bound), "WORSE", or "unresolved" when the
base runs spread wider than the bound (unless every new run beats every base
run). Exits 1 if any
row is WORSE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def summarize(runs, metrics):
    print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}  spread/bound")
    for name, m in metrics.items():
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        if not values:
            continue
        q1, q2, q3 = quartiles(values)
        sp = spread(values)
        print(f"  {name:22s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{sp:8.4f} {m['bound']:6.3f}  {sp / m['bound']:.2f}")


def cmd_run(args):
    spec, metrics = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    for w in workloads:
        runs = record.setdefault(w, [])
        for seed in parse_seeds(args.seeds):
            cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    for w in workloads:
        print(f"{w} ({len(record[w])} runs)")
        summarize(record[w], metrics)
    return 0


def cmd_compare(args):
    _, metrics = load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    worse_any = False
    print(f"{'workload':18s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for w in base:
        if w not in new:
            print(f"{w:18s} (missing from {args.new})")
            continue
        for name, m in metrics.items():
            b = [r["metrics"][name]["value"] for r in base[w]]
            n = [r["metrics"][name]["value"] for r in new[w]]
            mb, mn = statistics.median(b), statistics.median(n)
            sign = 1 if m["better"] == "lower" else -1
            worse_by = sign * (mn - mb) / abs(mb) if mb else 0.0
            all_better = max(n) < min(b) if sign == 1 else min(n) > max(b)
            if spread(b) > m["bound"]:
                # Too noisy to call "unchanged" at this bound.
                verdict = "ok" if all_better else "unresolved"
            elif worse_by <= m["bound"]:
                verdict = "ok"
            else:
                verdict = "WORSE"
                worse_any = True
            print(f"{w:18s} {name:20s} {mb:12.6g} {mn:12.6g} "
                  f"{worse_by:+9.4f} {m['bound']:6.3f}  {verdict}")
    return 1 if worse_any else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default="all",
                   help="comma-separated names, or 'all'")
    r.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    r.add_argument("--seconds", type=int, default=None,
                   help="run length (default: BENCHMARK.json run_seconds)")
    r.add_argument("--out", required=True,
                   help="JSON record; runs are appended to it")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "run":
        if args.seconds is None:
            args.seconds = load_spec()[0]["run_seconds"]
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
