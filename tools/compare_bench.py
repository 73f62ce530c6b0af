#!/usr/bin/env python3
"""Gate benchmark runs against checked-in BENCH_*.json baselines.

Usage: compare_bench.py BASELINE.json CURRENT.json [options]

Two classes of drift, handled differently:

  * Shape drift — schema version bump, bench renamed, a config knob changed,
    a metric from the baseline missing in the current run, a determinism
    flag that is no longer 1, or a `_ok` self-gate (a pass/fail verdict the
    bench computed against its own floor, e.g. producer_scaling_ok) that is
    no longer 1. These mean the two files are not measuring the same thing
    (or a bench-owned contract broke), so the comparison is meaningless:
    always a hard failure (exit 1). Extra metrics in the current run are
    fine (new instrumentation lands before its baseline is refreshed) and
    only noted.

  * Perf drift — a throughput metric (key ending in `_eps` or `_qps`) below
    baseline * (1 - tolerance). Wall-clock noise on shared CI runners makes
    this an unreliable hard gate, so by default it WARNS and exits 0;
    pass --hard-perf (e.g. on a quiet dedicated machine) to turn warnings
    into failures. The default tolerance is 30%; throughput must fall below
    70% of the committed number before anything is even reported.

Scales must match: comparing a small-scale smoke run against a full-scale
baseline silently flatters (or slanders) the current build, so mismatched
scales are shape drift, not a perf warning.

Host facts recorded in `config` (HOST_CONFIG_KEYS, e.g. the hardware thread
count the baseline was recorded on) describe the machine, not the workload:
a mismatch is printed as a note. Hardware-dependent verdicts are the benches'
own `_ok` self-gates, which judge against hardware-aware floors.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 1
PERF_SUFFIXES = ("_eps", "_qps")
HOST_CONFIG_KEYS = ("hardware_threads",)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot read {path}: {e}")
        sys.exit(1)
    for field in ("schema_version", "bench", "scale", "config", "metrics"):
        if field not in doc:
            print(f"FAIL: {path}: missing required field '{field}'")
            sys.exit(1)
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--tolerance", type=float, default=0.30,
        help="fractional throughput drop tolerated before reporting "
             "(default 0.30)")
    ap.add_argument(
        "--hard-perf", action="store_true",
        help="exit nonzero on perf regressions instead of warning")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    failures = []
    warnings = []

    # --- shape gate (always hard) ---
    if base["schema_version"] != SCHEMA_VERSION:
        failures.append(
            f"baseline schema_version {base['schema_version']} != "
            f"{SCHEMA_VERSION} (refresh the baseline)")
    if cur["schema_version"] != base["schema_version"]:
        failures.append(
            f"schema_version drift: baseline {base['schema_version']}, "
            f"current {cur['schema_version']}")
    if cur["bench"] != base["bench"]:
        failures.append(
            f"bench name drift: baseline '{base['bench']}', "
            f"current '{cur['bench']}'")
    if cur["scale"] != base["scale"]:
        failures.append(
            f"scale mismatch: baseline '{base['scale']}', current "
            f"'{cur['scale']}' — rerun at the baseline's scale")

    for key, want in sorted(base["config"].items()):
        have = cur["config"].get(key)
        if have is None:
            failures.append(f"config key '{key}' missing from current run")
        elif have != want and key in HOST_CONFIG_KEYS:
            print(f"note: baseline recorded with {key}={want}, this host "
                  f"has {have}; throughput comparisons are cross-host")
        elif have != want:
            failures.append(
                f"config drift: {key} baseline {want}, current {have}")

    for key in sorted(base["metrics"]):
        if key not in cur["metrics"]:
            failures.append(f"metric '{key}' missing from current run")
    extra = sorted(set(cur["metrics"]) - set(base["metrics"]))
    if extra:
        print(f"note: current run has metrics not in baseline: "
              f"{', '.join(extra)}")

    if "deterministic" in base["metrics"]:
        if cur["metrics"].get("deterministic") != 1:
            failures.append(
                "determinism contract broken: current run reports "
                f"deterministic={cur['metrics'].get('deterministic')}")

    # Self-judging gates: any baseline metric ending in `_ok` is a verdict
    # the bench computed against its own (e.g. hardware-aware) floor — 1
    # means pass. Unlike raw throughput these are not noise-sensitive, so a
    # 0 is always a hard failure (the producer-scaling floor rides this).
    for key in sorted(base["metrics"]):
        if key.endswith("_ok") and key in cur["metrics"]:
            if cur["metrics"][key] != 1:
                failures.append(
                    f"self-gate '{key}' failed: current run reports "
                    f"{cur['metrics'][key]} (bench-computed floor not met)")

    # --- perf gate (warn-only unless --hard-perf) ---
    if not failures:
        for key, want in sorted(base["metrics"].items()):
            if not key.endswith(PERF_SUFFIXES):
                continue
            have = cur["metrics"][key]
            floor = want * (1.0 - args.tolerance)
            verdict = "ok"
            if have < floor:
                verdict = "REGRESSION"
                warnings.append(
                    f"{key}: {have:.3g} is below {floor:.3g} "
                    f"(baseline {want:.3g} - {args.tolerance:.0%})")
            print(f"  {key:32s} baseline {want:12.4g}  "
                  f"current {have:12.4g}  {have / want:6.2f}x  {verdict}")

    for w in warnings:
        print(f"PERF {'FAIL' if args.hard_perf else 'WARNING'}: {w}")
    for f in failures:
        print(f"FAIL: {f}")

    if failures or (warnings and args.hard_perf):
        sys.exit(1)
    print(f"compare_bench: OK ({args.baseline} vs {args.current}"
          f"{', ' + str(len(warnings)) + ' perf warning(s)' if warnings else ''})")


if __name__ == "__main__":
    main()
