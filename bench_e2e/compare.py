#!/usr/bin/env python3
"""Compares two sets of bench_e2e result files (.bench_out/result-*.json).

  python3 bench_e2e/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

For each workload and each end-to-end metric in BENCHMARK.json, prints the
median of each side and flags a regression when the new median is worse than
the base median by more than the metric's bound. Results from different
hosts (nproc, CPU model or L3 size differ) are reported as "not comparable"
instead: a number captured on another machine is a new baseline, not a
regression. Exit code 1 when a comparable metric regressed.
"""
import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "l3_cache")


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def host(run):
    return tuple(run["provenance"].get(k) for k in HOST_KEYS)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)

    hosts = {host(r) for r in base + new}
    if len(hosts) > 1:
        print("not comparable: results come from different hosts")
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)))
        return 0

    regressed = False
    workloads = sorted({r["report"]["workload"] for r in base + new})
    for w in workloads:
        b = [r["report"] for r in base if r["report"]["workload"] == w and r["report"]["trace"] == 0]
        n = [r["report"] for r in new if r["report"]["workload"] == w and r["report"]["trace"] == 0]
        if not b or not n:
            print(f"{w}: missing untraced runs on one side")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = statistics.median(r["metrics"][name]["value"] for r in b)
            nv = statistics.median(r["metrics"][name]["value"] for r in n)
            change = (nv - bv) / bv if bv else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            regressed |= verdict != "ok"
            print(f"{w:<14} {name:<22} base={bv:<12.6g} new={nv:<12.6g} "
                  f"change={change:+.1%} bound={m['bound']:.0%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
