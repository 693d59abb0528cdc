#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

  python3 e2ebench/compare.py A B [--write-baseline FILE]

A and B are directories of run records written by `run.py --out DIR`, or
baseline files such as e2ebench/baseline.json. For every workload and
end-to-end metric it prints each side's median and quartiles over the runs
and a verdict against the metric's bound from BENCHMARK.json:

  ok          B's median is not worse than A's by more than the bound
  better      B's median is better than A's by more than the bound
  REGRESSION  B's median is worse than A's by more than the bound
  unresolved  either side's quartile spread exceeds the bound, unless every
              run of B is better than every run of A

Every workload is deterministic, so work_units of runs of the same commit
must repeat exactly for every seed both sides ran; any difference is
listed (across commits it shows that the search changed). Exit
status 1 on a regression or a failed run. With --write-baseline the runs of
A are saved as a baseline file.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
KEEP = ("workload", "seed", "trace", "correct", "attempted", "failed",
        "metrics")


def load_runs(path):
    if os.path.isdir(path):
        runs = []
        for f in sorted(glob.glob(os.path.join(path, "*.json"))):
            with open(f) as fh:
                runs.append(json.load(fh))
        return runs
    with open(path) as fh:
        return json.load(fh)["runs"]


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(spec, a, b):
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    ma, _, _, sa = stats(a)
    mb, _, _, sb = stats(b)
    worse = ((mb - ma) if lower else (ma - mb)) / abs(ma) if ma else 0.0
    if sa > bound or sb > bound:
        all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
        return ("better" if all_better else "unresolved"), worse
    if worse > bound:
        return "REGRESSION", worse
    if worse < -bound:
        return "better", worse
    return "ok", worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b", nargs="?")
    ap.add_argument("--write-baseline")
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs_a = load_runs(args.a)
    if args.write_baseline:
        trimmed = [{k: r[k] for k in KEEP} for r in runs_a]
        with open(args.write_baseline, "w") as fh:
            json.dump({"runs": trimmed}, fh, indent=1)
            fh.write("\n")
    if not args.b:
        return 0
    runs_b = load_runs(args.b)

    bad = False
    for side, runs in (("A", runs_a), ("B", runs_b)):
        for r in runs:
            if not r["correct"]:
                print(f"{side}: {r['workload']} seed {r['seed']} "
                      f"incorrect ({r['failed']} of {r['attempted']} failed)")
                bad = True

    print(f"{'workload':<12} {'metric':<12} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        ra = [r for r in runs_a if r["workload"] == name and not r["trace"]]
        rb = [r for r in runs_b if r["workload"] == name and not r["trace"]]
        if not ra or not rb:
            print(f"{name:<12} (no untraced runs on one side)")
            continue
        for spec in bench["end_to_end"]:
            a = [r["metrics"][spec["name"]]["value"] for r in ra]
            b = [r["metrics"][spec["name"]]["value"] for r in rb]
            v, worse = verdict(spec, a, b)
            bad = bad or v == "REGRESSION"
            fa = "{:.5g} [{:.5g}, {:.5g}]".format(*stats(a)[:3])
            fb = "{:.5g} [{:.5g}, {:.5g}]".format(*stats(b)[:3])
            print(f"{name:<12} {spec['name']:<12} {fa:>32} {fb:>32} "
                  f"{-worse:+8.1%}  {v} (bound {spec['bound']:.0%}, "
                  f"spread {stats(a)[3]:.1%} / {stats(b)[3]:.1%})")
        units_a = {r["seed"]: r["metrics"]["work_units"]["value"] for r in ra}
        units_b = {r["seed"]: r["metrics"]["work_units"]["value"] for r in rb}
        common = sorted(set(units_a) & set(units_b))
        diff = [s for s in common if units_a[s] != units_b[s]]
        state = "identical" if not diff else f"differ on seeds {diff}"
        print(f"{name:<12} work_units per seed: {state} "
              f"({len(common)} paired seeds)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
