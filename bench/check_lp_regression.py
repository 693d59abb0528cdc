#!/usr/bin/env python3
"""Warm-resolve regression guard over BENCH_lp.json.

Compares a freshly produced Google-Benchmark JSON (bench-smoke's
BENCH_lp.json) against the committed baseline and fails when the geometric
mean of the per-entry real_time ratios (fresh / baseline) over the
BM_SimplexWarm/<n> family exceeds the allowed slowdown.

Only BM_SimplexWarm/ entries participate: they are the warm-reoptimization
path the LP kernel work optimizes for. The dense variant is informational
(kept for comparison runs) and machine noise on it should not gate a
commit. The 15% budget is deliberately loose for the same
reason — single-entry noise on a busy machine routinely exceeds 10%, but a
geomean drift past 15% across all three sizes has so far always been a real
regression.

Usage: check_lp_regression.py <fresh.json> <baseline.json> [max_slowdown]
                              [family_prefix]
Exit 0 on pass, 1 on regression or malformed input.

`family_prefix` selects which benchmark family gates (default
BM_SimplexWarm/), so the same guard can watch any archived bench family —
e.g. `check_lp_regression.py BENCH_redfix.json baseline.json 0.15
BM_RedcostFix/`.
"""

import json
import math
import sys

DEFAULT_FAMILY = "BM_SimplexWarm/"


def warm_times(path, family):
    with open(path) as f:
        data = json.load(f)
    times = {}
    for b in data.get("benchmarks", []):
        name = b.get("name", "")
        # Exact family only: BM_SimplexWarmDense/... etc. must not match.
        if not name.startswith(family):
            continue
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        times[name] = float(b["real_time"])
    return times


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 1
    max_slowdown = float(argv[3]) if len(argv) > 3 else 0.15
    family = argv[4] if len(argv) > 4 else DEFAULT_FAMILY
    fresh = warm_times(argv[1], family)
    base = warm_times(argv[2], family)

    common = sorted(set(fresh) & set(base))
    if not common:
        print(f"check_lp_regression: no common {family} entries "
              f"between {argv[1]} and {argv[2]}")
        return 1

    logsum = 0.0
    for name in common:
        ratio = fresh[name] / base[name]
        logsum += math.log(ratio)
        print(f"  {name}: {base[name]:.0f} ns -> {fresh[name]:.0f} ns "
              f"(x{ratio:.3f})")
    geomean = math.exp(logsum / len(common))
    limit = 1.0 + max_slowdown
    verdict = "OK" if geomean <= limit else "REGRESSION"
    print(f"check_lp_regression: geomean x{geomean:.3f} "
          f"(limit x{limit:.2f}) over {len(common)} entries -> {verdict}")
    return 0 if geomean <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
