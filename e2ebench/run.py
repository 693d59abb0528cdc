#!/usr/bin/env python3
"""End-to-end benchmark: build the `e2e` driver and run workloads.

Run from the repository root:

  python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last stdout line is one JSON object with
      `correct`, `attempted`, `failed` and `metrics`: every end_to_end metric
      of BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.

  python3 e2ebench/run.py [--seed N] [--seconds S] [--repeat K]
                          [--trace 0|1] [--out DIR]
      Every workload, K seeds from N on, untraced and traced (or only the
      given --trace); prints every metric by name with its unit and the
      cost-model calibration table, and (with --out) keeps each run's full
      record for compare.py.

  python3 e2ebench/run.py --quick
      Smoke run: one small instance per workload, traced and untraced, with
      every check (a few seconds).

The driver is built from ../src into $CARGO_TARGET_DIR (default
.bench_build) on first use. Instance files go to .bench_work/, traces
(Chrome trace-event JSON, opens in Perfetto) to .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: solver sources (src/) not found next to e2ebench/")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2e", "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run.py: build failed: {e}")
            return None
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(out, "e2e")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_e2e(exe, workload, seed, seconds, trace):
    """One driver run; returns its JSON record (None if it printed none)."""
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(ROOT, ".bench_work")]
    if trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_out", f"trace-{workload}-s{seed}.json")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {workload} seed {seed}: {e}")
        return None
    lines = [l for l in res.stdout.splitlines() if l.startswith("{")]
    if not lines:
        log(f"run.py: {workload} seed {seed}: no result (exit "
            f"{res.returncode})")
        return None
    rec = json.loads(lines[-1])
    for err in rec.get("errors", []):
        log(f"run.py: {workload} seed {seed}: {err}")
    return rec


def result_line(rec, specs):
    """The benchmark result object: exactly the metrics named in `specs`."""
    metrics = {}
    for spec in specs:
        m = rec["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            raise KeyError(f"driver did not report {spec['name']} "
                           f"[{spec['unit']}]")
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(rec["correct"]), "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def print_metrics(title, rec, specs):
    print(f"== {title}: {rec['passes']} passes, {rec['attempted']} solves, "
          f"{rec['failed']} failed, correct={rec['correct']}")
    for spec in specs:
        m = rec["metrics"][spec["name"]]
        print(f"  {spec['name']:<30} {m['value']:>14.6g} {m['unit']}")


def calibration_table(records):
    """us per charged work unit of base-solver step time, per workload and
    instance family; flags families more than 2x from the median."""
    rows = []
    for rec in records:
        for fam, c in sorted(rec.get("calibration", {}).items()):
            if c["units"] > 0:
                rows.append((rec["workload"], fam,
                             1e6 * c["step_s"] / c["units"]))
    if not rows:
        return
    med = statistics.median(r[2] for r in rows)
    print(f"== cost-model calibration (median {med:.2f} us/unit; the "
          f"simulator charges 100 us/unit)")
    for wl, fam, us in rows:
        flag = "  <-- >2x from median" if us > 2 * med or us < med / 2 else ""
        print(f"  {wl:<12} {fam:<4} {us:8.2f} us/unit{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    if args.quick:
        return subprocess.run([exe, "--quick", "--work-dir",
                               os.path.join(ROOT, ".bench_work")],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    if args.workload:
        trace = args.trace or 0
        rec = run_e2e(exe, args.workload, args.seed, seconds, trace)
        if rec is None:
            return 1
        specs = bench["per_layer" if trace else "end_to_end"]
        print_metrics(f"{args.workload} seed {args.seed}", rec, specs)
        print(json.dumps(result_line(rec, specs)))
        return 0 if rec["correct"] else 1

    # Every workload, untraced and traced.
    ok = True
    traced = []
    traces = (0, 1) if args.trace is None else (args.trace,)
    for w in bench["workloads"]:
        for k in range(args.repeat):
            seed = args.seed + k
            for trace in traces:
                rec = run_e2e(exe, w["name"], seed, seconds, trace)
                if rec is None:
                    ok = False
                    continue
                specs = bench["per_layer" if trace else "end_to_end"]
                print_metrics(f"{w['name']} seed {seed} trace {trace}", rec,
                              specs)
                ok = ok and rec["correct"]
                if trace:
                    traced.append(rec)
                if args.out:
                    os.makedirs(args.out, exist_ok=True)
                    name = f"{w['name']}-s{seed}-t{trace}.json"
                    with open(os.path.join(args.out, name), "w") as f:
                        json.dump(rec, f)
    calibration_table(traced)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
