#!/usr/bin/env python3
"""Does the benchmark agree with itself?

Runs every workload of BENCHMARK.json in two sets of N runs, each run with
another seed, exactly as the driver judges the benchmark: per end-to-end
metric it takes the distance between the first and third quartile of a
set's values (statistics.quantiles(values, n=4)) as a share of their
median, and compares the two sets' medians.

Per workload and metric it prints both medians, both spreads, the relative
difference of the medians in the metric's worse direction, and a verdict:

  ok          spread within the bound and the medians agree within it
  wide        as ok, but a spread is above a third of the bound
  unresolved  a spread is wider than the bound: a difference of this size
              cannot be told from noise (setup_s is exempt, as in the driver)
  violation   the second set's median is worse than the first's by more
              than the bound

Then it runs the traced mode twice per workload with one seed and checks
that every per-layer metric is printed and that the exact counts of the
single-threaded workloads repeat exactly.

Usage (from the repository root; `bash benchmark/run.sh --check-repeat` does
the same):
  python3 benchmark/check_repeat.py [--runs N] [--workloads a,b] [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Counts that depend on nothing but the seed when one thread runs the
# queries; wire_warm has two clients racing and is exempt.
EXACT_COUNTS = ["uct.slices", "multiway.steps", "codegen.orders"]
SINGLE_THREADED = {"job_cold", "tpch_prep", "torture_slices"}


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - started
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect result: {result}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    wanted = [w for w in args.workloads.split(",") if w]
    workloads = [w["name"] for w in spec["workloads"] if not wanted or w["name"] in wanted]
    raw, bad, slowest = {}, [], 0.0

    for workload in workloads:
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                runs.append(run_once(spec, workload, seed, seconds, 0))
                slowest = max(slowest, runs[-1]["wall_s"])
                print(f"  {workload} set {s + 1} seed {seed}: {runs[-1]['wall_s']:.1f} s",
                      file=sys.stderr)
            sets.append(runs)
        raw[workload] = sets
        print(f"\n{workload}: 2 sets of {args.runs} runs, {seconds} s each")
        print(f"  {'metric':<18}{'median 1':>14}{'spread 1':>10}{'median 2':>14}"
              f"{'spread 2':>10}{'worse by':>10}{'bound':>7}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            med = [statistics.median(v) for v in values]
            spr = [spread(v) for v in values]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (med[1] - med[0]) / med[0]
            if worse > bound:
                verdict = "violation"
            elif max(spr) > bound and name != "setup_s":
                verdict = "unresolved"
            elif max(spr) > bound / 3 and name != "setup_s":
                verdict = "wide"
            else:
                verdict = "ok"
            if verdict in ("violation", "unresolved"):
                bad.append(f"{workload}/{name}: {verdict}")
            print(f"  {name:<18}{med[0]:>14.4f}{spr[0]:>10.3f}{med[1]:>14.4f}"
                  f"{spr[1]:>10.3f}{worse:>+10.3f}{bound:>7.2f}  {verdict}")

    layer_names = {m["name"] for m in spec["per_layer"]}
    print("\ntraced runs (same seed twice):")
    for workload in workloads:
        pair = [run_once(spec, workload, args.first_seed, seconds, 1) for _ in range(2)]
        slowest = max([slowest] + [r["wall_s"] for r in pair])
        missing = layer_names ^ set(pair[0]["metrics"])
        if missing:
            bad.append(f"{workload}: per-layer names differ from BENCHMARK.json: {sorted(missing)}")
        counts = [{c: r["metrics"][c]["value"] for c in EXACT_COUNTS} for r in pair]
        repeats = counts[0] == counts[1]
        if workload in SINGLE_THREADED and not repeats:
            bad.append(f"{workload}: exact counts differ: {counts}")
        print(f"  {workload}: {len(pair[0]['metrics'])} per-layer metrics, counts "
              f"{'repeat exactly' if repeats else 'differ'}: {counts[0]}")
        raw[workload + "/traced"] = pair

    out = ROOT / "benchmark" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "check-repeat.json").write_text(json.dumps(raw))
    print(f"\nslowest run: {slowest:.1f} s; raw results in benchmark/out/check-repeat.json")
    if bad:
        print("NOT REPEATABLE:\n  " + "\n  ".join(bad))
        sys.exit(1)
    print("every end-to-end metric of every workload agrees within its bound")


if __name__ == "__main__":
    main()
