#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

Usage (from the repository root):

    python3 perfbench/report.py [--workloads dense_mw,home_contended,sync_many]
                                [--seeds 1,2,3 | --runs N] [--seconds S] [--trace]

For each workload it runs the command in BENCHMARK.json once per seed, one
run at a time, and prints each metric's median, first and third quartile
(Python's ``statistics.quantiles(values, n=4)``) and their distance as a share
of the median. Each end-to-end metric's spread is checked against a third of
its bound from BENCHMARK.json, except ``setup_s``: set-up takes well under a
second, so only its median is meaningful. With ``--trace`` it reports the
per-layer metrics instead. It exits non-zero if any run fails, reports a
failed cell, or exceeds a spread limit.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", default=None)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = ([int(s, 0) for s in opts.seeds.split(",")] if opts.seeds
             else list(range(1, opts.runs + 1)))
    seconds = opts.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in workloads:
        results = []
        for seed in seeds:
            r = run_once(spec["command"], workload, seed, seconds, opts.trace)
            times = ", ".join(f"{k}={v['value']:.4f}" for k, v in r["metrics"].items()
                              if v["unit"] == "s")
            print(f"# {workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} {times}", flush=True)
            ok &= r["correct"] and r["failed"] == 0
            results.append(r)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(seeds)} runs x {seconds} s, seeds {seeds}")
        print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  unit")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            flag = ""
            if name in bounds and name != "setup_s" and rel > bounds[name] / 3:
                flag = f"  > bound/3 ({bounds[name] / 3:.4f})"
                ok = False
            print(f"  {name:<26} {med:>14.6f} {q1:>14.6f} {q3:>14.6f} {rel:>8.4f}  "
                  f"{first['unit']}{flag}")
        print(f"  {'failed_frac':<26} {failed / attempted:>14.6f}"
              f"{'':>38}  frac ({failed} of {attempted} simulations)\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
