"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a dynball checkout:

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--trace] [--write perfbench/baseline.json]

For every workload it runs ``run.py`` once per seed (seeds first-seed,
first-seed+1, ...) at BENCHMARK.json's ``run_seconds`` and prints, per
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
the quartile distance as a share of the median next to the metric's
bound.  ``--trace`` adds one traced run per workload and keeps every
non-zero layer metric it reports.  ``--write`` stores the medians as a baseline record.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), took


def main(argv=None) -> int:
    contract = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    record = {"machine": machine.facts(Path.cwd()), "run_seconds": seconds,
              "runs": args.runs, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
              "workloads": {}}
    worst_ok = True
    for workload in args.workloads.split(","):
        results, durations = [], []
        for i in range(args.runs):
            res, took = run_once(workload, args.first_seed + i, seconds, False)
            results.append(res)
            durations.append(took)
        entry = {"end_to_end": {}, "ops_attempted": sum(r["attempted"] for r in results),
                 "ops_failed": sum(r["failed"] for r in results),
                 "run_wall_s_max": max(durations)}
        print(f"{workload}: {args.runs} runs, longest {max(durations):.1f} s; error_rate "
              f"{entry['ops_failed'] / entry['ops_attempted']:.6g} fraction "
              f"({entry['ops_failed']} of {entry['ops_attempted']} ops failed)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            ok = share < bound / 3
            worst_ok &= ok
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": share, "bound": bound}
            print(f"  {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {share:.4f}  bound {bound}  {'ok' if ok else 'WIDE'}  "
                  f"values {' '.join(f'{v:.4g}' for v in values)}")
        if args.trace:
            res, took = run_once(workload, args.first_seed, seconds, True)
            # the run's full record also holds the layers a workload alone reaches
            traced = json.loads((Path(".perfbench_out") / workload / "result.json").read_text())
            entry["per_layer"] = {k: v for k, v in traced["metrics"].items()
                                  if v and k not in bounds}
            entry["per_layer_run_s"] = took
            print(f"  traced run: {took:.1f} s, correct={res['correct']}")
        record["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
