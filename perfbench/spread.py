"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--seeds 10] [--workloads a,b] [--out FILE]

Runs ``BENCHMARK.json``'s command once per seed (1..N) and workload with
tracing off, then once per workload with tracing on at seed 0.  For each
end-to-end metric it prints the median and the distance between the first
and third quartile as a share of the median (``statistics.quantiles(values,
n=4)``), next to the metric's bound.  With ``--out`` it writes every value,
these summaries and the traced metrics as JSON (``perfbench/baseline.json``
holds the baseline recorded this way).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    names = args.workloads.split(",") if args.workloads else list(why)
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs = [run_once(spec, workload, seed, 0) for seed in range(1, args.seeds + 1)]
        entry = {"why": why[workload], "seeds": list(range(1, args.seeds + 1)),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs),
                 "elapsed_s": [r["elapsed_s"] for r in runs],
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            s = summary([r["metrics"][metric["name"]]["value"] for r in runs])
            entry["end_to_end"][metric["name"]] = s
            print(f"{workload:14s} {metric['name']:13s} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f} (bound {metric['bound']}) "
                  + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        traced = run_once(spec, workload, 0, 1)
        entry["traced_seed"] = 0
        entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_elapsed_s"] = traced["elapsed_s"]
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(report, fp, indent=1)
            fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
