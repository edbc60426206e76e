"""Steadiness check: run each workload with several seeds and report, per
end-to-end metric, the median, the quartiles and the spread (interquartile
range over median) against the metric's bound in BENCHMARK.json.  Seeds are
1 to --runs; the exit code is 1 if a run is incorrect or a spread is over its
bound.

    python3 perfbench/steadiness.py                      # 10 seeds, every workload
    python3 perfbench/steadiness.py --runs 5 --workloads witness-qq
    python3 perfbench/steadiness.py --record             # also one traced run
                                                         # each; writes BASELINE.json

Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "samples": len(values), "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--record", action="store_true",
                   help="write the run workloads' entries to perfbench/BASELINE.json")
    args = p.parse_args(argv)

    seconds = bench["run_seconds"]
    report = {"nproc": os.cpu_count(), "machine": platform.machine(),
              "python": platform.python_version(), "run_seconds": seconds,
              "seeds": [1, args.runs], "workloads": {}}
    steady = True
    for w in args.workloads:
        runs = [run_once(w, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        steady &= entry["correct"]
        print(f"{w}: correct={entry['correct']} failed={entry['failed']} of {entry['attempted']}")
        for m in bench["end_to_end"]:
            s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            entry["end_to_end"][m["name"]] = s
            ok = s["spread"] <= m["bound"]
            steady &= ok
            print(f"  {m['name']:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f} (bound {m['bound']}, "
                  f"target {m['bound'] / 3:.3f}){'' if ok else '  OVER BOUND'}")
        if args.record:
            traced = run_once(w, 1, seconds, 1)
            entry["per_layer_seed"] = 1
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            print(f"  trace.overhead_ratio {entry['per_layer']['trace.overhead_ratio']:.3f}")
        report["workloads"][w] = entry
    if args.record:
        # Workloads not run this time keep their recorded entries.
        path = HERE / "BASELINE.json"
        if path.exists():
            report["workloads"] = {**json.loads(path.read_text())["workloads"],
                                   **report["workloads"]}
        path.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
