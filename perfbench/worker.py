"""One repetition of one workload, in a fresh interpreter.

The first repetition of a run builds the seeded inputs, saves them for the
later ones and checks the outputs after the loop; later repetitions load the
saved inputs.  Every repetition runs each operation once in a closed loop (one
operation at a time), optionally under the tracer.  Prints one JSON object on
the last line of stdout; ``run.py`` starts the worker and reads that line.

Latencies are in reference seconds; see ``calibration``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
import traceback
from time import perf_counter

import tracing
import workloads as WL
from calibration import CAL_EVERY_S, CAL_REF_S, calibrate


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WL.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--first", type=int, default=0, help="build, save and check")
    p.add_argument("--inputs", required=True, help="file for the built inputs")
    p.add_argument("--spans", default=None, help="file for the spans of a traced run")
    args = p.parse_args(argv)

    t0 = perf_counter()
    if args.first:
        ops, expect = WL.BUILD[args.workload](args.seed)
        with open(args.inputs, "wb") as f:
            pickle.dump((ops, expect), f)
    else:
        with open(args.inputs, "rb") as f:  # written by the first repetition
            ops, expect = pickle.load(f)
    out = {"digest": WL.digest(ops, expect), "ops": len(ops), "build_s": perf_counter() - t0}

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    results, latencies, raised, cals = [], [], [], []
    cal = calibrate()
    next_cal = perf_counter() + CAL_EVERY_S
    for i, (kind, op_args) in enumerate(ops):
        fn = WL.OPS[kind]
        if perf_counter() >= next_cal:
            cal = calibrate()
            next_cal = perf_counter() + CAL_EVERY_S
        cals.append(cal)
        start = perf_counter()
        try:
            result = tracer.run_op(i, fn, op_args) if tracer else fn(*op_args)
        except Exception:
            result = None
            raised.append(i)
            if len(raised) <= 3:
                traceback.print_exc(file=sys.stderr)
        latencies.append(perf_counter() - start)
        results.append(result)
    out["latencies"] = [t * CAL_REF_S / c for t, c in zip(latencies, cals)]
    out["speed"] = CAL_REF_S / sorted(cals)[len(cals) // 2]
    out["raised"] = raised
    if tracer:
        tracer.uninstall()
        out["layers"] = tracing.per_layer(tracer, len(ops))
        if args.spans:
            tracer.write_spans(args.spans)

    out["outputs"] = WL.digest(results, [])
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.first:
        t0 = perf_counter()
        try:
            bad = WL.CHECK[args.workload](ops, expect, results)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            bad = [(-1, "check", "the check raised")]
        for i, kind, msg in bad[:5]:
            print(f"check failed: op {i} ({kind}): {msg}", file=sys.stderr)
        out["check_failed"] = sorted({i for i, _, _ in bad} - set(raised))
        ops_c, expect_c = WL.CANARY[args.workload]()
        out["canary"] = WL.digest(ops_c, expect_c)
        out["canary_ok"] = out["canary"] == WL.CANARY_DIGESTS.get(args.workload)
        out["check_s"] = perf_counter() - t0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
