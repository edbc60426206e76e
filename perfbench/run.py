"""Run one workload of the flagiso benchmark and print its metrics.

    python3 perfbench/run.py --workload ind-decide --seed 1 --seconds 20 --trace 0

Set-up: the median time (in reference seconds, see ``calibration``) of fresh
interpreters that import ``flagiso`` and ``flagiso.cli`` (what every
``flagiso`` command pays first), about one for every half second of
repetitions, started between them so the samples span the run.  Repetitions
of the workload run one at a time, each in a fresh interpreter
(``worker.py``), until ``--seconds`` are used.  The first repetition builds
the seeded inputs, checks every output and saves the inputs for the later
repetitions, which must see the same input digest and produce the same
outputs; building and checking do not count against ``--seconds``.  With
``--trace 1`` every untraced repetition is followed by a traced one and the
per-layer metrics are printed instead of the end-to-end ones.  The last line
of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import CAL_REF_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_MIN = 4  # set-up samples before the first repetition
SETUP_EVERY_S = 0.5  # and one more for every this many seconds of repetitions
HARD_LIMIT_S = 170  # the whole run, set-up included, ends before this

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


class BenchError(Exception):
    pass


def _env():
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def _run(cmd, deadline, capture=True):
    """Run cmd to its end and return its stdout.  The wait blocks until the
    process exits (``subprocess.run`` with a timeout would poll in sleeps of
    up to 50 ms, which would quantize the set-up times); a timer kills the
    process at the deadline instead."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), text=True,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    timer = threading.Timer(left, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
        timer.join()
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


SETUP_CMD = [sys.executable, "-c", "import flagiso, flagiso.cli"]


def measure_setup(deadline):
    """Time of one fresh interpreter importing the package and its CLI, in
    reference seconds: the wall time is scaled by the calibration kernel
    timed just before it, as the op times are."""
    cal = calibrate()
    start = time.perf_counter()
    _run(SETUP_CMD, deadline, capture=False)
    return (time.perf_counter() - start) * CAL_REF_S / cal


def run_worker(args, deadline, trace, first, inputs):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--inputs", str(inputs)]
    if first:
        cmd += ["--first", "1"]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}.tsv")]
    return json.loads(_run(cmd, deadline).splitlines()[-1])


def tail_index(n):
    """Index, in ascending order, of the highest percentile with at least ten
    samples beyond it."""
    return max(n - 11, 0)


def summarize(reps, setup_s):
    """End-to-end metrics from untraced repetitions.  Each op's latency is its
    median over the repetitions."""
    ops = reps[0]["ops"]
    per_op = sorted(statistics.median(r["latencies"][i] for r in reps) for i in range(ops))
    k = tail_index(ops)
    return {
        "ops_per_s": ops / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": per_op[k] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
    }, (f"p{100 * (k + 1) / ops:.2f} of {ops} per-op medians over {len(reps)} "
        f"repetitions; machine speed {statistics.median(r['speed'] for r in reps):.3f}"
        " of the reference")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "flagiso" / "__init__.py").is_file():
        print("error: no flagiso sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"inputs-{args.workload}-{args.seed}.pickle"
    try:
        _run(SETUP_CMD, deadline, capture=False)  # writes the bytecode caches
        setup, plain, traced = [], [], []
        # Seconds spent in repetitions, building inputs and checks excepted,
        # and in the last cycle of repetitions.
        used = cycle = 0.0
        while True:
            # Set-up samples are spread over the run, so that its median is not
            # that of a single moment of a machine whose speed drifts.
            while len(setup) < SETUP_MIN + used / SETUP_EVERY_S:
                setup.append(measure_setup(deadline))
            if plain and used + cycle > args.seconds:  # the next cycle would overrun
                break
            start = time.monotonic()
            plain.append(run_worker(args, deadline, 0, not plain, inputs))
            if args.trace:
                traced.append(run_worker(args, deadline, 1, False, inputs))
            cycle = time.monotonic() - start
            if len(plain) == 1:
                cycle -= plain[0]["build_s"] + plain[0]["check_s"]
            used += cycle
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        inputs.unlink(missing_ok=True)

    reps = plain + traced
    first = plain[0]
    attempted = sum(r["ops"] for r in reps)
    failed = sum(len(r["raised"]) for r in reps) + len(first["check_failed"])
    same_inputs = all(r["digest"] == first["digest"] for r in reps)
    same_outputs = all(r["outputs"] == first["outputs"] for r in reps if not r["raised"])
    correct = failed == 0 and same_inputs and same_outputs and first["canary_ok"]

    setup_s = statistics.median(setup)
    e2e, tail_note = summarize(plain, setup_s)
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(plain)}"
          f"{' + %d traced' % len(traced) if traced else ''}  set-up samples {len(setup)}")
    print(f"input digest {first['digest']}  canary {first['canary']}"
          f" ({'ok' if first['canary_ok'] else 'MISMATCH: flagiso.generate changed'})")
    if not same_inputs or not same_outputs:
        print("repetitions disagree on " + ("inputs" if not same_inputs else "outputs"))
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {e2e[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':<12} {failed / attempted:>14.6g}  ({failed} of {attempted} ops)")
    print(f"  op_tail_ms is the {tail_note}")

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = (
            summarize(traced, setup_s)[0]["ops_per_s"] / e2e["ops_per_s"])
        for name, value in layers.items():
            print(f"  {name:<48} {value:.6g}")
        op_s = layers["trace.op_s"] or 1.0
        linalg_calls = sum(v for k, v in layers.items()
                           if k.startswith("linalg.") and k.endswith(".calls"))
        kernel_s = layers["linalg.rref.self_s"] + layers["linalg.mat_mul.self_s"]
        print(f"  linalg calls {linalg_calls}; self time of rref+mat_mul {kernel_s / op_s:.3f}"
              f" and of poincare_polynomial "
              f"{layers['counting.poincare_polynomial.self_s'] / op_s:.3f} of op time")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
