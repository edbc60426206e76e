"""The tracer misses no calls: on a tiny fixed input, every wrapper's count
equals the number of calls ``sys.setprofile`` sees on the wrapped code."""

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import flagiso.decide  # noqa: E402
import flagiso.orders  # noqa: E402
import tracing  # noqa: E402
import workloads as WL  # noqa: E402


def tiny_ops():
    """The first three operations of each kind from every workload's canary."""
    ops = []
    for build in WL.CANARY.values():
        seen = Counter()
        for kind, args in build()[0]:
            seen[kind] += 1
            if seen[kind] <= 3:
                ops.append((kind, args))
    return ops


def test_wrapper_counts_match_profiler():
    ops = tiny_ops()
    normalize = flagiso.orders.normalize
    tracer = tracing.Tracer()
    originals = tracer.install()
    codes = {fn.__code__: name for name, fn in originals.items()}
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        for i, (kind, args) in enumerate(ops):
            tracer.run_op(i, WL.OPS[kind], args)
    finally:
        sys.setprofile(None)
        tracer.uninstall()

    assert set(seen) == set(originals), "the tiny input must reach every traced function"
    assert dict(tracer.calls) == dict(seen)
    assert flagiso.decide.normalize is normalize  # uninstall restores every binding

    self_s, op_s = tracer.self_times()
    assert abs(sum(self_s.values()) - op_s) < 1e-6 * max(1.0, op_s)
