"""Machine-speed calibration of the worker's op times.

Times are reported in reference seconds.  The machine the benchmark was
built on is shared: identical work drifts by 30-50 % over tens of seconds, as
other load comes and goes, which no run length averages away.  So the worker
times a fixed interpreter-bound kernel about every ``CAL_EVERY_S`` seconds of
its loop and scales each op's wall time by ``CAL_REF_S`` over the kernel time
taken just before the op.  The kernel uses no flagiso code, so a change to
the program moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from time import perf_counter

CAL_EVERY_S = 0.1
CAL_REF_S = 0.0011  # the kernel's time that defines one reference second


_TEXT = " + ".join(["seq[1,2,inf]", "omega(3)", "omegastar(2)"] * 8)
_M = tuple(tuple(Fraction((i * j) % 5 - 2, 1 + (i + j) % 3) for j in range(6)) for i in range(6))


def _kernel():
    """Interpreter-bound work in the style of the program's inner loops, with
    as much allocation: permutations kept as tuples, a Fraction matrix
    product, tokenizing an order text."""
    kept = [w for w in itertools.permutations(range(6)) if w[0] < w[-1]]
    inversions = sum(1 for w in kept for i in range(5) if w[i] > w[i + 1])
    cols = tuple(zip(*_M))
    prod = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in _M)
    atoms = [a.strip() for a in _TEXT.split("+")]
    sizes = [tuple(a[a.index("[") + 1:-1].split(",")) for a in atoms if a[0] == "s"]
    return inversions, prod, sizes


def calibrate():
    """Best of three timings of the calibration kernel."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best
