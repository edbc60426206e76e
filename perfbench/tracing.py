"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each listed public function with a wrapper in
every ``flagiso`` module that bound it (``decide`` does ``from .orders import
normalize``; ``witness`` calls ``la.rref`` through the module), so no call
path escapes.  Span functions record ``(name, start, end, parent, op)``; count
functions only count, so their time stays in the calling span.  A span's self
time is its duration minus the time its direct child spans cover.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

from flagiso.linalg import Rationals

# Layer -> functions timed as spans, and functions only counted.
SPANS = (
    "orders.parse_order", "orders.normalize", "orders.truncate",
    "descriptors.parse_descriptor", "descriptors.truncate_to_variety",
    "decide.decide_ind", "decide.decide_finite",
    "counting.poincare_polynomial", "counting.brute_force_count",
    "linalg.rref", "linalg.mat_mul", "linalg.nullspace", "linalg.rowspace_contains",
    "witness.flag_point", "witness.standard_extension",
    "witness.compose_standard_extensions", "witness.apply_standard_extension",
    "witness.check_triangle", "witness.rebase_automorphism",
    "witness.exhaustion_step", "witness.bd_phi", "witness.bd_square_check",
)
COUNTS = (
    "orders.rewrite_step", "descriptors.validate", "counting.point_count",
    "counting.dimension", "linalg.inverse",
)
OP = "bench.op"  # the root span of one benchmark operation


def _resolve(qualname):
    mod, func = qualname.split(".")
    return getattr(sys.modules[f"flagiso.{mod}"], func)


class Tracer:
    def __init__(self):
        self.names = [OP, *SPANS]
        self.fid = {n: i for i, n in enumerate(self.names)}
        # One entry per span, in start order.
        self.kind = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op = -1
        self.calls = Counter()
        self.extra = Counter()
        self.poincare_keys = set()
        self._patched = []

    # -- recording -----------------------------------------------------------

    def _open(self, fid):
        idx = len(self.kind)
        self.kind.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_op(self, op_id, fn, args):
        self.op = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _span_wrapper(self, qualname, fn):
        fid = self.fid[qualname]
        hook = _HOOKS.get(qualname)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            idx = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, qualname, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every listed function under every name a flagiso module binds
        it to.  Returns the originals, keyed by qualified name."""
        originals = {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "flagiso" or n.startswith("flagiso."))]
        for qualname in SPANS + COUNTS:
            fn = _resolve(qualname)
            originals[qualname] = fn
            make = self._span_wrapper if qualname in SPANS else self._count_wrapper
            wrapper = make(qualname, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))
        return originals

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(seconds of self time per function name, total op seconds)."""
        n = len(self.kind)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = Counter()
        for i in range(n):
            out[self.names[self.kind[i]]] += self.end[i] - self.start[i] - child[i]
        op_total = sum(self.end[i] - self.start[i] for i in range(n) if self.kind[i] == 0)
        return out, op_total

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.kind)):
                f.write(f"{self.names[self.kind[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_of[i]}\n")


# Extra counters taken from a call's arguments and result.


def _hook_normalize(t, args, kwargs, result):
    t.extra["orders.normalize.atoms_in"] += len(args[0].atoms)


def _hook_rref(t, args, kwargs, result):
    a, field = args[0], args[1] if len(args) > 1 else kwargs["field"]
    rows = len(a)
    t.extra["linalg.rref.cells"] += rows * (len(a[0]) if rows else 0)
    t.extra["linalg.rref.qq"] += isinstance(field, Rationals)
    t.extra["linalg.rref.canonical"] += result[0] == tuple(map(tuple, a))


def _hook_mat_mul(t, args, kwargs, result):
    a, b = args[0], args[1]
    r, k = len(a), len(b)
    c = len(b[0]) if k else 0
    t.extra["linalg.mat_mul.madds"] += r * k * c
    t.extra["linalg.mat_mul.left_entries"] += r * k
    t.extra["linalg.mat_mul.left_zeros"] += sum(1 for row in a for x in row if not x)


def _hook_poincare(t, args, kwargs, result):
    v = args[0]
    t.poincare_keys.add((v.lie_type, v.ambient_dim, tuple(v.dims)))


_HOOKS = {
    "orders.normalize": _hook_normalize,
    "linalg.rref": _hook_rref,
    "linalg.mat_mul": _hook_mat_mul,
    "counting.poincare_polynomial": _hook_poincare,
}


def per_layer(tracer, ops_done):
    """The per-layer metrics of one traced repetition."""
    self_s, op_s = tracer.self_times()
    calls, extra = tracer.calls, tracer.extra

    def share(num, den):
        return num / den if den else 0.0

    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in COUNTS:
        out[f"{name}.calls"] = calls[name]
    out["orders.normalize.atoms_in"] = extra["orders.normalize.atoms_in"]
    out["descriptors.validate.per_op"] = share(calls["descriptors.validate"], ops_done)
    out["counting.poincare_polynomial.distinct_share"] = share(
        len(tracer.poincare_keys), calls["counting.poincare_polynomial"])
    out["linalg.rref.cells"] = extra["linalg.rref.cells"]
    out["linalg.rref.canonical_share"] = share(extra["linalg.rref.canonical"], calls["linalg.rref"])
    out["linalg.rref.qq_share"] = share(extra["linalg.rref.qq"], calls["linalg.rref"])
    out["linalg.mat_mul.madds"] = extra["linalg.mat_mul.madds"]
    out["linalg.mat_mul.zero_share"] = share(
        extra["linalg.mat_mul.left_zeros"], extra["linalg.mat_mul.left_entries"])
    out["trace.op_s"] = op_s
    return out
