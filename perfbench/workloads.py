"""Seeded inputs, operations and output checks for the four workloads.

Each workload is a list of operations ``(kind, args)``; ``OPS[kind](*args)``
runs one operation the way a caller of the library would, starting from text
or plain tuples.  ``build(workload, seed)`` returns the operations together
with what the checks need to know about them.  The checks are owned by the
benchmark: they rebuild expected values from the construction of each input
or from closed formulas, never from ``tests/``.

Why each workload exists:

* ``ind-decide``: descriptor-text pairs through ``parse_descriptor`` and
  ``decide_ind``, plus ``dual``/``pic_rank``/``normalize`` on the same texts.
  ``orders`` and ``descriptors`` do almost all the work; ``linalg`` and
  ``counting`` do none.  Most pairs have at most 12 atoms and set the median;
  a few pairs of 1k-4k atoms set throughput, because ``normalize`` is
  quadratic in the number of atoms.
* ``finite-count``: every valid finite flag variety of rank <= 5 in types
  A/B/C/D, with ``point_count`` at several q, ``dimension`` and
  ``decide_finite``.  ``counting`` does nearly all the work.  Every variety is
  queried five times, so four fifths of the polynomial queries are repeats
  that hit the cache; ``counting.poincare_polynomial.distinct_share`` reports
  that share in the traced run.
* ``witness-qq``: witness construction and verification over QQ (rebase,
  standard extensions, compose and apply, pullbacks, the triangle, exhaustion
  steps).  ``linalg`` on ``Fraction`` matrices up to about 20x20 dominates.
* ``fp-enumerate``: the same witnesses over F_5 and F_7, the BD map and
  square, and brute-force flag counts: ``linalg`` on thousands of tiny
  matrices over F_p, where integer arithmetic and per-call overhead dominate,
  so a kernel change that only helps ``Fraction`` work shows here as no gain
  or a loss.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import fields, is_dataclass
from fractions import Fraction

import flagiso.counting as C
import flagiso.decide as decide
import flagiso.descriptors as D
import flagiso.generate as G
import flagiso.orders as O
import flagiso.witness as W
from flagiso import linalg as la
from flagiso.counting import point_count
from flagiso.decide import Verdict, decide_ind
from flagiso.descriptors import (
    FiniteFlagVariety,
    FlagDescriptor,
    FormType,
    dual,
    finite_flag_variety,
    min_truncation_width,
    parse_descriptor,
    render_descriptor,
    variety_violations,
)
from flagiso.linalg import QQ, PrimeField
from flagiso.orders import INF, Omega, OmegaStar, Seq, WeightedOrder, render_order

WORKLOADS = ("ind-decide", "finite-count", "witness-qq", "fp-enumerate")

# ---------------------------------------------------------------------------
# Operations.  Each returns a plain value the checks can compare.  They call
# the program through its modules, so the tracer's wrappers see every call.


def _op_decide(text_x, text_y):
    return decide.decide_ind(D.parse_descriptor(text_x), D.parse_descriptor(text_y)).verdict.value


def _op_normalize(text):
    d = D.parse_descriptor(text)
    return O.render_order(O.normalize(d.half if d.is_isotropic() else d.order))


def _op_dual(text):
    return D.render_descriptor(D.dual(D.parse_descriptor(text)))


def _op_pic_rank(text):
    r = D.pic_rank(D.parse_descriptor(text))
    return "inf" if r is INF else r


def _op_truncate(text):
    d = D.parse_descriptor(text)
    n = D.min_truncation_width(d) + 1
    v = D.truncate_to_variety(d, n)
    return n, v.lie_type, v.ambient_dim, v.dims


def _op_poincare(t, n, dims):
    return C.poincare_polynomial(D.finite_flag_variety(t, n, dims)).coefficients


def _op_points(t, n, dims, q):
    return C.point_count(D.finite_flag_variety(t, n, dims), q)


def _op_dim(t, n, dims):
    return C.dimension(D.finite_flag_variety(t, n, dims))


def _op_decide_finite(x, y):
    return decide.decide_finite(D.finite_flag_variety(*x), D.finite_flag_variety(*y)).verdict.value


def _op_rebase(chain, e, e2, form):
    return W.rebase_automorphism(chain, e, e2, form)


def _op_construct(d):
    return W.standard_extension(
        d.field, d.source_members, d.alpha, d.complement, d.filtration, d.kappa,
        strict=d.strict, source_form=d.source_form, target_form=d.target_form,
    )


def _op_compose_apply(d1, d2, points):
    """Compose once, then map each point through the composite and through
    the two factors; returns both images per point."""
    c = W.compose_standard_extensions(d1, d2)
    out = []
    for p in points:
        lhs = W.apply_standard_extension(c, p).subspaces
        rhs = W.apply_standard_extension(d2, W.apply_standard_extension(d1, p)).subspaces
        out.append((lhs, rhs))
    return out


def _op_pullback(d1, d2):
    c = W.compose_standard_extensions(d1, d2)
    m1, m2, mc = W.pic_pullback(d1), W.pic_pullback(d2), W.pic_pullback(c)
    return W.compose_pullbacks(m1, m2).entries == mc.entries and all(
        W.is_linear(m) for m in (m1, m2, mc)
    )


def _op_triangle(d1, d2, chi):
    rep = W.check_triangle(d1, d2, chi)
    return rep.ok, rep.beta


def _op_exhaustion(text, n):
    d = D.parse_descriptor(text)
    step = W.exhaustion_step(d, n)
    return W.apply_standard_extension(step, W.standard_point(d, n)).subspaces


def _op_bd_phi(n, point):
    return W.bd_phi(n, point).subspaces


def _op_bd_square(n, point):
    return W.bd_square_check(n, [point]).ok


def _op_brute(t, n, dims, q):
    return C.brute_force_count(D.finite_flag_variety(t, n, dims), q)


OPS = {
    "decide": _op_decide,
    "normalize": _op_normalize,
    "dual": _op_dual,
    "pic_rank": _op_pic_rank,
    "truncate": _op_truncate,
    "poincare": _op_poincare,
    "points": _op_points,
    "dim": _op_dim,
    "decide_finite": _op_decide_finite,
    "rebase": _op_rebase,
    "construct": _op_construct,
    "compose_apply": _op_compose_apply,
    "pullback": _op_pullback,
    "triangle": _op_triangle,
    "exhaustion": _op_exhaustion,
    "bd_phi": _op_bd_phi,
    "bd_square": _op_bd_square,
    "brute": _op_brute,
}

# ---------------------------------------------------------------------------
# Input digests.


def _canon(x):
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (tuple, list)):
        return [_canon(y) for y in x]
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in sorted(x.items())}
    if is_dataclass(x):
        return {f.name: _canon(getattr(x, f.name)) for f in fields(x)}
    return repr(x)


def digest(ops, expect) -> str:
    """Hash of the generated inputs and the expectations built with them."""
    text = json.dumps([_canon(ops), _canon(expect)], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# ind-decide.

# Atom counts of the long pairs, with the kind of each.  Fixed, so every seed
# has the same heavy tail; the seed picks the atoms.
IND_TAIL = ((1000, "reverse"), (2000, "middle"), (3000, "insert"), (4000, "insert"))
IND_SMALL_PAIRS = 1200
_KINDS = ("insert", "reverse", "double_dual", "form", "middle", "pic")


def _blocks(order):
    """Block count of an order, or "inf"; computed from the atoms directly."""
    if any(isinstance(a, (Omega, OmegaStar)) for a in order.atoms):
        return "inf"
    return sum(len(a.sizes) for a in order.atoms)


def _has_inf(order):
    return any(isinstance(a, (Omega, OmegaStar)) or INF in a.sizes for a in order.atoms)


def _long_order(rng, atoms):
    out = []
    while len(out) < atoms:
        out.extend(G.random_order(rng, 4).atoms)
    return WeightedOrder(tuple(out[: atoms - 1]) + (Omega(rng.randint(1, 4)),))


def _finite_seq_order(rng, atoms):
    """Only seq atoms with finite sizes, then one infinite block."""
    out = [Seq(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
           for _ in range(atoms - 1)]
    return WeightedOrder(tuple(out) + (Seq((INF,)),))


def _split_a_block(rng, order):
    """The same order with one finite block d >= 2 split in two."""
    spots = [
        (i, j) for i, a in enumerate(order.atoms) for j, s in enumerate(a.sizes)
        if s is not INF and s >= 2
    ]
    if not spots:
        return WeightedOrder((Seq((1,)),) + order.atoms)
    i, j = rng.choice(spots)
    a = order.atoms[i]
    s = a.sizes[j]
    cut = rng.randint(1, s - 1)
    sizes = a.sizes[:j] + (cut, s - cut) + a.sizes[j + 1 :]
    return WeightedOrder(order.atoms[:i] + (Seq(sizes),) + order.atoms[i + 1 :])


def _isotropic(form, half, middle):
    return FlagDescriptor(form, half=half, middle=middle)


def _pick_middle(rng, form, exclude=()):
    choices = [0, 2, 4, 6, INF] if form is FormType.SYMPLECTIC else [0, 1, 3, 4, 5, INF]
    return rng.choice([m for m in choices if m not in exclude])


def _ind_pair(rng, kind, atoms):
    """(x, y, expected verdict) for one pair kind, built so the verdict is
    known from the construction."""
    big = atoms is not None
    small_max = rng.randint(1, 12)

    def order_with_spot():
        while True:
            x = _long_order(rng, atoms) if big else G.random_infinite_order(rng, small_max)
            if any(isinstance(a, (Omega, OmegaStar)) for a in x.atoms):
                return x

    def infinite_half():
        while True:
            h = _long_order(rng, atoms) if big else G.random_order(rng, small_max)
            if _has_inf(h):
                return h

    # The long pairs keep one form per kind: the form changes how many times
    # decide_ind normalizes, and the long pairs set the workload's throughput.
    iso, non = Verdict.ISOMORPHIC.value, Verdict.NOT_ISOMORPHIC.value
    if kind == "insert":
        if big or rng.random() < 0.5:
            x = order_with_spot()
            return FlagDescriptor(FormType.GENERAL, order=x), FlagDescriptor(
                FormType.GENERAL, order=G.insert_absorbable(rng, x)), iso
        form = rng.choice((FormType.ORTHOGONAL, FormType.SYMPLECTIC))
        half = order_with_spot()
        middle = _pick_middle(rng, form)
        return (_isotropic(form, half, middle),
                _isotropic(form, G.insert_absorbable(rng, half), middle), iso)
    if kind == "reverse":
        x = _long_order(rng, atoms) if big else G.random_infinite_order(rng, small_max)
        return FlagDescriptor(FormType.GENERAL, order=x), FlagDescriptor(
            FormType.GENERAL, order=_reverse(x)), iso
    if kind == "double_dual":
        if rng.random() < 0.5:
            x = FlagDescriptor(FormType.GENERAL, order=G.random_infinite_order(rng, small_max))
        else:
            form = rng.choice((FormType.ORTHOGONAL, FormType.SYMPLECTIC))
            x = _isotropic(form, infinite_half(), _pick_middle(rng, form))
        return x, dual(dual(x)), iso
    if kind == "form":
        # Orthogonal descriptors are never isomorphic to the other types.
        half = infinite_half()
        x = _isotropic(FormType.ORTHOGONAL, half, _pick_middle(rng, FormType.ORTHOGONAL))
        if rng.random() < 0.5:
            y = _isotropic(FormType.SYMPLECTIC, half, _pick_middle(rng, FormType.SYMPLECTIC))
        else:
            y = FlagDescriptor(FormType.GENERAL, order=G.random_infinite_order(rng, small_max))
        return (x, y, non) if rng.random() < 0.5 else (y, x, non)
    if kind == "middle":
        # Same half, different middle; the orthogonal middles {0, 1} are left
        # out because they meet the exceptional pair on a maximal half.
        if big:
            form = FormType.SYMPLECTIC
        else:
            form = rng.choice((FormType.ORTHOGONAL, FormType.SYMPLECTIC))
        half = infinite_half()
        m1 = _pick_middle(rng, form, exclude=(1,))
        m2 = _pick_middle(rng, form, exclude=(1, m1))
        return _isotropic(form, half, m1), _isotropic(form, half, m2), non
    if kind == "pic":
        # Finite block counts that differ by one: neither the chains nor the
        # chain and the dual of the other can be isomorphic.
        x = _finite_seq_order(rng, rng.randint(1, min(small_max, 6)))
        y = _split_a_block(rng, x)
        if rng.random() < 0.5:
            return FlagDescriptor(FormType.GENERAL, order=x), FlagDescriptor(
                FormType.GENERAL, order=y), non
        form = rng.choice((FormType.ORTHOGONAL, FormType.SYMPLECTIC))
        return _isotropic(form, x, INF), _isotropic(form, y, INF), non
    raise ValueError(kind)


def _reverse(order):
    out = []
    for a in reversed(order.atoms):
        if isinstance(a, Seq):
            out.append(Seq(tuple(reversed(a.sizes))))
        elif isinstance(a, Omega):
            out.append(OmegaStar(a.size))
        else:
            out.append(Omega(a.size))
    return WeightedOrder(tuple(out))


def _pic_expect(d):
    if d.form is FormType.GENERAL:
        b = _blocks(d.order)
        return b if b == "inf" else b - 1
    return _blocks(d.half)


def _dual_expect(d):
    if d.form is FormType.GENERAL:
        return "gen: " + render_order(_reverse(d.order))
    return render_descriptor(d)


def build_ind_decide(seed, small_pairs=IND_SMALL_PAIRS, tail=IND_TAIL):
    rng = random.Random(f"ind-decide/{seed}")
    pairs = [(_ind_pair(rng, _KINDS[i % len(_KINDS)], None), False)
             for i in range(small_pairs)]
    pairs += [(_ind_pair(rng, kind, atoms), True) for atoms, kind in tail]
    rng.shuffle(pairs)
    ops, expect = [], []
    for (x, y, verdict), long in pairs:
        tx, ty = render_descriptor(x), render_descriptor(y)
        ops += [("decide", (tx, ty)), ("normalize", (tx,)), ("dual", (ty,)),
                ("pic_rank", (tx,)), ("pic_rank", (ty,))]
        normal = render_order(_normal_form(x.half if x.is_isotropic() else x.order))
        expect += [verdict, normal, _dual_expect(y), _pic_expect(x), _pic_expect(y)]
        # Truncation cost grows with the number of omega atoms, which the seed
        # picks, so on the long pairs it would move the tail percentile; and a
        # descriptor without proper members has no truncation.
        if not long and _pic_expect(x) != 0:
            ops.append(("truncate", (tx,)))
            expect.append(x)
    return ops, expect


def _truncation_expect(d, n):
    """(type, ambient, dims) of the width-n truncation, from the atoms."""
    def sizes(order):
        out = []
        for a in order.atoms:
            if isinstance(a, Seq):
                out += [n if s is INF else s for s in a.sizes]
            else:
                out += [n if a.size is INF else a.size] * n
        return out

    def partial_sums(values):
        acc = 0
        for v in values:
            acc += v
            yield acc

    if d.form is FormType.GENERAL:
        blocks = sizes(d.order)
        return "A", sum(blocks), tuple(partial_sums(blocks[:-1]))
    half = sizes(d.half)
    if d.middle is INF:
        middle = 2 * n if d.form is FormType.SYMPLECTIC else 2 * n + 1
    else:
        middle = d.middle
    if d.form is FormType.SYMPLECTIC:
        t = "C"
    else:
        t = "D" if middle % 2 == 0 else "B"
    return t, 2 * sum(half) + middle, tuple(partial_sums(half))


def _normal_form(order):
    """The normal form in one pass over the atoms: the seq entries between two
    omega-type atoms lose the leading entries equal to the size of an
    omegastar before them and the trailing entries equal to the size of an
    omega after them, and what is left of them is one seq atom."""
    out, run = [], []

    def flush(after):
        lo, hi = 0, len(run)
        if out and isinstance(out[-1], OmegaStar):
            while lo < hi and run[lo] == out[-1].size:
                lo += 1
        if isinstance(after, Omega):
            while hi > lo and run[hi - 1] == after.size:
                hi -= 1
        if lo < hi:
            out.append(Seq(tuple(run[lo:hi])))
        run.clear()

    for a in order.atoms:
        if isinstance(a, Seq):
            run.extend(a.sizes)
        else:
            flush(a)
            out.append(a)
    flush(None)
    return WeightedOrder(tuple(out))


def check_ind_decide(ops, expect, results):
    bad = []
    for i, ((kind, args), want, got) in enumerate(zip(ops, expect, results)):
        if kind == "decide":
            back = decide_ind(parse_descriptor(args[1]), parse_descriptor(args[0])).verdict.value
            if got != want or back != got:
                bad.append((i, kind, f"verdict {got}, reverse {back}, expected {want}"))
        elif kind == "truncate":
            if got[1:] != _truncation_expect(want, got[0]):
                bad.append((i, kind, f"width {got[0]}: got {got[1:]}"))
        elif got != want:
            bad.append((i, kind, f"got {got!r}, expected {want!r}"))
    return bad


# ---------------------------------------------------------------------------
# finite-count.

FINITE_MAX_RANK = 5
FINITE_QS = (2, 3, 4, 5, 7, 8, 9, 11)
_THRESHOLD = {"A": 2, "B": 5, "C": 6, "D": 5}


def finite_universe(max_rank=FINITE_MAX_RANK):
    """Every valid (type, ambient, dims) of rank <= max_rank."""
    out = []
    for t in "ABCD":
        for n in range(2, 2 * max_rank + 2):
            for r in range(1, n):
                for dims in itertools.combinations(range(1, n), r):
                    v = FiniteFlagVariety(t, n, dims)
                    rank = n - 1 if t == "A" else n // 2
                    if rank <= max_rank and not variety_violations(v):
                        out.append((t, n, dims))
    return out


def _blocks_of(dims, top):
    cuts = (0,) + tuple(dims)
    return [b - a for a, b in zip(cuts, cuts[1:])], top - cuts[-1]


def coset_count(t, n, dims):
    """|W| / |W_P| from factorials: the value P(1) must take."""
    if t == "A":
        blocks, rest = _blocks_of(dims, n)
        return math.factorial(n) // math.prod(math.factorial(b) for b in blocks + [rest])
    m = n // 2
    blocks, r = _blocks_of(dims, m)
    levi = math.prod(math.factorial(b) for b in blocks)
    if t == "D":
        whole = 2 ** (m - 1) * math.factorial(m)
        rest = 2 ** (r - 1) * math.factorial(r) if r >= 2 else math.factorial(r)
    else:
        whole = 2 ** m * math.factorial(m)
        rest = 2 ** r * math.factorial(r)
    return whole // (levi * rest)


def root_dimension(t, n, dims):
    """Positive roots of G minus those of the Levi: the variety's dimension."""
    tri = lambda b: b * (b - 1) // 2
    if t == "A":
        blocks, rest = _blocks_of(dims, n)
        return tri(n) - sum(tri(b) for b in blocks + [rest])
    m = n // 2
    blocks, r = _blocks_of(dims, m)
    levi = sum(tri(b) for b in blocks)
    if t == "D":
        return m * (m - 1) - levi - r * (r - 1)
    return m * m - levi - r * r


def _finite_pair(rng, pool):
    """(x, y, expected verdict), the verdict None when the construction does
    not fix it."""
    kind = rng.randrange(4)
    x = rng.choice(pool)
    iso = Verdict.ISOMORPHIC.value
    if kind == 0:
        return x, x, iso
    if kind == 1:
        a = [v for v in pool if v[0] == "A"]
        t, n, dims = rng.choice(a)
        return (t, n, dims), (t, n, tuple(n - d for d in reversed(dims))), iso
    if kind == 2:
        # The two exceptional pairs, inside the universe and above the
        # dimension thresholds.
        if rng.random() < 0.5:
            return ("A", 6, (rng.choice((1, 5)),)), ("C", 6, (1,)), iso
        m = rng.randint(3, FINITE_MAX_RANK)
        return ("B", 2 * m - 1, (m - 1,)), ("D", 2 * m, (m,)), iso
    return x, rng.choice(pool), None


def build_finite_count(seed, universe=None):
    rng = random.Random(f"finite-count/{seed}")
    universe = finite_universe() if universe is None else universe
    ops = []
    for v in universe:
        ops.append((("poincare", v), None))
        ops += [(("points", v + (q,)), None) for q in rng.sample(FINITE_QS, 3)]
        ops.append((("dim", v), None))
    pool = [v for v in universe if v[1] >= _THRESHOLD[v[0]]]
    for _ in universe:
        x, y, verdict = _finite_pair(rng, pool)
        ops.append((("decide_finite", (x, y)), verdict))
    rng.shuffle(ops)
    return [op for op, _ in ops], [verdict for _, verdict in ops]


def check_finite_count(ops, expect, results):
    bad = []
    poly = {}
    for (kind, args), got in zip(ops, results):
        if kind == "poincare":
            poly[args] = got
    for i, ((kind, args), want, got) in enumerate(zip(ops, expect, results)):
        if kind == "poincare":
            if sum(got) != coset_count(*args) or got != tuple(reversed(got)):
                bad.append((i, kind, f"{args}: P(1) or symmetry wrong"))
        elif kind == "points":
            t, n, dims, q = args
            if got != sum(c * q**k for k, c in enumerate(poly[(t, n, dims)])):
                bad.append((i, kind, f"{args}: {got}"))
        elif kind == "dim":
            if got != root_dimension(*args) or got != len(poly[args]) - 1:
                bad.append((i, kind, f"{args}: {got}"))
        elif kind == "decide_finite":
            x, y = args
            if want is not None and got != want:
                bad.append((i, kind, f"{x}, {y}: {got}, expected {want}"))
            if poly[x] != poly[y] and got != Verdict.NOT_ISOMORPHIC.value:
                bad.append((i, kind, f"{x}, {y}: {got} with different polynomials"))
    return bad


# ---------------------------------------------------------------------------
# witness-qq and fp-enumerate.


def _pair(rng, field, with_forms, lo, hi):
    """A composable pair whose final target dimension lies in [lo, hi].

    Compose and apply cost grows steeply with that dimension, so a fixed
    number of pairs per band keeps the work of a pass steady across seeds.
    Pairs with forms start from a one-member source of dimension <= 6 and
    redraw the first extension while it leaves no room below hi, which keeps
    redraws cheap."""
    while True:
        if not with_forms:
            d1, d2 = G.composable_pair(rng, field)
        else:
            symplectic = rng.random() < 0.5
            v = rng.choice((4, 6) if symplectic else (3, 4, 5))
            d1 = G.random_strict_extension(
                rng, field, source_members=1, with_forms=True, source_dim=v,
                symplectic=symplectic)
            if d1.target_dim > hi - 6:
                continue
            d2 = G.random_strict_extension(
                rng, field, source_members=d1.slots, with_forms=True,
                source_dim=d1.target_dim, symplectic=symplectic)
        if lo <= d2.target_dim <= hi:
            return d1, d2


def _witness_ops(rng, field, sizes):
    ops = []
    for i in range(sizes["rebase"]):
        chain, e, e2, form = G.random_rebase_instance(rng, field, isotropic=i % 2 == 1)
        ops.append(("rebase", (chain, e, e2, form)))
    for with_forms, lo, hi, count in sizes["pairs"]:
        for _ in range(count):
            d1, d2 = _pair(rng, field, with_forms, lo, hi)
            pts = tuple(G.random_source_point(rng, d1) for _ in range(sizes["points"]))
            ops += [("compose_apply", (d1, d2, pts)), ("construct", (d1,)),
                    ("construct", (d2,))]
    for _ in range(sizes["pullback"]):
        ops.append(("pullback", _pair(rng, field, False, 6, 12)))
    made = 0
    while made < sizes["triangle"]:
        d1 = G.random_strict_extension(rng, field)
        d2 = G.random_strict_extension(
            rng, field, source_members=d1.slots, source_dim=d1.target_dim)
        chi = G.perturb_triangle_top(rng, W.compose_standard_extensions(d1, d2))
        if chi is not None:
            ops.append(("triangle", (d1, d2, chi)))
            made += 1
    return ops


EXHAUSTION_TEXTS = (
    "gen: seq[1] + omega(2)",
    "gen: omegastar(2) + seq[1,inf]",
    "gen: seq[inf,1]",
    "gen: seq[1,2] + omega(1) + seq[3] + omegastar(1)",
    "symp: half=seq[1]; middle=inf",
    "symp: half=seq[2] + omega(2); middle=inf",
    "orth: half=seq[inf]; middle=1",
    "orth: half=seq[inf,1]; middle=empty",
    "orth: half=omega(1); middle=inf",
    "orth: half=seq[1] + omega(1); middle=3",
)

# (with forms, lowest and highest target dimension, count) per band.
QQ_SIZES = dict(rebase=40, pairs=((False, 6, 10, 4), (False, 11, 14, 3), (True, 10, 18, 2)),
                points=2, pullback=16, triangle=16)
FP_SIZES = dict(rebase=40, pairs=((False, 6, 10, 6), (False, 11, 14, 6), (True, 10, 18, 2)),
                points=3, pullback=20, triangle=12)
BD_SAMPLE = 120


def _bd_sources(n, q):
    return list(W.enumerate_bd_sources(n, PrimeField(q)))


def brute_universe():
    """(type, ambient, dims, q) with ambient <= 6 and at most 3000 flags.

    The isotropic oracle enumerates every subspace before filtering, so at
    ambient 6 over F_3 only one-member varieties stay cheap; type B needs odd
    q.  The dearest of these are the slowest ops of the workload, so its tail
    does not depend on the seed."""
    out = []
    for t, n, dims in finite_universe(5):
        for q in (2, 3):
            if n > 6 or (t == "B" and q == 2):
                continue
            if t != "A" and n == 6 and q == 3 and len(dims) > 1:
                continue
            if point_count(finite_flag_variety(t, n, dims), q) <= 3000:
                out.append((t, n, dims, q))
    return out


def _shuffled(rng, ops, expect):
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [ops[i] for i in order], [expect[i] for i in order]


def build_witness_qq(seed, sizes=QQ_SIZES, widths=3):
    rng = random.Random(f"witness-qq/{seed}")
    ops = _witness_ops(rng, QQ, sizes)
    expect = [None] * len(ops)
    for text in EXHAUSTION_TEXTS:
        d = parse_descriptor(text)
        n0 = min_truncation_width(d)
        for n in range(n0, n0 + widths):
            ops.append(("exhaustion", (text, n)))
            expect.append(W.standard_point(d, n + 1).subspaces)
    return _shuffled(rng, ops, expect)


def build_fp_enumerate(seed, sizes=FP_SIZES, bd_sample=BD_SAMPLE, brute=None):
    rng = random.Random(f"fp-enumerate/{seed}")
    ops, expect = [], []
    for field in (PrimeField(5), PrimeField(7)):
        w = _witness_ops(rng, field, sizes)
        ops += w
        expect += [None] * len(w)
    for q in (2, 3):
        for s in _bd_sources(3, q):
            ops += [("bd_phi", (3, s)), ("bd_square", (3, s))]
            expect += [("image", 3, q), True]
    f5 = PrimeField(5)
    for _ in range(bd_sample):
        s = W.random_bd_source(rng, 4, f5)
        ops += [("bd_phi", (4, s)), ("bd_square", (4, s))]
        expect += [("sample", 4, 5), True]
    for args in brute_universe() if brute is None else brute:
        ops.append(("brute", args))
        expect.append(point_count(finite_flag_variety(*args[:3]), args[3]))
    return _shuffled(rng, ops, expect)


def _check_witness_op(kind, args, want, got):
    if kind == "rebase":
        chain, e, e2, form = args
        field = chain.field
        for s in chain.subspaces:
            if la.rowspace(la.mat_mul(s, got, field), field) != s:
                return "alpha moves a chain member"
        if form is not None:
            lhs = la.mat_mul(la.mat_mul(got, form, field), la.transpose(got), field)
            if not la.mat_eq(lhs, la.mat(form, field)):
                return "alpha does not preserve the form"
    elif kind == "construct":
        if got != args[0]:
            return "reconstructed data differ"
    elif kind == "compose_apply":
        if any(lhs != rhs for lhs, rhs in got):
            return "compose disagrees with apply"
    elif kind == "pullback":
        if got is not True:
            return "pullbacks not functorial or not linear"
    elif kind == "triangle":
        ok, beta = got
        d1, _, chi = args
        if not ok or not la.mat_eq(la.mat_mul(d1.alpha, beta, d1.field), chi.alpha):
            return "triangle does not commute"
    elif kind in ("exhaustion", "brute"):
        if got != want:
            return f"got {got!r}, expected {want!r}"
    elif kind == "bd_square":
        if got is not True:
            return "the exhaustion square does not commute"
    return None


def check_witness(ops, expect, results):
    bad = []
    images = {}
    for i, ((kind, args), want, got) in enumerate(zip(ops, expect, results)):
        if kind == "bd_phi" and want[0] == "image":
            images.setdefault(want[1:], set()).add(got)
        msg = _check_witness_op(kind, args, want, got)
        if msg:
            bad.append((i, kind, msg))
    # Distinct BD images, sources, and both point counts must all agree.
    for (n, q), found in images.items():
        sources = sum(1 for (k, _), e in zip(ops, expect) if k == "bd_phi" and e == ("image", n, q))
        lag = point_count(finite_flag_variety("D", 2 * n, (n,)), q)
        odd = point_count(finite_flag_variety("B", 2 * n - 1, (n - 1,)), q)
        if not (len(found) == lag == odd == sources):
            bad.append((-1, "bd_phi", f"n={n} q={q}: {len(found)} images, {sources} "
                        f"sources, point counts {odd} and {lag}"))
    return bad


BUILD = {
    "ind-decide": build_ind_decide,
    "finite-count": build_finite_count,
    "witness-qq": build_witness_qq,
    "fp-enumerate": build_fp_enumerate,
}

CHECK = {
    "ind-decide": check_ind_decide,
    "finite-count": check_finite_count,
    "witness-qq": check_witness,
    "fp-enumerate": check_witness,
}

_CANARY_SIZES = dict(rebase=2, pairs=((False, 6, 10, 1), (True, 10, 18, 1)), points=1,
                     pullback=1, triangle=1)

# Small inputs built at a fixed seed.  Their digests are recorded below, so a
# change to ``flagiso.generate`` that alters what the workloads run fails the
# benchmark instead of showing as a gain.
CANARY = {
    "ind-decide": lambda: build_ind_decide(0, small_pairs=24, tail=((60, "reverse"),)),
    "finite-count": lambda: build_finite_count(0, universe=finite_universe(3)),
    "witness-qq": lambda: build_witness_qq(0, sizes=_CANARY_SIZES, widths=1),
    "fp-enumerate": lambda: build_fp_enumerate(
        0, sizes=_CANARY_SIZES, bd_sample=2, brute=[("A", 3, (1,), 2)]),
}
CANARY_DIGESTS = {
    "ind-decide": "84337053a9b1b005",
    "finite-count": "bf485885253b5ecf",
    "witness-qq": "d5d1ed0e2c480bb0",
    "fp-enumerate": "98f6b4dfdc6d9bfb",
}
