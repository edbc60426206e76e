"""The acceptance suite: every shipped claim as a timed, self-contained check.

Each criterion returns a :class:`CriterionResult`; the CLI ``selftest``
subcommand prints one line per criterion, then recomputes the oracle-derived
values and compares them with :data:`PINNED_VALUES`, pinned in this module, so
every run checks them and none writes a file.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from . import generate as G
from . import linalg as la
from . import witness as W
from .counting import brute_force_count, dimension, point_count, poincare_polynomial
from .decide import Reason, Verdict, decide_finite, decide_ind
from .descriptors import (
    FORM_OF_LIE_TYPE,
    MIN_AMBIENT,
    FiniteFlagVariety,
    dual,
    finite_flag_variety,
    parse_descriptor,
    variety_violations,
)
from .errors import ValidationError
from .linalg import QQ, PrimeField
from .orders import normalize, is_isomorphic, rewrite_step, truncate


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    limit: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.2f}s / limit {self.limit:.0f}s): {self.detail}"


def _run(name, limit, fn) -> CriterionResult:
    start = time.monotonic()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        elapsed = time.monotonic() - start
        return CriterionResult(name, False, f"raised {type(exc).__name__}: {exc}", elapsed, limit)
    elapsed = time.monotonic() - start
    if ok and elapsed >= limit:
        ok = False
        detail += f"; exceeded runtime limit ({elapsed:.1f}s >= {limit:.0f}s)"
    return CriterionResult(name, ok, detail, elapsed, limit)


# ---------------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    def body():
        x = parse_descriptor("gen: seq[1,inf]")
        y = parse_descriptor("symp: half=seq[1]; middle=inf")
        res = decide_ind(x, y)
        if not (res.verdict is Verdict.ISOMORPHIC and res.reason is Reason.EXCEPTIONAL_PROJ_SYMP):
            return False, f"unexpected verdict {res.to_json()}"
        for n in (2, 3, 4):
            pa = poincare_polynomial(finite_flag_variety("A", 2 * n, (1,)))
            pc = poincare_polynomial(finite_flag_variety("C", 2 * n, (1,)))
            if pa != pc:
                return False, f"projective/symplectic polynomials differ at ambient {2 * n}"
        return True, "projective/symplectic pair recognized; polynomials agree for ambient 4, 6, 8"

    return _run("1 exceptional pair I (projective / symplectic lines)", 1.0, body)


def criterion_2() -> CriterionResult:
    def body():
        x = parse_descriptor("orth: half=seq[inf]; middle=1")
        y = parse_descriptor("orth: half=seq[inf]; middle=empty")
        res = decide_ind(x, y)
        if not (res.verdict is Verdict.ISOMORPHIC and res.reason is Reason.EXCEPTIONAL_BD):
            return False, f"unexpected verdict {res.to_json()}"
        for n in range(2, 6):
            pb = poincare_polynomial(finite_flag_variety("B", 2 * n - 1, (n - 1,)))
            pd = poincare_polynomial(finite_flag_variety("D", 2 * n, (n,)))
            if pb != pd:
                return False, f"odd/even maximal grassmannian polynomials differ at n={n}"
        f3 = PrimeField(3)
        for n in (2, 3):
            sources = list(W.enumerate_bd_sources(n, f3))
            expect_src = point_count(finite_flag_variety("B", 2 * n - 1, (n - 1,)), 3)
            if len(sources) != expect_src:
                return False, f"n={n}: found {len(sources)} sources, expected {expect_src}"
            images = {W.bd_phi(n, s).subspaces for s in sources}
            if len(images) != len(sources):
                return False, f"n={n}: the Lagrangian map is not injective over F_3"
            expect_tgt = point_count(finite_flag_variety("D", 2 * n, (n,)), 3)
            if len(images) != expect_tgt:
                return False, f"n={n}: image size {len(images)} != component size {expect_tgt}"
            if n == 2:
                targets = {t.subspaces for t in W.enumerate_component_lagrangians(n, f3)}
                if images != targets:
                    return False, "n=2: image set differs from the enumerated component"
        f2 = PrimeField(2)
        for n in (2, 3):
            rep = W.bd_square_check(n, W.enumerate_bd_sources(n, f2))
            if not rep.ok:
                return False, f"n={n}: {len(rep.failures)} square failures over F_2"
        f5 = PrimeField(5)
        rng = random.Random(20240)
        sample = [W.random_bd_source(rng, 4, f5) for _ in range(100)]
        rep = W.bd_square_check(4, sample)
        if not rep.ok:
            return False, f"n=4: {len(rep.failures)} square failures over F_5"
        return True, (
            "pair recognized; polynomials agree for n=2..5; bijection verified over "
            "F_3 (n=2,3); squares commute exhaustively over F_2 (n=2,3) and on 100 "
            "seeded F_5 points (n=4)"
        )

    return _run("2 exceptional pair II (odd/even maximal orthogonal)", 60.0, body)


def _oracle_universe():
    for n in range(2, 6):
        for r in range(1, n):
            for dims in itertools.combinations(range(1, n), r):
                yield finite_flag_variety("A", n, dims), (2, 3)
    for dims in [(1,), (2,), (1, 2)]:
        yield finite_flag_variety("C", 4, dims), (2, 3)
    for dims in [(2,), (1, 2)]:
        yield finite_flag_variety("D", 4, dims), (2, 3)
    for dims in [(1,), (2,), (1, 2)]:
        yield finite_flag_variety("B", 5, dims), (3,)


def criterion_3() -> CriterionResult:
    def body():
        pairs = 0
        for v, qs in _oracle_universe():
            for q in qs:
                expected = brute_force_count(v, q)
                got = point_count(v, q)
                if expected != got:
                    return False, f"{v} at q={q}: enumeration {expected} != closed form {got}"
                pairs += 1
        if pairs < 40:
            return False, f"only {pairs} variety/q pairs covered"
        return True, f"closed-form counts match direct enumeration on {pairs} variety/q pairs"

    return _run("3 oracle equivalence (closed form vs enumeration)", 600.0, body)


def _decision_universe():
    """Every valid variety of ambient <= 8 that meets the theorem hypotheses."""
    out = []
    for t, form in FORM_OF_LIE_TYPE.items():
        for n in range(MIN_AMBIENT[form], 9):
            for r in range(1, n):
                for dims in itertools.combinations(range(1, n), r):
                    v = FiniteFlagVariety(t, n, dims)
                    if not variety_violations(v):
                        out.append(v)
    return out


def criterion_4() -> CriterionResult:
    def body():
        universe = _decision_universe()
        isomorphic = 0
        for i, x in enumerate(universe):
            for y in universe[i:]:
                res = decide_finite(x, y)
                if res.verdict is Verdict.ISOMORPHIC:
                    isomorphic += 1
                    if poincare_polynomial(x) != poincare_polynomial(y):
                        return False, f"{x} ~ {y} ({res.reason.value}) but polynomials differ"
                    if dimension(x) != dimension(y):
                        return False, f"{x} ~ {y} ({res.reason.value}) but dimensions differ"
        return True, (
            f"{len(universe)} varieties, {isomorphic} isomorphic pairs, all with "
            "matching polynomials and dimensions"
        )

    return _run("4 decision/counting consistency sweep (ambient <= 8)", 300.0, body)


def criterion_5() -> CriterionResult:
    def body():
        rng = random.Random(5150)
        for _ in range(1000):
            x = G.random_order(rng)
            if normalize(normalize(x)) != normalize(x):
                return False, f"normalization not idempotent on {x!r}"
        rng = random.Random(5151)
        for _ in range(1000):
            x = G.random_order(rng)
            cur = x
            while True:
                step = rewrite_step(cur)
                if step is None:
                    break
                nxt, info = step
                for n in range(1, 21):
                    s_cur, k_cur = truncate(cur, n)
                    s_nxt, _ = truncate(nxt, n)
                    if info[0] == "merge":
                        if s_cur != s_nxt:
                            return False, f"merge changed truncation of {cur!r} at width {n}"
                    else:
                        _, ai, ei = info
                        idx = k_cur.index((ai, ei))
                        if s_cur[:idx] + s_cur[idx + 1 :] != s_nxt:
                            return False, f"absorption not a block deletion on {cur!r} at width {n}"
                cur = nxt
            if cur != normalize(x):
                return False, f"normalize differs from the rewrite fixed point on {x!r}"
        rng = random.Random(5152)
        for _ in range(1000):
            a = G.random_order(rng)
            b = G.insert_absorbable(rng, a) or a
            c = G.insert_absorbable(rng, b) or b
            if not (is_isomorphic(a, a) and is_isomorphic(b, b)):
                return False, "reflexivity failed"
            if is_isomorphic(a, b) != is_isomorphic(b, a):
                return False, "symmetry failed"
            if is_isomorphic(a, b) and is_isomorphic(b, c) and not is_isomorphic(a, c):
                return False, "transitivity failed"
        rng = random.Random(5153)
        checked = 0
        while checked < 1000:
            x = G.random_order(rng)
            z = G.random_order(rng)
            x2 = G.insert_absorbable(rng, x)
            if x2 is None:
                continue
            if is_isomorphic(x, z) != is_isomorphic(x2, z):
                return False, f"absorbable insertion changed a verdict: {x!r} vs {z!r}"
            checked += 1
        return True, (
            "idempotence, per-step truncation soundness (widths 1..20), normalize "
            "equal to the rewrite fixed point, equivalence laws, and absorption "
            "metamorphics each hold on 1000 seeded expressions"
        )

    return _run("5 rewrite-system suite (1000 expressions per property)", 60.0, body)


def criterion_6() -> CriterionResult:
    def body():
        rng = random.Random(6001)
        fields = [QQ, PrimeField(5), PrimeField(7)]
        iso_count = 0
        for i in range(200):
            isotropic = i % 4 == 0 or i >= 150  # >= 50 isotropic instances
            field = fields[i % len(fields)]
            chain, e, e2, form = G.random_rebase_instance(rng, field, isotropic=isotropic)
            W.rebase_automorphism(chain, e, e2, form)
            iso_count += isotropic
        if iso_count < 50:
            return False, f"only {iso_count} isotropic rebase instances"
        rng = random.Random(6002)
        for i in range(100):
            with_forms = i % 3 == 0
            d1, d2 = G.composable_pair(rng, QQ if i % 2 else PrimeField(5), with_forms=with_forms)
            c = W.compose_standard_extensions(d1, d2)
            if c.strict != (d1.strict == d2.strict):
                return False, "strictness rule violated under composition"
            for _ in range(2):
                p = G.random_source_point(rng, d1)
                lhs = W.apply_standard_extension(c, p)
                rhs = W.apply_standard_extension(d2, W.apply_standard_extension(d1, p))
                if lhs.subspaces != rhs.subspaces:
                    return False, f"composition disagrees pointwise (instance {i})"
            mm = W.compose_pullbacks(W.pic_pullback(d1), W.pic_pullback(d2))
            if mm.entries != W.pic_pullback(c).entries:
                return False, f"Picard pullback not functorial (instance {i})"
        rng = random.Random(6003)
        adjusted = 0
        for i in range(100):
            d1 = G.random_strict_extension(rng, QQ)
            d2 = G.random_strict_extension(
                rng, QQ, source_members=d1.slots, source_dim=d1.target_dim
            )
            chi = W.compose_standard_extensions(d1, d2)
            rep = W.check_triangle(d1, d2, chi)
            if not (rep.ok and not rep.adjusted):
                return False, f"clean triangle rejected (instance {i})"
            chi2 = G.perturb_triangle_top(rng, chi)
            if chi2 is not None:
                rep2 = W.check_triangle(d1, d2, chi2)
                if not rep2.ok:
                    return False, f"beta adjustment failed (instance {i}): {rep2.messages}"
                if not la.mat_eq(la.mat_mul(d1.alpha, rep2.beta, d1.field), chi2.alpha):
                    return False, f"adjusted beta does not factor gamma (instance {i})"
                adjusted += rep2.adjusted
        if adjusted < 20:
            return False, f"too few beta-adjustment paths exercised ({adjusted})"
        return True, (
            "200 rebase instances (50+ isotropic) verified; composition, pullback "
            f"functoriality, and triangle checks pass on 100 instances each "
            f"({adjusted} with beta adjustment)"
        )

    return _run("6 witness suite (rebase / compose / triangle)", 120.0, body)


def criterion_7() -> CriterionResult:
    def body():
        rng = random.Random(7007)
        for _ in range(500):
            x = G.random_descriptor(rng)
            y = G.random_descriptor(rng)
            a = decide_ind(x, y)
            b = decide_ind(y, x)
            if (a.verdict, a.reason) != (b.verdict, b.reason):
                return False, f"asymmetric verdict for {x!r} vs {y!r}"
            c = decide_ind(x, dual(dual(y)))
            if (a.verdict, a.reason) != (c.verdict, c.reason):
                return False, f"double dual changed the verdict for {x!r} vs {y!r}"
        return True, "verdicts symmetric and double-dual invariant on 500 seeded pairs"

    return _run("7 duality and symmetry of the ind-decision", 10.0, body)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
)


def run_all(numbers=None):
    for i in numbers or ():
        if not 1 <= i <= len(ALL_CRITERIA):
            raise ValidationError(f"unknown criterion {i}: criteria are 1..{len(ALL_CRITERIA)}")
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if numbers and i not in numbers:
            continue
        results.append(fn())
    return results


# ---------------------------------------------------------------------------
# Derived values, pinned in source.


def derived_values() -> dict:
    """Oracle outputs pinned by :data:`PINNED_VALUES` (recomputed on every run)."""
    values = {}
    brute_cases = [
        ("A", 3, (1,), 2),
        ("A", 4, (1, 3), 2),
        ("A", 4, (2,), 2),
        ("A", 4, (2,), 3),
        ("C", 4, (1,), 2),
        ("D", 4, (2,), 2),
        ("B", 5, (2,), 3),
    ]
    for t, n, dims, q in brute_cases:
        key = f"brute_force:{t}:{n}:{','.join(map(str, dims))}:q={q}"
        values[key] = brute_force_count(finite_flag_variety(t, n, dims), q)
    poly_cases = [
        ("A", 4, (2,)),
        ("B", 5, (2,)),
        ("D", 6, (3,)),
        ("D", 4, (2,)),
        ("C", 4, (1,)),
        ("A", 3, (1, 2)),
    ]
    for t, n, dims in poly_cases:
        key = f"poincare:{t}:{n}:{','.join(map(str, dims))}"
        values[key] = poincare_polynomial(finite_flag_variety(t, n, dims)).render()
    f3 = PrimeField(3)
    for n in (2, 3):
        values[f"bd:sources:n={n}:q=3"] = sum(1 for _ in W.enumerate_bd_sources(n, f3))
    return values


# The values :func:`derived_values` gave when they were pinned; a change in
# any of them is drift in the oracles, whatever caused it.
PINNED_VALUES = {
    "brute_force:A:3:1:q=2": 7,
    "brute_force:A:4:1,3:q=2": 105,
    "brute_force:A:4:2:q=2": 35,
    "brute_force:A:4:2:q=3": 130,
    "brute_force:C:4:1:q=2": 15,
    "brute_force:D:4:2:q=2": 3,
    "brute_force:B:5:2:q=3": 40,
    "poincare:A:4:2": "1 + q + 2*q^2 + q^3 + q^4",
    "poincare:B:5:2": "1 + q + q^2 + q^3",
    "poincare:D:6:3": "1 + q + q^2 + q^3",
    "poincare:D:4:2": "1 + q",
    "poincare:C:4:1": "1 + q + q^2 + q^3",
    "poincare:A:3:1,2": "1 + 2*q + 2*q^2 + q^3",
    "bd:sources:n=2:q=3": 4,
    "bd:sources:n=3:q=3": 40,
}


def check_derived_values() -> tuple:
    """Compare freshly derived values with :data:`PINNED_VALUES`.

    Returns (ok, detail)."""
    current = derived_values()
    mismatches = [
        key
        for key in sorted(set(PINNED_VALUES) | set(current))
        if PINNED_VALUES.get(key) != current.get(key)
    ]
    if mismatches:
        return False, f"derived values drifted: {', '.join(mismatches)}"
    return True, f"{len(current)} derived values stable against the pinned values"
