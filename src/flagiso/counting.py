"""Point counts of finite flag varieties over F_q, by two independent routes.

The main route is the closed form P_{G/P}(q) = W(q) / W_P(q) of Chevalley and
Solomon: the Poincare polynomial of the Weyl group W is a product of
q-integers [k]_q = 1 + q + ... + q^(k-1) over its degrees, and so is that of
the Weyl group W_P of the Levi of the parabolic fixed by the dimension
sequence.  The quotient equals the sum of q^length over minimal coset
representatives; it counts F_q points and its degree is the dimension.  The
enumeration of those representatives as signed permutations lives in the test
oracles (``tests/oracles.py``), where it checks the closed form.

The second route, :func:`brute_force_count`, enumerates actual flags over a
small prime field with ``linalg.enumerate_subspaces``.  Each member is the
basis of the one below it, as ``base``, plus new echelon rows off its pivot
columns, which gives each superspace once.  The rows are grown one at a time,
and for the split forms the keep of the form value (``witness.split_form(...).keep()``,
one per count) drops a new row, with everything that would be built on it,
unless it is singular (B, D) and orthogonal to every row above it, the
base's included: every pair of rows
is tested once, when the lower one is added, so the members that survive are
exactly the isotropic ones.  The candidate rows depend only on the pivot
columns, so one count builds them once per pivot set.  It exists purely as a
ground-truth cross-check of the first.

Conventions.  For type D a variety with a Lagrangian member means one
connected component, the one containing the span of the first m coordinates:
its Levi is the type-A part alone (the group is D_m, not B_m), and the
brute-force route filters Lagrangians by the parity of their intersection with
that reference (``witness.in_reference_component``).

Polynomials are memoized per process for the last ``_POINCARE_MEMO_SIZE``
(1,024) distinct varieties.  A polynomial of rank 96 takes about 170 KB, so
the bound keeps the memo within about 175 MB however many varieties a
process reads; an evicted polynomial is recomputed equal.

The enumeration is the only user of ``linalg`` and ``witness`` here, so
:func:`brute_force_count` imports them itself: a point count, Poincare
polynomial or dimension loads neither.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .descriptors import FiniteFlagVariety, require_valid
from .errors import ResourceLimitError, ValidationError

MAX_RANK = 96


# ---------------------------------------------------------------------------
# Polynomials in q with nonnegative integer coefficients.


@dataclass(frozen=True)
class QPolynomial:
    coefficients: tuple  # index = degree; trailing coefficient nonzero

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        for c in coeffs:
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"coefficients must be nonnegative integers, got {c!r}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, q: int) -> int:
        value = 0
        for c in reversed(self.coefficients):
            value = value * q + c
        return value

    def render(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for deg, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if deg == 0:
                parts.append(str(c))
            elif deg == 1:
                parts.append("q" if c == 1 else f"{c}*q")
            else:
                parts.append(f"q^{deg}" if c == 1 else f"{c}*q^{deg}")
        return " + ".join(parts)

    def __repr__(self):
        return f"QPolynomial({self.render()!r})"


# ---------------------------------------------------------------------------
# Closed form: products and quotients of q-integers [k]_q = 1 + q + ... + q^(k-1).


def _times_bracket(coeffs, k):
    """coeffs * [k]_q: each output coefficient is a window sum of k inputs."""
    out, window = [], 0
    for i in range(len(coeffs) + k - 1):
        if i < len(coeffs):
            window += coeffs[i]
        if i >= k:
            window -= coeffs[i - k]
        out.append(window)
    return out


def _over_bracket(coeffs, k):
    """coeffs / [k]_q, raising ArithmeticError unless the remainder is zero."""
    out, window = [], 0  # window: sum of the last k - 1 quotient coefficients
    for i, c in enumerate(coeffs):
        out.append(c - window)
        window += out[-1]
        if i >= k - 1:
            window -= out[i - k + 1]
    keep = len(coeffs) - k + 1
    if keep < 1 or any(out[keep:]):
        raise ArithmeticError(f"[{k}]_q does not divide the polynomial")
    return out[:keep]


def _weyl_degrees(lie_type, m):
    """The k with W(q) = prod [k]_q for the Weyl group of type B/C/D, rank m."""
    if lie_type == "D":
        return [m] + [2 * i for i in range(1, m)] if m else []
    return [2 * i for i in range(1, m + 1)]


def _rank(v: FiniteFlagVariety) -> int:
    return v.ambient_dim - 1 if v.lie_type == "A" else v.ambient_dim // 2


def check_rank(r: int):
    if r > MAX_RANK:
        raise ResourceLimitError(f"rank {r} exceeds the rank cap {MAX_RANK}")


_POINCARE_MEMO_SIZE = 1024  # varieties; finite-count reads 213, selftest 295


@lru_cache(maxsize=_POINCARE_MEMO_SIZE)
def _poincare_cached(lie_type, ambient_dim, dims):
    """W(q) / W_P(q), with W_P the Weyl group of the Levi: type-A blocks of the
    gaps between members, and for B/C/D the group of the same type on the
    m - d_k coordinates left over above the top member."""
    if lie_type == "A":
        num = range(1, ambient_dim + 1)
        cuts = (0,) + dims + (ambient_dim,)
        rest = []
    else:
        m = ambient_dim // 2
        num = _weyl_degrees(lie_type, m)
        cuts = (0,) + dims
        rest = _weyl_degrees(lie_type, m - dims[-1])
    den = [k for a, b in zip(cuts, cuts[1:]) for k in range(1, b - a + 1)] + rest
    num, den = Counter(num), Counter(den)
    coeffs = [1]
    for k in (num - den).elements():
        coeffs = _times_bracket(coeffs, k)
    for k in (den - num).elements():
        coeffs = _over_bracket(coeffs, k)
    return QPolynomial(tuple(coeffs))


def poincare_polynomial(v: FiniteFlagVariety) -> QPolynomial:
    """Sum of q^length over minimal coset representatives of the parabolic,
    computed as the quotient W(q) / W_P(q) of Weyl group Poincare polynomials."""
    require_valid(v)
    check_rank(_rank(v))
    return _poincare_cached(v.lie_type, v.ambient_dim, tuple(v.dims))


def point_count(v: FiniteFlagVariety, q: int) -> int:
    if not (isinstance(q, int) and q >= 1):
        raise ValidationError(f"q must be a positive integer, got {q!r}")
    return poincare_polynomial(v)(q)


def dimension(v: FiniteFlagVariety) -> int:
    return poincare_polynomial(v).degree


# ---------------------------------------------------------------------------
# Brute-force oracle: flags over F_q by echelon enumeration.

BRUTE_MAX_AMBIENT = 6
_BRUTE_PRIMES = (2, 3)


def brute_force_count(v: FiniteFlagVariety, q: int) -> int:
    """Count flags of the given shape over F_q by direct enumeration.

    The form is the split one of :func:`flagiso.witness.split_form`; type B
    needs odd q.
    """
    require_valid(v)
    t, n, dims = v.lie_type, v.ambient_dim, v.dims
    if n > BRUTE_MAX_AMBIENT:
        raise ResourceLimitError(
            f"brute-force oracle is limited to ambient dimension {BRUTE_MAX_AMBIENT}"
        )
    if q not in _BRUTE_PRIMES:
        raise ValidationError(f"brute-force oracle needs a prime q in {_BRUTE_PRIMES}")
    if t == "B" and q == 2:
        raise ValidationError("type B oracle requires odd q")

    from . import linalg as la
    from .witness import in_reference_component, split_form

    field = la.PrimeField(q)
    keep = None if t == "A" else split_form(t, n, field).keep()
    m = n // 2
    lagrangian = m if t == "D" and dims[-1] == m else None

    total = 0
    candidates = {}
    stack = [((), 0)]
    while stack:
        rows, level = stack.pop()
        dim = dims[level]
        for grown in la.enumerate_subspaces(
            n, dim, field, keep=keep, base=rows, cache=candidates
        ):
            if dim == lagrangian and not in_reference_component(grown, m, field):
                continue
            if level + 1 == len(dims):
                total += 1
            else:
                stack.append((grown, level + 1))
    return total
