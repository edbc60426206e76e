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
small prime field, filtering by isotropy for the split forms.  It grows each
member into the next through the quotient: a subspace whose basis is
invertible on a set P of columns meets the span of the other coordinates only
in zero, so the subspaces of that span give each superspace once, and the
grown basis is invertible on P together with the new pivots, with no
re-reduction.  It exists purely as a ground-truth cross-check of the first.

Conventions.  For type D a variety with a Lagrangian member means one
connected component, the one containing the span of the first m coordinates:
its Levi is the type-A part alone (the group is D_m, not B_m), and the
brute-force route filters Lagrangians by the parity of their intersection with
that reference.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import linalg as la
from .descriptors import FiniteFlagVariety, require_valid_variety
from .errors import ResourceLimitError, ValidationError
from .linalg import PrimeField
from .witness import bd_reference_lagrangian, split_form, split_quadratic_value

DEFAULT_MAX_RANK = 96
_RANK_ENV = "FLAGISO_MAX_RANK"


def max_rank() -> int:
    value = os.environ.get(_RANK_ENV)
    if value is None:
        return DEFAULT_MAX_RANK
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{_RANK_ENV} must be an integer, got {value!r}")


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

    @staticmethod
    def from_dict(by_degree: dict) -> "QPolynomial":
        if not by_degree:
            return QPolynomial(())
        top = max(by_degree)
        return QPolynomial(tuple(by_degree.get(i, 0) for i in range(top + 1)))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, q: int) -> int:
        value = 0
        for c in reversed(self.coefficients):
            value = value * q + c
        return value

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return QPolynomial(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __mul__(self, other):
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return QPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return QPolynomial(tuple(out))

    def is_palindromic(self) -> bool:
        return self.coefficients == tuple(reversed(self.coefficients))

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


def _check_rank(v: FiniteFlagVariety):
    r = _rank(v)
    cap = max_rank()
    if r > cap:
        raise ResourceLimitError(
            f"rank {r} exceeds the rank cap {cap} (set {_RANK_ENV} to raise it)"
        )


@lru_cache(maxsize=None)
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
    require_valid_variety(v)
    _check_rank(v)
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


def _dot(u, gram, v, q):
    total = 0
    for i, ui in enumerate(u):
        if ui:
            row = gram[i]
            total += ui * sum(r * vj for r, vj in zip(row, v))
    return total % q


def _quadratic_from_gram(u, gram, q):
    """Q(u) = w(u,u)/2, valid for odd q."""
    return (_dot(u, gram, u, q) * pow(2, -1, q)) % q


def _rows_isotropic(rows, gram, q, quadratic):
    # Pairwise with an early exit, rather than witness.is_isotropic_subspace:
    # its two full mat_muls per candidate made the benchmark's 80 brute-force
    # counts about 5x slower in total and 8x at the slowest one.
    for i, u in enumerate(rows):
        if quadratic is not None and quadratic(u) != 0:
            return False
        for v in rows[i + 1 :]:
            if _dot(u, gram, v, q) != 0:
                return False
    return True


def _pivots(rows):
    return tuple(next(c for c, x in enumerate(row) if x) for row in rows)


def _extensions(rows, pivots, n, e, field):
    """All subspaces of dimension e containing the given one, via the quotient.

    ``rows`` restricted to the columns ``pivots`` must be invertible.  Then the
    coordinates outside ``pivots`` complement the row space, and each subspace
    of them of dimension e - d, in echelon form, gives one superspace.  Its
    lifted rows vanish on ``pivots`` and are echelon on their own pivots, so
    the grown basis is block-triangular, hence invertible, on the union of
    both pivot sets: the invariant holds one level up without reducing."""
    d = len(rows)
    free_cols = [c for c in range(n) if c not in pivots]
    for qrows in la.enumerate_subspaces(len(free_cols), e - d, field):
        lifted = []
        for qrow in qrows:
            vec = [0] * n
            for val, c in zip(qrow, free_cols):
                vec[c] = val
            lifted.append(tuple(vec))
        lifted = tuple(lifted)
        yield rows + lifted, pivots + _pivots(lifted)


def brute_force_count(v: FiniteFlagVariety, q: int, form=None) -> int:
    """Count flags of the given shape over F_q by direct enumeration.

    ``form`` may be an explicit gram matrix (entries mod q) replacing the
    standard split one.  The orthogonal oracle needs odd q unless the ambient
    dimension is even and the built-in split quadratic form is used.
    """
    require_valid_variety(v)
    t, n, dims = v.lie_type, v.ambient_dim, v.dims
    if n > BRUTE_MAX_AMBIENT:
        raise ResourceLimitError(
            f"brute-force oracle is limited to ambient dimension {BRUTE_MAX_AMBIENT}"
        )
    if q not in _BRUTE_PRIMES:
        raise ValidationError(f"brute-force oracle needs a prime q in {_BRUTE_PRIMES}")

    field = PrimeField(q)
    quadratic = None
    gram = None
    if t != "A":
        if form is None:
            gram = split_form(t, n, field)
            if t in ("B", "D"):
                if t == "B" and q == 2:
                    raise ValidationError("type B oracle requires odd q")
                quadratic = lambda u: split_quadratic_value(u, field)
        else:
            gram = tuple(tuple(x % q for x in row) for row in form)
            if t in ("B", "D"):
                if q == 2:
                    raise ValidationError(
                        "orthogonal oracle with an explicit bilinear form needs odd q"
                    )
                quadratic = lambda u: _quadratic_from_gram(u, gram, q)
            for i in range(n):
                for j in range(n):
                    expected = gram[j][i] if t in ("B", "D") else (-gram[j][i]) % q
                    if gram[i][j] % q != expected:
                        raise ValidationError("form has the wrong symmetry for the type")
    elif form is not None:
        raise ValidationError("type A varieties carry no form")

    m = n // 2
    lagrangian_filter = t == "D" and dims and dims[-1] == m
    if lagrangian_filter and form is not None:
        raise ValidationError(
            "component selection for a Lagrangian member needs the standard form"
        )
    ref = bd_reference_lagrangian(m, field)

    def ok(rows, dim):
        if gram is not None and not _rows_isotropic(rows, gram, q, quadratic):
            return False
        if lagrangian_filter and dim == m:
            meet = len(rows) + m - la.rank(rows + ref, field)
            if meet % 2 != m % 2:
                return False
        return True

    total = 0
    first = dims[0]
    stack = [
        (rows, _pivots(rows), 0)
        for rows in la.enumerate_subspaces(n, first, field)
        if ok(rows, first)
    ]
    if len(dims) == 1:
        return len(stack)
    while stack:
        rows, pivots, level = stack.pop()
        next_dim = dims[level + 1]
        for grown, gpiv in _extensions(rows, pivots, n, next_dim, field):
            if not ok(grown, next_dim):
                continue
            if level + 1 == len(dims) - 1:
                total += 1
            else:
                stack.append((grown, gpiv, level + 1))
    return total
