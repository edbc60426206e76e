"""Exact linear algebra over the rationals and prime fields.

Vectors are rows; a linear map V -> W is a (dim V) x (dim W) matrix acting by
right multiplication, so composition reads left to right as matrix product.
Matrices are tuples of tuples of field elements.  Subspaces are row spaces,
canonically represented by their reduced row echelon form, which makes
equality of subspaces a structural comparison.

A field has elements, ``Fraction`` on QQ and ``int`` in 0..p-1 on F_p.  Code
combines them with Python's ``+ - *`` and passes the result of each operator
expression through ``field.reduce`` (``x % p`` on F_p, the identity on QQ),
so every stored entry is again an element.  ``of`` converts integers and
fractions into the field, ``zero()``/``one()`` are its constants, ``inv``
inverts (division is multiplication by ``inv``), and ``sqrt`` returns a
square root or None.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import ValidationError


class PrimeField:
    """F_p with elements the integers 0..p-1."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
            raise ValidationError(f"{p} is not prime")
        self.p = p

    def of(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValidationError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    zero = staticmethod(lambda: 0)

    def one(self):
        return 1 % self.p

    def reduce(self, x):
        return x % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def sqrt(self, a):
        """A square root of a in F_p, or None."""
        a %= self.p
        for x in range(self.p):
            if (x * x) % self.p == a:
                return x
        return None

    def elements(self):
        return range(self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


class Rationals:
    """The field of rationals, with Fraction elements."""

    def of(self, x):
        return Fraction(x)

    zero = staticmethod(lambda: Fraction(0))
    one = staticmethod(lambda: Fraction(1))

    @staticmethod
    def reduce(x):
        return x

    @staticmethod
    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    @staticmethod
    def sqrt(a):
        a = Fraction(a)
        if a < 0:
            return None
        rn = math.isqrt(a.numerator)
        rd = math.isqrt(a.denominator)
        if rn * rn == a.numerator and rd * rd == a.denominator:
            return Fraction(rn, rd)
        return None

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")


QQ = Rationals()


def mat(rows, field):
    return tuple(tuple(field.of(x) for x in row) for row in rows)


def identity(n, field):
    one, z = field.one(), field.zero()
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b, field):
    if not a:
        return ()
    bt = transpose(b)
    return tuple(tuple(_dot_row(row, col, field) for col in bt) for row in a)


def _dot_row(u, v, field):
    # Most left entries are zero, so skip them; the zero() start keeps QQ
    # entries Fraction when every term is skipped.
    return field.reduce(sum((x * y for x, y in zip(u, v) if x), field.zero()))


def mat_add(a, b, field):
    return tuple(
        tuple(field.reduce(x + y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(c, a, field):
    return tuple(tuple(field.reduce(c * x) for x in row) for row in a)


def stack(*mats):
    rows = []
    for m in mats:
        rows.extend(m)
    return tuple(rows)


def mat_eq(a, b):
    return tuple(map(tuple, a)) == tuple(map(tuple, b))


def rref(a, field):
    """(reduced row echelon form with zero rows dropped, pivot columns)."""
    mat_ = [list(row) for row in a]
    if not mat_:
        return (), ()
    ncols = len(mat_[0])
    pivots = []
    r = 0
    zero = field.zero()
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat_)) if mat_[i][c] != zero), None)
        if pivot_row is None:
            continue
        mat_[r], mat_[pivot_row] = mat_[pivot_row], mat_[r]
        inv = field.inv(mat_[r][c])
        mat_[r] = [field.reduce(inv * x) for x in mat_[r]]
        for i in range(len(mat_)):
            if i != r and mat_[i][c] != zero:
                f = mat_[i][c]
                mat_[i] = [field.reduce(x - f * y) for x, y in zip(mat_[i], mat_[r])]
        pivots.append(c)
        r += 1
        if r == len(mat_):
            break
    return tuple(tuple(row) for row in mat_[:r]), tuple(pivots)


def rowspace(a, field):
    """Canonical basis (rref) of the row space."""
    return rref(a, field)[0]


def rank(a, field):
    return len(rref(a, field)[0])


def rowspace_eq(a, b, field):
    return rowspace(a, field) == rowspace(b, field)


def in_rowspace(v, canonical, field):
    """Membership test against a canonical (rref) basis."""
    v = list(v)
    zero = field.zero()
    for row in canonical:
        c = next(i for i, x in enumerate(row) if x != zero)
        if v[c] != zero:
            f = v[c]
            v = [field.reduce(x - f * y) for x, y in zip(v, row)]
    return all(x == zero for x in v)


def rowspace_contains(a, b, field):
    """Whether rowspace(b) is contained in rowspace(a)."""
    canon = rowspace(a, field)
    return all(in_rowspace(r, canon, field) for r in b)


def nullspace(a, field, ncols=None):
    """Canonical basis of { x : a . x^T = 0 } (x a row vector)."""
    if not a:
        if ncols is None:
            raise ValidationError("nullspace of an empty matrix needs ncols")
        return identity(ncols, field)
    reduced, pivots = rref(a, field)
    n = len(a[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    zero, one = field.zero(), field.one()
    for fc in free:
        vec = [zero] * n
        vec[fc] = one
        for row, pc in zip(reduced, pivots):
            vec[pc] = field.reduce(-row[fc])
        basis.append(tuple(vec))
    return rowspace(tuple(basis), field)


def intersect_rowspaces(a, b, field, ncols):
    """Canonical basis of rowspace(a) ∩ rowspace(b)."""
    ann_a = nullspace(a, field, ncols)
    ann_b = nullspace(b, field, ncols)
    return nullspace(stack(ann_a, ann_b), field, ncols)


def inverse(a, field):
    n = len(a)
    aug = tuple(row + irow for row, irow in zip(a, identity(n, field)))
    reduced, pivots = rref(aug, field)
    if pivots != tuple(range(n)):
        raise ValidationError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def solve_left(m, b, field):
    """X with X . m = b, or None when inconsistent (any one solution)."""
    if not b:
        return ()
    mt = transpose(m)
    bt = transpose(b)
    nrows_m = len(m)
    aug = tuple(row + brow for row, brow in zip(mt, bt))
    reduced, pivots = rref(aug, field)
    ncols_b = len(b)
    zero = field.zero()
    # inconsistent when a pivot falls in the augmented block
    for row, p in zip(reduced, pivots):
        if p >= nrows_m:
            return None
    # back-substitute: unknown matrix X^T is (nrows_m x ncols_b)
    xt = [[zero] * ncols_b for _ in range(nrows_m)]
    for row, p in zip(reduced, pivots):
        for j in range(ncols_b):
            xt[p][j] = row[nrows_m + j]
    return transpose(tuple(tuple(r) for r in xt))


def random_matrix(rng, rows, cols, field):
    if isinstance(field, PrimeField):
        return tuple(
            tuple(rng.randrange(field.p) for _ in range(cols)) for _ in range(rows)
        )
    return tuple(
        tuple(Fraction(rng.randint(-5, 5)) for _ in range(cols))
        for _ in range(rows)
    )


def random_invertible(rng, n, field):
    while True:
        a = random_matrix(rng, n, n, field)
        if rank(a, field) == n:
            return a


def enumerate_subspaces(n, d, field):
    """All d-dimensional subspaces of field^n (prime fields only), as rrefs."""
    if not isinstance(field, PrimeField):
        raise ValidationError("subspace enumeration needs a finite field")
    q = field.p
    for pivots in itertools.combinations(range(n), d):
        free = [
            (i, c)
            for i in range(d)
            for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        base = [[0] * n for _ in range(d)]
        for i, c in enumerate(pivots):
            base[i][c] = 1
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, c), val in zip(free, values):
                rows[i][c] = val
            yield tuple(tuple(r) for r in rows)
