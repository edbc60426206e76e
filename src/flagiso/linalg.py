"""Exact linear algebra over the rationals and prime fields.

Vectors are rows; a linear map V -> W is a (dim V) x (dim W) matrix acting by
right multiplication, so composition reads left to right as matrix product.
Matrices are tuples of tuples of field elements.  Subspaces are row spaces,
canonically represented by their reduced row echelon form, which makes
equality of subspaces a structural comparison.  Containment reduces against
that form: rowspace(b) lies in rowspace(a) when each row of b, reduced by
the rows of a's form at their pivot columns, leaves nothing (a vector's
membership is the case of one row).  One pass suffices because each row of
a reduced form is zero in every other pivot column, so a later step never
refills a column that an earlier one cleared.  Dimensions are ranks, as in
dim(A ∩ B) = dim A + dim B - rank(A + B).  ``rank`` eliminates forward
only: a new row is not cleared from the rows above it, which finds the same
pivots with fewer row updates.  Those rows are not reduced, so it only
counts them; none is stored or returned.

A field has elements, ``Fraction`` on QQ and ``int`` in 0..p-1 on F_p.  Code
combines them with Python's ``+ - *`` and passes the result of each operator
expression through ``field.reduce`` (``x % p`` on F_p, the identity on QQ),
so every stored entry is again an element.  ``of`` converts integers and
fractions into the field, ``zero()``/``one()`` are its constants, ``inv``
inverts (division is multiplication by ``inv``), and ``sqrt`` returns a
square root or None.

The two kernels, elimination and ``product``, have one body each for both
fields and do their arithmetic on Python ints, without building a field
element until the output.  ``_eliminate`` is Gauss-Jordan elimination
without division, by row insertion: it keeps reduced int rows in the order
of their pivot columns, and each incoming row is reduced by them, dropped
when nothing is left, prepared by ``pivot`` at its leading column, cleared
from the rows above it (the rows below are zero there) and inserted in
its place.  A row is updated as ``lead * row - f * top`` for the pivot row
``top``, its pivot ``lead``, and the row's entry ``f`` in the pivot column.
This is the fraction-free elimination of Bareiss (Math. Comp. 22 (1968)),
except that the row's content is divided out instead of the previous
pivot; each update builds its row once.  ``rref`` finishes the rows that
``_eliminate`` leaves from one matrix, and ``rowspace_chain`` the rows it
holds after each of several blocks (see Chains below).  ``product``
brings the int rows of its right operand to one denominator (one lcm per
call) and adds int multiples of them, one for each nonzero entry of a left
row; ``mat_mul`` is ``product`` finished into field elements.  The field
supplies the steps where QQ and F_p differ:

* ``clear(row)`` returns ``(ints, den)`` with ``row == ints / den``: QQ
  multiplies by the lcm of the row's denominators.  F_p has no ``clear``:
  there a row is its own int row over 1, and the kernels take it as it is.
* ``update(row, top, lead, f)`` is the row update, in one pass over the
  row.  QQ builds ``lead * row - f * top`` and divides it by its content
  (the gcd of its entries; an all-zero row is left alone).  F_p builds
  ``(row - f * top) % p`` and drops ``lead``: every pivot row it meets has
  pivot entry 1, since ``pivot`` scales the pivot rows of ``_eliminate``
  and ``rowspace_contains`` reduces against the rows of a reduced form,
  whose pivots are 1 over F_p.
* ``pivot(ints, c)`` prepares a pivot row.  F_p scales it by ``inv`` so the
  pivot is 1: updates then keep every earlier pivot at 1, and ``finish`` has
  nothing to divide.  QQ leaves it.
* ``finish(ints, den)`` turns an int row over ``den`` into field elements:
  QQ builds ``Fraction(x, den)`` once per entry; F_p returns the row.
* ``divide(rows)`` turns the ``(nums, den)`` rows of a ``product`` into its
  value.  QQ divides each row by gcd(den, *nums), signed so that den > 0,
  and returns an ``IntRows``; F_p reduces ``nums`` mod p (every ``den`` is
  1), and the reduced rows are already field elements.

F_p keeps every intermediate entry in 0..p-1 because elimination tests
entries against zero to find pivots: an unreduced multiple of p is a nonzero
int but zero in F_p.  Reduction also keeps the products single-word ints.
Tuples and star-arguments in the kernels are built from lists, not from
generators: a tuple built from a generator grows by resizing, and the
over-sized blocks that this leaves in the allocator raised the peak RSS of
the ``witness-qq`` benchmark workload by about 1.3 MB (5 %).

The kernels take field elements, as ``mat`` makes them.  Their shape is
checked: ``mat``, elimination and ``product`` refuse rows of unequal length
(``_cleared`` checks each plain operand of ``product`` as it clears it; a
``Cleared`` or an ``IntRows`` was built by the kernel), and
``rowspace_contains`` a row of ``b`` of another length than a's rows,
since ``zip`` would cut the longer row short without a word.  The entries
are a contract, not a check: ``rref``, ``rank``, ``rowspace_contains`` and
``nullspace`` do not reduce their F_p input, so an entry outside 0..p-1 may
give a wrong answer (``rowspace_contains(((0, 1, 0),), ((3, 0, 0),),
GF(3))`` is False), and a pivot entry that is a nonzero multiple of p makes
``pivot`` raise ``ValidationError``.  Reducing every row as it is
cleared made a pass over the seed-1 ``fp-enumerate`` benchmark inputs about
6 % slower (CPython 3.11, one core of a shared 2-core machine), and every
library caller converts with ``mat`` first.  The outputs, ``product``'s
over QQ apart, are field elements (``Fraction`` in lowest terms on QQ,
reduced ints on F_p), and since the reduced row echelon form is unique they
are the same as those of elimination on field elements, which
``tests/oracles.py`` keeps as the reference.

Int values.  Over QQ a ``Fraction`` is dear to build (``Fraction(7, 3)``
takes 0.5 to 0.9 us under ``timeit``, CPython 3.11 on a shared 2-core
Xeon), so a product that only feeds the next kernel call is not finished:
``product`` returns an ``IntRows``, a tuple of int rows that also carries
``dens``, row i standing for ``self[i]`` divided by ``dens[i]``.
``divide`` leaves its rows canonical (gcd(den, *ints) = 1 and den > 0),
which equal rows share.  ``rref``, ``rowspace_chain`` (as a block),
``rank``, ``rowspace_contains``, ``rowspace_eq``, ``nullspace``,
``mat_mul`` and ``stack`` take one where they take a matrix; ``stack``
returns one when any part is one, and ``mat_eq`` compares one with a QQ
matrix by canonical int rows (``clear`` of Fraction rows is canonical too,
since it takes the lcm of reduced denominators).  ``nullspace``,
``annihilator_chain`` and ``inverse`` also hand their int rows to
elimination as an ``IntRows``, in either field.  Only ``linalg`` reads an
``IntRows``, and no function returns one but ``product`` and ``stack``: its
rows are not field elements, so any other reader would take them for some.
Callers keep it only between kernel calls; ``witness`` does so where a
product only spans, is eliminated or is compared.

Cleared values.  Over QQ a matrix of field elements that the kernel builds
keeps the int rows it came from: it is a ``Cleared``, a tuple of rows that
also carries the field, ``ints`` and ``dens``, with row i equal to
``ints[i]`` divided by ``dens[i]`` entry by entry.  ``mat`` clears each row
once, ``mat_mul`` finishes a ``product`` into one, ``inverse`` finishes only
the right block of its eliminated [a | I] and keeps that block's int rows,
``stack`` joins the int rows when every part is a ``Cleared`` over QQ,
``pick`` keeps the int rows of the rows it picks, and ``transpose`` of one
brings its int rows to one denominator (one lcm) and transposes them.
``_cleared`` hands these int rows over instead of clearing, so the kernels
clear only rows that arrive as plain tuples.  Slices of a ``Cleared`` and
the results of ``mat_scale`` are plain tuples: ``mat_scale`` builds its
entries one by one, and a slice that feeds a kernel is cleared again from
its entries (``witness`` picks the two blocks of the dual data out of one
inverse instead).  Int rows are never changed
in place, so values may share them.  Over F_p a row is its own int row
over 1, so these functions return plain tuples and keep no second copy;
the only ``Cleared`` over F_p is an ``Echelon``, whose ``ints`` is the
value itself.
Only ``linalg`` reads ``ints`` and ``dens``.

Canonical values.  ``rref`` and ``rowspace_chain`` return reduced rows as
an ``Echelon``, a ``Cleared`` that also carries the pivot columns, and
nothing else builds one (both build it in ``_form``).  Its ``ints`` are the
int rows that ``_eliminate`` left before ``finish``, each over its pivot
entry, which may be negative: they are not canonical int rows.
``rowspace_contains``, ``rowspace_eq``, ``nullspace``, ``new_rows`` and
``annihilator_chain`` read an ``Echelon`` through ``_reduced``, which hands
over these rows and pivots, and eliminate anything else without finishing
it; ``rank`` reads one by its length and eliminates anything else forward
only.  ``rowspace_eq`` compares two reduced forms row by row as x * q == y
* p for rows x and y over pivot entries p and q.  So no ``Fraction`` of a
canonical subspace is cleared twice, and only ``_form`` builds the
``Fraction`` rows of one.  ``rref`` returns an ``Echelon`` over the field
it is asked for as it is, and ``mat`` returns any ``Cleared`` over its
field unchanged, so no function reduces or converts a subspace twice.  The
field is compared because rows reduced over one field are not canonical
over another: over QQ their entries must become ``Fraction``, and over F_3
an entry 4 of an F_5 form is not even an element, so ``mat`` converts them
and ``rref`` eliminates again.  Slices and multiples of an ``Echelon``
are plain tuples and are not trusted, and no other ``Cleared`` is:
``stack`` of two or more nonempty parts, ``inverse`` and ``pick`` of some
of an Echelon's rows return a ``Cleared``, never an ``Echelon`` (``stack``
returns a lone nonempty part as it is, and ``pick`` a value of which it
picks every row).

Chains.  Slots, filtrations and flag members are chains of subspaces, so
one elimination serves a whole chain: ``rowspace_chain`` takes rows block
by block and yields the reduced form after each block, and a caller feeds
each member only its new rows.  That suffices because of pivots.  Let A
lie in B, both in reduced form.  Every pivot column of A is one of B's (a
row of A is a combination of B's rows, and its leading column is the
leading column of one of them), so ``new_rows`` takes B's rows at the
pivot columns that A lacks: with A's rows they are dim B independent rows
of B, their leading columns being distinct, so they span it.  The
annihilators { x : m . x^T = 0 } of a chain shrink as it grows, and
``annihilator_chain`` builds them from the largest member down, one more
elimination.  A null vector of B (``_null_vectors``) is built for each
free column of B: it is den at that column and zero at B's other free
columns.  Then ann(A) = ann(B) + the null vectors of A at its free columns
that are pivot columns of B: those are zero at B's free columns, while a
nonzero vector of ann(B) is not (it is fixed by its entries there), so
they raise the dimension by dim B - dim A.  ``nullspace`` is the case
of one member, with every free column.

A ``Cleared`` compares, hashes, prints and encodes as JSON like its rows.
It pickles and copies as itself through ``__reduce__``, which hands
``__new__`` the rows, the field, the int rows (None when they are the rows
themselves), the denominators and, for an ``Echelon``, the pivots, and
nothing else.  A tuple's default hands ``__new__`` the rows alone, which
fails on unpickling (the benchmark pickles its generated inputs), and then
restores the attribute dict, whose ``ints`` in a shallow copy of an F_p form
would be the original and not the copy.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

from .errors import ResourceLimitError, ValidationError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The strong probable-prime test to the bases _SMALL_PRIMES decides primality
# below this bound (Sorenson and Webster, Math. Comp. 86 (2017)).
_PRIME_BOUND = 3317044064679887385961981


def _two_adic(n: int):
    """(s, d) with n = d * 2^s and d odd, for n > 0."""
    s = (n & -n).bit_length() - 1
    return s, n >> s


def _is_prime(p: int) -> bool:
    """Trial division by _SMALL_PRIMES, then the strong probable-prime test
    to those bases: x = a^d with p - 1 = d * 2^s, d odd, must be 1 or reach
    p - 1 within s squarings."""
    if p < 2 or any(p % a == 0 for a in _SMALL_PRIMES):
        return p in _SMALL_PRIMES
    if p >= _PRIME_BOUND:
        raise ResourceLimitError(f"primality of {p} is decided only below {_PRIME_BOUND}")
    s, d = _two_adic(p - 1)
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class PrimeField:
    """F_p with elements the integers 0..p-1."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValidationError(f"{p} is not prime")
        self.p = p

    def of(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValidationError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        if isinstance(x, int):  # bool
            return x % self.p
        raise ValidationError(f"{x!r} is not an integer or a fraction")

    zero = staticmethod(lambda: 0)

    def one(self):
        return 1 % self.p

    def reduce(self, x):
        return x % self.p

    # Hooks of the fraction-free kernel (see the module docstring).

    def update(self, row, top, lead, f):
        # lead is 1: pivot scales the pivot rows of _eliminate, and the
        # reduced rows that rowspace_contains reads have pivot entry 1 too
        p = self.p
        return [(x - f * y) % p for x, y in zip(row, top)]

    def pivot(self, row, c):
        if row[c] == 1:
            return row
        p = self.p
        try:
            inv = pow(row[c], -1, p)
        except ValueError:
            raise ValidationError(
                f"entry {row[c]} is not invertible mod {p}: pass field elements, as mat makes them"
            ) from None
        return [x * inv % p for x in row]

    finish = staticmethod(lambda row, den: tuple(row))

    def divide(self, rows):
        p = self.p
        return tuple([tuple([x % p for x in nums]) for nums, _ in rows])

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def sqrt(self, a):
        """The smaller of the two square roots of a in F_p (the one a scan
        from 0 finds first), or None when a is not a square (Euler's
        criterion).  Tonelli-Shanks: with p - 1 = d * 2^s, d odd, and c = z^d
        for a non-square z, the guess r = a^((d+1)/2) has r^2 = a * t with
        t = a^d of order 2^i < 2^s; multiplying r by b, the power of c of
        order 2^(i+1), multiplies t by b^2 and lowers its order."""
        p = self.p
        a %= p
        if p == 2 or a == 0:
            return a
        half = (p - 1) // 2
        if pow(a, half, p) != 1:
            return None
        s, d = _two_adic(p - 1)
        z = 2
        while pow(z, half, p) == 1:
            z += 1
        c, t, r = pow(z, d, p), pow(a, d, p), pow(a, (d + 1) // 2, p)
        while t != 1:
            i, x = 0, t
            while x != 1:
                i, x = i + 1, x * x % p
            b = pow(c, 1 << (s - i - 1), p)
            s, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return min(r, p - r)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


_ZERO = Fraction(0)


class Rationals:
    """The field of rationals, with Fraction elements."""

    @staticmethod
    def of(x):
        return x if type(x) is Fraction else Fraction(x)

    zero = staticmethod(lambda: Fraction(0))
    one = staticmethod(lambda: Fraction(1))

    @staticmethod
    def reduce(x):
        return x

    # Hooks of the fraction-free kernel (see the module docstring).

    @staticmethod
    def clear(row):
        den = math.lcm(*[x.denominator for x in row])
        if den == 1:
            return [x.numerator for x in row], 1
        return [x.numerator * (den // x.denominator) for x in row], den

    @staticmethod
    def update(row, top, lead, f):
        row = [lead * x - f * y for x, y in zip(row, top)]
        g = math.gcd(*row)
        return [x // g for x in row] if g > 1 else row

    pivot = staticmethod(lambda row, c: row)

    @staticmethod
    def finish(row, den):
        return tuple([Fraction(x, den) if x else _ZERO for x in row])

    @staticmethod
    def divide(rows):
        ints, dens = [], []
        for nums, den in rows:
            g = math.gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
            ints.append(nums)
            dens.append(den)
        return IntRows(ints, dens)

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
    if isinstance(rows, Cleared) and rows.field == field:
        return rows
    rows = tuple([tuple([field.of(x) for x in row]) for row in rows])
    _check_width(rows)
    if isinstance(field, PrimeField):
        return rows
    pairs = [field.clear(row) for row in rows]
    return Cleared(rows, field, [ints for ints, _ in pairs], [den for _, den in pairs])


def identity(n, field):
    one, z = field.one(), field.zero()
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def transpose(a):
    if not a:
        return ()
    rows = tuple(zip(*a))
    if not _carries(a):
        return rows
    ints, den = _common(*_cleared(a, a.field))
    return Cleared(rows, a.field, list(zip(*ints)), [den] * len(rows))


def product(a, b, field):
    """a . b for the next kernel call: an :class:`IntRows` over QQ, the
    reduced rows over F_p (see the module docstring)."""
    if not a:
        return ()
    if len(a[0]) != len(b):
        raise ValidationError(f"cannot multiply rows of length {len(a[0])} by {len(b)} rows")
    ints, den = _common(*_cleared(b, field))
    zero = [0] * (len(b[0]) if b else 0)
    out = []
    for row, row_den in zip(*_cleared(a, field)):
        acc = zero
        for x, brow in zip(row, ints):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append((acc, row_den * den))
    return field.divide(out)


def mat_mul(a, b, field):
    """a . b in field elements: :func:`product`, finished over QQ."""
    m = product(a, b, field)
    if type(m) is not IntRows:
        return m
    rows = [QQ.finish(ints, den) for ints, den in zip(m, m.dens)]
    return Cleared(rows, QQ, list(m), m.dens)  # a list: an IntRows does not pickle


def mat_scale(c, a, field):
    return tuple(tuple(field.reduce(c * x) for x in row) for row in a)


def stack(*mats):
    mats = [m for m in mats if m]
    if len(mats) == 1:
        return mats[0]
    if IntRows in map(type, mats):
        ints, dens = [], []
        for m in mats:
            m_ints, m_dens = _cleared(m, QQ)
            ints.extend(m_ints)
            dens.extend(m_dens)
        return IntRows(ints, dens)
    rows = []
    for m in mats:
        rows.extend(m)
    if not (mats and all(_carries(m) for m in mats)):
        return tuple(rows)
    ints, dens = [], []
    for m in mats:
        ints.extend(m.ints)
        dens.extend(m.dens)
    return Cleared(rows, QQ, ints, dens)


def mat_eq(a, b):
    """Entrywise equality; a product's :class:`IntRows` is compared by its
    canonical int rows, the other side cleared from its entries."""
    if type(a) is IntRows or type(b) is IntRows:
        return _canonical(a) == _canonical(b)
    return tuple(map(tuple, a)) == tuple(map(tuple, b))


def _canonical(a):
    """(ints, den) per row of a QQ matrix with gcd(den, *ints) = 1 and den >
    0, which equal rows share: ``divide`` leaves a product's so, and
    ``clear`` gives them, since it takes the lcm of reduced denominators."""
    if type(a) is IntRows:
        return list(zip(a, a.dens))
    return [QQ.clear(row) for row in a]


class IntRows(tuple):
    """Int rows over denominators: row i stands for ``self[i]`` divided by
    ``dens[i]``, entry by entry.  Only ``linalg`` reads one (see the module
    docstring)."""

    def __new__(cls, ints, dens):
        self = super().__new__(cls, ints)
        self.dens = dens
        return self


class Cleared(tuple):
    """Rows over ``field`` with their cleared form: row i is ``ints[i]``
    divided by ``dens[i]``, entry by entry (``ints`` is the value itself when
    ``__new__`` is given None).  See the module docstring."""

    def __new__(cls, rows, field, ints, dens):
        self = super().__new__(cls, rows)
        self.field = field
        self.ints = self if ints is None else ints
        self.dens = dens
        return self

    def __reduce__(self):
        ints = None if self.ints is self else self.ints
        return type(self), (tuple(self), self.field, ints, self.dens)


class Echelon(Cleared):
    """Rows in reduced row echelon form over ``field``, zero rows dropped, with
    their pivot columns; ``ints`` holds the int rows they were finished from,
    each over its pivot entry.  Only :func:`rref` builds one (see the module
    docstring)."""

    def __new__(cls, rows, field, ints, dens, pivots):
        self = super().__new__(cls, rows, field, ints, dens)
        self.pivots = pivots
        return self

    def __reduce__(self):
        cls, args = super().__reduce__()
        return cls, args + (self.pivots,)


def _carries(a):
    """Whether ``a`` carries int rows apart from its rows: a Cleared over QQ.
    Over F_p a row is its own int row, so nothing is built to carry it."""
    return isinstance(a, Cleared) and a.field == QQ


def _cleared(a, field):
    """(ints, dens) with row i of ``a`` == ints[i] / dens[i].  A Cleared over
    ``field`` and an IntRows hand over their own; plain rows must have one
    length, and over F_p each is its own int row over 1.  Elimination and
    containment scale rows freely and read ``ints`` alone."""
    if isinstance(a, Cleared) and a.field == field:
        return a.ints, a.dens
    if type(a) is IntRows:
        return a, a.dens
    _check_width(a)
    if isinstance(field, PrimeField):
        return a, [1] * len(a)
    pairs = [field.clear(row) for row in a]
    return [ints for ints, _ in pairs], [den for _, den in pairs]


def _common(ints, dens):
    """(int rows, den) with row i == ints[i] / den for int rows ``ints`` over
    ``dens``: each row is brought to the lcm of the denominators."""
    den = math.lcm(*dens)
    return [row if d == den else [x * (den // d) for x in row] for row, d in zip(ints, dens)], den


def _check_width(rows, width=None):
    """ValidationError unless all rows have one length, ``width`` when it is
    given: the kernels zip rows, which would cut a longer one short
    silently."""
    lengths = set(map(len, rows))
    if width is not None:
        lengths.add(width)
    if len(lengths) > 1:
        raise ValidationError(f"rows of unequal length {sorted(lengths)}")


def _eliminate(new, field, rows, pivots, forward=False):
    """Fraction-free elimination by row insertion: each int row of ``new``
    is reduced by ``rows``, which are in echelon form, one per pivot column
    of ``pivots`` in increasing order (both lists, changed in place).  A
    row that reduces to zero is dropped; any other is prepared by ``pivot``
    at its leading column, cleared from the rows above it (unless
    ``forward``) and inserted in pivot order.  With ``forward`` the rows
    stay in echelon form but are not reduced; only :func:`rank` asks for
    that, to count them."""
    update, pivot = field.update, field.pivot
    n = len(new[0]) if new else 0
    for row in new:
        if len(rows) == n:
            break  # full rank: every further row reduces to zero
        for top, c in zip(rows, pivots):
            f = row[c]
            if f:
                row = update(row, top, top[c], f)
        for c, f in enumerate(row):
            if f:
                break
        else:
            continue
        row = pivot(row, c)
        i = bisect.bisect(pivots, c)
        if i and not forward:
            lead = row[c]
            for j in range(i):
                f = rows[j][c]
                if f:
                    rows[j] = update(rows[j], row, lead, f)
        rows.insert(i, row)
        pivots.insert(i, c)


def _reduced(a, field, forward=False):
    """(int rows in echelon form, pivot columns) of ``a``: an Echelon over
    ``field`` hands over its own, anything else is eliminated from no rows,
    reduced unless ``forward``."""
    if type(a) is Echelon and a.field == field:
        return a.ints, a.pivots
    new = _cleared(a, field)[0]
    rows, pivots = [], []
    _eliminate(new, field, rows, pivots, forward)
    return rows, tuple(pivots)


def _form(rows, pivots, field):
    """The Echelon of reduced int rows, each finished over its pivot entry;
    over QQ it keeps a list of the int rows of its own."""
    dens = [row[c] for row, c in zip(rows, pivots)]
    reduced = [field.finish(row, den) for row, den in zip(rows, dens)]
    ints = None if isinstance(field, PrimeField) else list(rows)
    return Echelon(reduced, field, ints, dens, tuple(pivots))


def rowspace_chain(blocks, field):
    """The reduced row echelon forms of the prefixes of ``blocks``: after the
    rows of each block are inserted, the :class:`Echelon` of every row so
    far, from one elimination for the whole chain.  A block that adds no
    rank yields the previous form again.  Each form has its own list of int
    rows, since the elimination replaces rows in its list.  F_p entries
    must lie in 0..p-1, as :func:`mat` makes them."""
    rows, pivots, width, form = [], [], None, None
    for block in blocks:
        new = _cleared(block, field)[0]
        _check_width(new, width)
        if new:
            width = len(new[0])
        count = len(rows)
        _eliminate(new, field, rows, pivots)
        if form is None or len(rows) != count:
            form = _form(rows, pivots, field)
        yield form


def rref(a, field):
    """(reduced row echelon form with zero rows dropped, pivot columns): the
    form that :func:`rowspace_chain` yields for one block.  The form is an
    :class:`Echelon`; one over ``field`` is returned as it is.  F_p entries
    must lie in 0..p-1, as :func:`mat` makes them."""
    if type(a) is Echelon and a.field == field:
        return a, a.pivots
    form = _form(*_reduced(a, field), field)
    return form, form.pivots


def rowspace(a, field):
    """Canonical basis (rref) of the row space."""
    return rref(a, field)[0]


def rank(a, field):
    """The rank of ``a``: the length of an Echelon over ``field``, else the
    pivot count of forward elimination.  F_p entries must lie in 0..p-1, as
    :func:`mat` makes them."""
    return len(_reduced(a, field, forward=True)[1])


def rowspace_eq(a, b, field):
    """Whether a and b span the same row space: their reduced forms agree,
    compared in ints, row x over pivot entry p against row y over q as x * q
    == y * p."""
    ints_a, pivots = _reduced(a, field)
    ints_b, pivots_b = _reduced(b, field)
    return pivots == pivots_b and all(
        [u * y[c] for u in x] == [v * x[c] for v in y]
        for x, y, c in zip(ints_a, ints_b, pivots)
    )


def rowspace_contains(a, b, field):
    """Whether rowspace(b) is contained in rowspace(a): each row of b reduces
    to zero against the reduced int rows of a.  F_p entries of both must lie
    in 0..p-1, as :func:`mat` makes them, and when a has rows, b's must have
    their length.  Over F_p each pivot entry ``top[c]`` of a reduced row is 1,
    which ``update`` assumes."""
    ints, pivots = _reduced(a, field)
    width = len(a[0]) if a else None
    update = field.update
    for row in _cleared(b, field)[0]:
        if width is not None and len(row) != width:
            raise ValidationError(f"cannot test a row of length {len(row)} against {width}")
        for top, c in zip(ints, pivots):
            f = row[c]
            if f:
                row = update(row, top, top[c], f)
        if any(row):
            return False
    return True


def _null_vectors(ints, pivots, n, cols, field):
    """The null vectors of reduced int rows ``ints`` (pivot columns
    ``pivots``, width n) at the free columns ``cols``, as an IntRows.  Row i
    is ints[i] over its pivot entry d_i, so with den the lcm of the d_i the
    vector of a free column fc is den at fc, -ints[i][fc] * (den / d_i) at
    each pivot column and 0 at every other free column."""
    dens = [row[c] for row, c in zip(ints, pivots)]
    den = math.lcm(*dens)
    scales = [den // d for d in dens]
    reduce = field.reduce
    basis = []
    for fc in cols:
        vec = [0] * n
        vec[fc] = den
        for row, pc, s in zip(ints, pivots, scales):
            vec[pc] = reduce(-row[fc] * s)
        basis.append(vec)
    return IntRows(basis, [1] * len(basis))


def nullspace(a, field, ncols=None):
    """Canonical basis of { x : a . x^T = 0 } (x a row vector): the
    annihilator chain of the one member ``a``, whose width is ``ncols``
    only when ``a`` has no rows.  F_p entries must lie in 0..p-1, as
    :func:`mat` makes them."""
    if not a and ncols is None:
        raise ValidationError("nullspace of an empty matrix needs ncols")
    return annihilator_chain([a], field, len(a[0]) if a else ncols)[0]


def annihilator_chain(members, field, ncols):
    """The annihilators { x : m . x^T = 0 } of the members of a chain of
    nested subspaces, smallest member first, in reverse order, so that they
    grow (see "Chains" in the module docstring).  Each member is read
    through its reduced form: an Echelon over ``field`` as it is, anything
    else after an elimination of its own.  Their null vectors are then one
    elimination for the whole chain.  The chain must be nested, as the
    forms of :func:`rowspace_chain` are."""
    blocks, above = [], range(ncols)
    for m in reversed(members):
        ints, pivots = _reduced(m, field)
        cols = [c for c in above if c not in pivots]
        blocks.append(_null_vectors(ints, pivots, ncols, cols, field))
        above = pivots
    return list(rowspace_chain(blocks, field))


def pick(a, indices):
    """The rows of ``a`` at ``indices``; a Cleared over QQ keeps their int
    rows, and ``a`` is returned as it is when every row is picked."""
    if len(indices) == len(a):
        return a
    rows = [a[i] for i in indices]
    if not _carries(a):
        return tuple(rows)
    return Cleared(rows, QQ, [a.ints[i] for i in indices], [a.dens[i] for i in indices])


def new_rows(a, b, field):
    """The rows of b's reduced form at the pivot columns that a's lacks: for
    rowspace(a) inside rowspace(b), a's rows and these span b, and each of
    them raises the rank (see "Chains" in the module docstring)."""
    taken = _reduced(a, field)[1] if a else ()
    form = rowspace(b, field)
    return pick(form, [i for i, c in enumerate(form.pivots) if c not in taken])


def inverse(a, field):
    """The inverse of a square ``a``: elimination of the int rows of [a | I]
    (row i cleared as [ints | den e_i]), finishing only the right block.  A
    matrix that is not square is refused, since its elimination may still
    reach a pivot in every column of the left block."""
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValidationError(f"cannot invert {n} rows: a row has length {len(row)}, not {n}")
    ints, dens = _cleared(a, field)
    aug = [
        [*row, *[den if j == i else 0 for j in range(n)]]
        for i, (row, den) in enumerate(zip(ints, dens))
    ]
    ints, pivots = _reduced(IntRows(aug, dens), field)
    if pivots != tuple(range(n)):
        raise ValidationError("matrix is singular")
    right = [row[n:] for row in ints]
    dens = [row[i] for i, row in enumerate(ints)]
    rows = [field.finish(row, den) for row, den in zip(right, dens)]
    if isinstance(field, PrimeField):
        return tuple(rows)
    return Cleared(rows, field, right, dens)


def solve_left(m, b, field):
    """X with X . m = b, or None when inconsistent: the solution whose free
    unknowns are 0.  Column c of b is X times column c of m, so the
    equations are the rows of [m^T | b^T], one per column."""
    if not b:
        return ()
    k = len(m)
    reduced, pivots = rref(tuple(zip(*m, *b)), field)
    # inconsistent when a pivot falls in the augmented block
    if any(p >= k for p in pivots):
        return None
    zero = field.zero()
    x = [[zero] * k for _ in b]
    for row, p in zip(reduced, pivots):
        for j, xrow in enumerate(x):
            xrow[p] = row[k + j]
    return tuple([tuple(xrow) for xrow in x])


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


def enumerate_subspaces(n, d, field, keep=None, base=(), cache=None):
    """The d-dimensional subspaces of field^n (prime fields only) that contain
    the row space of ``base``, each once, as ``base`` followed by new rows in
    reduced echelon form.

    The new rows are grown one at a time, in product order: the pivot columns
    run through their combinations in lexicographic order, and for each, row
    0 takes every value of its free entries (the columns after its pivot that
    are not pivots), with row 1 varying faster, and so on.  ``keep(row,
    rows)`` is asked of each new row given the rows above it, ``base`` first;
    a row it refuses is dropped with every completion below it, so the output
    is the subsequence of subspaces whose every new row passes.  A keep that
    tests a new row against each row above it meets every pair of rows once,
    when the lower row is added.

    The rows of ``base`` must have distinct pivot columns (the first nonzero
    column of each row), which makes ``base`` invertible on them: sorted by
    pivot, it is triangular there.  Then the other coordinates span a
    complement of its row space, and the subspaces of that span of dimension d - len(base) give
    each superspace once.  A yielded basis is again invertible on its pivot
    columns (on the old and new ones together it is block triangular with
    identity blocks), so it can be the next ``base`` without reduction.

    The candidate rows depend only on n, d, the field and the base's pivot
    columns, and are kept in ``cache`` by (n, d, pivot columns): a caller
    that enumerates over many bases in one field and passes one dict builds
    them once per pivot set.

    ``d`` below ``len(base)``, a base row of another length than ``n``, a
    zero base row and two base rows with one pivot column are refused with
    ValidationError, at the first subspace asked for.
    """
    if not isinstance(field, PrimeField):
        raise ValidationError("subspace enumeration needs a finite field")
    if d < len(base):
        raise ValidationError(f"cannot grow {len(base)} base rows to dimension {d}")
    taken = []
    for row in base:
        if len(row) != n:
            raise ValidationError(f"base rows must have {n} entries, not {len(row)}")
        c = next(itertools.compress(itertools.count(), row), None)
        if c is None:
            raise ValidationError("base rows must be nonzero")
        taken.append(c)
    taken = frozenset(taken)
    if len(taken) < len(base):
        raise ValidationError("base rows must have distinct pivot columns")
    cache = {} if cache is None else cache
    key = (n, d, taken)
    if key not in cache:
        cache[key] = _candidates(n, d - len(base), field, taken)
    for choices in cache[key]:
        if keep is None:
            for rows in itertools.product(*choices):
                yield base + rows
        else:
            yield from _grow(base, choices, keep)


def _candidates(n, k, field, taken):
    """For each set of k new pivot columns off ``taken``, in lexicographic
    order, the candidate rows of each new pivot (see enumerate_subspaces)."""
    cols = [c for c in range(n) if c not in taken]
    out = []
    for pivots in itertools.combinations(cols, k):
        free = [c for c in cols if c not in pivots]
        choices = []
        for p in pivots:
            after = [c for c in free if c > p]
            rows = []
            for values in itertools.product(range(field.p), repeat=len(after)):
                row = [0] * n
                row[p] = 1
                for c, x in zip(after, values):
                    row[c] = x
                rows.append(tuple(row))
            choices.append(rows)
        out.append(choices)
    return out


def _grow(rows, choices, keep):
    """``rows`` followed by one row from each choice in turn, in product
    order, without the rows that ``keep`` refuses."""
    if not choices:
        yield rows
        return
    for row in choices[0]:
        if keep(row, rows):
            yield from _grow(rows + (row,), choices[1:], keep)
