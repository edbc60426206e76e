import copy
import json
import math
import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from flagiso import linalg as la
from flagiso import witness as W
from flagiso.linalg import QQ, PrimeField
from flagiso.errors import ValidationError


FIELDS = [QQ, PrimeField(2), PrimeField(5)]


def test_prime_field_requires_prime():
    with pytest.raises(ValidationError):
        PrimeField(6)


def _is_prime_by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_prime_field_agrees_with_trial_division():
    for p in range(-2, 20000):
        try:
            PrimeField(p)
            accepted = True
        except ValidationError as exc:
            assert str(exc) == f"{p} is not prime"
            accepted = False
        assert accepted == _is_prime_by_trial_division(p), p


def test_prime_field_rejects_a_strong_pseudoprime_to_bases_up_to_23():
    # 3825123056546413051 = 149491 * 747451 * 34233211 passes the strong
    # probable-prime test to every base 2..23
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    with pytest.raises(ValidationError, match="is not prime"):
        PrimeField(3825123056546413051)


def test_prime_field_accepts_a_mersenne_prime_at_once():
    assert PrimeField(2**61 - 1).p == 2305843009213693951


def test_prime_field_ops():
    f = PrimeField(5)
    assert f.of(Fraction(1, 2)) == 3
    assert f.reduce(7) == 2
    assert f.reduce(-1) == 4
    assert f.reduce(3 * f.inv(3)) == 1
    assert QQ.reduce(Fraction(-7, 3)) == Fraction(-7, 3)
    assert f.inv(3) == 2
    assert f.sqrt(4) in (2, 3)
    assert f.sqrt(2) is None  # 2 is not a square mod 5


def test_prime_field_sqrt_matches_the_scan():
    # Tonelli-Shanks returns the smaller root, the one the scan finds first
    for p in range(2, 200):
        if _is_prime_by_trial_division(p):
            f = PrimeField(p)
            assert [f.sqrt(a) for a in range(p)] == [oracles.sqrt_by_scan(a, p) for a in range(p)]


@pytest.mark.parametrize("p", [2**61 - 1, 998244353, 2**64 - 2**32 + 1])
def test_prime_field_sqrt_at_large_primes(p):
    # p - 1 divisible by 2, 2^23 and 2^32: Tonelli-Shanks' loop runs up to s - 1 times
    f, rng = PrimeField(p), random.Random(p)
    for _ in range(50):
        x = rng.randrange(1, p)
        assert f.sqrt(x * x) == min(x, p - x)
        y = rng.randrange(1, p)
        assert (f.sqrt(y) is None) == (pow(y, (p - 1) // 2, p) == p - 1)


def test_prime_field_takes_only_integers_and_fractions():
    f = PrimeField(5)
    assert f.of(True) == 1 and type(f.of(True)) is int and f.of(False) == 0
    assert f.of(-7) == 3 and f.of(Fraction(7, 2)) == 1
    for x in (2.5, "3", 1e30, 1.0, None):
        with pytest.raises(ValidationError, match="is not an integer or a fraction"):
            f.of(x)


def test_rationals_sqrt():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None


@pytest.mark.parametrize("field", FIELDS)
def test_rref_and_rank(field):
    rng = random.Random(41)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = la.random_matrix(rng, rows, cols, field)
        reduced, pivots = la.rref(a, field)
        assert len(reduced) == len(pivots) == la.rank(a, field)
        # rref is idempotent and spans the same row space
        again, _ = la.rref(reduced, field)
        assert again == reduced
        assert la.rowspace_eq(a, reduced, field)


@pytest.mark.parametrize("field", FIELDS)
def test_inverse(field):
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = la.random_invertible(rng, n, field)
        inv = la.inverse(a, field)
        assert la.mat_eq(la.mat_mul(a, inv, field), la.identity(n, field))


@pytest.mark.parametrize("field", FIELDS)
def test_inverse_refuses_a_matrix_that_is_not_square(field):
    # both have full rank, so elimination alone would return a block of the
    # wrong shape
    wide = la.mat([[1, 0, 0], [0, 1, 0]], field)
    with pytest.raises(ValidationError, match="cannot invert 2 rows: a row has length 3, not 2"):
        la.inverse(wide, field)
    with pytest.raises(ValidationError, match="cannot invert 3 rows: a row has length 2, not 3"):
        la.inverse(la.transpose(wide), field)


@pytest.mark.parametrize("field", FIELDS)
def test_nullspace_and_perp_dimensions(field):
    rng = random.Random(43)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 5)
        a = la.random_matrix(rng, rows, cols, field)
        null = la.nullspace(a, field, cols)
        assert len(null) == cols - la.rank(a, field)
        zero = field.zero()
        for v in null:
            prods = la.mat_mul(a, la.transpose((v,)), field)
            assert all(x == zero for row in prods for x in row)
    # no rows: the whole space, as the canonical form that perp(()) hands on
    whole = la.nullspace((), field, 3)
    assert type(whole) is la.Echelon and whole.pivots == (0, 1, 2)
    assert whole == la.identity(3, field)
    with pytest.raises(ValidationError, match="nullspace of an empty matrix needs ncols"):
        la.nullspace((), field)


@pytest.mark.parametrize("field", FIELDS)
def test_solve_left(field):
    rng = random.Random(44)
    for _ in range(50):
        r, c, k = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 3)
        m = la.random_matrix(rng, r, c, field)
        x = la.random_matrix(rng, k, r, field)
        b = la.mat_mul(x, m, field)
        sol = la.solve_left(m, b, field)
        assert sol is not None
        assert la.mat_eq(la.mat_mul(sol, m, field), b)


def test_solve_left_inconsistent():
    m = la.mat([(1, 0), (0, 0)], QQ)
    assert la.solve_left(m, la.mat([(0, 1)], QQ), QQ) is None


@pytest.mark.parametrize("field", FIELDS)
def test_intersection(field):
    rng = random.Random(45)
    for _ in range(30):
        n = rng.randint(2, 5)
        a = la.random_matrix(rng, rng.randint(1, n), n, field)
        b = la.random_matrix(rng, rng.randint(1, n), n, field)
        inter = oracles.intersect_rowspaces(a, b, field, n)
        assert la.rowspace_contains(a, inter, field)
        assert la.rowspace_contains(b, inter, field)
        # dimension formula: dim(a) + dim(b) = dim(a+b) + dim(a^b)
        dim_sum = la.rank(la.stack(a, b), field)
        assert la.rank(a, field) + la.rank(b, field) == dim_sum + len(inter)


def _assert_elements(m, field):
    # equality cannot see an int 0 on QQ, because Fraction(0) == 0
    for row in m:
        for x in row:
            if field == QQ:
                assert type(x) is Fraction, (m, x)
                assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1, (m, x)
            else:
                assert type(x) is int and 0 <= x < field.p, (m, x)


def _random_fractions(rng, rows, cols, field):
    """A QQ matrix with zeros, negative entries and denominators up to 10**6,
    mixed within each row (``la.random_matrix`` only draws integers)."""
    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


def _random_invertible(rng, n, field, draw):
    while True:
        a = draw(rng, n, n, field)
        if la.rank(a, field) == n:
            return a


@pytest.mark.parametrize("field", FIELDS)
def test_kernels_return_field_elements(field):
    rng = random.Random(46)
    draws = [la.random_matrix] + ([_random_fractions] if field == QQ else [])
    for draw in draws:
        for _ in range(30):
            r, c, k = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 3)
            zeros = ((field.zero(),) * c,)
            a = draw(rng, r, c, field) + zeros
            b = draw(rng, c, k, field)
            _assert_elements(la.mat_mul(a, b, field), field)
            _assert_elements(la.mat_mul(zeros, b, field), field)
            _assert_elements(la.mat_scale(field.zero(), a, field), field)
            _assert_elements(la.mat_scale(field.of(-2), a, field), field)
            _assert_elements(la.rref(a, field)[0], field)
            _assert_elements(la.nullspace(a, field, c), field)
            _assert_elements(la.nullspace(zeros, field, c), field)
            _assert_elements(la.inverse(_random_invertible(rng, c, field, draw), field), field)
            x = draw(rng, k, r + 1, field) + ((field.zero(),) * (r + 1),)
            sol = la.solve_left(a, la.mat_mul(x, a, field), field)
            _assert_elements(sol, field)


# ---------------------------------------------------------------------------
# The fraction-free kernel against Gauss-Jordan elimination on field elements.

_PROPERTY = settings(max_examples=300)

_KERNEL_FIELDS = (QQ, PrimeField(5), PrimeField(7))


def _entries(field):
    if field == QQ:
        return st.one_of(
            st.just(Fraction(0)),
            st.integers(-3, 3).map(Fraction),
            st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
        )
    return st.integers(0, field.p - 1)


@st.composite
def _matrix(draw, field, rows=None, cols=None):
    """A matrix with, now and then, zero rows, a zero column, and rows that
    are combinations of earlier ones (they become zero during elimination)."""
    r = draw(st.integers(1, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    entry = _entries(field)
    m = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]
    for i in range(1, r):
        kind = draw(st.sampled_from(("free", "free", "zero", "combination")))
        if kind == "zero":
            m[i] = [field.zero()] * c
        elif kind == "combination":
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(entry), draw(entry)
            m[i] = [field.reduce(s * x + t * y) for x, y in zip(m[j], m[k])]
    if c and draw(st.booleans()):
        col = draw(st.integers(0, c - 1))
        for row in m:
            row[col] = field.zero()
    return tuple(tuple(row) for row in m)


_field = st.sampled_from(_KERNEL_FIELDS)


@st.composite
def _field_and_matrix(draw, square=False, fields=_field):
    field = draw(fields)
    n = draw(st.integers(1, 5)) if square else None
    return field, draw(_matrix(field, rows=n, cols=n))


@st.composite
def _field_and_product(draw):
    """(field, a, b) with a (r x c) and b (c x k), any of r, c, k possibly 1
    and c or k possibly 0."""
    field, a = draw(_field_and_matrix())
    k = draw(st.integers(0, 4))
    return field, a, draw(_matrix(field, rows=len(a[0]), cols=k)) if a[0] else ()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


_ZERO_ROWS = (QQ, ((Fraction(0),) * 3,) * 2)
_DEPENDENT_ROWS = (
    QQ,
    (
        (Fraction(1, 3), Fraction(-2, 7), Fraction(5)),
        (Fraction(2, 3), Fraction(-4, 7), Fraction(10)),
        (Fraction(0), Fraction(999_999, 1_000_000), Fraction(-1, 2)),
    ),
)
_ROW = (QQ, ((Fraction(-7, 10**6), Fraction(0), Fraction(3, 4), Fraction(5)),))
_COLUMN = (PrimeField(7), ((0,), (3,), (6,)))
_NO_COLUMNS = (QQ, ((), (), ()))


@_PROPERTY
@given(_field_and_matrix())
@example(_ZERO_ROWS)
@example(_DEPENDENT_ROWS)
@example(_ROW)
@example(_COLUMN)
@example(_NO_COLUMNS)
@example((PrimeField(5), ((), ())))
def test_rref_matches_fraction_oracle(case):
    field, a = case
    got = la.rref(a, field)
    assert got == oracles.rref_by_fractions(a, field)
    _assert_elements(got[0], field)


@_PROPERTY
@given(_field_and_matrix())
@example(_ZERO_ROWS)
@example(_DEPENDENT_ROWS)
@example(_NO_COLUMNS)
def test_rref_of_an_echelon_is_the_same_object(case):
    field, a = case
    once = la.rref(a, field)
    twice = la.rref(once[0], field)
    assert twice[0] is once[0] and twice[1] is once[1]
    assert once == twice == oracles.rref_by_fractions(a, field)
    assert la.mat(once[0], field) is once[0]


# ---------------------------------------------------------------------------
# Canonical echelon values: what rref trusts, and how they travel.


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_echelon_pickles_and_copies_as_itself(field):
    e, pivots = la.rref(la.mat([[2, 4, 1, 3], [1, 2, 0, 4], [0, 0, 3, 1]], field), field)
    assert type(e) is la.Echelon and e.field == field and e.pivots == pivots
    for back in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert type(back) is la.Echelon
        assert back == e and back.field == field and back.pivots == pivots
        assert la.rref(back, field)[0] is back
        assert back.ints == e.ints and back.dens == e.dens
        assert (back.ints is back) == (field != QQ)


@_PROPERTY
@given(_field_and_matrix())
@example(_ZERO_ROWS)
@example(_DEPENDENT_ROWS)
@example(_ROW)
@example(_NO_COLUMNS)
def test_echelon_int_rows_are_its_rows_times_their_pivots(case):
    field, a = case
    e = la.rowspace(a, field)
    if field != QQ:
        assert e.ints is e
        return
    assert len(e.ints) == len(e)
    for row, ints, c, den in zip(e, e.ints, e.pivots, e.dens):
        assert all(type(x) is int for x in ints) and ints[c] == den
        assert row == tuple(Fraction(x, ints[c]) for x in ints)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_echelon_prints_and_hashes_as_a_plain_tuple(field):
    e = la.rowspace(la.mat([[1, 2, 3], [0, 1, 4]], field), field)
    plain = tuple(e)
    assert repr(e) == repr(plain) and hash(e) == hash(plain) and e == plain
    assert type(e[:1]) is tuple and type(e + ()) is tuple


def test_plain_tuple_in_reduced_form_is_still_reduced_and_converted():
    rows = ((1, 0, 2), (0, 1, 3))  # reduced already, but ints over QQ
    got, pivots = la.rref(rows, QQ)
    assert got is not rows and type(got) is la.Echelon and pivots == (0, 1)
    assert got == rows and all(type(x) is Fraction for row in got for x in row)
    assert all(type(x) is Fraction for row in la.mat(rows, QQ) for x in row)


def test_unreduced_prime_field_input():
    # the kernels take field elements: mat reduces, and a pivot entry that is
    # a multiple of p is refused by name instead of by pow
    f3 = PrimeField(3)
    assert la.rref(la.mat(((1, 0, 3), (0, 1, 4)), f3), f3)[0] == ((1, 0, 0), (0, 1, 1))
    with pytest.raises(ValidationError, match="entry 3 is not invertible mod 3"):
        la.rank(((3,),), f3)
    # (3, 0, 0) is zero in F_3: through mat it lies in every row space
    assert la.rowspace_contains(la.mat(((0, 1, 0),), f3), la.mat(((3, 0, 0),), f3), f3)


def test_echelon_over_another_field_is_reduced_again():
    e = la.rowspace(((1, 0, 3), (0, 1, 4)), PrimeField(5))
    for field in (PrimeField(7), QQ):
        got, pivots = la.rref(e, field)
        assert got is not e and got.field == field
        assert (got, pivots) == oracles.rref_by_fractions(la.mat(tuple(e), field), field)
        _assert_elements(got, field)
    # mod 3 the rows are ((1, 0, 0), (0, 1, 1)): mat converts them again
    f3 = PrimeField(3)
    converted = la.mat(e, f3)
    assert converted == ((1, 0, 0), (0, 1, 1)) and type(converted) is tuple
    assert la.rowspace(converted, f3).field == f3


@_PROPERTY
@given(_field_and_product())
@example((QQ, _DEPENDENT_ROWS[1], _DEPENDENT_ROWS[1]))
@example((QQ, _ROW[1], tuple((x,) for x in _ROW[1][0])))
@example((PrimeField(7), _COLUMN[1], ((4, 0, 5),)))
@example((QQ, _NO_COLUMNS[1], ()))
@example((QQ, _ROW[1], ((),) * 4))
def test_mat_mul_matches_fraction_oracle(case):
    field, a, b = case
    # a canonical left operand is read through its int rows, whose
    # denominators (its pivot entries) may be negative
    for left in (a, la.rowspace(a, field)):
        want = oracles.mat_mul_by_fractions(left, b, field)
        got = la.mat_mul(left, b, field)
        assert got == want
        _assert_elements(got, field)
        _assert_product(la.product(left, b, field), want, field)


def _assert_product(p, want, field):
    """An int product: over QQ an IntRows whose rows are canonical (gcd 1,
    den > 0) and equal want entry by entry; over F_p the reduced rows."""
    if field != QQ or not want:
        assert type(p) is tuple and p == want
        return
    assert type(p) is la.IntRows and len(p) == len(p.dens) == len(want)
    for ints, den, row in zip(p, p.dens, want):
        assert all(type(x) is int for x in ints) and type(den) is int and den > 0
        assert math.gcd(den, *ints) == 1
        assert tuple(Fraction(x, den) for x in ints) == row


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(3)])
def test_mat_mul_refuses_mismatched_shapes(field):
    a = la.mat([[1, 2, 3]], field)
    for b in (la.mat([[1], [2]], field), la.mat([[1], [2], [3], [4]], field), ()):
        with pytest.raises(ValidationError, match="rows of length 3 by"):
            la.mat_mul(a, b, field)
    # () on the right has no rows, so only rows of length 0 multiply it
    assert la.mat_mul(((), ()), (), field) == ((), ())


@_PROPERTY
@given(_field_and_matrix(square=True))
@example(_ZERO_ROWS)
@example((QQ, _DEPENDENT_ROWS[1][:2] + ((Fraction(1, 10**6),) * 3,)))
@example((PrimeField(5), ((3,),)))
def test_inverse_matches_fraction_oracle(case):
    field, a = case
    got = _outcome(la.inverse, a, field)
    assert got == _outcome(oracles.inverse_by_fractions, a, field)
    if got[0] != "ValidationError":
        _assert_elements(got, field)


@_PROPERTY
@given(_field_and_matrix())
@example(_ZERO_ROWS)
@example(_DEPENDENT_ROWS)
@example(_ROW)
@example(_COLUMN)
@example(_NO_COLUMNS)
def test_nullspace_matches_fraction_oracle(case):
    field, a = case
    ncols = len(a[0])
    want = oracles.nullspace_by_fractions(a, field, ncols)
    # a canonical operand hands over its int rows, over negative pivots
    for m in (a, la.rowspace(a, field)):
        got = la.nullspace(m, field, ncols)
        assert got == want
        _assert_elements(got, field)


@_PROPERTY
@given(_field_and_product(), st.booleans())
@example((QQ, _DEPENDENT_ROWS[1], _DEPENDENT_ROWS[1]), False)
@example((QQ, _DEPENDENT_ROWS[1], _DEPENDENT_ROWS[1]), True)
@example((PrimeField(7), _COLUMN[1], ((4, 0, 5),)), False)
def test_solve_left_matches_fraction_oracle(case, perturb):
    # b = x . m is consistent; moving one entry of b may make it inconsistent
    field, x, m = case
    b = oracles.mat_mul_by_fractions(x, m, field)
    if perturb and b[0]:
        b = ((field.reduce(b[0][0] + field.one()),) + b[0][1:],) + b[1:]
    got = la.solve_left(m, b, field)
    assert got == oracles.solve_left_by_fractions(m, b, field)
    if got is not None:
        _assert_elements(got, field)
        assert len(got) == len(b)


@st.composite
def _field_and_pair(draw, fields=_field):
    """(field, a, b) where each row of b is a combination of the rows of a
    (inside) or drawn freely (mostly outside); now and then a or b has no
    rows."""
    field, a = draw(_field_and_matrix(fields=fields))
    entry = _entries(field)
    b = []
    # sampled_from sets the odds: integer ranges draw their ends too often
    for _ in range(draw(st.sampled_from((1, 1, 2, 2, 3, 3, 0)))):
        if draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(a), max_size=len(a)))
            row = [
                field.reduce(sum((s * x for s, x in zip(coeffs, col)), field.zero()))
                for col in zip(*a)
            ]
        else:
            row = draw(st.lists(entry, min_size=len(a[0]), max_size=len(a[0])))
        b.append(tuple(row))
    if draw(st.sampled_from((False,) * 6 + (True,))):
        a = ()
    return field, a, tuple(b)


_PLAIN = (False, False)


@_PROPERTY
@given(_field_and_pair(), st.tuples(st.booleans(), st.booleans()))
@example((QQ, _DEPENDENT_ROWS[1], _DEPENDENT_ROWS[1][1:2]), _PLAIN)  # inside
@example((QQ, _DEPENDENT_ROWS[1], _DEPENDENT_ROWS[1][1:2]), (True, True))
@example((QQ, _DEPENDENT_ROWS[1][:2], _DEPENDENT_ROWS[1][2:]), _PLAIN)  # outside
@example((QQ, _DEPENDENT_ROWS[1][:2], _DEPENDENT_ROWS[1][2:]), (True, False))
@example((PrimeField(7), _COLUMN[1], ((5,),)), _PLAIN)
@example((PrimeField(7), _COLUMN[1], ((5,),)), (True, True))
@example((QQ, _ROW[1], ()), _PLAIN)  # empty b
@example((QQ, (), _ROW[1]), _PLAIN)  # empty a
@example((QQ, (), _ROW[1]), (True, True))
@example((QQ, (), _ZERO_ROWS[1]), _PLAIN)  # empty a, zero rows in b
@example((QQ, _ROW[1], ((Fraction(0),) * 4, tuple(-2 * x for x in _ROW[1][0]))), (False, True))
@example((PrimeField(5), (), ()), _PLAIN)
def test_rowspace_contains_matches_elimination_oracle(case, as_echelon):
    # a, b or both may be canonical values, which hand over their int rows
    field, a, b = case
    a, b = [la.rowspace(m, field) if e else m for m, e in zip((a, b), as_echelon)]
    got = la.rowspace_contains(a, b, field)
    assert got == oracles.rowspace_contains_by_elimination(a, b, field)
    assert got == oracles.rowspace_contains_by_rank(a, b, field)


@_PROPERTY
@given(_field_and_pair())
@example((QQ, _DEPENDENT_ROWS[1], _DEPENDENT_ROWS[1][1:2]))
@example((QQ, _DEPENDENT_ROWS[1][:2], _DEPENDENT_ROWS[1][2:]))
@example((PrimeField(7), _COLUMN[1], ((5,),)))
@example((QQ, (), _ZERO_ROWS[1]))
def test_rowspace_eq_matches_the_fraction_oracle(case):
    # a against a with b's rows added: equal exactly when b lies inside;
    # either side plain, canonical (negative pivots) or an int product
    field, a, b = case
    if not (a or b):
        return
    ab = la.stack(a, b)
    unit = la.identity(len(ab[0]), field)
    for x, y in ((a, ab), (ab, a), (ab, ab)):
        want = oracles.rref_by_fractions(_plain(x), field)[0] == oracles.rref_by_fractions(
            _plain(y), field
        )[0]
        for f in (x, la.rowspace(x, field), la.product(x, unit, field)):
            for g in (y, la.rowspace(y, field), la.product(y, unit, field)):
                assert la.rowspace_eq(f, g, field) == want


@_PROPERTY
@given(_field_and_product())
@example((QQ, _DEPENDENT_ROWS[1], _DEPENDENT_ROWS[1]))
@example((QQ, _ROW[1], tuple((x,) for x in _ROW[1][0])))
@example((PrimeField(7), _COLUMN[1], ((4, 0, 5),)))
@example((QQ, _ROW[1], ((),) * 4))
def test_int_products_feed_every_kernel_that_takes_them(case):
    # the int value of a product, over QQ an IntRows, goes where a matrix
    # goes in rref, rank, nullspace, rowspace_contains, rowspace_eq, stack,
    # mat_mul and mat_eq, and gives what its Fraction rows give
    field, a, b = case
    if not (b and b[0]):
        return
    ncols = len(b[0])
    for left in (a, la.rowspace(a, field)):
        want = oracles.mat_mul_by_fractions(left, b, field)
        if not want:
            continue
        p = la.product(left, b, field)
        assert la.rref(p, field) == oracles.rref_by_fractions(want, field)
        assert la.rank(p, field) == len(oracles.rref_by_fractions(want, field)[0])
        assert la.nullspace(p, field, ncols) == oracles.nullspace_by_fractions(want, field, ncols)
        for x, y in ((p, b), (b, p), (p, p)):
            assert la.rowspace_contains(x, y, field) == oracles.rowspace_contains_by_elimination(
                want if x is p else x, want if y is p else y, field
            )
        assert la.rowspace_eq(p, want, field) and la.rowspace_eq(want, p, field)
        unit = la.identity(ncols, field)
        assert la.mat_mul(p, unit, field) == want
        stacked = la.stack(p, la.mat(b, field), ())
        assert la.rref(stacked, field) == oracles.rref_by_fractions(want + tuple(b), field)
        assert la.mat_mul(stacked, unit, field) == want + tuple(b)
        assert la.stack((), p) is p
        for other in (want, la.mat(want, field), la.mat_mul(left, b, field)):
            assert la.mat_eq(p, other) and la.mat_eq(other, p)
        moved = ((field.reduce(want[0][0] + field.one()),) + want[0][1:],) + want[1:]
        assert not la.mat_eq(p, moved) and not la.mat_eq(moved, p)
        assert not la.mat_eq(p, want[:-1]) and not la.mat_eq(p, want + want[:1])


@_PROPERTY
@given(_field_and_matrix())
@example(_ZERO_ROWS)
@example(_DEPENDENT_ROWS)
@example(_COLUMN)
@example(_NO_COLUMNS)
def test_rank_matches_fraction_oracle(case):
    field, a = case
    assert la.rank(a, field) == len(oracles.rref_by_fractions(a, field)[0])


# ---------------------------------------------------------------------------
# The kernels over F_2 and F_3, where the brute-force counts and the BD
# witness run: pivot entries p - 1, which pivot scales to 1, and rows that
# vanish mod p as they are updated.  A field strategy of their own, so the
# draws over _KERNEL_FIELDS stay as they are.

_small_field = st.sampled_from((PrimeField(2), PrimeField(3)))

# the pivot of column 0 is 2; row 1 is -row 0 and vanishes; column 1's pivot
# is 2 again, and updating row 0 by it leaves -4 before the reduction mod 3
_PIVOTS_OF_P_MINUS_1 = (PrimeField(3), ((2, 1, 0, 1), (1, 2, 0, 2), (0, 2, 1, 2)))
# row 1 equals row 0, and row 3 is row 0 + row 2: both vanish mod 2
_ROWS_VANISHING_MOD_2 = (PrimeField(2), ((1, 1, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)))


@_PROPERTY
@given(_field_and_matrix(fields=_small_field))
@example(_PIVOTS_OF_P_MINUS_1)
@example(_ROWS_VANISHING_MOD_2)
@example((PrimeField(3), ((2,), (1,))))
@example((PrimeField(2), ((), ())))
def test_kernels_over_f2_and_f3_match_the_fraction_oracles(case):
    # rank eliminates forward only; an Echelon answers with its length
    field, a = case
    want = oracles.rref_by_fractions(a, field)
    got = la.rref(a, field)
    assert got == want
    _assert_elements(got[0], field)
    for m in (a, la.mat(a, field), got[0]):
        assert la.rank(m, field) == len(want[0])
        assert la.nullspace(m, field, len(a[0])) == oracles.nullspace_by_fractions(
            a, field, len(a[0])
        )


@_PROPERTY
@given(_field_and_pair(fields=_small_field), st.tuples(st.booleans(), st.booleans()))
@example((*_PIVOTS_OF_P_MINUS_1, ((1, 2, 0, 2), (0, 1, 2, 1))), _PLAIN)  # inside
@example((*_PIVOTS_OF_P_MINUS_1, ((1, 2, 0, 2), (0, 1, 2, 1))), (True, True))
@example((*_PIVOTS_OF_P_MINUS_1, ((0, 0, 1, 0),)), _PLAIN)  # outside
@example((*_ROWS_VANISHING_MOD_2, ((0, 1, 1), (1, 0, 1))), (True, False))
@example((*_ROWS_VANISHING_MOD_2, ((1, 1, 1),)), _PLAIN)
def test_rowspace_contains_over_f2_and_f3_matches_the_oracles(case, as_echelon):
    field, a, b = case
    a, b = [la.rowspace(m, field) if e else m for m, e in zip((a, b), as_echelon)]
    got = la.rowspace_contains(a, b, field)
    assert got == oracles.rowspace_contains_by_elimination(a, b, field)
    assert got == oracles.rowspace_contains_by_rank(a, b, field)


# ---------------------------------------------------------------------------
# Rows of unequal length: the kernels zip rows, so they refuse them.


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_mat_refuses_rows_of_unequal_length(field):
    with pytest.raises(ValidationError, match=r"rows of unequal length \[2, 3\]"):
        la.mat(((1, 0), (1, 0, 3)), field)
    assert la.mat(((1, 0), (0, 3)), field) == ((1, 0), (0, 3))


def test_rank_refuses_rows_of_unequal_length():
    # the tail 3 of the longer row was cut off: rank 1
    f5 = PrimeField(5)
    with pytest.raises(ValidationError, match=r"rows of unequal length \[4, 5\]"):
        la.rank(((1, 0, 0, 0), (1, 0, 0, 0, 3)), f5)
    with pytest.raises(ValidationError, match="unequal length"):
        la.rref(((1, 0, 0, 0, 3), (1, 0, 0, 0)), f5)


def test_rowspace_contains_refuses_rows_of_another_width():
    # (1, 0, 3) was compared on its first two entries: contained
    f5 = PrimeField(5)
    with pytest.raises(ValidationError, match="a row of length 3 against 2"):
        la.rowspace_contains(((1, 0),), ((1, 0, 3),), f5)
    with pytest.raises(ValidationError, match="a row of length 1 against 2"):
        la.rowspace_contains(la.rowspace(((1, 0),), QQ), ((0,),), QQ)
    # a has no rows and so no width: only zero rows lie in its span
    assert la.rowspace_contains((), ((0, 0, 0),), f5)
    assert not la.rowspace_contains((), ((0, 1),), f5)


# ---------------------------------------------------------------------------
# Cleared values: kernel outputs over QQ that keep their int rows.


def _assert_cleared(m, field):
    """Over QQ, a nonempty m carries int rows with row == ints / den entry by
    entry; over F_p m is a plain tuple, or an Echelon that is its own int
    rows."""
    if field != QQ:
        assert type(m) is tuple or (type(m) is la.Echelon and m.ints is m), type(m)
        return
    if not m:
        return
    assert isinstance(m, la.Cleared) and m.field == QQ
    assert len(m.ints) == len(m.dens) == len(m)
    for row, ints, den in zip(m, m.ints, m.dens):
        assert type(den) is int and den != 0
        assert len(ints) == len(row) and all(type(x) is int for x in ints)
        assert row == tuple(Fraction(x, den) for x in ints)


def _forms(a, field):
    """The matrix a as each kind of value a kernel meets: the plain tuple, a
    Cleared from mat, a product, a stack of two Cleared, the transpose of a
    Cleared, and the canonical Echelon (another matrix, same row space)."""
    half = len(a) // 2
    return [
        a,
        la.mat(a, field),
        la.mat_mul(a, la.identity(len(a[0]), field), field),
        la.stack(la.mat(a[:half], field), la.mat(a[half:], field)),
        la.transpose(la.mat(la.transpose(a), field)),
        la.rowspace(a, field),
    ]


def _plain(m):
    return tuple(map(tuple, m))


@_PROPERTY
@given(_field_and_product())
@example((QQ, _DEPENDENT_ROWS[1], _DEPENDENT_ROWS[1]))
@example((QQ, _ROW[1], tuple((x,) for x in _ROW[1][0])))
@example((PrimeField(7), _COLUMN[1], ((4, 0, 5),)))
@example((QQ, _NO_COLUMNS[1], ()))
@example((QQ, _ROW[1], ((),) * 4))
def test_kernels_match_the_fraction_oracles_on_every_form(case):
    field, a, b = case
    rights = [g for g in (_forms(b, field) if b else [b]) if len(g) == len(b)]
    for f in _forms(a, field):
        _assert_elements(f, field)
        if f is not a:
            _assert_cleared(f, field)
        assert la.rref(f, field) == oracles.rref_by_fractions(_plain(f), field)
        assert la.rank(f, field) == len(oracles.rref_by_fractions(_plain(f), field)[0])
        for g in rights:
            got = la.mat_mul(f, g, field)
            assert got == oracles.mat_mul_by_fractions(_plain(f), _plain(g), field)
            if f:
                _assert_cleared(got, field)
            # got's rows lie in the span of g's; g's rows are often outside
            for x, y in ((g, got), (got, g)):
                want = oracles.rowspace_contains_by_elimination(_plain(x), _plain(y), field)
                assert la.rowspace_contains(x, y, field) == want
            want = oracles.solve_left_by_fractions(_plain(g), _plain(got), field)
            assert la.solve_left(g, got, field) == want


@_PROPERTY
@given(_field_and_matrix(square=True))
@example(_ZERO_ROWS)
@example((QQ, _DEPENDENT_ROWS[1][:2] + ((Fraction(1, 10**6),) * 3,)))
@example((QQ, ((Fraction(1, 3), Fraction(2)), (Fraction(-5, 7), Fraction(0)))))
def test_inverse_matches_the_fraction_oracle_on_every_form(case):
    field, a = case
    for f in _forms(a, field):
        if len(f) != len(a):
            continue
        got = _outcome(la.inverse, f, field)
        want = _outcome(oracles.inverse_by_fractions, _plain(f), field)
        assert got == want
        if want[0] != "ValidationError":
            _assert_elements(got, field)
            _assert_cleared(got, field)


def _cleared_values():
    a = la.mat([[2, Fraction(1, 3), 0], [Fraction(-5, 4), 1, 7]], QQ)
    return {
        "mat": a,
        "mat_mul": la.mat_mul(a, la.transpose(a), QQ),
        "stack": la.stack(a, la.rowspace(a, QQ)),
        "transpose": la.transpose(a),
        "inverse": la.inverse(la.mat([[1, Fraction(2, 3)], [3, 4]], QQ), QQ),
    }


@pytest.mark.parametrize("name", sorted(_cleared_values()))
def test_cleared_value_prints_hashes_and_travels_as_itself(name):
    m = _cleared_values()[name]
    assert type(m) is la.Cleared
    _assert_cleared(m, QQ)
    plain = tuple(m)
    assert repr(m) == repr(plain) and hash(m) == hash(plain) and m == plain
    assert json.dumps(m, default=str) == json.dumps(plain, default=str)
    assert type(m[:1]) is tuple and type(m + ()) is tuple
    for back in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert type(back) is la.Cleared and back == m and back.field == QQ
        assert back.ints == m.ints and back.dens == m.dens
        assert la.mat(back, QQ) is back


def test_products_of_cleared_values_clear_nothing():
    # the int rows travel with the values, so no Fraction row is cleared again
    a = la.mat([[Fraction(1, 2), 3, 0], [0, Fraction(-2, 3), Fraction(5, 7)]], QQ)
    b = la.mat([[1, Fraction(1, 5)], [Fraction(-3, 4), 0], [2, Fraction(9, 2)]], QQ)
    calls = []
    clear = la.Rationals.clear

    def counted(row):
        calls.append(row)
        return clear(row)

    with mock.patch.object(la.Rationals, "clear", staticmethod(counted)):
        ab = la.mat_mul(a, b, QQ)
        aba = la.mat_mul(ab, a, QQ)
        rank = la.rank(la.stack(aba, a), QQ)
        bt = la.mat_mul(ab, la.transpose(b), QQ)
    assert calls == []
    assert ab == oracles.mat_mul_by_fractions(a, b, QQ)
    assert aba == oracles.mat_mul_by_fractions(ab, a, QQ)
    assert rank == len(oracles.rref_by_fractions(la.stack(aba, a), QQ)[0])
    assert bt == oracles.mat_mul_by_fractions(ab, tuple(zip(*b)), QQ)


def test_enumerate_subspaces_counts():
    f2 = PrimeField(2)
    assert sum(1 for _ in la.enumerate_subspaces(4, 2, f2)) == 35
    f3 = PrimeField(3)
    assert sum(1 for _ in la.enumerate_subspaces(3, 1, f3)) == 13


_SMALL = [(n, d, p) for p in (2, 3) for n in range(1, 6) for d in range(n + 1)]


@pytest.mark.parametrize(
    "n,d,base,message",
    [
        (3, -1, (), "cannot grow 0 base rows to dimension -1"),
        (3, 0, ((1, 0, 0),), "cannot grow 1 base rows to dimension 0"),
        (4, 1, ((1, 0, 0, 0), (0, 1, 0, 0)), "cannot grow 2 base rows to dimension 1"),
        (3, 2, ((0, 0, 0),), "base rows must be nonzero"),
        (3, 2, ((1, 0, 0), (0, 0, 0)), "base rows must be nonzero"),
        (3, 2, ((1, 0),), "base rows must have 3 entries, not 2"),
        (3, 2, ((1, 0, 0, 0),), "base rows must have 3 entries, not 4"),
        # rank 2: it yielded ((1, 0, 0), (1, 1, 0), (0, 1, 0)) among three
        (3, 3, ((1, 0, 0), (1, 1, 0)), "base rows must have distinct pivot columns"),
    ],
)
def test_enumerate_subspaces_refuses_bad_arguments(n, d, base, message):
    with pytest.raises(ValidationError, match=message):
        list(la.enumerate_subspaces(n, d, PrimeField(3), base=base))


def test_enumerate_subspaces_grows_a_base_to_its_own_dimension_once():
    f3 = PrimeField(3)
    base = ((1, 0, 2),)
    assert list(la.enumerate_subspaces(3, 1, f3, base=base)) == [base]
    assert list(la.enumerate_subspaces(3, 4, f3, base=base)) == []
    assert sum(1 for _ in la.enumerate_subspaces(3, 2, f3, base=base)) == 4


@pytest.mark.parametrize("n,d,p", _SMALL)
def test_enumerate_subspaces_matches_product_oracle(n, d, p):
    # the same subspaces in the same order as one product over all free entries
    field = PrimeField(p)
    want = list(oracles.enumerate_subspaces_by_product(n, d, field))
    assert list(la.enumerate_subspaces(n, d, field)) == want


def _singular(row, p):
    # the split quadratic form written out: x_i x_(n-1-i) summed over the lower
    # half, plus x_mid^2 / 2 at odd length
    n = len(row)
    total = sum(row[i] * row[n - 1 - i] for i in range(n // 2))
    if n % 2:
        total += row[n // 2] ** 2 * pow(2, -1, p)
    return total % p == 0


_FORMS = [
    (t, n, p)
    for t, ns, ps in [("C", (2, 4), (2, 3)), ("D", (2, 4), (2, 3)), ("B", (3, 5), (3,))]
    for n in ns
    for p in ps
]


@pytest.mark.parametrize("t,n,p", _FORMS)
def test_isotropic_keep_yields_the_filtered_oracle_sequence(t, n, p):
    # pruning rows that break isotropy keeps exactly the isotropic subspaces,
    # in the oracle's order
    field = PrimeField(p)
    keep = W.split_form(t, n, field).keep()
    form = oracles.split_form_by_kind(t, n, field)
    for d in range(n + 1):
        want = [
            rows
            for rows in oracles.enumerate_subspaces_by_product(n, d, field)
            if oracles.is_isotropic_by_form(rows, form, field)
            and (t == "C" or all(_singular(row, p) for row in rows))
        ]
        assert list(la.enumerate_subspaces(n, d, field, keep=keep)) == want, d


@pytest.mark.parametrize(
    "t,n,p",
    [("B", n, 3) for n in (3, 5)] + [(t, n, p) for t in "CD" for n in (2, 4, 6) for p in (2, 3)],
)
def test_isotropic_keep_answers_as_the_keep_by_terms(t, n, p):
    # one keep across every dimension, so later enumerations meet rows whose
    # functional is already memoized; every pair the enumeration asks about
    field = PrimeField(p)
    keep = W.split_form(t, n, field).keep()
    oracle = oracles.isotropic_keep_by_terms(t, n, field)
    asked = []

    def both(row, rows):
        got = keep(row, rows)
        assert got == oracle(row, rows), (row, rows)
        asked.append(got)
        return got

    for d in range(n + 1):
        for _ in la.enumerate_subspaces(n, d, field, keep=both):
            pass
    assert True in asked and False in asked


@pytest.mark.parametrize("n,p", [(n, p) for p in (2, 3) for n in range(1, 6)])
def test_enumerate_superspaces_of_a_base(n, p):
    # reduced bases and grown ones (a base plus rows off its pivots, not in
    # reduced form): every superspace of each dimension once
    field = PrimeField(p)
    rng = random.Random(f"superspaces/{n}/{p}")
    subspaces = {d: list(oracles.enumerate_subspaces_by_product(n, d, field)) for d in range(n + 1)}
    bases = []
    for k in range(n + 1):
        for base in rng.sample(subspaces[k], min(2, len(subspaces[k]))):
            bases.append(base)
            if k < n:
                bases.append(rng.choice(list(la.enumerate_subspaces(n, k + 1, field, base=base))))
    for base in bases:
        for d in range(len(base), n + 1):
            got = list(la.enumerate_subspaces(n, d, field, base=base))
            assert all(rows[: len(base)] == base for rows in got)
            spans = [la.rowspace(rows, field) for rows in got]
            assert all(len(span) == d for span in spans)
            assert len(set(spans)) == len(spans)
            want = {
                rows
                for rows in subspaces[d]
                if oracles.rowspace_contains_by_elimination(rows, base, field)
            }
            assert set(spans) == want, (base, d)


@pytest.mark.parametrize("n,p", [(4, 2), (5, 3)])
def test_enumerate_subspaces_with_a_cache_keeps_the_order(n, p):
    # one cache across bases of several pivot sets, as brute_force_count
    # keeps it: the same subspaces in the same order as without it
    field = PrimeField(p)
    cache = {}
    for k in range(n):
        for base in oracles.enumerate_subspaces_by_product(n, k, field):
            for d in range(k, n + 1):
                want = list(la.enumerate_subspaces(n, d, field, base=base))
                assert list(la.enumerate_subspaces(n, d, field, base=base, cache=cache)) == want
    assert len(cache) == sum(math.comb(n, k) * (n - k + 1) for k in range(n))


# ---------------------------------------------------------------------------
# Chains: one elimination, by row insertion, serves every prefix of a list of
# blocks, and the annihilators of a nested chain are one more.  A field
# strategy of their own, so no draw above moves.

_chain_field = st.sampled_from((QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)))


@st.composite
def _field_and_blocks(draw):
    """(field, blocks): the rows of one matrix, with its zero rows and rows
    that combine earlier ones, cut into blocks, some of them empty."""
    field = draw(_chain_field)
    a = draw(_matrix(field, rows=draw(st.integers(1, 7))))
    cuts = sorted(draw(st.lists(st.integers(0, len(a)), max_size=4)))
    bounds = [0, *cuts, len(a)]
    return field, [a[i:j] for i, j in zip(bounds, bounds[1:])]


_F3 = PrimeField(3)
# row 1 is twice row 0 and vanishes; the empty block adds nothing; the last
# row combines rows of the first and third blocks
_CHAIN_OF_DEPENDENT_ROWS = (_F3, [((1, 2, 0), (2, 1, 0)), (), ((0, 0, 1),), ((1, 2, 2),)])
# the second block's pivot column 0 lies left of the first block's, so the
# row is inserted above it and clears it from above nothing
_CHAIN_INSERTED_ABOVE = (
    QQ,
    [((Fraction(0), Fraction(2), Fraction(3)),), ((Fraction(5), Fraction(1), Fraction(0)),)],
)
_CHAIN_OF_ZERO_ROWS = (PrimeField(2), [((0, 0),), ((0, 0), (1, 1)), ((0, 0),)])


def _prefixes(blocks):
    """The stacked rows of each prefix of the blocks, as plain tuples."""
    out, rows = [], ()
    for block in blocks:
        rows += tuple(block)
        out.append(rows)
    return out


@_PROPERTY
@given(_field_and_blocks())
@example(_CHAIN_OF_DEPENDENT_ROWS)
@example(_CHAIN_INSERTED_ABOVE)
@example(_CHAIN_OF_ZERO_ROWS)
@example((PrimeField(7), [(), ()]))
def test_each_chain_form_is_the_rowspace_of_its_prefix(case):
    field, blocks = case
    forms = list(la.rowspace_chain(blocks, field))
    assert len(forms) == len(blocks)
    for form, prefix in zip(forms, _prefixes(blocks)):
        reduced, pivots = oracles.rref_by_fractions(prefix, field)
        assert type(form) is la.Echelon and form.field == field
        assert (form, form.pivots) == (reduced, pivots)
        assert la.rref(prefix, field) == (form, pivots)
        _assert_elements(form, field)
        _assert_cleared(form, field)
    # a block that adds no rank yields the form before it again
    for before, form in zip(forms, forms[1:]):
        assert (form is before) == (len(form) == len(before))


@_PROPERTY
@given(_field_and_blocks())
@example(_CHAIN_OF_DEPENDENT_ROWS)
@example(_CHAIN_INSERTED_ABOVE)
@example(_CHAIN_OF_ZERO_ROWS)
def test_the_annihilator_chain_is_the_null_space_of_each_member(case):
    field, blocks = case
    n = len(_prefixes(blocks)[-1][0])
    forms = list(la.rowspace_chain(blocks, field))
    got = la.annihilator_chain(forms, field, n)
    assert len(got) == len(forms)
    for ann, form, prefix in zip(got, reversed(forms), reversed(_prefixes(blocks))):
        want = oracles.nullspace_by_fractions(prefix, field, n)
        assert ann == want == la.nullspace(form, field, n)
        assert ann.pivots == oracles.rref_by_fractions(want, field)[1]
        _assert_cleared(ann, field)
    for smaller, larger in zip(got, got[1:]):
        assert la.rowspace_contains(larger, smaller, field)


@_PROPERTY
@given(_field_and_blocks())
@example(_CHAIN_OF_DEPENDENT_ROWS)
@example(_CHAIN_INSERTED_ABOVE)
def test_chain_forms_answer_as_a_fresh_rref(case):
    # the forms are read after the whole chain is built, so a form whose
    # int rows were shared with a later one would answer for the later one
    field, blocks = case
    rows = _prefixes(blocks)[-1]
    n = len(rows[0])
    forms = list(la.rowspace_chain(blocks, field))
    for form, prefix in zip(forms, _prefixes(blocks)):
        fresh = la.rref(prefix, field)[0]
        assert la.rank(form, field) == len(fresh)
        assert la.rowspace_eq(form, fresh, field) and la.rowspace_eq(fresh, form, field)
        assert la.rowspace_eq(form, rows, field) == la.rowspace_eq(fresh, rows, field)
        assert la.nullspace(form, field, n) == la.nullspace(fresh, field, n)
        for other in (rows, *blocks, *forms):
            if other:
                assert la.rowspace_contains(form, other, field) == la.rowspace_contains(
                    fresh, other, field
                )
                assert la.rowspace_contains(other, form, field) == la.rowspace_contains(
                    other, fresh, field
                )


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_new_rows_with_the_smaller_member_span_the_larger(field):
    rng = random.Random(f"new-rows/{field}")
    for _ in range(30):
        a = la.random_matrix(rng, 5, 6, field)
        small, large = la.rowspace(a[:2], field), la.rowspace(a, field)
        new = la.new_rows(small, large, field)
        assert len(small) + len(new) == len(large)
        assert la.rowspace(la.stack(small, new), field) == large
        _assert_cleared(new, field)
        assert la.new_rows((), large, field) is large
    # a plain tuple is reduced before its pivots are read
    assert la.new_rows(((0, 2, 0),), ((1, 0, 0), (0, 1, 0)), field) == ((1, 0, 0),)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)])
def test_product_refuses_ragged_operands(field):
    # zip cut the longer rows short: ((1,), (1,)) and ((1,),)
    with pytest.raises(ValidationError, match=r"rows of unequal length \[1, 2\]"):
        la.mat_mul(((1, 0), (1,)), ((1,), (1,)), field)
    with pytest.raises(ValidationError, match=r"rows of unequal length \[1, 2\]"):
        la.product(((1, 0),), ((1,), (1, 0)), field)
    # a kernel-built operand is not checked again, and is never ragged
    assert la.mat_mul(la.mat(((1, 0), (0, 1)), field), ((1,), (1,)), field) == ((1,), (1,))
