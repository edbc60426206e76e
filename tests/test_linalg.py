import random
from fractions import Fraction

import pytest

from flagiso import linalg as la
from flagiso.linalg import QQ, PrimeField
from flagiso.errors import ValidationError


FIELDS = [QQ, PrimeField(2), PrimeField(5)]


def test_prime_field_requires_prime():
    with pytest.raises(ValidationError):
        PrimeField(6)


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
        inter = la.intersect_rowspaces(a, b, field, n)
        for v in inter:
            assert la.in_rowspace(v, la.rowspace(a, field), field)
            assert la.in_rowspace(v, la.rowspace(b, field), field)
        # dimension formula: dim(a) + dim(b) = dim(a+b) + dim(a^b)
        dim_sum = la.rank(la.stack(a, b), field)
        assert la.rank(a, field) + la.rank(b, field) == dim_sum + len(inter)


def _assert_elements(m, field):
    # equality cannot see an int 0 on QQ, because Fraction(0) == 0
    for row in m:
        for x in row:
            if field == QQ:
                assert type(x) is Fraction, (m, x)
            else:
                assert type(x) is int and 0 <= x < field.p, (m, x)


@pytest.mark.parametrize("field", FIELDS)
def test_kernels_return_field_elements(field):
    rng = random.Random(46)
    for _ in range(30):
        r, c, k = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 3)
        zeros = ((field.zero(),) * c,)
        a = la.random_matrix(rng, r, c, field) + zeros
        b = la.random_matrix(rng, c, k, field)
        _assert_elements(la.mat_mul(a, b, field), field)
        _assert_elements(la.mat_mul(zeros, b, field), field)
        _assert_elements(la.mat_add(a, a, field), field)
        _assert_elements(la.mat_scale(field.zero(), a, field), field)
        _assert_elements(la.mat_scale(field.of(-2), a, field), field)
        _assert_elements(la.rref(a, field)[0], field)
        _assert_elements(la.nullspace(a, field, c), field)
        _assert_elements(la.nullspace(zeros, field, c), field)
        _assert_elements(la.inverse(la.random_invertible(rng, c, field), field), field)
        x = la.random_matrix(rng, k, r + 1, field) + ((field.zero(),) * (r + 1),)
        sol = la.solve_left(a, la.mat_mul(x, a, field), field)
        _assert_elements(sol, field)


def test_enumerate_subspaces_counts():
    f2 = PrimeField(2)
    assert sum(1 for _ in la.enumerate_subspaces(4, 2, f2)) == 35
    f3 = PrimeField(3)
    assert sum(1 for _ in la.enumerate_subspaces(3, 1, f3)) == 13
