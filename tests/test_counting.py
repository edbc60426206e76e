import itertools
import math

import pytest

from flagiso.counting import (
    QPolynomial,
    _over_bracket,
    _poincare_cached,
    _times_bracket,
    brute_force_count,
    dimension,
    point_count,
    poincare_polynomial,
)
from flagiso.descriptors import FiniteFlagVariety, finite_flag_variety, variety_violations
from flagiso.errors import ResourceLimitError, ValidationError

from oracles import (
    adjacent_descent,
    bfs_lengths,
    coset_poincare,
    count_incident_line_hyperplane_f2,
    count_lines_f2,
    even_orthogonal_grassmannian_count,
    gaussian_binomial,
    gaussian_binomial_poly,
    is_minimal_rep,
    is_palindromic,
    lagrangian_component_count,
    length,
    odd_orthogonal_grassmannian_count,
    poly_add,
    poly_from_degrees,
    q_integer_product,
    symplectic_grassmannian_count,
    weyl_elements,
)


def V(t, n, dims):
    return finite_flag_variety(t, n, dims)


# ---------------------------------------------------------------------------
# QPolynomial basics.


def test_qpolynomial_canonical_and_eval():
    p = QPolynomial((1, 1, 2, 1, 1, 0, 0))
    assert p.coefficients == (1, 1, 2, 1, 1)
    assert p.degree == 4
    assert p(2) == 35
    assert p.render() == "1 + q + 2*q^2 + q^3 + q^4"
    assert QPolynomial(()).render() == "0"


def test_qpolynomial_rejects_negative():
    with pytest.raises(ValidationError):
        QPolynomial((1, -1))


def test_qpolynomial_arithmetic():
    p = QPolynomial((1, 1))
    assert poly_add(p, QPolynomial((0, 0, 3))).coefficients == (1, 1, 3)
    assert poly_add(QPolynomial(()), p) == p
    assert poly_from_degrees({}) == QPolynomial(())
    assert poly_from_degrees({2: 3, 0: 1}).coefficients == (1, 0, 3)


def test_q_integer_products_and_exact_division():
    assert _times_bracket([1, 2], 3) == [1, 3, 3, 2]
    assert _over_bracket([1, 3, 3, 2], 3) == [1, 2]
    assert _over_bracket([1, 2, 1], 2) == [1, 1]
    with pytest.raises(ArithmeticError):
        _over_bracket([1, 1, 1], 2)  # 1 + q + q^2 = (1 + q) q + 1
    with pytest.raises(ArithmeticError):
        _over_bracket([1], 2)


# ---------------------------------------------------------------------------
# Length functions and descents against word-length search.


@pytest.mark.parametrize(
    "kind,m",
    [("A", 3), ("A", 4), ("BC", 2), ("BC", 3), ("D", 2), ("D", 3), ("D", 4)],
)
def test_lengths_match_bfs(kind, m):
    expected = bfs_lengths(kind, m)
    seen = 0
    for w in weyl_elements(kind, m):
        assert length(w, kind) == expected[w], w
        seen += 1
    assert seen == len(expected)


@pytest.mark.parametrize("kind,m", [("A", 4), ("BC", 3), ("D", 3)])
def test_descent_criterion_matches_length_drop(kind, m):
    for w in weyl_elements(kind, m):
        lw = length(w, kind)
        for i in range(m - 1):
            u = list(w)
            u[i], u[i + 1] = u[i + 1], u[i]
            drops = length(tuple(u), kind) < lw
            assert drops == adjacent_descent(w[i], w[i + 1])
        if kind == "BC":
            u = list(w)
            u[-1] = -u[-1]
            drops = length(tuple(u), kind) < lw
            assert drops == (w[-1] < 0)
        if kind == "D":
            u = list(w)
            u[-2], u[-1] = -w[-1], -w[-2]
            drops = length(tuple(u), kind) < lw
            special_descent = not is_minimal_rep(w, "D", (), True)
            assert drops == special_descent


def test_full_group_poincare_products():
    # type BC rank m: prod of [2i]_q; type D rank m: [m]_q * prod of [2i]_q, i < m
    for m in (2, 3):
        total = {}
        for w in weyl_elements("BC", m):
            l = length(w, "BC")
            total[l] = total.get(l, 0) + 1
        expect = q_integer_product([2 * i for i in range(1, m + 1)])
        assert poly_from_degrees(total) == expect
    for m in (2, 3, 4):
        total = {}
        for w in weyl_elements("D", m):
            l = length(w, "D")
            total[l] = total.get(l, 0) + 1
        expect = q_integer_product([m] + [2 * i for i in range(1, m)])
        assert poly_from_degrees(total) == expect


# ---------------------------------------------------------------------------
# Poincare polynomials.


def test_projective_line():
    assert poincare_polynomial(V("A", 2, (1,))).render() == "1 + q"


def test_grassmannian_polynomial_is_gaussian():
    for n in range(2, 7):
        for k in range(1, n):
            assert poincare_polynomial(V("A", n, (k,))) == gaussian_binomial_poly(n, k)


def test_poincare_a42_matches_enumeration():
    p = poincare_polynomial(V("A", 4, (2,)))
    assert p.render() == "1 + q + 2*q^2 + q^3 + q^4"
    assert p(2) == brute_force_count(V("A", 4, (2,)), 2) == 35
    assert p(3) == brute_force_count(V("A", 4, (2,)), 3) == 130


def test_maximal_orthogonal_pair_polynomials_equal():
    pb = poincare_polynomial(V("B", 5, (2,)))
    pd = poincare_polynomial(V("D", 6, (3,)))
    assert pb == pd
    assert pb(2) == brute_force_count(V("D", 6, (3,)), 2)
    for n in range(2, 6):
        assert poincare_polynomial(V("B", 2 * n - 1, (n - 1,))) == poincare_polynomial(
            V("D", 2 * n, (n,))
        )


def test_projective_symplectic_polynomials_equal():
    for n in (2, 3, 4):
        assert poincare_polynomial(V("A", 2 * n, (1,))) == poincare_polynomial(
            V("C", 2 * n, (1,))
        )


def valid_varieties(max_rank):
    """Every valid variety of rank <= max_rank."""
    for t in "ABCD":
        for n in range(2, 2 * max_rank + 2):
            if (n - 1 if t == "A" else n // 2) > max_rank:
                continue
            for r in range(1, n):
                for dims in itertools.combinations(range(1, n), r):
                    v = FiniteFlagVariety(t, n, dims)
                    if not variety_violations(v):
                        yield v


def test_polynomials_palindromic_and_euler():
    universe = list(valid_varieties(5))
    assert len(universe) == 213
    for v in universe:
        p = poincare_polynomial(v)
        assert is_palindromic(p), v
        assert p.coefficients == coset_poincare(v).coefficients, v


def _weyl_order_and_roots(t, m):
    """|W| and the number of positive roots: the symmetric group on m letters
    for t == "A", else the Weyl group of type t and rank m."""
    if t == "A":
        return math.factorial(m), m * (m - 1) // 2
    if t == "D":
        return (2 ** (m - 1) if m else 1) * math.factorial(m), m * (m - 1)
    return 2**m * math.factorial(m), m * m


def _levi_order_and_roots(t, n, dims):
    """|W_P| and the positive roots of the Levi: type-A blocks on the gaps, and
    the same type on the coordinates left above the top member."""
    cuts = (0,) + dims + ((n,) if t == "A" else ())
    blocks = [("A", b - a) for a, b in zip(cuts, cuts[1:])]
    if t != "A":
        blocks.append((t, n // 2 - dims[-1]))
    order, roots = 1, 0
    for kind, m in blocks:
        w, r = _weyl_order_and_roots(kind, m)
        order, roots = order * w, roots + r
    return order, roots


@pytest.mark.parametrize(
    "t,n,dims",
    [
        ("A", 21, (3, 10, 17)),
        ("B", 41, (5, 12)),
        ("C", 40, (20,)),
        ("D", 40, (2, 9, 18)),
        ("D", 40, (19, 20)),
        ("A", 97, (48,)),
        ("B", 193, (48,)),
        ("C", 192, (1, 96)),
        ("D", 192, (40, 96)),
    ],
)
def test_closed_form_beyond_enumeration(t, n, dims):
    # ranks 20 and 96, which the Weyl group enumeration could never reach
    p = poincare_polynomial(V(t, n, dims))
    assert is_palindromic(p)
    g_order, g_roots = _weyl_order_and_roots(t, n if t == "A" else n // 2)
    l_order, l_roots = _levi_order_and_roots(t, n, dims)
    assert g_order % l_order == 0
    assert p(1) == g_order // l_order
    assert p.degree == g_roots - l_roots


def test_point_count_examples():
    assert point_count(V("A", 2, (1,)), 2) == 3
    assert point_count(V("C", 4, (1,)), 2) == 15  # every line is isotropic
    assert point_count(V("B", 5, (2,)), 2) == 15
    assert point_count(V("B", 5, (2,)), 3) == 40


def test_single_member_counts_match_product_formulas():
    for q in (2, 3, 4):
        for m, k in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
            assert point_count(V("C", 2 * m, (k,)), q) == symplectic_grassmannian_count(m, k, q)
            assert point_count(V("B", 2 * m + 1, (k,)), q) == odd_orthogonal_grassmannian_count(m, k, q)
        for m, k in [(3, 1), (4, 1), (4, 2)]:
            assert point_count(V("D", 2 * m, (k,)), q) == even_orthogonal_grassmannian_count(m, k, q)
        for m in (2, 3, 4):
            assert point_count(V("D", 2 * m, (m,)), q) == lagrangian_component_count(m, q)


def test_dimension_examples():
    assert dimension(V("A", 3, (1, 2))) == 3  # longest element of the rank-2 group
    assert dimension(V("A", 2, (1,))) == 1
    # all lines of a 4-dimensional symplectic space: count is 1+q+q^2+q^3
    assert dimension(V("C", 4, (1,))) == 3
    for q in (2, 3):
        assert point_count(V("C", 4, (1,)), q) == count_lines_f2(4) if q == 2 else True
        assert point_count(V("C", 4, (1,)), q) == (q**4 - 1) // (q - 1)


def test_type_a_dimension_formula():
    for n in range(2, 8):
        for r in range(1, n):
            for dims in itertools.combinations(range(1, n), r):
                gaps = [b - a for a, b in zip((0,) + dims, dims + (n,))]
                expect = sum(
                    gaps[i] * gaps[j]
                    for i in range(len(gaps))
                    for j in range(i + 1, len(gaps))
                )
                assert dimension(V("A", n, dims)) == expect


# ---------------------------------------------------------------------------
# Brute-force oracle.


def test_brute_force_projective_plane():
    assert brute_force_count(V("A", 3, (1,)), 2) == 7
    assert brute_force_count(V("A", 3, (1,)), 2) == count_lines_f2(3)


def test_brute_force_incidence_flags_match_vector_loop():
    assert brute_force_count(V("A", 4, (1, 3)), 2) == count_incident_line_hyperplane_f2(4) == 105


def test_brute_force_lagrangian_component():
    assert brute_force_count(V("D", 4, (2,)), 2) == 3
    assert poincare_polynomial(V("D", 4, (2,))).render() == "1 + q"


def test_brute_force_matches_point_count_samples():
    # hand-picked cases, ambient 6 included (extension steps at ambient 6 and
    # the Lagrangian parity filter at odd m after an extension)
    picked = [
        (V("A", 4, (1, 2, 3)), 2),
        (V("A", 5, (2, 4)), 3),
        (V("C", 6, (1, 3)), 2),
        (V("C", 4, (1, 2)), 3),
        (V("D", 6, (3,)), 2),
        (V("D", 6, (1, 3)), 3),
        (V("D", 6, (2, 3)), 2),
        (V("B", 5, (1, 2)), 3),
        (V("D", 4, (1, 2)), 2),
    ]
    # every valid variety of ambient <= 5 small enough to enumerate: all
    # extension depths and the type-D Lagrangian parity filter
    generated = [
        (v, q)
        for q in (2, 3)
        for v in valid_varieties(4)
        if v.ambient_dim <= 5
        and not (v.lie_type == "B" and q == 2)
        and point_count(v, q) <= 3000
    ]
    assert len(generated) == 54
    # and every one of ambient 6 (types A, C and D; B has odd ambient), which
    # pruning each row that breaks isotropy as it is grown makes affordable
    ambient_6 = [
        (v, q)
        for q in (2, 3)
        for v in valid_varieties(5)
        if v.ambient_dim == 6 and point_count(v, q) <= 3000
    ]
    assert len(ambient_6) == 29
    cases = picked + [case for case in generated + ambient_6 if case not in picked]
    for v, q in cases:
        assert brute_force_count(v, q) == point_count(v, q), (v, q)


def test_brute_force_guards():
    with pytest.raises(ResourceLimitError):
        brute_force_count(V("A", 7, (1,)), 2)
    with pytest.raises(ValidationError):
        brute_force_count(V("A", 4, (1,)), 5)
    with pytest.raises(ValidationError):
        brute_force_count(V("B", 5, (1,)), 2)  # characteristic restriction


def test_rank_cap():
    # the cap is a constant: rank 96 computes, rank 97 is refused
    assert poincare_polynomial(V("A", 97, (1,)))(1) == 97
    with pytest.raises(ResourceLimitError, match="rank 97 exceeds the rank cap 96"):
        poincare_polynomial(V("A", 98, (1,)))


def test_poincare_memo_is_bounded_and_evicted_polynomials_recompute_equal():
    _poincare_cached.cache_clear()
    varieties = [
        V("A", n, dims) for n in range(3, 21) for dims in itertools.combinations(range(1, n), 2)
    ]
    assert len(varieties) > 1024
    first = [poincare_polynomial(v) for v in varieties]
    assert _poincare_cached.cache_info().currsize <= 1024
    again = poincare_polynomial(varieties[0])  # the oldest variety was evicted
    assert again is not first[0] and again == first[0]
    assert again.coefficients == coset_poincare(varieties[0]).coefficients
    assert [poincare_polynomial(v) for v in varieties] == first


def test_gaussian_binomial_oracle_self_check():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 3) == 1210
