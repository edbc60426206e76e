import random
from fractions import Fraction

import pytest

from flagiso import linalg as la
from flagiso import witness as W
from flagiso.generate import (
    composable_pair,
    perturb_triangle_top,
    random_descriptor,
    random_rebase_instance,
    random_source_point,
    random_strict_extension,
)
from flagiso.linalg import QQ, PrimeField
from flagiso.descriptors import min_truncation_width, parse_descriptor
from flagiso.errors import ValidationError

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def unit_rows(indices, n):
    return [tuple(1 if j == i else 0 for j in range(n)) for i in indices]


# ---------------------------------------------------------------------------
# Flag points and perp.


def test_flag_point_validates_chain():
    with pytest.raises(W.WitnessError):
        W.flag_point(QQ, 3, [unit_rows([0, 1], 3), unit_rows([2], 3)])
    with pytest.raises(W.WitnessError):
        W.flag_point(QQ, 3, [unit_rows([0], 3), unit_rows([0], 3)])


def test_flag_point_validates_isotropy():
    form = W.split_antisymmetric_form(4, QQ)
    W.flag_point(QQ, 4, [unit_rows([0, 1], 4)], form=form)
    with pytest.raises(W.WitnessError):
        W.flag_point(QQ, 4, [unit_rows([0, 3], 4)], form=form)


def test_perp_basics():
    form = W.split_antisymmetric_form(6, QQ)
    assert len(W.perp((), form, QQ)) == 6
    lag = tuple(unit_rows([0, 1, 2], 6))
    assert la.rowspace_eq(W.perp(lag, form, QQ), lag, QQ)
    with pytest.raises(W.WitnessError):
        W.perp(lag, [[0] * 6] * 6, QQ)


def test_perp_double_and_dimension_on_random_subspaces():
    rng = random.Random(51)
    checked = 0
    while checked < 500:
        field = [QQ, F3, F5][checked % 3]
        n = rng.choice([4, 6])
        form = (
            W.split_antisymmetric_form(n, field)
            if checked % 2
            else W.split_symmetric_form(n, field)
        )
        rows = la.rowspace(la.random_matrix(rng, rng.randint(1, n - 1), n, field), field)
        if not rows:
            continue
        p = W.perp(rows, form, field)
        assert len(rows) + len(p) == n
        assert la.rowspace_eq(W.perp(p, form, field), rows, field)
        checked += 1


# ---------------------------------------------------------------------------
# Rebase automorphisms.


def test_rebase_identity():
    chain = W.flag_point(QQ, 3, [unit_rows([0], 3)])
    e = la.identity(3, QQ)
    assert la.mat_eq(W.rebase_automorphism(chain, e, e), e)


def test_rebase_transposition_inside_gap():
    chain = W.flag_point(QQ, 4, [unit_rows([0], 4), unit_rows([0, 1, 2], 4)])
    e = la.identity(4, QQ)
    e2 = la.mat(unit_rows([0, 2, 1, 3], 4), QQ)
    alpha = W.rebase_automorphism(chain, e, e2)
    assert la.mat_eq(alpha, e2)


def test_rebase_symplectic_rescaled_basis():
    form = W.split_antisymmetric_form(4, QQ)
    chain = W.flag_point(QQ, 4, [unit_rows([0], 4)], form=form)
    e = la.identity(4, QQ)
    e2 = la.mat(
        [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 5)], QQ
    )
    alpha = W.rebase_automorphism(chain, e, e2, form=form)
    # exhaustive bilinear check on all basis pairs
    for x in la.identity(4, QQ):
        for y in la.identity(4, QQ):
            lhs = W.form_values((x,), form, (y,), QQ)
            ax = la.mat_mul((x,), alpha, QQ)
            ay = la.mat_mul((y,), alpha, QQ)
            rhs = W.form_values(ax, form, ay, QQ)
            assert lhs == rhs
    # the chain member is fixed
    assert la.rowspace_eq(la.mat_mul(chain.subspaces[0], alpha, QQ), chain.subspaces[0], QQ)


def test_rebase_incompatible_basis_names_subspace():
    chain = W.flag_point(QQ, 3, [((1, 1, 0),)])
    e = la.identity(3, QQ)
    with pytest.raises(W.WitnessError) as err:
        W.rebase_automorphism(chain, e, e)
    assert err.value.certificate is not None


def test_rebase_orthogonal_fixed_point_scaling():
    # scaling the self-paired vector by c changes its form value by c^2, so
    # the square-root correction always exists for valid bases
    form = W.split_symmetric_form(5, QQ)
    chain = W.flag_point(QQ, 5, [unit_rows([0], 5)], form=form)
    e = la.identity(5, QQ)
    for c in (Fraction(4), Fraction(2), Fraction(3, 7)):
        e2 = [list(r) for r in la.identity(5, QQ)]
        e2[2][2] = c
        alpha = W.rebase_automorphism(chain, e, la.mat(e2, QQ), form=form)
        lhs = la.mat_mul(la.mat_mul(alpha, form, QQ), la.transpose(alpha), QQ)
        assert la.mat_eq(lhs, form)


def test_rebase_generated_instances():
    rng = random.Random(52)
    for i in range(40):
        field = [QQ, F5][i % 2]
        chain, e, e2, form = random_rebase_instance(rng, field, isotropic=i % 2 == 0)
        W.rebase_automorphism(chain, e, e2, form)


# ---------------------------------------------------------------------------
# Standard extensions.


def _simple_data():
    alpha = la.mat(unit_rows([0, 1], 4), QQ)
    comp = la.mat(unit_rows([2, 3], 4), QQ)
    return W.standard_extension(QQ, 1, alpha, comp, [la.mat(unit_rows([2], 4), QQ)], (1,))


def test_identity_extension_is_identity():
    n = 3
    d = W.standard_extension(
        QQ, 2, la.identity(n, QQ), (), [(), ()], (1, 2)
    )
    p = W.flag_point(QQ, n, [unit_rows([0], n), unit_rows([0, 1], n)])
    assert W.apply_standard_extension(d, p).subspaces == p.subspaces
    m = W.pic_pullback(d)
    assert m.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert W.is_linear(m)


def test_line_extension_example():
    d = _simple_data()
    p = W.flag_point(QQ, 2, [((1, 2),)])
    out = W.apply_standard_extension(d, p)
    assert out.subspaces == (la.rowspace(la.mat([(1, 2, 0, 0), (0, 0, 1, 0)], QQ), QQ),)


def test_modified_extension_is_annihilator_chain():
    d = W.standard_extension(QQ, 1, la.identity(3, QQ), (), [()], (1,), strict=False)
    p = W.flag_point(QQ, 3, [((1, 2, 3),)])
    out = W.apply_standard_extension(d, p)
    assert out.dims() == (2,)
    prods = la.mat_mul(p.subspaces[0], la.transpose(out.subspaces[0]), QQ)
    assert all(x == 0 for row in prods for x in row)


def test_extension_validation():
    alpha = la.mat(unit_rows([0, 1], 4), QQ)
    comp = la.mat(unit_rows([2, 3], 4), QQ)
    with pytest.raises(W.WitnessError):  # kappa misses a member
        W.standard_extension(QQ, 2, alpha, comp, [la.mat(unit_rows([2], 4), QQ)], (1,))
    with pytest.raises(W.WitnessError):  # constant step without kappa growth
        W.standard_extension(
            QQ, 1, alpha, comp,
            [la.mat(unit_rows([2], 4), QQ), la.mat(unit_rows([2], 4), QQ)],
            (1, 1),
        )
    with pytest.raises(W.WitnessError):  # filtration outside the complement
        W.standard_extension(QQ, 1, alpha, comp, [la.mat(unit_rows([0], 4), QQ)], (1,))


def test_strictness_rule_table():
    rng = random.Random(53)
    seen = set()
    for _ in range(60):
        d1, d2 = composable_pair(rng, QQ)
        c = W.compose_standard_extensions(d1, d2)
        assert c.strict == (d1.strict == d2.strict)
        seen.add((d1.strict, d2.strict))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_compose_agrees_pointwise_on_200_points():
    rng = random.Random(54)
    points = 0
    while points < 200:
        with_forms = points % 3 == 0
        d1, d2 = composable_pair(rng, QQ if points % 2 else F5, with_forms=with_forms)
        c = W.compose_standard_extensions(d1, d2)
        for _ in range(5):
            p = random_source_point(rng, d1)
            lhs = W.apply_standard_extension(c, p)
            rhs = W.apply_standard_extension(d2, W.apply_standard_extension(d1, p))
            assert lhs.subspaces == rhs.subspaces
            points += 1


def test_pullback_functorial_and_linear():
    rng = random.Random(55)
    for _ in range(40):
        d1, d2 = composable_pair(rng, QQ)
        c = W.compose_standard_extensions(d1, d2)
        m1, m2, mc = W.pic_pullback(d1), W.pic_pullback(d2), W.pic_pullback(c)
        assert W.compose_pullbacks(m1, m2).entries == mc.entries
        assert W.is_linear(m1) and W.is_linear(m2) and W.is_linear(mc)


def test_is_linear_rejects_sums():
    m = W.PicPullback(((1, 0, 0), (0, 1, 2), (0, 0, 0)))
    assert not W.is_linear(m)


def test_is_ample():
    assert W.is_ample((1, 1, 1), 3)
    assert W.is_ample((2, 5), 2)
    assert not W.is_ample((1, 0, 2), 3)
    with pytest.raises(ValidationError):
        W.is_ample((1, 1), 3)


# ---------------------------------------------------------------------------
# Triangle checks.


def test_triangle_clean_composition():
    rng = random.Random(56)
    d1 = random_strict_extension(rng, QQ)
    d2 = random_strict_extension(rng, QQ, source_members=d1.slots, source_dim=d1.target_dim)
    chi = W.compose_standard_extensions(d1, d2)
    rep = W.check_triangle(d1, d2, chi)
    assert rep.ok and not rep.adjusted and rep.scalar == 1


def test_triangle_beta_adjustment():
    rng = random.Random(57)
    adjusted = 0
    for _ in range(30):
        d1 = random_strict_extension(rng, QQ)
        d2 = random_strict_extension(rng, QQ, source_members=d1.slots, source_dim=d1.target_dim)
        chi = W.compose_standard_extensions(d1, d2)
        chi2 = perturb_triangle_top(rng, chi)
        if chi2 is None:
            continue
        rep = W.check_triangle(d1, d2, chi2)
        assert rep.ok, rep.messages
        assert la.mat_eq(la.mat_mul(d1.alpha, rep.beta, QQ), chi2.alpha)
        adjusted += rep.adjusted
    assert adjusted >= 5


def test_triangle_tampered_slot_map_reports_index():
    d1 = _simple_data()
    alpha2 = la.mat(unit_rows([0, 1, 2, 3], 6), QQ)
    comp2 = la.mat(unit_rows([4, 5], 6), QQ)
    d2 = W.standard_extension(
        QQ, 1, alpha2, comp2, [la.mat(unit_rows([4], 6), QQ), comp2], (1, 1)
    )
    chi = W.compose_standard_extensions(d1, d2)
    tampered = W.standard_extension(
        QQ, 1, chi.alpha, chi.complement, chi.filtration, (1, 2)
    )
    rep = W.check_triangle(d1, d2, tampered)
    assert not rep.ok and not rep.slot_map_ok
    assert any("slot 2" in m for m in rep.messages)


# ---------------------------------------------------------------------------
# Isotropic extensions.


def test_isotropic_extension_into_symplectic():
    p = W.flag_point(F5, 2, [((1, 2),)])
    emb = la.mat(unit_rows([0, 1], 4), F5)
    form = W.split_antisymmetric_form(4, F5)
    out = W.isotropic_extension(p, form, emb)
    assert out.dims() == (1,)
    assert out.form is not None


def test_isotropic_extension_certificate():
    p = W.flag_point(F5, 2, [((1, 2),)])
    form = W.split_antisymmetric_form(4, F5)
    bad = la.mat(unit_rows([0, 3], 4), F5)
    with pytest.raises(W.WitnessError) as err:
        W.isotropic_extension(p, form, bad)
    assert err.value.certificate is not None
    x, y = err.value.certificate
    assert W.form_values((x,), form, (y,), F5)[0][0] != 0


def test_isotropic_extension_flag_in_dim8():
    p = W.flag_point(QQ, 3, [unit_rows([0], 3), unit_rows([0, 1], 3)])
    form = W.split_antisymmetric_form(8, QQ)
    emb = la.mat(unit_rows([0, 1, 2], 8), QQ)
    out = W.isotropic_extension(p, form, emb)
    assert out.dims() == (1, 2)
    for s in out.subspaces:
        assert W.is_isotropic_subspace(s, form, QQ)


# ---------------------------------------------------------------------------
# The odd/even orthogonal pair.


def test_bd_phi_line_example():
    form = W.split_symmetric_form(4, QQ)
    m = W.flag_point(QQ, 4, [unit_rows([1], 4)], form=form)
    lag = W.bd_phi(2, m)
    assert lag.subspaces[0] == la.rowspace(la.mat(unit_rows([0, 1], 4), QQ), QQ)


def test_bd_phi_reference_flag_when_parity_admits():
    form = W.split_symmetric_form(6, QQ)
    m = W.flag_point(QQ, 6, [unit_rows([1, 2], 6)], form=form)
    lag = W.bd_phi(3, m)
    assert lag.subspaces[0] == tuple(la.identity(6, QQ)[:3])


def test_bd_phi_rejects_bad_input():
    form = W.split_symmetric_form(4, QQ)
    with pytest.raises(W.WitnessError):  # not inside the odd hyperplane
        W.bd_phi(2, W.flag_point(QQ, 4, [unit_rows([0], 4)], form=form))
    with pytest.raises(W.WitnessError):  # wrong dimension
        W.bd_phi(2, W.flag_point(QQ, 4, [unit_rows([1, 2], 4)], form=form))
    for n in (-1, 0, 1):  # the sources share bd_phi's bound
        with pytest.raises(W.WitnessError, match="needs n >= 2"):
            list(W.enumerate_bd_sources(n, F3))
        with pytest.raises(W.WitnessError, match="needs n >= 2"):
            W.random_bd_source(random.Random(0), n, F3)


def test_bd_phi_bijection_f2_and_f3():
    for field in (F2, F3):
        for n in (2, 3):
            sources = list(W.enumerate_bd_sources(n, field))
            images = {W.bd_phi(n, s).subspaces for s in sources}
            targets = {t.subspaces for t in W.enumerate_component_lagrangians(n, field)}
            assert images == targets
            assert len(images) == len(sources)


def test_bd_square_exhaustive_small():
    rep = W.bd_square_check(2, W.enumerate_bd_sources(2, F3))
    assert rep.ok and rep.checked == 4
    rep = W.bd_square_check(2, W.enumerate_bd_sources(2, F2))
    assert rep.ok and rep.checked == 3


def test_bd_square_random_f5():
    rng = random.Random(58)
    sample = [W.random_bd_source(rng, 3, F5) for _ in range(10)]
    rep = W.bd_square_check(3, sample)
    assert rep.ok and rep.checked == 10


def test_bd_over_rationals():
    rng = random.Random(59)
    form = W.split_symmetric_form(6, QQ)
    w_rows = W.bd_hyperplane_basis(3, QQ)
    # a rational isotropic 2-subspace of the odd hyperplane
    m = W.flag_point(
        QQ, 6, [la.mat([w_rows[1], w_rows[3]], QQ)], form=form
    )
    lag = W.bd_phi(3, m)
    assert len(lag.subspaces[0]) == 3
    assert W.is_totally_singular(lag.subspaces[0], QQ)


# ---------------------------------------------------------------------------
# Exhaustion steps.


@pytest.mark.parametrize(
    "text",
    [
        "gen: seq[1] + omega(2)",
        "gen: omegastar(2) + seq[1,inf]",
        "gen: seq[inf,1]",
        "symp: half=seq[1]; middle=inf",
        "symp: half=seq[2] + omega(2); middle=inf",
        "orth: half=seq[inf]; middle=1",
        "orth: half=seq[inf,1]; middle=empty",
        "orth: half=omega(1); middle=inf",
        # finite middles above 1: the middle keeps its halves and odd centre
        "orth: half=seq[1] + omega(1); middle=3",
        "orth: half=seq[1] + omega(1); middle=4",
        "symp: half=omega(2); middle=4",
    ],
)
def test_exhaustion_step_matches_standard_points(text):
    d = parse_descriptor(text)
    n0 = min_truncation_width(d)
    for n in (n0, n0 + 1):
        step = W.exhaustion_step(d, n)
        src = W.standard_point(d, n)
        tgt = W.standard_point(d, n + 1)
        assert W.apply_standard_extension(step, src).subspaces == tgt.subspaces


def test_exhaustion_steps_compose():
    d = parse_descriptor("symp: half=seq[1]; middle=inf")
    n0 = min_truncation_width(d)
    s1 = W.exhaustion_step(d, n0)
    s2 = W.exhaustion_step(d, n0 + 1)
    c = W.compose_standard_extensions(s1, s2)
    src = W.standard_point(d, n0)
    out = W.apply_standard_extension(c, src)
    assert out.subspaces == W.standard_point(d, n0 + 2).subspaces
    assert c.strict


def test_point_json_round():
    p = W.flag_point(QQ, 3, [((Fraction(1, 2), 0, 1),)])
    obj = W.point_to_json(p)
    assert obj["ambient_dim"] == 3
    assert obj["subspaces"][0]["entries"][0] == ["1", "0", "2"]
