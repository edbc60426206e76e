import copy
import dataclasses
import json
import pickle
import random
import re
from fractions import Fraction

import pytest

from flagiso import cli
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
from flagiso.counting import brute_force_count, point_count
from flagiso.descriptors import finite_flag_variety, min_truncation_width, parse_descriptor
from flagiso.errors import ResourceLimitError, ValidationError

import oracles
from oracles import (
    enumerate_subspaces_by_product,
    is_totally_singular_by_form,
    lagrangian_component_count,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def unit_rows(indices, n):
    return [tuple(1 if j == i else 0 for j in range(n)) for i in indices]


# ---------------------------------------------------------------------------
# Flag points and perp.


def test_flag_point_validates_chain():
    cases = [
        ([], "a flag point needs at least one member"),
        ([()], "members must be proper nonzero subspaces"),
        ([unit_rows([0, 1, 2], 3)], "members must be proper nonzero subspaces"),
        ([unit_rows([0, 1], 3), unit_rows([2], 3)], "member dimensions must strictly increase"),
        ([unit_rows([0], 3), unit_rows([0], 3)], "member dimensions must strictly increase"),
        ([unit_rows([0], 3), unit_rows([1, 2], 3)], "member 0 is not contained in member 1"),
    ]
    for members, message in cases:
        with pytest.raises(W.WitnessError) as err:
            W.flag_point(QQ, 3, members)
        assert str(err.value) == message


def test_flag_point_checks_row_lengths_before_it_reduces():
    # the 3 in the longer row was dropped by the reduction: the line <e1>
    with pytest.raises(W.WitnessError, match="member rows must have 4 entries"):
        W.flag_point(F5, 4, [((1, 0, 0, 0), (1, 0, 0, 0, 3))])
    with pytest.raises(W.WitnessError, match="member rows must have 4 entries"):
        W.flag_point(QQ, 4, [unit_rows([0], 4), ((1, 0, 0, 0), (0, 1, 0))])


def test_flag_point_rejects_rows_of_the_wrong_length():
    with pytest.raises(W.WitnessError, match="4 entries"):
        W.flag_point(QQ, 4, [((1, 0, 0),)])
    with pytest.raises(W.WitnessError, match="4 entries"):
        W.flag_point(F3, 4, [unit_rows([0], 4), ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))])
    # a point built around flag_point: bd_step refuses it at once
    short = W.FiniteFlagPoint(QQ, 4, (((0, 1, 0),),), W.split_form("D", 4, QQ))
    with pytest.raises(W.WitnessError, match="6 entries"):
        W.bd_step(2, short)


@pytest.mark.parametrize("field", [QQ, F2, F3])
def test_split_form_matches_the_builders_per_kind(field):
    for n in range(10):
        assert W.split_form("A", n, field) is None
        if n % 2:
            with pytest.raises(W.WitnessError, match=f"needs an even ambient, not {n}"):
                W.split_form("C", n, field)
        else:
            assert W.split_form("C", n, field) == oracles.split_antisymmetric_form(n, field)
        for t in "BD":
            assert W.split_form(t, n, field) == oracles.split_symmetric_form(n, field)


def test_flag_point_validates_isotropy():
    form = W.split_form("C", 4, QQ)
    W.flag_point(QQ, 4, [unit_rows([0, 1], 4)], form=form)
    with pytest.raises(W.WitnessError):
        W.flag_point(QQ, 4, [unit_rows([0, 3], 4)], form=form)


def _not_the_split_form(n, field):
    return f"form must be the split form of ambient {n} over {field!r}"


@pytest.mark.parametrize("field", [QQ, F3, F2])
def test_flag_point_refuses_every_form_but_a_split_form_of_its_size(field):
    line = [unit_rows([0], 4)]
    split = W.split_form("D", 4, field)
    assert W.flag_point(field, 4, line, form=split).form is split
    other = F5 if field == QQ else QQ
    bad = [
        ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
        tuple(row + (0,) for row in split),  # 4 x 5
        [list(row) for row in split],  # the split form's own entries
        W.split_form("D", 4, other),
        W.split_form("D", 6, field),
    ]
    for form in bad:
        with pytest.raises(W.WitnessError) as err:
            W.flag_point(field, 4, line, form=form)
        assert str(err.value) == _not_the_split_form(4, field)
    # restrictions, which may be degenerate, are refused with the same
    # message: the form on the odd hyperplane (rank 4 of 5 over F_2), and a
    # symplectic form on an odd-dimensional subspace, which has no split form
    restricted = [
        (5, W.split_form("D", 6, field).restrict(W.bd_hyperplane_basis(3, field))),
        (3, W.split_form("C", 4, field).restrict(unit_rows([0, 1, 2], 4))),
    ]
    for n, form in restricted:
        with pytest.raises(W.WitnessError) as err:
            W.flag_point(field, n, [unit_rows([n - 1], n)], form=form)
        assert str(err.value) == _not_the_split_form(n, field)
    # a member that is not isotropic under the split form: over F_2, B
    # vanishes on the line, but Q(e_1 + e_4) = 1
    with pytest.raises(W.WitnessError, match="member 0 is not isotropic"):
        W.flag_point(field, 4, [((1, 0, 0, 1),)], form=split)


@pytest.mark.parametrize("field", [QQ, F3])
def test_points_built_with_the_shared_split_form_equal_points_with_a_copy(field):
    form = W.split_form("C", 6, field)
    assert W.split_form("C", 6, field) is form
    members = [unit_rows([0], 6), unit_rows([0, 1, 2], 6)]
    shared = W.flag_point(field, 6, members, form=form)
    for other in (pickle.loads(pickle.dumps(form)), copy.deepcopy(form)):
        assert other is not form
        assert shared == W.flag_point(field, 6, members, form=other)
    assert shared.form == form


@pytest.mark.parametrize("field", [QQ, F2, F3, F5])
def test_split_form_is_a_tuple_of_the_builders_rows(field):
    # rows of Fraction over QQ and of int over F_p, as the plain builders
    # make them, and a valid form by the oracle's rank and transpose, which
    # split_form does not check; Q and B read from the terms agree with the
    # formulas
    rng = random.Random(f"form-terms/{field}")
    element = Fraction if field == QQ else int
    minus = field.reduce(-field.one())
    for t in "BCD":
        for n in range(10):
            if t == "C" and n % 2:
                continue
            form = W.split_form(t, n, field)
            plain = oracles.split_form_by_kind(t, n, field)
            assert isinstance(form, tuple) and tuple(form) == plain
            assert all(type(row) is tuple for row in form)
            assert all(type(x) is element for row in form for x in row)
            assert (form.field, form.lie_type) == (field, t)
            assert len(oracles.rref_by_fractions(plain, field)[0]) == n
            sign = minus if t == "C" else field.one()
            for i, row in enumerate(plain):
                assert all(plain[j][i] == field.reduce(sign * x) for j, x in enumerate(row))
            # over F_2 no quadratic form polarizes to a nonzero diagonal
            # entry, which the symmetric forms have at odd length
            assert (form.terms is None) == (field == F2 and n % 2 == 1)
            if form.terms is None or n == 0:  # no Q, or no vectors to pair
                continue
            for _ in range(5):
                x, u = la.random_matrix(rng, 2, n, field)
                lin = form.polar(x)
                assert field.reduce(sum(a * b for a, b in zip(lin, u))) == (
                    oracles.bilinear_by_form((x,), plain, (u,), field)[0][0]
                )
                if t != "C":
                    assert form.quadratic(x) == oracles.split_quadratic_by_formula(x, field)


@pytest.mark.parametrize("field", [F2, F3, QQ])
def test_restricted_form_is_the_form_in_coefficients(field):
    # Q and B of coefficient vectors are those of their combinations of the
    # basis, over F_2 too, where the restriction is degenerate
    rng = random.Random(f"restrict/{field}")
    form = W.split_form("D", 6, field)
    basis = W.bd_hyperplane_basis(3, field)
    on_w = form.restrict(basis)
    assert type(on_w) is W.Form and len(on_w) == 5 and on_w.lie_type == "D"
    for _ in range(20):
        c, d = la.random_matrix(rng, 2, 5, field)
        x, u = la.mat_mul((c, d), basis, field)
        assert on_w.quadratic(c) == oracles.split_quadratic_by_formula(x, field)
        assert field.reduce(sum(a * b for a, b in zip(on_w.polar(c), d))) == (
            oracles.bilinear_by_form((x,), form, (u,), field)[0][0]
        )
        assert on_w.pair((c,), (d,)) == form.pair((x,), (u,))


def test_form_pickles_and_copies_as_itself():
    # the benchmark pickles its inputs: split forms, a point's form, a
    # restriction and a form without terms come back as themselves, and
    # every operation answers as before
    values = [
        W.split_form("C", 6, QQ),
        W.split_form("B", 5, F5),
        W.flag_point(F3, 4, [unit_rows([0], 4)], form=W.split_form("D", 4, F3)).form,
        W.split_form("D", 6, F2).restrict(W.bd_hyperplane_basis(3, F2)),
        W.split_form("B", 5, F2),
    ]
    for form in values:
        rows = la.identity(len(form), form.field)[:2]
        for other in (pickle.loads(pickle.dumps(form)), copy.copy(form), copy.deepcopy(form)):
            assert type(other) is W.Form and other == form
            assert (other.field, other.lie_type, other.terms) == (
                form.field, form.lie_type, form.terms
            )
            assert la.mat_eq(other.matrix, form.matrix)
            assert other.pair(rows, rows) == form.pair(rows, rows)
            assert other.perp(rows) == form.perp(rows)
            if form.terms is None:
                with pytest.raises(W.WitnessError, match="polar form of no quadratic form"):
                    other.keep()
                continue
            assert other.restrict(rows) == form.restrict(rows)
            keep, keep_other = form.keep(), other.keep()
            for row in la.identity(len(form), form.field):
                assert other.polar(row) == form.polar(row)
                assert keep_other(row, rows) == keep(row, rows)
                if form.lie_type != "C":
                    assert other.quadratic(row) == form.quadratic(row)
    point = W.flag_point(QQ, 6, [unit_rows([0], 6)], form=values[0])
    assert pickle.loads(pickle.dumps(point)) == point
    # split_form shares one value with every caller, so none may change it
    with pytest.raises(AttributeError, match="frozen"):
        values[0].terms = ()


@pytest.mark.parametrize("field", [QQ, F3])
def test_only_a_form_over_the_field_is_taken(field):
    # a rebase and an extension, like a point, take only a Form over their
    # field, so the split form's own rows or kernel matrix, and the split
    # form over another field, are refused
    form = W.split_form("D", 4, field)
    other = F5 if field == QQ else QQ
    message = re.escape(_not_the_split_form(4, field))
    line = [unit_rows([0], 4)]
    chain = W.flag_point(field, 4, line)
    e = la.identity(4, field)
    for bad in ([list(row) for row in form], tuple(form), form.matrix, W.split_form("D", 4, other)):
        with pytest.raises(W.WitnessError, match=message):
            W.rebase_automorphism(chain, e, e, form=bad)
        for forms in ((bad, form), (form, bad)):
            with pytest.raises(W.WitnessError, match=message):
                W.standard_extension(field, 1, e, (), [()], [1], True, *forms)
    # the split form itself is taken everywhere
    point = W.flag_point(field, 4, line, form=form)
    assert la.mat_eq(W.rebase_automorphism(point, e, e), e)
    W.standard_extension(field, 1, e, (), [()], [1], source_form=form, target_form=form)


@pytest.mark.parametrize(
    "form",
    # over F_2 a nonzero diagonal entry of B is 2 Q(e_i) = 0 for every Q
    [W.split_form("B", 3, F2), W.split_form("D", 5, F2)],
    ids=["split-B3-F2", "split-D5-F2"],
)
def test_form_without_terms_refuses_q_polar_keep_and_restrict(form):
    assert form.terms is None
    message = "polar form of no quadratic form"
    row = unit_rows([0], len(form))[0]
    for call in (form.keep, lambda: form.quadratic(row), lambda: form.polar(row)):
        with pytest.raises(W.WitnessError, match=message):
            call()
    with pytest.raises(W.WitnessError, match=message):
        form.restrict([row])
    # the counting oracle refuses type B over F_2 first, with its own message
    with pytest.raises(ValidationError, match="type B oracle requires odd q"):
        brute_force_count(finite_flag_variety("B", 3, (1,)), 2)


def test_perp_basics():
    form = W.split_form("C", 6, QQ)
    assert len(form.perp(())) == 6
    lag = tuple(unit_rows([0, 1, 2], 6))
    assert la.rowspace_eq(form.perp(lag), lag, QQ)


def test_perp_double_and_dimension_on_random_subspaces():
    rng = random.Random(51)
    checked = 0
    while checked < 500:
        field = [QQ, F3, F5][checked % 3]
        n = rng.choice([4, 6])
        form = (
            W.split_form("C", n, field)
            if checked % 2
            else W.split_form("D", n, field)
        )
        rows = la.rowspace(la.random_matrix(rng, rng.randint(1, n - 1), n, field), field)
        if not rows:
            continue
        p = form.perp(rows)
        assert len(rows) + len(p) == n
        assert la.rowspace_eq(form.perp(p), rows, field)
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
    form = W.split_form("C", 4, QQ)
    chain = W.flag_point(QQ, 4, [unit_rows([0], 4)], form=form)
    e = la.identity(4, QQ)
    e2 = la.mat(
        [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 7, 0), (0, 0, 0, 5)], QQ
    )
    alpha = W.rebase_automorphism(chain, e, e2, form=form)
    # exhaustive bilinear check on all basis pairs
    for x in la.identity(4, QQ):
        for y in la.identity(4, QQ):
            lhs = form.pair((x,), (y,))
            ax = la.mat_mul((x,), alpha, QQ)
            ay = la.mat_mul((y,), alpha, QQ)
            rhs = form.pair(ax, ay)
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
    form = W.split_form("B", 5, QQ)
    chain = W.flag_point(QQ, 5, [unit_rows([0], 5)], form=form)
    e = la.identity(5, QQ)
    for c in (Fraction(4), Fraction(2), Fraction(3, 7)):
        e2 = [list(r) for r in la.identity(5, QQ)]
        e2[2][2] = c
        alpha = W.rebase_automorphism(chain, e, la.mat(e2, QQ), form=form)
        lhs = la.mat_mul(la.mat_mul(alpha, form, QQ), la.transpose(alpha), QQ)
        assert la.mat_eq(lhs, form)


def test_rebase_refusals_name_their_reason():
    # a chain that is not a point, and, in D:4 over QQ, a basis E' with two
    # self-paired vectors, e_1 + e_4 and e_1 - e_4, which is compatible with
    # the chain <e_2> and its perp <e_1, e_2, e_4>
    form = W.split_form("D", 4, QQ)
    e = la.identity(4, QQ)
    chain = W.flag_point(QQ, 4, [unit_rows([1], 4)], form=form)
    e2 = la.mat([(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)], QQ)
    cases = [
        ((chain.subspaces, e, e), "chain must be a FiniteFlagPoint"),
        ((chain, e, e2), "basis pairing has more than one fixed point"),
    ]
    for args, message in cases:
        with pytest.raises(W.WitnessError) as err:
            W.rebase_automorphism(*args)
        assert str(err.value) == message


def test_rebase_refuses_bases_that_are_not_square_of_the_ambient():
    # a 4x5 and a 5x4 basis both have rank 4 = n, so the rank test alone
    # would pass them on to rows of unequal length
    chain = W.flag_point(QQ, 4, [unit_rows([0], 4)])
    e = la.identity(4, QQ)
    for bad in (unit_rows([0, 1, 2, 3], 5), unit_rows([0, 1, 2, 3, 0], 4), unit_rows([0, 1], 4)):
        for bases in ((bad, e), (e, bad)):
            with pytest.raises(W.WitnessError) as err:
                W.rebase_automorphism(chain, *bases)
            assert str(err.value) == "bases must be 4x4 matrices"


def test_rebase_takes_only_its_chains_form():
    # the members were tested isotropic under the chain's form alone, so
    # another split form of the same ambient, or a form for a form-free
    # chain, is refused; the chain's own form, given or not, is taken
    swapped = 0
    for seed in range(40):
        chain, e, e2, form = random_rebase_instance(random.Random(seed), QQ, isotropic=True)
        n = chain.ambient_dim
        others = [(W.flag_point(QQ, n, chain.subspaces), form)]
        if form.lie_type != "B":
            other = W.split_form("D" if form.lie_type == "C" else "C", n, QQ)
            others.append((chain, other))
            swapped += 1
        for bad_chain, bad_form in others:
            with pytest.raises(W.WitnessError) as err:
                W.rebase_automorphism(bad_chain, e, e2, bad_form)
            assert str(err.value) == "form must be the chain's form"
        assert la.mat_eq(
            W.rebase_automorphism(chain, e, e2, form), W.rebase_automorphism(chain, e, e2)
        )
    assert swapped == 22


def test_rebase_generated_instances():
    rng = random.Random(52)
    for i in range(40):
        field = [QQ, F5][i % 2]
        chain, e, e2, form = random_rebase_instance(rng, field, isotropic=i % 2 == 0)
        W.rebase_automorphism(chain, e, e2, form)


def _perturbed_basis(rng, field, e, e2):
    """One of four seeded variants of E': a random invertible matrix, E with
    its rows permuted, E' with two rows swapped, or E' with one row scaled."""
    n = len(e)
    kind = rng.randrange(4)
    if kind == 0:
        return la.random_invertible(rng, n, field)
    if kind == 1:
        return tuple(rng.sample(list(e), n))
    rows = list(e2)
    if kind == 2:
        a, b = rng.sample(range(n), 2)
        rows[a], rows[b] = rows[b], rows[a]
    else:
        i = rng.randrange(n)
        rows[i] = la.mat_scale(field.of(rng.randint(2, 6)), (rows[i],), field)[0]
    return tuple(rows)


def _rebase_outcome(rebase, *args):
    try:
        return rebase(*args)
    except W.WitnessError as exc:
        return str(exc)


def test_rebase_matches_the_greedy_reference():
    # the signature grouping takes, for every E vector, the E' vector that the
    # greedy search took, so the automorphism or the error message agrees
    fields = [QQ, F3, F5, PrimeField(7)]
    outcomes = set()
    for seed in range(4000):
        rng = random.Random(seed)
        field = fields[seed % 4]
        chain, e, e2, form = random_rebase_instance(rng, field, isotropic=seed % 8 >= 4)
        e2 = _perturbed_basis(rng, field, e, e2)
        got = _rebase_outcome(W.rebase_automorphism, chain, e, e2, form)
        want = _rebase_outcome(oracles.rebase_automorphism_by_greedy, chain, e, e2, form)
        assert got == want, seed
        outcomes.add((form is None, type(got) is str))
    assert len(outcomes) == 4  # both outcomes, with and without a form


def _isotropic_rebase(rng, field, lie_type):
    while True:
        chain, e, e2, form = random_rebase_instance(rng, field, isotropic=True)
        if form.lie_type == lie_type:
            return chain, e, e2, form


@pytest.mark.parametrize("drop", [0, 1])
def test_rebase_refuses_bases_that_do_not_match_signature_by_signature(monkeypatch, drop):
    # no input reaches the check (see the comment at W._UNMATCHED): here the
    # grouping lists one index fewer, of E' on its first call (drop 0) or of
    # E on its second (drop 1), so some row of the automorphism stays unset
    listed = W._listed_by_signature
    calls = []

    def fewer(gaps, partner):
        groups = listed(gaps, partner)
        if len(calls) == drop:
            key = next(iter(groups))
            groups[key] = groups[key][:-1]
        calls.append(partner)
        return groups

    rng = random.Random(26)
    for field in (QQ, F5):
        for chain, e, e2, form in (
            random_rebase_instance(rng, field),
            _isotropic_rebase(rng, field, "D"),
        ):
            calls.clear()
            monkeypatch.setattr(W, "_listed_by_signature", fewer)
            with pytest.raises(W.WitnessError) as err:
                W.rebase_automorphism(chain, e, e2, form)
            monkeypatch.undo()
            assert str(err.value) == W._UNMATCHED and len(calls) == 2
            W.rebase_automorphism(chain, e, e2, form)


def test_rebase_refuses_a_self_paired_ratio_without_a_square_root(monkeypatch):
    # the ratio at the self-paired vector of a type-B basis is always a
    # square; a field that finds no root reaches the same check, in the
    # greedy reference too
    chain, e, e2, form = _isotropic_rebase(random.Random(26), QQ, "B")
    monkeypatch.setattr(la.Rationals, "sqrt", staticmethod(lambda a: None))
    for rebase in (W.rebase_automorphism, oracles.rebase_automorphism_by_greedy):
        with pytest.raises(W.WitnessError) as err:
            rebase(chain, e, e2, form)
        assert str(err.value) == W._UNMATCHED


# ---------------------------------------------------------------------------
# What the witness functions return: plain tuples, Cleared and Echelon values
# and forms of field elements, never the kernel's int rows.


def _is_element(x, field):
    return type(x) is Fraction if field == QQ else type(x) is int and 0 <= x < field.p


def _assert_matrix(m, field):
    assert type(m) in (tuple, la.Cleared, la.Echelon, W.Form), type(m)
    assert all(type(row) is tuple for row in m)
    assert all(_is_element(x, field) for row in m for x in row)
    plain = tuple(map(tuple, m))
    assert m == plain
    for back in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert type(back) is type(m) and back == m and back == plain


def _assert_values(x, field):
    """Every matrix in a returned value (a tuple subclass, or a tuple of
    plain tuples of non-tuples) passes _assert_matrix; dataclasses, lists
    and other tuples are walked."""
    if isinstance(x, W.PicPullback):
        assert type(x.entries) is tuple and all(type(row) is tuple for row in x.entries)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            _assert_values(getattr(x, f.name), field)
    elif isinstance(x, (tuple, list)):
        rows = all(type(r) is tuple and not any(isinstance(y, tuple) for y in r) for r in x)
        if type(x) not in (tuple, list) or x and rows:  # an empty Echelon too
            _assert_matrix(x, field)
            return
        for y in x:
            _assert_values(y, field)


def _witness_results(rng, field):
    """The results of one round of witness ops over ``field``."""
    out = []
    for isotropic in (False, True):
        out.append(W.rebase_automorphism(*random_rebase_instance(rng, field, isotropic)))
    for with_forms in (False, True):
        d1, d2 = composable_pair(rng, field, with_forms=with_forms)
        c = W.compose_standard_extensions(d1, d2)
        p = random_source_point(rng, d1)
        out += [d1, d2, c, W.apply_standard_extension(c, p)]
        out.append(W.apply_standard_extension(d2, W.apply_standard_extension(d1, p)))
        out.append(W.compose_pullbacks(W.pic_pullback(d1), W.pic_pullback(d2)))
    d1 = random_strict_extension(rng, field)
    d2 = random_strict_extension(rng, field, source_members=d1.slots, source_dim=d1.target_dim)
    chi = W.compose_standard_extensions(d1, d2)
    out += [W.check_triangle(d1, d2, chi)]
    top = perturb_triangle_top(rng, chi)
    if top is not None:
        out.append(W.check_triangle(d1, d2, top))
    return out


@pytest.mark.parametrize("field", [QQ, F5])
def test_witness_results_hold_only_field_elements(field):
    rng = random.Random(f"no-int-rows/{field!r}")
    adjusted = 0
    for _ in range(12):
        for x in _witness_results(rng, field):
            _assert_values(x, field)
            adjusted += isinstance(x, W.TriangleReport) and x.adjusted
    assert adjusted  # the adjusted beta, built from a projection, was walked
    if field == QQ:  # the exhaustion steps are over QQ
        for text in ("gen: seq[1] + omega(2)", "orth: half=seq[1] + omega(1); middle=3"):
            d = parse_descriptor(text)
            n = min_truncation_width(d)
            step = W.exhaustion_step(d, n)
            _assert_values([step, W.apply_standard_extension(step, W.standard_point(d, n))], field)


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
    assert [len(s) for s in out.subspaces] == [2]
    prods = la.mat_mul(p.subspaces[0], la.transpose(out.subspaces[0]), QQ)
    assert all(x == 0 for row in prods for x in row)


def _units(indices, n, field=QQ):
    return la.mat(unit_rows(indices, n), field)


def _ext(k, alpha, complement, filtration, kappa, strict=True, forms=(None, None)):
    return W.standard_extension(QQ, k, alpha, complement, filtration, kappa, strict, *forms)


def _plain(strict=True):
    """The identity of the plane, general type."""
    return _ext(1, la.identity(2, QQ), (), [()], (1,), strict)


def _with(lie_type):
    """The identity of the plane, carrying the split form of ``lie_type``."""
    form = W.split_form(lie_type, 2, QQ)
    return _ext(1, la.identity(2, QQ), (), [()], (1,), forms=(form, form))


_D2, _D4 = W.split_form("D", 2, QQ), W.split_form("D", 4, QQ)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _ext(1, ((1, 0, 0), (2, 0, 0)), (), [()], (1,)), "alpha must be injective"),
        (
            lambda: _ext(1, _units([0], 3), _units([1], 3), [()], (1,)),
            "complement must complete the image of alpha",
        ),
        (
            lambda: _ext(1, la.identity(2, QQ), (), [(), ()], (1,)),
            "filtration and kappa must have equal positive length",
        ),
        (
            lambda: _ext(1, _units([0], 2), _units([1], 2), [_units([0], 2)], (1,)),
            "filtration must lie inside the complement",
        ),
        (
            lambda: _ext(
                1, _units([0], 3), _units([1, 2], 3), [_units([1], 3), _units([2], 3)], (1, 1)
            ),
            "filtration must be nondecreasing",
        ),
        (
            lambda: _ext(1, la.identity(2, QQ), (), [()], (3,)),
            "kappa values must lie in 0..source_members+1",
        ),
        (lambda: _ext(2, la.identity(3, QQ), (), [(), ()], (2, 1)), "kappa must be nondecreasing"),
        (
            lambda: _ext(2, la.identity(3, QQ), (), [()], (1,)),
            "kappa must use every proper source member",
        ),
        (
            lambda: _ext(1, la.identity(2, QQ), (), [(), ()], (1, 1)),
            "a constant filtration step needs a strictly increasing kappa",
        ),
        (
            lambda: _ext(1, _units([0], 2), _units([1], 2), [(), _units([1], 2)], (1, 2)),
            "the top slot would be the whole target space",
        ),
        (
            lambda: _ext(1, la.identity(2, QQ), (), [()], (1,), forms=(_D2, None)),
            "forms must be given on both sides or neither",
        ),
        (
            lambda: _ext(1, la.identity(2, QQ), (), [()], (1,), False, (_D2, _D2)),
            "modified extensions are general-type only",
        ),
        (
            lambda: _ext(1, _units([0, 1], 4), _units([2, 3], 4), [()], (1,), forms=(_D2, _D4)),
            "alpha is not compatible with the forms",
        ),
        (
            lambda: _ext(
                1, _units([0, 3], 4), ((1, 1, 0, 0), (0, 0, 1, 0)), [()], (1,), forms=(_D2, _D4)
            ),
            "the splitting is not orthogonal",
        ),
        (
            lambda: W.apply_standard_extension(_plain(), W.flag_point(F3, 2, [((1, 0),)])),
            "field mismatch",
        ),
        (
            lambda: W.apply_standard_extension(_plain(), W.flag_point(QQ, 3, [unit_rows([0], 3)])),
            "shape mismatch: data expects 1 members in ambient 2, point has 1 in 3",
        ),
        (
            lambda: W.apply_standard_extension(_with("D"), W.flag_point(QQ, 2, [((1, 0),)])),
            "point must carry the extension's source form",
        ),
        (
            lambda: W.apply_standard_extension(
                _plain(), W.flag_point(QQ, 2, [((1, 0),)], form=_D2)
            ),
            "a general-type extension applies to form-free points",
        ),
        (
            lambda: W.compose_standard_extensions(
                _plain(), _ext(1, la.identity(3, QQ), (), [()], (1,))
            ),
            "extensions do not compose: shapes disagree",
        ),
        (
            lambda: W.compose_standard_extensions(_with("D"), _plain()),
            "cannot compose a form-compatible extension with a bare one",
        ),
        (
            lambda: W.compose_standard_extensions(_with("D"), _with("C")),
            "the intermediate forms disagree",
        ),
        (
            lambda: W.check_triangle(_plain(strict=False), _plain(), _plain()),
            "the triangle check applies to strict data",
        ),
        (
            lambda: W.check_triangle(
                _plain(), _ext(2, la.identity(3, QQ), (), [(), ()], (1, 2)), _plain()
            ),
            "triangle shapes disagree",
        ),
        (
            lambda: W.check_triangle(
                _plain(),
                _plain(),
                _ext(1, _units([0], 2), _units([1], 2), [(), _units([1], 2)], (1, 1)),
            ),
            "triangle shapes disagree",
        ),
    ],
    ids=[
        "not-injective", "incomplete-complement", "lengths", "filtration-outside",
        "filtration-decreasing", "kappa-range", "kappa-decreasing", "kappa-misses-a-member",
        "constant-step", "top-slot", "forms-on-one-side", "modified-with-forms",
        "alpha-incompatible", "splitting-not-orthogonal", "apply-field", "apply-shape",
        "apply-formless-point", "apply-formed-point",
        "compose-shapes", "compose-one-side-forms", "compose-intermediate-forms",
        "triangle-modified", "triangle-members", "triangle-slots",
    ],
)
def test_extension_refusals_name_their_reason(build, message):
    with pytest.raises(W.WitnessError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize("strict", [True, False])
def test_apply_refuses_a_point_whose_members_are_not_nested(field, strict):
    # a point built around flag_point: <e1> does not lie in <e2, e3>.  Fed
    # only the new rows of each member, the slots would be nested all the
    # same, (<e1>, <e1, e2, e3, e4>); a slot reduced on its own is not.
    d = W.standard_extension(
        field, 2, _units([0, 1, 2], 5, field), _units([3, 4], 5, field),
        [(), _units([3], 5, field)], (1, 2), strict,
    )
    bad = W.FiniteFlagPoint(field, 3, (_units([0], 3, field), _units([1, 2], 3, field)))
    with pytest.raises(W.WitnessError) as err:
        W.apply_standard_extension(d, bad)
    assert str(err.value) == "member 0 is not contained in member 1"
    with pytest.raises(W.WitnessError, match="member 0 is not contained in member 1"):
        oracles.apply_by_slots(d, bad)
    # plain rows that are nested pass, and map as the slot-by-slot oracle does
    good = W.FiniteFlagPoint(field, 3, (((1, 1, 0),), ((0, 1, 0), (1, 0, 0))))
    assert W.apply_standard_extension(d, good) == oracles.apply_by_slots(d, good)


def test_strictness_rule_table():
    rng = random.Random(53)
    seen = set()
    for _ in range(60):
        d1, d2 = composable_pair(rng, QQ)
        c = W.compose_standard_extensions(d1, d2)
        assert c.strict == (d1.strict == d2.strict)
        seen.add((d1.strict, d2.strict))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _without_forms(d, strict):
    parts = (d.source_members, d.alpha, d.complement, d.filtration, d.kappa)
    return W.standard_extension(d.field, *parts, strict=strict)


def test_compose_rejects_forms_on_one_side():
    # strict and modified bare data alike, on either side of the composite
    rng = random.Random(60)
    for _ in range(10):
        d1, d2 = composable_pair(rng, QQ, with_forms=True)
        for strict in (True, False):
            bare1, bare2 = _without_forms(d1, strict), _without_forms(d2, strict)
            for pair in ((d1, bare2), (bare1, d2)):
                with pytest.raises(W.WitnessError, match="with a bare one"):
                    W.compose_standard_extensions(*pair)


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


@pytest.mark.parametrize("field", [QQ, F5])
def test_points_and_extensions_pickle_with_echelon_members(field):
    # the benchmark worker pickles its generated inputs between repetitions
    rng = random.Random(f"pickle/{field}")
    d = random_strict_extension(rng, field, with_forms=field == QQ)
    p = random_source_point(rng, d)
    assert type(p.subspaces[0]) is la.Echelon and type(d.complement) is la.Echelon
    p2, d2 = pickle.loads(pickle.dumps((p, d)))
    assert (p2, d2) == (p, d)
    members = [*zip(p.subspaces, p2.subspaces), *zip(d.filtration, d2.filtration)]
    for s, t in members + [(d.complement, d2.complement)]:
        assert type(t) is la.Echelon and t.field == field and t.pivots == s.pivots
        assert t.ints == s.ints and (t.ints is t) == (field != QQ)
    for s, t in zip(p.subspaces, p2.subspaces):
        assert la.mat_mul(t, d2.alpha, field) == la.mat_mul(s, d.alpha, field)
    for small, big in zip(p2.subspaces, p2.subspaces[1:]):
        assert la.rowspace_contains(big, small, field)
        assert not la.rowspace_contains(small, big, field)
    assert W.apply_standard_extension(d2, p2) == W.apply_standard_extension(d, p)


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


def test_pullback_refusals_name_their_reason():
    cases = [
        (
            lambda: W.PicPullback(((1, 0), (0, -1))),
            "pullback entries must be nonnegative integers",
        ),
        (
            lambda: W.compose_pullbacks(W.PicPullback(((1, 0),)), W.PicPullback(((1,),))),
            "pullback shapes do not compose",
        ),
    ]
    for build, message in cases:
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == message


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


def test_triangle_reports_a_row_that_is_not_the_scalar():
    rng = random.Random(3)
    d1 = random_strict_extension(rng, QQ)
    d2 = random_strict_extension(rng, QQ, source_members=d1.slots, source_dim=d1.target_dim)
    chi = W.compose_standard_extensions(d1, d2)
    rows = list(chi.alpha)
    rows[1] = la.mat_scale(2, (rows[1],), QQ)[0]
    rep = W.check_triangle(d1, d2, dataclasses.replace(chi, alpha=tuple(rows)))
    assert not rep.ok and rep.slot_map_ok and rep.filtration_ok
    assert rep.messages == (
        "gamma is not a scalar multiple of beta.alpha modulo M_2 (source basis vector 1)",
    )


def _unit_triangle(field=QQ):
    """phi: F^2 -> F^4 and psi: F^4 -> F^6, coordinate embeddings, and their
    composite chi, whose one slot is M_1 = <e_3, e_5>."""
    phi = W.standard_extension(
        field,
        1,
        _units([0, 1], 4, field),
        _units([2, 3], 4, field),
        [_units([2], 4, field)],
        (1,),
    )
    psi = W.standard_extension(
        field,
        1,
        _units([0, 1, 2, 3], 6, field),
        _units([4, 5], 6, field),
        [_units([4], 6, field)],
        (1,),
    )
    return phi, psi, W.compose_standard_extensions(phi, psi)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (
            lambda psi, chi: (psi, dataclasses.replace(chi, filtration=(_units([2, 5], 6),))),
            "filtration mismatch at slot 1",
        ),
        (
            lambda psi, chi: (
                psi, dataclasses.replace(chi, alpha=(chi.alpha[0], _units([5], 6)[0]))
            ),
            "gamma does not land in image(beta.alpha) + M_1; the triangle cannot commute",
        ),
        (
            lambda psi, chi: (psi, dataclasses.replace(chi, alpha=la.mat([(0,) * 6] * 2, QQ))),
            "gamma collapses into the complement; not an embedding match",
        ),
        # psi sends e_4 where it sends e_3, so beta = 2 psi is not injective,
        # though beta . alpha = 2 gamma is
        (
            lambda psi, chi: (
                dataclasses.replace(psi, alpha=_units([0, 1, 2, 2], 6)),
                dataclasses.replace(chi, alpha=la.mat_scale(2, chi.alpha, QQ)),
            ),
            "adjusted beta is not injective",
        ),
    ],
    ids=["filtration", "gamma-outside", "zero-scalar", "beta-not-injective"],
)
def test_triangle_reports_each_failure(tamper, message):
    phi, psi, chi = _unit_triangle()
    assert W.check_triangle(phi, psi, chi).ok
    rep = W.check_triangle(phi, *tamper(psi, chi))
    assert not rep.ok and rep.slot_map_ok
    assert rep.filtration_ok == (message != "filtration mismatch at slot 1")
    assert rep.messages == (message,)


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


@pytest.mark.parametrize("field", [QQ, F5, PrimeField(7)])
def test_triangle_beta_and_dual_data_match_the_correction_oracles(monkeypatch, field):
    # beta = S^-1 . [gamma; s K . psi.alpha] and the rows of (S^T)^-1, for S
    # = [alpha; complement], against the correction through the projection
    # onto the source and the null spaces that they replaced
    rng = random.Random(27)
    adjusted = 0
    for _ in range(40):
        d1 = random_strict_extension(rng, field)
        d2 = random_strict_extension(rng, field, source_members=d1.slots, source_dim=d1.target_dim)
        for d in (d1, d2):
            dual = W._dual_conjugate(d)
            want = oracles.dual_data_by_nullspace(d)
            assert (dual.alpha, dual.complement, dual.filtration) == want
        chi = perturb_triangle_top(rng, W.compose_standard_extensions(d1, d2))
        if chi is None:
            continue
        rep = W.check_triangle(d1, d2, chi)
        assert rep.ok, rep.messages
        assert (rep.scalar, rep.beta) == oracles.triangle_beta_by_correction(d1, d2, chi)
        adjusted += rep.adjusted
    assert adjusted >= 10
    # psi sends e_4 where it sends e_3, so the adjusted beta = 2 psi.alpha is
    # not injective and is not reported: the last rank check sees it
    phi, psi, chi = _unit_triangle(field)
    psi = dataclasses.replace(psi, alpha=_units([0, 1, 2, 2], 6, field))
    chi = dataclasses.replace(chi, alpha=la.mat_scale(field.of(2), chi.alpha, field))
    ranked = []
    rank = la.rank
    monkeypatch.setattr(la, "rank", lambda a, f: ranked.append(a) or rank(a, f))
    rep = W.check_triangle(phi, psi, chi)
    monkeypatch.undo()
    assert rep.messages == ("adjusted beta is not injective",)
    assert (field.of(2), ranked[-1]) == oracles.triangle_beta_by_correction(phi, psi, chi)


def _assert_same_members(got, want):
    # rows and pivot columns: the chain's forms against forms reduced alone
    assert tuple(got) == tuple(want)
    assert [m.pivots for m in got] == [m.pivots for m in want]


def _flipped(d):
    """The bare data of d read the other way, strict or modified."""
    return W.standard_extension(
        d.field, d.source_members, d.alpha, d.complement, d.filtration, d.kappa, strict=not d.strict
    )


@pytest.mark.parametrize("field", [QQ, F5, PrimeField(7)])
def test_chains_match_the_member_by_member_oracles(field):
    # the slots, their annihilators and the composed and dual filtrations,
    # each one chain, against each member reduced on its own
    rng = random.Random(f"chains/{field}")
    seen = {"strict": 0, "modified": 0, "forms": 0}
    for i in range(24):
        d1, d2 = composable_pair(rng, field, with_forms=i % 3 == 0)
        for d in (d1, d2):
            for e in (d,) if d.source_form is not None else (d, _flipped(d)):
                kind = "strict" if e.strict else "modified"
                seen["forms" if e.source_form is not None else kind] += 1
                p = random_source_point(rng, e)
                got = W.apply_standard_extension(e, p)
                _assert_same_members(got.subspaces, oracles.apply_by_slots(e, p).subspaces)
                dual = W._dual_conjugate(e)
                _assert_same_members(dual.filtration, oracles.dual_filtration_by_members(e))
        c = W.compose_standard_extensions(d1, d2)
        d2s = d2 if d1.strict else W._dual_conjugate(d2)
        complement, filtration = oracles.compose_parts_by_members(d1, d2s)
        _assert_same_members((c.complement, *c.filtration), (complement, *filtration))
        _assert_same_members(W._compose_strict(d1, d2s)["filtration"], filtration)
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# The odd/even orthogonal pair.


def test_bd_phi_line_example():
    form = W.split_form("D", 4, QQ)
    m = W.flag_point(QQ, 4, [unit_rows([1], 4)], form=form)
    lag = W.bd_phi(2, m)
    assert lag.subspaces[0] == la.rowspace(la.mat(unit_rows([0, 1], 4), QQ), QQ)


def test_bd_phi_reference_flag_when_parity_admits():
    form = W.split_form("D", 6, QQ)
    m = W.flag_point(QQ, 6, [unit_rows([1, 2], 6)], form=form)
    lag = W.bd_phi(3, m)
    assert lag.subspaces[0] == tuple(la.identity(6, QQ)[:3])


def test_bd_phi_rejects_bad_input():
    d4, d6 = W.split_form("D", 4, QQ), W.split_form("D", 6, QQ)
    line = unit_rows([1], 6)
    not_d6 = "the point must carry the split form of type D in ambient 6"
    cases = [
        (1, W.flag_point(QQ, 4, [unit_rows([1], 4)], form=d4), "needs n >= 2"),
        (
            2,
            W.flag_point(QQ, 4, [unit_rows([0], 4)], form=d4),
            "the subspace does not lie in the odd hyperplane",
        ),
        # an isotropic line of the odd hyperplane, at n = 3
        (3, W.flag_point(QQ, 6, [line], form=d6), "expected an (2)-dimensional subspace"),
        (
            3,
            W.flag_point(QQ, 6, [line, unit_rows([1, 2], 6)], form=d6),
            "expected one subspace in ambient 6",
        ),
        # only a point of the split D form of ambient 2n: no form, another
        # ambient, another Lie type
        (3, W.flag_point(QQ, 6, [line]), not_d6),
        (3, W.flag_point(QQ, 4, [unit_rows([1], 4)], form=d4), not_d6),
        (3, W.flag_point(QQ, 6, [line], form=W.split_form("C", 6, QQ)), not_d6),
    ]
    for n, point, message in cases:
        with pytest.raises(W.WitnessError) as err:
            W.bd_phi(n, point)
        assert str(err.value) == message
    for n in (-1, 0, 1):  # the sources share bd_phi's bound
        with pytest.raises(W.WitnessError, match="needs n >= 2"):
            list(W.enumerate_bd_sources(n, F3))
        with pytest.raises(W.WitnessError, match="needs n >= 2"):
            W.random_bd_source(random.Random(0), n, F3)


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("n", [2, 3])
def test_reference_component_matches_intersection_definition(field, n):
    # every Lagrangian of the split 2n-space; the definition intersects with
    # R = <e_1..e_n> and takes the parity of the dimension
    ref = la.identity(2 * n, field)[:n]
    sizes = {True: 0, False: 0}
    for rows in la.enumerate_subspaces(2 * n, n, field):
        if not is_totally_singular_by_form(rows, field):
            continue
        meet = oracles.intersect_rowspaces(rows, ref, field, 2 * n)
        got = W.in_reference_component(rows, n, field)
        assert got == (len(meet) % 2 == n % 2)
        sizes[got] += 1
    count = lagrangian_component_count(n, field.p)
    assert sizes == {True: count, False: count}


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("n", [2, 3])
def test_component_lagrangians_match_filtered_oracle(field, n):
    # grown with the isotropy keep, they are the oracle's Lagrangians of the
    # reference component
    want = {
        rows
        for rows in enumerate_subspaces_by_product(2 * n, n, field)
        if is_totally_singular_by_form(rows, field) and W.in_reference_component(rows, n, field)
    }
    got = [p.subspaces[0] for p in W.enumerate_component_lagrangians(n, field)]
    assert len(got) == len(want) == lagrangian_component_count(n, field.p)
    assert set(got) == want


def test_bd_phi_bijection_f2_and_f3():
    for field in (F2, F3):
        for n in (2, 3):
            sources = list(W.enumerate_bd_sources(n, field))
            images = {W.bd_phi(n, s).subspaces for s in sources}
            targets = {t.subspaces for t in W.enumerate_component_lagrangians(n, field)}
            assert images == targets
            assert len(images) == len(sources)


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_bd_phi_matches_the_quadratic_oracle_on_every_source(field, n):
    for m in W.enumerate_bd_sources(n, field):
        assert W.bd_phi(n, m) == oracles.bd_phi_by_quadratic(n, m)


@pytest.mark.parametrize("p, samples", [(5, 8), (7, 8), (11, 8), (7919, 1)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bd_phi_matches_the_quadratic_oracle_on_random_sources(n, p, samples):
    field = PrimeField(p)
    rng = random.Random(100 * n + p)
    for _ in range(samples):
        m = W.random_bd_source(rng, n, field)
        assert W.bd_phi(n, m) == oracles.bd_phi_by_quadratic(n, m)


def _reflect(row, field):
    # the reflection in e_1 - e_2n: x + (x_2n - x_1)(e_1 - e_2n)
    t = field.reduce(row[-1] - row[0])
    return (field.reduce(row[0] + t),) + tuple(row[1:-1]) + (field.reduce(row[-1] - t),)


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("n", [2, 3])
def test_reflection_fixes_the_odd_hyperplane_and_swaps_the_components(field, n):
    # why bd_phi's two candidates lie in opposite components
    for row in W.bd_hyperplane_basis(n, field):
        assert _reflect(row, field) == tuple(row)
    keep = W.split_form("D", 2 * n, field).keep()
    lagrangians = list(la.enumerate_subspaces(2 * n, n, field, keep=keep))
    assert len(lagrangians) == 2 * lagrangian_component_count(n, field.p)
    for rows in lagrangians:
        image = la.rowspace(tuple(_reflect(row, field) for row in rows), field)
        assert len(image) == n and is_totally_singular_by_form(image, field)
        assert W.in_reference_component(image, n, field) != W.in_reference_component(
            rows, n, field
        )


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("n", [2, 3])
def test_source_plus_its_perp_in_the_reference_is_lagrangian(field, n):
    # M + (M^perp ∩ R) for R = <e_1..e_n>, the candidate bd_phi builds
    N = 2 * n
    form = W.split_form("D", N, field)
    ref = la.identity(N, field)[:n]
    for point in W.enumerate_bd_sources(n, field):
        m = point.subspaces[0]
        meet = oracles.intersect_rowspaces(form.perp(m), ref, field, N)
        assert len(meet) == 1 + len(oracles.intersect_rowspaces(m, ref, field, N))
        lag = la.rowspace(la.stack(m, meet), field)
        assert len(lag) == n and is_totally_singular_by_form(lag, field)


def test_bd_square_exhaustive_small():
    rep = W.bd_square_check(2, W.enumerate_bd_sources(2, F3))
    assert rep.ok and rep.checked == 4
    rep = W.bd_square_check(2, W.enumerate_bd_sources(2, F2))
    assert rep.ok and rep.checked == 3


def test_bd_square_reports_every_point_whose_square_fails(monkeypatch, capsys):
    # bd_phi answering in the other component at width n + 1 only, by
    # reflecting its Lagrangian in e_1 - e_2n: no square commutes
    n, field = 2, F2
    real_phi = W.bd_phi

    def other_component_above(k, point):
        lift = real_phi(k, point)
        if k != n + 1:
            return lift
        rows = la.rowspace(tuple(_reflect(row, field) for row in lift.subspaces[0]), field)
        return W.flag_point(field, 2 * k, [rows], form=lift.form)

    monkeypatch.setattr(W, "bd_phi", other_component_above)
    sample = tuple(W.enumerate_bd_sources(n, field))
    rep = W.bd_square_check(n, sample)
    assert rep.failures == sample and not rep.ok and rep.checked == 3
    assert cli.main(["witness-bd", "--n", str(n), "--all", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["square_failures"] == payload["sources"] == 3 and not payload["ok"]
    assert payload["transcript"][1] == {
        "check": "exhaustion-square",
        "detail": "3 squares checked, 3 failures",
        "pass": False,
    }


def test_bd_square_random_f5():
    rng = random.Random(58)
    sample = [W.random_bd_source(rng, 3, F5) for _ in range(10)]
    rep = W.bd_square_check(3, sample)
    assert rep.ok and rep.checked == 10
    # the report keeps phi_n of each point, in sample order
    assert rep.lifts == tuple(W.bd_phi(3, m) for m in sample)


@pytest.mark.parametrize("n,field", [(2, F2), (2, F3), (3, F2), (3, F3), (4, F2)])
def test_bd_sources_match_the_filtered_oracle(n, field):
    # grown with the isotropy keep, the same points in the same order as
    # filtering every (n-1)-subspace of the hyperplane afterwards
    got = list(W.enumerate_bd_sources(n, field))
    assert got == list(oracles.enumerate_bd_sources_by_filtering(n, field))
    assert len(got) == len({p.subspaces for p in got})


@pytest.mark.parametrize(
    "n, p, refused",
    [
        (6, 2, False),  # 75,735 sources
        (5, 3, False),  # 91,840 sources
        (4, 7, True),  # 137,600 sources from 2,401 candidate first rows
        (2, 313, False),  # 314 sources from 97,969 candidate first rows
        (2, 317, True),  # 318 sources from 100,489 candidate first rows
    ],
)
def test_enumerate_bd_sources_cap(n, p, refused):
    field = PrimeField(p)
    count = point_count(finite_flag_variety("B", 2 * n - 1, (n - 1,)), p)
    if refused:
        with pytest.raises(ResourceLimitError, match=f"there are {count} isotropic"):
            next(W.enumerate_bd_sources(n, field))
    else:
        first = next(W.enumerate_bd_sources(n, field))
        assert is_totally_singular_by_form(first.subspaces[0], field)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_bd_source_matches_the_retry_oracle(n, p):
    # the same points from the same draws: two points per seed, then the
    # generators must stand at the same state
    field = PrimeField(p)
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(2):
            point = W.random_bd_source(rng, n, field)
            assert point == oracles.random_bd_source_with_retries(ref, n, field)
            assert is_totally_singular_by_form(point.subspaces[0], field)
        assert rng.random() == ref.random()


def test_total_singularity_tests_the_quadratic_form_in_char_2():
    # over F_2 the bilinear form of a vector with itself is 2Q = 0, so only
    # the quadratic form sees that e_1 + e_4 is not singular; e_1 and e_4
    # are singular, but not orthogonal
    form = W.split_form("D", 4, F2)
    line = ((1, 0, 0, 1),)
    assert not any(map(any, form.pair(line, line)))
    assert not is_totally_singular_by_form(line, F2)
    pair = ((1, 0, 0, 0), (0, 0, 0, 1))
    assert not is_totally_singular_by_form(pair, F2)
    plane = ((1, 0, 0, 0), (0, 1, 0, 0))
    assert is_totally_singular_by_form(plane, F2)
    # flag_point is the one test of a member, and it agrees
    for member in (line, pair):
        with pytest.raises(W.WitnessError, match="member 0 is not isotropic"):
            W.flag_point(F2, 4, [member], form=form)
    W.flag_point(F2, 4, [plane], form=form)
    # nothing more is asked under a symplectic form, or under the odd
    # orthogonal form over F_2, which polarizes no quadratic form
    W.flag_point(F2, 4, [line], form=W.split_form("C", 4, F2))
    W.flag_point(F2, 5, [((1, 0, 0, 0, 1),)], form=W.split_form("B", 5, F2))


def test_bd_over_rationals():
    form = W.split_form("D", 6, QQ)
    w_rows = W.bd_hyperplane_basis(3, QQ)
    # a rational isotropic 2-subspace of the odd hyperplane
    m = W.flag_point(
        QQ, 6, [la.mat([w_rows[1], w_rows[3]], QQ)], form=form
    )
    lag = W.bd_phi(3, m)
    assert len(lag.subspaces[0]) == 3
    assert is_totally_singular_by_form(lag.subspaces[0], QQ)
    assert lag == oracles.bd_phi_by_quadratic(3, m)


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


@pytest.mark.parametrize(
    "text",
    ["symp: half=seq[1]; middle=inf", "gen: seq[1,inf]", "orth: half=seq[inf]; middle=1"],
)
def test_widths_below_n0_are_rejected_alike(text):
    d = parse_descriptor(text)
    n0 = min_truncation_width(d)
    for n in range(n0):
        with pytest.raises(W.WitnessError) as point_err:
            W.standard_point(d, n)
        with pytest.raises(W.WitnessError) as step_err:
            W.exhaustion_step(d, n)
        assert str(point_err.value) == str(step_err.value)
        assert str(point_err.value) == f"width {n} is below the smallest admissible width {n0}"
    assert W.standard_point(d, n0).ambient_dim == W.exhaustion_step(d, n0).source_dim


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
