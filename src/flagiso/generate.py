"""Seeded random generators for property tests and witness demonstrations.

Everything takes an explicit ``random.Random`` so runs are reproducible; no
generator touches global random state.
"""

from __future__ import annotations

from .errors import ValidationError
from . import linalg as la
from .linalg import PrimeField
from .orders import INF, Omega, OmegaStar, Seq, WeightedOrder
from .descriptors import (
    FlagDescriptor,
    FormType,
    general_flags,
    validate,
)
from .witness import (
    FiniteFlagPoint,
    StandardExtensionData,
    flag_point,
    split_antisymmetric_form,
    split_symmetric_form,
    standard_extension,
)


def random_size(rng, allow_inf=True):
    if allow_inf and rng.random() < 0.25:
        return INF
    return rng.randint(1, 4)


def random_order(rng, max_atoms=4) -> WeightedOrder:
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        kind = rng.randrange(3)
        if kind == 0:
            atoms.append(Seq(tuple(random_size(rng) for _ in range(rng.randint(1, 3)))))
        elif kind == 1:
            atoms.append(Omega(random_size(rng)))
        else:
            atoms.append(OmegaStar(random_size(rng)))
    return WeightedOrder(tuple(atoms))


def random_infinite_order(rng, max_atoms=4) -> WeightedOrder:
    x = random_order(rng, max_atoms)
    if all(isinstance(a, Seq) for a in x.atoms) and all(
        s is not INF for a in x.atoms for s in a.sizes
    ):
        x = x + WeightedOrder((Seq((INF,)),))
    return x


def insert_absorbable(rng, x: WeightedOrder):
    """A new expression denoting the same order, made by inserting a one-block
    seq that the adjacent omega-type atom absorbs; None when no atom admits one."""
    spots = []
    for i, a in enumerate(x.atoms):
        if isinstance(a, Omega):
            spots.append((i, a.size))  # seq[d] before omega(d)
        elif isinstance(a, OmegaStar):
            spots.append((i + 1, a.size))  # seq[d] after omegastar(d)
    if not spots:
        return None
    pos, d = rng.choice(spots)
    return WeightedOrder(x.atoms[:pos] + (Seq((d,)),) + x.atoms[pos:])


def random_descriptor(rng) -> FlagDescriptor:
    form = rng.choice(list(FormType))
    if form is FormType.GENERAL:
        return general_flags(random_infinite_order(rng))
    half = random_order(rng, max_atoms=3)
    if form is FormType.SYMPLECTIC:
        middle = rng.choice([0, 2, 4, INF])
    else:
        middle = rng.choice([0, 1, 3, 4, INF])
    d = FlagDescriptor(form, half=half, middle=middle)
    if validate(d):
        # fall back to an infinite middle when the half is finite
        d = FlagDescriptor(form, half=half, middle=INF)
    return d


# ---------------------------------------------------------------------------
# Flag points and bases.


def random_flag_point(rng, field, ambient, dims) -> FiniteFlagPoint:
    basis = la.random_invertible(rng, ambient, field)
    return flag_point(field, ambient, [basis[:d] for d in dims])


def _pair_partner(i, ambient):
    return ambient - 1 - i


def random_split_isometry(rng, field, form, steps=6):
    """A random invertible map preserving the given split form, built from
    pair scalings, pair swaps, mirrored mixes, and form-compatible shears."""
    n = len(form)
    m = n // 2
    t = la.identity(n, field)
    symmetric = la.mat_eq(form, la.transpose(form))
    for _ in range(steps):
        g = [list(row) for row in la.identity(n, field)]
        kind = rng.randrange(3)
        if kind == 0 and m >= 1:  # scaling of one hyperbolic pair
            i = rng.randrange(m)
            c = _random_unit(rng, field)
            g[i][i] = c
            j = _pair_partner(i, n)
            g[j][j] = field.inv(c)
        elif kind == 1 and m >= 2:  # swap two pairs
            i, j = rng.sample(range(m), 2)
            ii, jj = _pair_partner(i, n), _pair_partner(j, n)
            for a in (i, j, ii, jj):
                g[a][a] = field.zero()
            g[i][j] = g[j][i] = field.one()
            g[ii][jj] = g[jj][ii] = field.one()
        elif m >= 2:  # shear between the lower half and the upper half
            i, j = rng.sample(range(m), 2)
            c = field.of(rng.randint(1, 3))
            # e_i += c * partner(e_j), e_j -= +- c * partner(e_i)
            g[i][_pair_partner(j, n)] = c
            g[j][_pair_partner(i, n)] = field.reduce(-c) if symmetric else c
        t = la.mat_mul(t, tuple(tuple(row) for row in g), field)
    check = la.mat_mul(la.mat_mul(t, form, field), la.transpose(t), field)
    if not la.mat_eq(check, form):
        raise ValidationError("internal error: generated map is not an isometry")
    return t


def _random_unit(rng, field):
    if isinstance(field, PrimeField):
        return field.of(rng.randint(1, field.p - 1))
    return field.of(rng.choice([1, 2, 3, -1, -2, 5]))


def random_isotropic_flag_point(rng, field, form, dims) -> FiniteFlagPoint:
    """A random point of the isotropic flag variety for the given split form."""
    n = len(form)
    t = random_split_isometry(rng, field, form)
    members = [tuple(t[i] for i in range(d)) for d in dims]
    return flag_point(field, n, members, form=form)


# ---------------------------------------------------------------------------
# Rebase instances: a chain compatible with two bases.


def random_rebase_instance(rng, field, isotropic=False):
    """(chain point, basis E, basis E', form or None) with the chain
    compatible with both bases."""
    if not isotropic:
        n = rng.randint(3, 6)
        e = la.random_invertible(rng, n, field)
        k = rng.randint(1, min(3, n - 1))
        cuts = sorted(rng.sample(range(1, n), k))
        members = [tuple(e[i] for i in range(c)) for c in cuts]
        chain = flag_point(field, n, members)
        gaps = []
        bounds = [0] + cuts + [n]
        for g in range(len(bounds) - 1):
            gaps.extend([g] * (bounds[g + 1] - bounds[g]))
        t = _random_gap_transform(rng, field, gaps)
        e2 = la.mat_mul(t, e, field)
        return chain, e, e2, None

    m = rng.randint(2, 3)
    odd = rng.random() < 0.5
    symplectic = not odd and rng.random() < 0.5
    n = 2 * m + (1 if odd else 0)
    form = (
        split_antisymmetric_form(n, field)
        if symplectic
        else split_symmetric_form(n, field)
    )
    k = rng.randint(1, m)
    cuts = sorted(rng.sample(range(1, m + 1), k))
    e = la.identity(n, field)
    members = [tuple(e[i] for i in range(c)) for c in cuts]
    chain = flag_point(field, n, members, form=form)
    t = _random_pairing_transform(rng, field, n, cuts, symplectic)
    e2 = la.mat_mul(t, e, field)
    return chain, e, e2, form


def _random_gap_transform(rng, field, gaps):
    """Invertible map with t(span of gaps <= g) = that span: block mixes plus
    shears into earlier gaps."""
    n = len(gaps)
    rows = []
    for i in range(n):
        row = [field.zero()] * n
        same = [j for j in range(n) if gaps[j] == gaps[i]]
        for j in same:
            row[j] = (
                _random_unit(rng, field) if j == i else field.of(rng.randint(-2, 2))
            )
        for j in range(n):
            if gaps[j] < gaps[i]:
                row[j] = field.of(rng.randint(-2, 2))
        rows.append(tuple(row))
    t = tuple(rows)
    if la.rank(t, field) != n:
        return _random_gap_transform(rng, field, gaps)
    return t


def _random_pairing_transform(rng, field, n, cuts, symplectic):
    """Invertible, chain-stabilizing, carrying the standard isotropic basis to
    another isotropic basis (pair structure kept, pairing values may move)."""
    m = n // 2
    t = [list(row) for row in la.identity(n, field)]
    # independent scalings, including the middle fixed vector by a square
    for i in range(m):
        c = _random_unit(rng, field)
        t[i][i] = c
        c2 = _random_unit(rng, field)
        t[n - 1 - i][n - 1 - i] = c2
    if n % 2 == 1:
        c = _random_unit(rng, field)
        t[m][m] = field.reduce(c * c) if rng.random() < 0.5 else field.one()
    out = tuple(tuple(row) for row in t)
    # permute pairs inside a common gap (both in the lower half)
    bounds = [0] + list(cuts) + [m]
    for g in range(len(bounds) - 1):
        lo, hi = bounds[g], bounds[g + 1]
        if hi - lo >= 2 and rng.random() < 0.7:
            i, j = rng.sample(range(lo, hi), 2)
            perm = [list(row) for row in la.identity(n, field)]
            for a, b in ((i, j), (n - 1 - i, n - 1 - j)):
                perm[a][a] = perm[b][b] = field.zero()
                perm[a][b] = perm[b][a] = field.one()
            out = la.mat_mul(out, tuple(tuple(r) for r in perm), field)
    # swap a middle pair (even ambient, both members between top cut and perp)
    top = cuts[-1]
    if n % 2 == 0 and top < m and rng.random() < 0.5:
        i = rng.randrange(top, m)
        j = n - 1 - i
        perm = [list(row) for row in la.identity(n, field)]
        perm[i][i] = perm[j][j] = field.zero()
        perm[i][j] = field.one()
        perm[j][i] = field.reduce(-field.one()) if symplectic else field.one()
        out = la.mat_mul(out, tuple(tuple(r) for r in perm), field)
    return out


# ---------------------------------------------------------------------------
# Standard extension data.


def _random_kappa(rng, k, slots):
    values = list(range(1, k + 1))
    while len(values) < slots:
        values.append(rng.randint(0, k))
    values.sort()
    return tuple(values)


def _random_filtration_dims(rng, kappa):
    """Nested complement dimensions compatible with the slot map."""
    dims = []
    acc = 0
    for j, c in enumerate(kappa):
        forced = (j > 0 and kappa[j - 1] == c) or (j == 0 and c == 0)
        step = rng.randint(1, 2) if forced else (rng.randint(1, 2) if rng.random() < 0.6 else 0)
        acc += step
        dims.append(acc)
    return dims


def random_strict_extension(
    rng,
    field,
    source_members=None,
    with_forms=False,
    source_dim=None,
    symplectic=None,
):
    """Valid strict data; with forms, a split-form-compatible instance."""
    k = source_members or rng.randint(1, 3)
    slots = rng.randint(k, k + 2)
    kappa = _random_kappa(rng, k, slots)
    kdims = _random_filtration_dims(rng, kappa)
    ck = kdims[-1] + rng.randint(0, 1)

    if not with_forms:
        v = source_dim if source_dim is not None else rng.randint(k + 1, k + 3)
        if v <= k:
            raise ValidationError("source ambient too small for the member count")
        w = v + ck
        t = la.random_invertible(rng, w, field)
        alpha = t[:v]
        complement = t[v:]
        filtration = [complement[:d] for d in kdims]
        return standard_extension(
            field, k, alpha, complement, filtration, kappa, strict=True
        )

    if source_dim is not None:
        v = source_dim
        odd = v % 2 == 1
        if symplectic is None:
            symplectic = False
        if symplectic and odd:
            raise ValidationError("symplectic source must be even-dimensional")
        p = v // 2
    else:
        if symplectic is None:
            symplectic = rng.random() < 0.5
        p = rng.randint(k, k + 1)
        odd = (not symplectic) and rng.random() < 0.5
        v = 2 * p + (1 if odd else 0)
    if p < k:
        raise ValidationError("isotropic source too small for the member count")
    w = v + 2 * ck
    make = split_antisymmetric_form if symplectic else split_symmetric_form
    fv, fw = make(v, field), make(w, field)
    unit = la.identity(w, field)
    # source pairs on the outer ring of the target, complement pairs inside
    alpha_rows = []
    for i in range(v):
        if i < p:
            tgt = i
        elif odd and i == p:
            tgt = w // 2
        else:
            tgt = w - 1 - (v - 1 - i)
        alpha_rows.append(unit[tgt])
    alpha = tuple(alpha_rows)
    complement = tuple(
        [unit[p + i] for i in range(ck)]
        + [unit[w - 1 - p - i] for i in reversed(range(ck))]
    )
    filtration = [complement[:d] for d in kdims]
    t = random_split_isometry(rng, field, fw)
    alpha = la.mat_mul(alpha, t, field)
    complement = la.mat_mul(complement, t, field)
    filtration = [la.mat_mul(kj, t, field) for kj in filtration]
    return standard_extension(
        field,
        k,
        alpha,
        complement,
        filtration,
        kappa,
        strict=True,
        source_form=fv,
        target_form=fw,
    )


def random_extension(rng, field, with_forms=False) -> StandardExtensionData:
    d = random_strict_extension(rng, field, with_forms=with_forms)
    if not with_forms and rng.random() < 0.4:
        return standard_extension(
            d.field,
            d.source_members,
            d.alpha,
            d.complement,
            d.filtration,
            d.kappa,
            strict=False,
        )
    return d


def random_source_point(rng, d: StandardExtensionData) -> FiniteFlagPoint:
    """A random point the extension can be applied to."""
    k, v = d.source_members, d.source_dim
    if d.source_form is None:
        dims = sorted(rng.sample(range(1, v), k))
        return random_flag_point(rng, d.field, v, dims)
    m = v // 2
    dims = sorted(rng.sample(range(1, m + 1), k))
    return random_isotropic_flag_point(rng, d.field, d.source_form, dims)


def perturb_triangle_top(rng, chi: StandardExtensionData):
    """chi with its injection nudged by a map into the first used filtration
    member: the exact situation the triangle check's beta adjustment repairs.
    None when the perturbation space is trivial."""
    field = chi.field
    i0 = next(j for j, c in enumerate(chi.kappa) if c != 0)
    m0 = chi.filtration[i0]
    if not m0:
        return None
    rows = []
    for _ in range(len(chi.alpha)):
        coeffs = [field.of(rng.randint(-2, 2)) for _ in m0]
        rows.append(la.mat_mul((coeffs,), m0, field)[0])
    gamma = la.mat_add(chi.alpha, tuple(rows), field)
    if la.rank(gamma, field) != len(gamma):
        return None
    scale = _random_unit(rng, field)
    gamma = la.mat_scale(scale, gamma, field)
    return standard_extension(
        field,
        chi.source_members,
        gamma,
        chi.complement,
        chi.filtration,
        chi.kappa,
        strict=True,
    )


def composable_pair(rng, field, with_forms=False):
    """(d1, d2) with matching shapes, d2 consuming d1's targets."""
    d1 = random_extension(rng, field, with_forms=with_forms)
    symplectic = None
    if with_forms:
        symplectic = not la.mat_eq(d1.target_form, la.transpose(d1.target_form))
    d2 = random_strict_extension(
        rng,
        field,
        source_members=d1.slots,
        with_forms=with_forms,
        source_dim=d1.target_dim,
        symplectic=symplectic,
    )
    if not with_forms and rng.random() < 0.4:
        d2 = standard_extension(
            d2.field,
            d2.source_members,
            d2.alpha,
            d2.complement,
            d2.filtration,
            d2.kappa,
            strict=False,
        )
    return d1, d2
