"""Explicit exact-arithmetic isomorphism witnesses.

Everything here computes over an exact field (rationals or F_p) and verifies
its own output by direct matrix identities before returning:

* :func:`rebase_automorphism` builds a chain-stabilizing automorphism carrying
  one compatible basis to another, form-preservingly when a form is given;
* :class:`StandardExtensionData` packages embeddings of flag varieties given
  by an injection alpha, a filtered complement, and a slot map kappa, acting
  as F |-> alpha(F_kappa(j)) + K_j, with a modified variant that post-composes
  with the annihilator duality; these compose, pull back Picard generators,
  and satisfy the commuting-triangle normalization implemented by
  :func:`check_triangle`;
* :func:`bd_phi` realizes the isomorphism between the maximal orthogonal
  grassmannian of an odd space and one Lagrangian component of the
  even space one dimension up, together with the commuting exhaustion square
  checked by :func:`bd_square_check`.

Slot maps are allowed one value past the proper source members: kappa(j) =
k + 1 denotes the full image alpha(V).  Such slots arise when compositions
with the duality are rewritten back to normal form; they pull back Picard
generators to zero exactly like constant slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .descriptors import min_truncation_width, require_valid, truncation_layout
from .errors import ValidationError
from . import linalg as la
from .linalg import QQ, PrimeField


class WitnessError(ValidationError):
    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


# ---------------------------------------------------------------------------
# Flag points.


@dataclass(frozen=True)
class FiniteFlagPoint:
    """A strictly increasing chain of subspaces, as canonical row bases.

    With a form, the listed members are the isotropic ones (the rest of the
    chain is recovered by taking perps).
    """

    field: object
    ambient_dim: int
    subspaces: tuple
    form: tuple = None

    def dims(self):
        return tuple(len(s) for s in self.subspaces)


def _form_kind(form, field):
    ft = la.transpose(form)
    symmetric = la.mat_eq(form, ft)
    antisymmetric = la.mat_eq(form, la.mat_scale(field.reduce(-field.one()), ft, field))
    if not symmetric and not antisymmetric:
        raise WitnessError("form is neither symmetric nor antisymmetric")
    return "symmetric" if symmetric else "antisymmetric"


def form_values(rows_a, form, rows_b, field):
    return la.mat_mul(la.mat_mul(rows_a, form, field), la.transpose(rows_b), field)


def is_isotropic_subspace(rows, form, field) -> bool:
    vals = form_values(rows, form, rows, field)
    zero = field.zero()
    return all(x == zero for row in vals for x in row)


def flag_point(field, ambient_dim, subspaces, form=None) -> FiniteFlagPoint:
    canon = tuple(la.rowspace(la.mat(s, field), field) for s in subspaces)
    if not canon:
        raise WitnessError("a flag point needs at least one member")
    dims = [len(s) for s in canon]
    if any(d < 1 or d >= ambient_dim for d in dims):
        raise WitnessError("members must be proper nonzero subspaces")
    if any(dims[i] >= dims[i + 1] for i in range(len(dims) - 1)):
        raise WitnessError("member dimensions must strictly increase")
    for i in range(len(canon) - 1):
        if not la.rowspace_contains(canon[i + 1], canon[i], field):
            raise WitnessError(f"member {i} is not contained in member {i + 1}")
    if form is not None:
        form = la.mat(form, field)
        if len(form) != ambient_dim or la.rank(form, field) != ambient_dim:
            raise WitnessError("form must be square, matching the ambient, nondegenerate")
        _form_kind(form, field)
        for i, s in enumerate(canon):
            if not is_isotropic_subspace(s, form, field):
                raise WitnessError(f"member {i} is not isotropic", certificate=s)
    return FiniteFlagPoint(field, ambient_dim, canon, form)


def perp(rows, form, field):
    """Exact orthogonal complement of a row space for a nondegenerate form."""
    form = la.mat(form, field)
    n = len(form)
    if la.rank(form, field) != n:
        raise WitnessError("form is degenerate")
    if not rows:
        return la.identity(n, field)
    return la.nullspace(la.mat_mul(la.mat(rows, field), form, field), field, n)


# ---------------------------------------------------------------------------
# Rebasing automorphisms (chain-stabilizing base changes).


def _basis_involution(basis, form, field):
    """partner[i] = j with form(basis_i, basis_j) != 0; must be an involution
    with at most one fixed point."""
    vals = form_values(basis, form, basis, field)
    zero = field.zero()
    partner = []
    for i, row in enumerate(vals):
        hits = [j for j, x in enumerate(row) if x != zero]
        if len(hits) != 1:
            raise WitnessError(
                f"basis vector {i} pairs with {len(hits)} others; an isotropic "
                "basis pairs each vector with exactly one"
            )
        partner.append(hits[0])
    if any(partner[partner[i]] != i for i in range(len(partner))):
        raise WitnessError("basis pairing is not an involution")
    if sum(1 for i, j in enumerate(partner) if i == j) > 1:
        raise WitnessError("basis pairing has more than one fixed point")
    return partner


def _closed_chain(members, form, field, n):
    """Sorted proper members of the perp-closure, which must stay a chain."""
    spaces = {s: None for s in members}
    for s in members:
        p = perp(s, form, field)
        if 0 < len(p) < n:
            spaces[p] = None
    chain = sorted(spaces, key=len)
    for i in range(len(chain) - 1):
        if not la.rowspace_contains(chain[i + 1], chain[i], field):
            raise WitnessError(
                "the perp-closure of the chain is not totally ordered by inclusion"
            )
    return chain


def _gap_classes(chain, basis, field, label):
    """Gap index (least chain member containing the vector) per basis row.

    Raises with the offending member when some member is not spanned by basis
    vectors."""
    gaps = []
    for row in basis:
        g = next(
            (i for i, s in enumerate(chain) if la.in_rowspace(row, s, field)),
            len(chain),
        )
        gaps.append(g)
    for i, s in enumerate(chain):
        inside = sum(1 for g in gaps if g <= i)
        if inside != len(s):
            raise WitnessError(
                f"chain member {i} is not spanned by a subset of basis {label}",
                certificate=s,
            )
    return gaps


def rebase_automorphism(chain, basis_e, basis_e2, form=None):
    """An invertible matrix alpha with alpha(E) = E' (up to the isotropic
    scalar corrections), alpha(F) = F for every chain member, and, with a
    form, alpha form-preserving.  Output is verified before returning."""
    if isinstance(chain, FiniteFlagPoint):
        field = chain.field
        members = list(chain.subspaces)
        if form is None:
            form = chain.form
        n = chain.ambient_dim
    else:
        raise WitnessError("chain must be a FiniteFlagPoint")
    E = la.mat(basis_e, field)
    E2 = la.mat(basis_e2, field)
    if la.rank(E, field) != n or la.rank(E2, field) != n:
        raise WitnessError("bases must be invertible matrices")

    if form is not None:
        form = la.mat(form, field)
        members = _closed_chain(members, form, field, n)
    gaps_e = _gap_classes(members, E, field, "E")
    gaps_e2 = _gap_classes(members, E2, field, "E'")

    assigned = [None] * n  # E-index -> (E2-index, scalar)
    taken = [False] * n

    def class_indices(gaps, g):
        return [i for i, gi in enumerate(gaps) if gi == g]

    if form is None:
        for g in sorted(set(gaps_e)):
            src = class_indices(gaps_e, g)
            dst = class_indices(gaps_e2, g)
            if len(src) != len(dst):
                raise WitnessError(f"gap class {g} has mismatched sizes between bases")
            one = field.one()
            for i, j in zip(src, dst):
                assigned[i] = (j, one)
    else:
        part_e = _basis_involution(E, form, field)
        part_e2 = _basis_involution(E2, form, field)
        vals_e = form_values(E, form, E, field)
        vals_e2 = form_values(E2, form, E2, field)
        for g in sorted(set(gaps_e)):
            for i in class_indices(gaps_e, g):
                if assigned[i] is not None:
                    continue
                fixed = part_e[i] == i
                same_class = gaps_e[part_e[i]] == g
                candidates = [
                    j
                    for j in class_indices(gaps_e2, g)
                    if not taken[j]
                    and (part_e2[j] == j) == fixed
                    and (not fixed or not same_class or gaps_e2[part_e2[j]] == g)
                ]
                if fixed:
                    if not candidates:
                        raise WitnessError(
                            f"gap class {g}: no unmatched self-paired vector in E'"
                        )
                    j = candidates[0]
                    ratio = field.reduce(vals_e[i][i] * field.inv(vals_e2[j][j]))
                    s = field.sqrt(ratio)
                    if s is None:
                        raise WitnessError(
                            "scalar correction at the self-paired basis vector needs "
                            f"a square root of {ratio!r}, which does not exist in the field"
                        )
                    assigned[i] = (j, s)
                    taken[j] = True
                    continue
                candidates = [
                    j for j in candidates if gaps_e2[part_e2[j]] == gaps_e[part_e[i]]
                ]
                if not candidates:
                    raise WitnessError(f"gap class {g}: no matching vector left in E'")
                j = candidates[0]
                assigned[i] = (j, field.one())
                taken[j] = True
                # the partner is forced, with the scalar fixing the pairing value
                scalar = field.reduce(
                    vals_e[i][part_e[i]] * field.inv(vals_e2[j][part_e2[j]])
                )
                assigned[part_e[i]] = (part_e2[j], scalar)
                taken[part_e2[j]] = True

    rows = []
    for i in range(n):
        j, s = assigned[i]
        rows.append(tuple(field.reduce(s * x) for x in E2[j]))
    alpha = la.mat_mul(la.inverse(E, field), tuple(rows), field)

    _verify_rebase(alpha, members, E, E2, form, field, n)
    return alpha


def _verify_rebase(alpha, members, E, E2, form, field, n):
    if la.rank(alpha, field) != n:
        raise WitnessError("constructed map is not invertible")
    # alpha(E) = E' as sets up to scalars
    coords = la.mat_mul(la.mat_mul(E, alpha, field), la.inverse(E2, field), field)
    zero = field.zero()
    seen = set()
    for i, row in enumerate(coords):
        hits = [j for j, x in enumerate(row) if x != zero]
        if len(hits) != 1 or hits[0] in seen:
            raise WitnessError("alpha does not map E bijectively onto scalar multiples of E'")
        seen.add(hits[0])
    for k, s in enumerate(members):
        if not la.rowspace_eq(la.mat_mul(s, alpha, field), s, field):
            raise WitnessError(f"alpha moves chain member {k}", certificate=s)
    if form is not None:
        lhs = la.mat_mul(la.mat_mul(alpha, form, field), la.transpose(alpha), field)
        if not la.mat_eq(lhs, form):
            raise WitnessError("alpha does not preserve the form")


# ---------------------------------------------------------------------------
# Standard extensions.


@dataclass(frozen=True)
class StandardExtensionData:
    """An embedding of flag varieties in normal form.

    ``alpha`` is an injective (source ambient) x (target ambient) matrix,
    ``complement`` a full complement of its image, ``filtration`` the nested
    subspaces K_1 <= ... <= K_l of the complement, and ``kappa[j-1]`` the
    source member fed into target slot j (0 = the zero space, source_members+1
    = the whole source space).  Strict data act as
    F |-> (alpha(F_kappa(j)) + K_j)_j; modified data (strict=False) describe
    the same formula into dual coordinates followed by the annihilator
    reversal.  Forms, when present, certify a form-compatible alpha with an
    orthogonal splitting; modified data carry no forms.
    """

    field: object
    source_members: int
    alpha: tuple
    complement: tuple
    filtration: tuple
    kappa: tuple
    strict: bool = True
    source_form: tuple = None
    target_form: tuple = None

    @property
    def slots(self) -> int:
        return len(self.kappa)

    @property
    def source_dim(self) -> int:
        return len(self.alpha)

    @property
    def target_dim(self) -> int:
        return len(self.alpha[0])


def standard_extension(
    field,
    source_members,
    alpha,
    complement,
    filtration,
    kappa,
    strict=True,
    source_form=None,
    target_form=None,
) -> StandardExtensionData:
    alpha = la.mat(alpha, field)
    complement = la.rowspace(la.mat(complement, field), field)
    filtration = tuple(la.rowspace(la.mat(kj, field), field) for kj in filtration)
    kappa = tuple(kappa)
    k = source_members
    v, w = len(alpha), len(alpha[0])
    if la.rank(alpha, field) != v:
        raise WitnessError("alpha must be injective")
    if len(complement) != w - v or la.rank(la.stack(alpha, complement), field) != w:
        raise WitnessError("complement must complete the image of alpha")
    if len(filtration) != len(kappa) or not kappa:
        raise WitnessError("filtration and kappa must have equal positive length")
    for kj in filtration:
        if not la.rowspace_contains(complement, kj, field):
            raise WitnessError("filtration must lie inside the complement")
    for a, b in zip(filtration, filtration[1:]):
        if not la.rowspace_contains(b, a, field):
            raise WitnessError("filtration must be nondecreasing")
    if any(not (0 <= c <= k + 1) for c in kappa):
        raise WitnessError("kappa values must lie in 0..source_members+1")
    if any(a > b for a, b in zip(kappa, kappa[1:])):
        raise WitnessError("kappa must be nondecreasing")
    if set(range(1, k + 1)) - set(kappa):
        raise WitnessError("kappa must use every proper source member")
    prev = ()
    prev_c = 0
    for kj, c in zip(filtration, kappa):
        if len(kj) == len(prev) and not (prev_c < c):
            raise WitnessError(
                "a constant filtration step needs a strictly increasing kappa"
            )
        prev, prev_c = kj, c
    if kappa[-1] == k + 1 and len(filtration[-1]) == w - v:
        raise WitnessError("the top slot would be the whole target space")
    if (source_form is None) != (target_form is None):
        raise WitnessError("forms must be given on both sides or neither")
    if source_form is not None:
        if not strict:
            raise WitnessError("modified extensions are general-type only")
        source_form = la.mat(source_form, field)
        target_form = la.mat(target_form, field)
        lhs = la.mat_mul(la.mat_mul(alpha, target_form, field), la.transpose(alpha), field)
        if not la.mat_eq(lhs, source_form):
            raise WitnessError("alpha is not compatible with the forms")
        cross = form_values(alpha, target_form, complement, field)
        zero = field.zero()
        if any(x != zero for row in cross for x in row):
            raise WitnessError("the splitting is not orthogonal")
    return StandardExtensionData(
        field,
        k,
        alpha,
        complement,
        filtration,
        kappa,
        strict,
        source_form,
        target_form,
    )


def _source_slice(d: StandardExtensionData, p: FiniteFlagPoint, c: int):
    if c == 0:
        return ()
    if c == d.source_members + 1:
        return d.alpha
    return la.mat_mul(p.subspaces[c - 1], d.alpha, d.field)


def apply_standard_extension(d: StandardExtensionData, p: FiniteFlagPoint) -> FiniteFlagPoint:
    field = d.field
    if p.field != field:
        raise WitnessError("field mismatch")
    if p.ambient_dim != d.source_dim or len(p.subspaces) != d.source_members:
        raise WitnessError(
            f"shape mismatch: data expects {d.source_members} members in ambient "
            f"{d.source_dim}, point has {len(p.subspaces)} in {p.ambient_dim}"
        )
    if d.source_form is not None:
        if p.form is None or not la.mat_eq(p.form, d.source_form):
            raise WitnessError("point must carry the extension's source form")
    elif p.form is not None:
        raise WitnessError("a general-type extension applies to form-free points")
    w = d.target_dim
    slots = []
    for kj, c in zip(d.filtration, d.kappa):
        rows = la.stack(_source_slice(d, p, c), kj)
        slots.append(la.rowspace(rows, field))
    if d.strict:
        return flag_point(field, w, slots, form=d.target_form)
    duals = [la.nullspace(s, field, w) for s in reversed(slots)]
    return flag_point(field, w, duals)


def _dual_conjugate(d: StandardExtensionData) -> StandardExtensionData:
    """Data for the duality-conjugated map: reverse-annihilate, apply, then
    reverse-annihilate again.  Strict in the extended normal form."""
    field = d.field
    if d.source_form is not None:
        raise WitnessError("duality conjugation is general-type only")
    w = d.target_dim
    k, m = d.source_members, d.slots
    alpha_d = la.transpose(_projection_onto_source(d))  # alpha . proj = identity
    complement_d = la.nullspace(d.alpha, field, w)
    filtration_d = tuple(
        la.nullspace(la.stack(d.alpha, d.filtration[m - j]), field, w)
        for j in range(1, m + 1)
    )
    kappa_d = tuple(k + 1 - d.kappa[m - j] for j in range(1, m + 1))
    return standard_extension(
        field, k, alpha_d, complement_d, filtration_d, kappa_d, strict=True
    )


def _compose_strict(d1: StandardExtensionData, d2: StandardExtensionData) -> dict:
    field = d1.field
    if d2.source_members != d1.slots or d2.source_dim != d1.target_dim:
        raise WitnessError("extensions do not compose: shapes disagree")
    l1 = d1.slots
    alpha = la.mat_mul(d1.alpha, d2.alpha, field)
    complement = la.rowspace(
        la.stack(la.mat_mul(d1.complement, d2.alpha, field), d2.complement), field
    )
    filtration = []
    kappa = []
    for lj, c in zip(d2.filtration, d2.kappa):
        if c == 0:
            inner, kc = (), 0
        elif c == l1 + 1:
            inner, kc = d1.complement, d1.source_members + 1
        else:
            inner = d1.filtration[c - 1]
            kc = d1.kappa[c - 1]
        filtration.append(
            la.rowspace(la.stack(la.mat_mul(inner, d2.alpha, field), lj), field)
        )
        kappa.append(kc)
    return dict(
        field=field,
        source_members=d1.source_members,
        alpha=alpha,
        complement=complement,
        filtration=tuple(filtration),
        kappa=tuple(kappa),
    )


def compose_standard_extensions(
    d1: StandardExtensionData, d2: StandardExtensionData
) -> StandardExtensionData:
    """Data applying as d1 followed by d2.

    The result is strict exactly when d1 and d2 are both strict or both
    modified."""
    strict = d1.strict == d2.strict
    if d1.strict and d2.strict:
        parts = _compose_strict(d1, d2)
        forms = {}
        if d1.source_form is not None and d2.source_form is not None:
            if not la.mat_eq(d1.target_form, d2.source_form):
                raise WitnessError("the intermediate forms disagree")
            forms = dict(source_form=d1.source_form, target_form=d2.target_form)
        elif d1.source_form is not None or d2.source_form is not None:
            raise WitnessError("cannot compose a form-compatible extension with a bare one")
        return standard_extension(strict=True, **parts, **forms)
    if d1.strict and not d2.strict:
        parts = _compose_strict(d1, d2)
        return standard_extension(strict=False, **parts)
    if not d1.strict and d2.strict:
        parts = _compose_strict(d1, _dual_conjugate(d2))
        return standard_extension(strict=False, **parts)
    parts = _compose_strict(d1, _dual_conjugate(d2))
    return standard_extension(strict=True, **parts)


# ---------------------------------------------------------------------------
# Picard pullbacks.


@dataclass(frozen=True)
class PicPullback:
    """Matrix of the induced map on Picard groups, in the preferred bases.

    Row 0 and column 0 stand for the zero class; row i >= 1 for the i-th
    preferred generator of the source, column j >= 1 for the j-th of the
    target.  Entries are nonnegative integers."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.entries)
        for r in rows:
            for x in r:
                if not isinstance(x, int) or x < 0:
                    raise ValidationError("pullback entries must be nonnegative integers")
        object.__setattr__(self, "entries", rows)

    @property
    def source_rank(self):
        return len(self.entries) - 1

    @property
    def target_rank(self):
        return len(self.entries[0]) - 1


def pic_pullback(d: StandardExtensionData) -> PicPullback:
    """Columns send target generators to source generators per kappa; constant
    and full-image slots pull back to zero.  Modified data reverse the slots."""
    k, l = d.source_members, d.slots
    entries = [[0] * (l + 1) for _ in range(k + 1)]
    entries[0][0] = 1
    for j in range(1, l + 1):
        c = d.kappa[j - 1] if d.strict else d.kappa[l - j]
        row = c if 1 <= c <= k else 0
        entries[row][j] = 1
    return PicPullback(tuple(tuple(r) for r in entries))


def compose_pullbacks(m1: PicPullback, m2: PicPullback) -> PicPullback:
    """Pullback of a composite: apply m2's columns through m1."""
    a, b = m1.entries, m2.entries
    if len(b) != len(a[0]):
        raise ValidationError("pullback shapes do not compose")
    out = [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]
    return PicPullback(tuple(tuple(r) for r in out))


def is_linear(m: PicPullback) -> bool:
    """Each target generator pulls back to zero or to a single preferred
    generator with coefficient one."""
    cols = list(zip(*m.entries))
    for col in cols:
        nonzero = [x for x in col if x]
        if len(nonzero) != 1 or nonzero[0] != 1:
            return False
    return True


def is_ample(coeffs, k: int) -> bool:
    coeffs = tuple(coeffs)
    if len(coeffs) != k:
        raise ValidationError(f"expected {k} coefficients, got {len(coeffs)}")
    return all(c > 0 for c in coeffs)


# ---------------------------------------------------------------------------
# The commuting-triangle check with its beta normalization.


@dataclass(frozen=True)
class TriangleReport:
    ok: bool
    slot_map_ok: bool
    filtration_ok: bool
    adjusted: bool = False
    scalar: object = None
    beta: tuple = None
    messages: tuple = ()


def _projection_onto_source(d: StandardExtensionData):
    square = la.stack(d.alpha, d.complement)
    inv = la.inverse(square, d.field)
    return tuple(row[: d.source_dim] for row in inv)


def check_triangle(phi, psi, chi) -> TriangleReport:
    """Verify that chi matches psi after phi: slot maps compose, filtrations
    split as M_j = beta(K_lambda(j)) + L_j, and, up to the allowed adjustment
    of beta (a correction into M_{i0} plus one scalar), gamma = beta . alpha.
    Returns a report rather than raising on mismatch."""
    field = phi.field
    for d in (phi, psi, chi):
        if not d.strict:
            raise WitnessError("the triangle check applies to strict data")
    if psi.source_members != phi.slots or chi.source_members != phi.source_members:
        raise WitnessError("triangle shapes disagree")
    if chi.slots != psi.slots or chi.target_dim != psi.target_dim:
        raise WitnessError("triangle shapes disagree")

    messages = []
    expected = _compose_strict(phi, psi)
    slot_map_ok = expected["kappa"] == chi.kappa
    if not slot_map_ok:
        bad = next(i for i, (a, b) in enumerate(zip(expected["kappa"], chi.kappa)) if a != b)
        messages.append(
            f"slot map mismatch at slot {bad + 1}: expected {expected['kappa'][bad]}, "
            f"got {chi.kappa[bad]}"
        )
    filtration_ok = all(
        la.rowspace_eq(a, b, field)
        for a, b in zip(expected["filtration"], chi.filtration)
    )
    if not filtration_ok:
        bad = next(
            i
            for i, (a, b) in enumerate(zip(expected["filtration"], chi.filtration))
            if not la.rowspace_eq(a, b, field)
        )
        messages.append(f"filtration mismatch at slot {bad + 1}")
    if not (slot_map_ok and filtration_ok):
        return TriangleReport(False, slot_map_ok, filtration_ok, messages=tuple(messages))

    ab = la.mat_mul(phi.alpha, psi.alpha, field)
    gamma = chi.alpha
    if la.mat_eq(gamma, ab):
        return TriangleReport(
            True, True, True, adjusted=False, scalar=field.one(), beta=psi.alpha
        )

    i0 = next(i for i, c in enumerate(chi.kappa) if c != 0)
    m0 = chi.filtration[i0]
    coeffs = la.solve_left(la.stack(ab, m0), gamma, field)
    if coeffs is None:
        messages.append(
            f"gamma does not land in image(beta.alpha) + M_{i0 + 1}; "
            "the triangle cannot commute"
        )
        return TriangleReport(False, True, True, messages=tuple(messages))
    v = len(gamma)
    zero, one = field.zero(), field.one()
    c_mat = tuple(row[:v] for row in coeffs)
    scalar = c_mat[0][0]
    for i in range(v):
        for j in range(v):
            want = scalar if i == j else zero
            if c_mat[i][j] != want:
                messages.append(
                    "gamma is not a scalar multiple of beta.alpha modulo "
                    f"M_{i0 + 1} (source basis vector {i})"
                )
                return TriangleReport(False, True, True, messages=tuple(messages))
    if scalar == zero:
        messages.append("gamma collapses into the complement; not an embedding match")
        return TriangleReport(False, True, True, messages=tuple(messages))
    correction = la.mat_add(
        gamma, la.mat_scale(field.reduce(-scalar), ab, field), field
    )  # = gamma - scalar * alpha.beta, rows inside M_{i0}
    proj = _projection_onto_source(phi)
    beta = la.mat_add(
        la.mat_scale(scalar, psi.alpha, field),
        la.mat_mul(proj, correction, field),
        field,
    )
    if not la.mat_eq(la.mat_mul(phi.alpha, beta, field), gamma):
        raise WitnessError("internal error: adjusted beta fails gamma = beta . alpha")
    if la.rank(beta, field) != len(beta):
        messages.append("adjusted beta is not injective")
        return TriangleReport(False, True, True, messages=tuple(messages))
    return TriangleReport(
        True, True, True, adjusted=True, scalar=scalar, beta=beta
    )


# ---------------------------------------------------------------------------
# Isotropic extensions.


def isotropic_extension(p: FiniteFlagPoint, ambient_form, embedding) -> FiniteFlagPoint:
    """View a general-type flag inside the isotropic flag variety of a larger
    formed space, via an embedding whose image is isotropic."""
    field = p.field
    emb = la.mat(embedding, field)
    form = la.mat(ambient_form, field)
    w = len(form)
    if len(emb) != p.ambient_dim or len(emb[0]) != w:
        raise WitnessError("embedding shape does not match point and form")
    if la.rank(emb, field) != p.ambient_dim:
        raise WitnessError("embedding must be injective")
    vals = form_values(emb, form, emb, field)
    zero = field.zero()
    for i, row in enumerate(vals):
        for j, x in enumerate(row):
            if x != zero:
                raise WitnessError(
                    "the embedded space is not isotropic",
                    certificate=(emb[i], emb[j]),
                )
    members = [la.mat_mul(s, emb, field) for s in p.subspaces]
    return flag_point(field, w, members, form=form)


# ---------------------------------------------------------------------------
# The exceptional orthogonal pair: explicit maps and the exhaustion square.

# Coordinates of the 2n-dimensional orthogonal space: e_i is coordinate i-1,
# its pair partner coordinate 2n-i; the split symmetric form pairs them.


def split_symmetric_form(n_ambient, field):
    one, zero = field.one(), field.zero()
    return tuple(
        tuple(one if i + j == n_ambient - 1 else zero for j in range(n_ambient))
        for i in range(n_ambient)
    )


def split_antisymmetric_form(n_ambient, field):
    one, zero = field.one(), field.zero()
    minus = field.reduce(-one)
    m = n_ambient // 2
    return tuple(
        tuple(
            (one if i < m else minus) if i + j == n_ambient - 1 else zero
            for j in range(n_ambient)
        )
        for i in range(n_ambient)
    )


def split_form(lie_type, n_ambient, field):
    """The split form of a finite flag variety of the given Lie type:
    antisymmetric for C, symmetric for B and D, none for A."""
    if lie_type == "A":
        return None
    if lie_type == "C":
        return split_antisymmetric_form(n_ambient, field)
    return split_symmetric_form(n_ambient, field)


def split_quadratic_value(vec, field):
    """Q(x) = sum x_i x_(pair of i) over the lower half, plus x_mid^2 / 2 at
    odd length; polarizes to the split symmetric form, in every characteristic
    at even length and in odd characteristic at odd length."""
    n = len(vec)
    total = sum((vec[i] * vec[n - 1 - i] for i in range(n // 2)), field.zero())
    if n % 2:
        total += field.inv(field.of(2)) * vec[n // 2] * vec[n // 2]
    return field.reduce(total)


def is_totally_singular(rows, field) -> bool:
    n = len(rows[0]) if rows else 0
    form = split_symmetric_form(n, field)
    if not is_isotropic_subspace(rows, form, field):
        return False
    zero = field.zero()
    return all(split_quadratic_value(r, field) == zero for r in rows)


def bd_hyperplane_basis(n, field):
    """Rows spanning the odd-dimensional subspace W_n = <e_1 + pair(e_1), e_2,
    pair(e_2), ..., e_n, pair(e_n)> of the 2n-dimensional split space."""
    N = 2 * n
    unit = la.identity(N, field)
    rows = [la.mat_add((unit[0],), (unit[N - 1],), field)[0]]
    for i in range(1, n):
        rows.append(unit[i])
        rows.append(unit[N - 1 - i])
    return tuple(rows)


def bd_reference_lagrangian(n, field):
    """The span of e_1..e_n in the 2n-dimensional split space."""
    return la.identity(2 * n, field)[:n]


def _lagrangian_component_matches(rows, n, field) -> bool:
    ref = bd_reference_lagrangian(n, field)
    inter = la.intersect_rowspaces(rows, ref, field, 2 * n)
    return len(inter) % 2 == n % 2


def _singular_lines_in_plane(u1, u2, field):
    """The isotropic lines of the split quadratic restricted to <u1, u2>."""
    a = split_quadratic_value(u1, field)
    b = split_quadratic_value(u2, field)
    usum = la.mat_add((u1,), (u2,), field)[0]
    c = field.reduce(split_quadratic_value(usum, field) - a - b)
    # Q(x u1 + y u2) = a x^2 + c xy + b y^2
    zero, one = field.zero(), field.one()
    lines = []
    if isinstance(field, PrimeField):
        candidates = [(one, field.of(t)) for t in field.elements()] + [(zero, one)]
        for x, y in candidates:
            if field.reduce(a * x * x + b * y * y + c * x * y) == zero:
                lines.append((x, y))
        return lines
    if a == zero:
        lines.append((one, zero))
        # remaining: y (c x + b y) = 0 with y != 0
        if c != zero:
            lines.append((field.reduce(-b * field.inv(c)), one))
        elif b == zero:
            raise WitnessError("quadratic vanishes identically; form is degenerate here")
        return lines
    disc = field.reduce(c * c - 4 * a * b)
    root = field.sqrt(disc)
    if root is None:
        raise WitnessError("the middle quadric does not split over the field")
    for sgn in (root, field.reduce(-root)):
        x = field.reduce((sgn - c) * field.inv(2 * a))
        lines.append((x, one))
    return list(dict.fromkeys(lines))


def bd_phi(n: int, m_point: FiniteFlagPoint) -> FiniteFlagPoint:
    """The unique Lagrangian over an isotropic (n-1)-subspace of the odd
    hyperplane, inside the component fixed by the parity convention
    dim(L ∩ <e_1..e_n>) = n (mod 2)."""
    if n < 2:
        raise WitnessError("needs n >= 2")
    field = m_point.field
    N = 2 * n
    if m_point.ambient_dim != N or len(m_point.subspaces) != 1:
        raise WitnessError(f"expected one subspace in ambient {N}")
    m_rows = m_point.subspaces[0]
    if len(m_rows) != n - 1:
        raise WitnessError(f"expected an ({n - 1})-dimensional subspace")
    w_basis = la.rowspace(bd_hyperplane_basis(n, field), field)
    if not la.rowspace_contains(w_basis, m_rows, field):
        raise WitnessError("the subspace does not lie in the odd hyperplane")
    if not is_totally_singular(m_rows, field):
        raise WitnessError("the subspace is not isotropic")
    form = split_symmetric_form(N, field)
    perp_m = perp(m_rows, form, field)
    # two independent directions of perp(M) modulo M
    span = list(m_rows)
    quotient = []
    for row in perp_m:
        if not la.in_rowspace(row, la.rowspace(tuple(span), field), field):
            quotient.append(row)
            span.append(row)
        if len(quotient) == 2:
            break
    if len(quotient) != 2:
        raise WitnessError("internal error: perp/M is not two-dimensional")
    u1, u2 = quotient
    candidates = []
    for x, y in _singular_lines_in_plane(u1, u2, field):
        vec = la.mat_mul(((x, y),), (u1, u2), field)[0]
        rows = la.rowspace(la.stack(m_rows, (vec,)), field)
        if len(rows) == n and is_totally_singular(rows, field):
            candidates.append(rows)
    candidates = list(dict.fromkeys(candidates))
    if len(candidates) != 2:
        raise WitnessError(
            f"expected exactly two Lagrangians over the subspace, found {len(candidates)}"
        )
    chosen = [c for c in candidates if _lagrangian_component_matches(c, n, field)]
    if len(chosen) != 1:
        raise WitnessError("the two Lagrangians do not split between the components")
    lag = chosen[0]
    if not la.rowspace_contains(lag, m_rows, field):
        raise WitnessError("internal error: output does not contain the input")
    return flag_point(field, N, [lag], form=form)


def _embed_coords(vec, n, field):
    """Coordinates of the 2n-space inside the 2(n+1)-space: new e_(n+1) and
    its partner sit in the middle."""
    zero = field.zero()
    return tuple(vec[:n]) + (zero, zero) + tuple(vec[n:])


def bd_step(n: int, point: FiniteFlagPoint) -> FiniteFlagPoint:
    """Subspace U of the 2n-space to U + <e_(n+1)> one level up."""
    field = point.field
    rows = [_embed_coords(r, n, field) for r in point.subspaces[0]]
    rows.append(la.identity(2 * n + 2, field)[n])
    return flag_point(
        field, 2 * n + 2, [rows], form=split_symmetric_form(2 * n + 2, field)
    )


def enumerate_bd_sources(n: int, field):
    """All isotropic (n-1)-subspaces of the odd hyperplane (finite fields)."""
    if n < 2:
        raise WitnessError("needs n >= 2")
    w_rows = bd_hyperplane_basis(n, field)
    form = split_symmetric_form(2 * n, field)
    for coeffs in la.enumerate_subspaces(2 * n - 1, n - 1, field):
        rows = la.rowspace(la.mat_mul(coeffs, w_rows, field), field)
        if is_totally_singular(rows, field):
            yield flag_point(field, 2 * n, [rows], form=form)


def enumerate_component_lagrangians(n: int, field):
    """All Lagrangians of the 2n-space in the reference component."""
    form = split_symmetric_form(2 * n, field)
    for rows in la.enumerate_subspaces(2 * n, n, field):
        if is_totally_singular(rows, field) and _lagrangian_component_matches(
            rows, n, field
        ):
            yield flag_point(field, 2 * n, [rows], form=form)


def random_bd_source(rng, n: int, field) -> FiniteFlagPoint:
    """A random isotropic (n-1)-subspace of the odd hyperplane."""
    if n < 2:
        raise WitnessError("needs n >= 2")
    w_rows = la.rowspace(bd_hyperplane_basis(n, field), field)
    form = split_symmetric_form(2 * n, field)
    zero = field.zero()
    while True:
        rows = []
        for _ in range(200):
            if len(rows) == n - 1:
                break
            if rows:
                pool = la.intersect_rowspaces(
                    w_rows, perp(tuple(rows), form, field), field, 2 * n
                )
            else:
                pool = w_rows
            coeffs = [field.of(rng.randrange(field.p)) for _ in pool]
            vec = la.mat_mul((coeffs,), pool, field)[0]
            if split_quadratic_value(vec, field) != zero:
                continue
            cand = la.rowspace(la.stack(tuple(rows), (vec,)), field)
            if len(cand) != len(rows) + 1:
                continue
            if not is_totally_singular(cand, field):
                continue
            rows = list(cand)
        if len(rows) == n - 1:
            return flag_point(field, 2 * n, [tuple(rows)], form=form)


@dataclass(frozen=True)
class SquareReport:
    n: int
    checked: int
    failures: tuple

    @property
    def ok(self):
        return not self.failures


def bd_square_check(n: int, sample) -> SquareReport:
    """Verify phi_(n+1)(beta_n(M)) = alpha_n(phi_n(M)) for every sample point.

    The exhaustion maps beta_n (isotropic M in the odd hyperplane) and alpha_n
    (Lagrangian L) are one map, :func:`bd_step`: both embed the 2n-space with
    e_(n+1) and its partner in the middle and add e_(n+1), and that embedding
    carries the odd hyperplane W_n into W_(n+1).
    """
    failures = []
    checked = 0
    for m_point in sample:
        checked += 1
        left = bd_phi(n + 1, bd_step(n, m_point))
        right = bd_step(n, bd_phi(n, m_point))
        if left.subspaces != right.subspaces:
            failures.append(m_point)
    return SquareReport(n, checked, tuple(failures))


# ---------------------------------------------------------------------------
# Exhaustion steps: the standard extension from a descriptor's truncation at
# width n into the truncation at width n + 1.


def _coordinate_keys(blocks):
    """One key per coordinate of a truncation layout, in coordinate order.

    A block counts its coordinates from the bottom, a mirrored ``hi`` block
    from the top (so coordinate r of ``("hi", k)`` pairs with coordinate r of
    ``("lo", k)`` under the split form), and the middle keeps its lower half,
    its centre at odd size, and its upper half counted from the top.  Blocks
    only grow with the width, so a coordinate keeps its key."""
    keys = []
    for key, size in blocks:
        if key[0] == "hi":
            subs = range(size - 1, -1, -1)
        elif key[0] == "mid":
            half = size // 2
            subs = [*range(half), *(["centre"] * (size % 2)), *range(-half, 0)]
        else:
            subs = range(size)
        keys.extend((key, r) for r in subs)
    return keys


def exhaustion_step(descriptor, n: int) -> StandardExtensionData:
    """Strict standard extension embedding the truncation at width n into the
    truncation at width n + 1: alpha sends each coordinate to the coordinate
    with the same key, and the new coordinates span the complement."""
    n0 = min_truncation_width(descriptor)
    if n < n0:
        raise WitnessError(f"width {n} is below the smallest admissible width {n0}")
    field = QQ
    src = truncation_layout(descriptor, n)
    tgt = truncation_layout(descriptor, n + 1)
    position = {key: c for c, key in enumerate(_coordinate_keys(tgt.blocks()))}
    mapping = [position[key] for key in _coordinate_keys(src.blocks())]
    unit = la.identity(tgt.ambient, field)
    used = set(mapping)
    added = [c for c in range(tgt.ambient) if c not in used]
    # The source members, plus the whole source space for a general chain,
    # as coordinate prefixes; kappa counts those whose image lies below the
    # target member.
    tops = src.dims + (src.ambient,) if src.lie_type == "A" else src.dims
    kappa = [sum(1 for top in tops if max(mapping[:top]) < dim) for dim in tgt.dims]
    filtration = [[unit[c] for c in added if c < dim] for dim in tgt.dims]
    return standard_extension(
        field,
        len(src.dims),
        [unit[c] for c in mapping],
        [unit[c] for c in added],
        filtration,
        kappa,
        strict=True,
        source_form=split_form(src.lie_type, src.ambient, field),
        target_form=split_form(tgt.lie_type, tgt.ambient, field),
    )


def standard_point(descriptor, n: int) -> FiniteFlagPoint:
    """The coordinate flag of the truncation at width n."""
    require_valid(descriptor)
    layout = truncation_layout(descriptor, n)
    unit = la.identity(layout.ambient, QQ)
    form = split_form(layout.lie_type, layout.ambient, QQ)
    return flag_point(QQ, layout.ambient, [unit[:d] for d in layout.dims], form=form)


# ---------------------------------------------------------------------------
# JSON witness bundles.


def scalar_to_str(x) -> str:
    return str(x)


def matrix_to_json(m) -> dict:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[scalar_to_str(x) for x in row] for row in m],
    }


def field_to_json(field) -> str:
    return "Q" if field == QQ else f"GF({field.p})"


def point_to_json(p: FiniteFlagPoint) -> dict:
    out = {
        "field": field_to_json(p.field),
        "ambient_dim": p.ambient_dim,
        "subspaces": [matrix_to_json(s) for s in p.subspaces],
    }
    if p.form is not None:
        out["form"] = matrix_to_json(p.form)
    return out


def transcript_entry(check: str, passed: bool, detail: str = "") -> dict:
    return {"check": check, "pass": passed, "detail": detail}
