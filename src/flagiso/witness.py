"""Explicit exact-arithmetic isomorphism witnesses.

Everything here computes over an exact field (rationals or F_p) and verifies
its own output by direct matrix identities before returning:

* :func:`rebase_automorphism` builds a chain-stabilizing automorphism carrying
  one compatible basis to another, form-preservingly when a form is given,
  by zipping the basis vectors of equal signature (the gap, and with a form
  the partner's gap and self-pairing) that list their pair in (gap, index)
  order;
* :class:`StandardExtensionData` packages embeddings of flag varieties given
  by an injection alpha, a filtered complement, and a slot map kappa, acting
  as F |-> alpha(F_kappa(j)) + K_j, with a modified variant that post-composes
  with the annihilator duality; these compose, pull back Picard generators,
  and satisfy the commuting-triangle normalization implemented by
  :func:`check_triangle`.  One builder, ``_chain_image``, makes the chain
  alpha(F_kappa(j)) + K_j in one elimination, for the image of a point, for
  a composite and for the filtration of the duality conjugate.  Both the
  triangle's adjusted beta and the data of the duality conjugate are read
  off one inverse of [alpha; complement];
* :func:`bd_phi` realizes the isomorphism between the maximal orthogonal
  grassmannian of an odd space and one Lagrangian component of the
  even space one dimension up, together with the commuting exhaustion square
  checked by :func:`bd_square_check`.  The pair works with points of
  ``split_form("D", 2n)``, whose members :func:`flag_point` has found
  totally singular; the sources grow their rows with the keep of that form
  (:meth:`Form.keep`), in coefficients (:meth:`Form.restrict`).
  :func:`bd_phi` solves no quadratic: its Lagrangian over M is M + (M^perp
  ∩ R) for R = <e_1..e_n> or for the reflection of R in e_1 - e_2n, two
  nullspaces and one component test.

One gate for forms, one for members.  A form is a :class:`Form`: the tuple
of its rows, which also carries its field, Lie type, kernel matrix and
quadratic terms.  :func:`split_form` builds one per (Lie type, ambient,
field), shared by every caller, and :meth:`Form.restrict` the form on a
subspace, for the keeps.  :func:`flag_point`, :func:`rebase_automorphism`
and :func:`standard_extension` take only the split form of their ambient
(``_as_form``), :func:`rebase_automorphism` only its chain's, and
:func:`flag_point` alone tests a member.  B on row sets and perp go through
the kernel; Q and the polar functional are read from the terms.  A keep
computes Q and the polar functional of a candidate row once, so the test of
the row against each row above it is one dot product.

Slot maps are allowed one value past the proper source members: kappa(j) =
k + 1 denotes the full image alpha(V).  Such slots arise when compositions
with the duality are rewritten back to normal form; they pull back Picard
generators to zero exactly like constant slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .descriptors import min_truncation_width, truncation_layout
from .errors import ResourceLimitError, ValidationError
from . import linalg as la
from .linalg import QQ


# enumerate_bd_sources refuses more sources, or more candidate first rows,
# than this; n = 6 over F_2 (75,735 sources) stays below it.
MAX_BD_SOURCES = 100_000


class WitnessError(ValidationError):
    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


# ---------------------------------------------------------------------------
# Forms.

_NO_QUADRATIC = (
    "form is the polar form of no quadratic form (a nonzero diagonal entry in characteristic 2)"
)


class Form(tuple):
    """A symmetric or antisymmetric bilinear form B over ``field``.

    It is the tuple of its rows (``Fraction`` entries over QQ), so it
    compares, hashes and encodes like them, and it carries:

    * ``lie_type``: C when antisymmetric, otherwise B or D;
    * ``matrix``: its rows as ``la.mat`` makes them, for the kernel;
    * ``terms``: the nonzero (i, j, g), i <= j, of its quadratic form Q(x),
      the sum of g x_i x_j, whose polar form Q(x + y) - Q(x) - Q(y) is B.
      For type C they are B's entries above the diagonal, and B(x, y) is
      the sum of g (x_i y_j - x_j y_i).  None when no quadratic form has B
      as its polar form: a nonzero diagonal entry in characteristic 2.

    Built only by :func:`split_form` and :meth:`restrict`, which know its
    rows, type and terms, so it is never checked; only a split form is
    taken as a point's form.  It is frozen: :func:`split_form` hands the
    same value to every caller.  It pickles and copies as itself through
    ``__reduce__``."""

    def __new__(cls, rows, field, lie_type, terms):
        self = super().__new__(cls, rows)
        vars(self).update(field=field, lie_type=lie_type, terms=terms, matrix=la.mat(rows, field))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"a Form is frozen: cannot set {name}")

    def __reduce__(self):
        return type(self), (tuple(self), self.field, self.lie_type, self.terms)

    def _terms(self):
        """``terms``, or WitnessError when no quadratic form polarizes to B."""
        if self.terms is None:
            raise WitnessError(_NO_QUADRATIC)
        return self.terms

    def quadratic(self, x):
        """Q(x)."""
        return self.field.reduce(sum([g * x[i] * x[j] for i, j, g in self._terms()]))

    def polar(self, x):
        """The polar functional of x: lin with B(x, u) = lin . u, unreduced."""
        lin = [0] * len(self)
        sign = -1 if self.lie_type == "C" else 1
        for i, j, g in self._terms():
            lin[j] += g * x[i]
            lin[i] += sign * g * x[j]
        return lin

    def pair(self, rows_a, rows_b):
        """B(a, b) for a in ``rows_a`` (rows) and b in ``rows_b`` (columns),
        in field elements.  The inner product ``rows_a . matrix`` stays an
        int value of the kernel (:func:`flagiso.linalg.product`); only the
        outer one is finished."""
        if not rows_b:  # transpose(()) has lost the column count
            return tuple([() for _ in rows_a])
        field = self.field
        return la.mat_mul(la.product(rows_a, self.matrix, field), la.transpose(rows_b), field)

    def perp(self, rows):
        """The orthogonal complement of the row space of ``rows``, canonical:
        the null space of ``rows . matrix``, which the kernel takes as its
        int value and never finishes."""
        field = self.field
        return la.nullspace(la.product(la.mat(rows, field), self.matrix, field), field, len(self))

    def keep(self):
        """A fresh ``keep`` of :func:`flagiso.linalg.enumerate_subspaces` that
        grows only isotropic subspaces (totally singular for B and D): a new
        row must be singular and orthogonal to every row above it.

        The keep holds a dict of its own from candidate row to the row's
        polar functional, or None when Q(row) is not 0 (B and D).  Both are
        computed on the first call with that row; every call still tests the
        row against the rows above it, in a plain loop of one dot product
        each, reduced through the field (so a keep over QQ answers too), and
        returns False at the first that pairs to a nonzero value.  The dict
        lives as long as the keep, so it holds no more than the candidate
        rows that one caller asks about.  A form without terms is refused
        here, before the first row."""
        self._terms()
        singular = self.lie_type != "C"
        reduce = self.field.reduce
        polar = {}

        def keep(row, rows):
            try:
                lin = polar[row]
            except KeyError:
                lin = polar[row] = None if singular and self.quadratic(row) else self.polar(row)
            if lin is None:
                return False
            for u in rows:
                if reduce(sum(map(mul, lin, u))):
                    return False
            return True

        return keep

    def restrict(self, basis):
        """The form on the span of the rows of ``basis``, in coefficients:
        its rows are B(basis_k, basis_l), and its terms Q(basis_k) on the
        diagonal and B(basis_k, basis_l) above it, so no division is needed
        in any characteristic.  It is not checked: over F_2 the form on
        the odd hyperplane is degenerate."""
        gram = self.pair(basis, basis)
        terms = []
        for k, row in enumerate(gram):
            for l in range(k, len(row)):
                g = self.quadratic(basis[k]) if k == l and self.lie_type != "C" else row[l]
                if g:
                    terms.append((k, l, g))
        return Form(gram, self.field, self.lie_type, tuple(terms))


def _as_form(form, field, n):
    """The shared ``split_form(form.lie_type, n, field)`` when ``form`` equals
    it, else WitnessError.  ``is`` goes before ``==``, never alone: the memo
    may evict the value, and an unpickled form is an equal copy."""
    if isinstance(form, Form) and form.field == field and not (form.lie_type == "C" and n % 2):
        split = split_form(form.lie_type, n, field)
        if form is split or form == split:
            return split
    raise WitnessError(f"form must be the split form of ambient {n} over {field!r}")


@lru_cache(maxsize=64)
def split_form(lie_type, n_ambient, field):
    """The split form of a finite flag variety of the given Lie type, as a
    :class:`Form`, none for A; type C at odd length is refused.  Its entries
    sit on the antidiagonal: +1 in the top half of the rows, and below it -1
    for C (antisymmetric) and +1 for B and D (symmetric, the odd middle
    included).  So Q(x) is the sum of x_i x_(n-1-i) over i < n // 2, plus
    x_m^2 / 2 at the middle m of odd length, which has no Q over F_2.  Built
    once per (Lie type, ambient, field), so every caller shares the value."""
    if lie_type == "A":
        return None
    if lie_type == "C" and n_ambient % 2:
        raise WitnessError(f"a symplectic form needs an even ambient, not {n_ambient}")
    one, zero = field.one(), field.zero()
    below = field.reduce(-one) if lie_type == "C" else one
    rows = tuple(
        tuple(
            (one if i < n_ambient // 2 else below) if i + j == n_ambient - 1 else zero
            for j in range(n_ambient)
        )
        for i in range(n_ambient)
    )
    terms = tuple((i, n_ambient - 1 - i, one) for i in range(n_ambient // 2))
    if n_ambient % 2:
        two, m = field.of(2), n_ambient // 2
        terms = terms + ((m, m, field.inv(two)),) if two else None
    return Form(rows, field, lie_type, terms)


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
    form: Form = None


def flag_point(field, ambient_dim, subspaces, form=None) -> FiniteFlagPoint:
    """A flag point with canonical members, checked to be a proper chain and,
    with a form, to consist of isotropic members.

    The form must equal ``split_form(lie_type, ambient_dim, field)``.  B
    must vanish on each member; over F_2, where B(x, x) = 2Q(x) = 0, so
    must the Q of an orthogonal form on each member row, which is enough
    as Q(x + y) = Q(x) + Q(y) + B(x, y)."""
    if any(len(row) != ambient_dim for s in subspaces for row in s):
        raise WitnessError(f"member rows must have {ambient_dim} entries")
    canon = tuple(la.rowspace(la.mat(s, field), field) for s in subspaces)
    if not canon:
        raise WitnessError("a flag point needs at least one member")
    dims = [len(s) for s in canon]
    if any(d < 1 or d >= ambient_dim for d in dims):
        raise WitnessError("members must be proper nonzero subspaces")
    if any(dims[i] >= dims[i + 1] for i in range(len(dims) - 1)):
        raise WitnessError("member dimensions must strictly increase")
    _require_nested(canon, field)
    if form is not None:
        form = _as_form(form, field, ambient_dim)
        singular = form.terms and form.lie_type != "C" and not field.reduce(2)
        for i, s in enumerate(canon):
            if any(map(any, form.pair(s, s))) or (singular and any(map(form.quadratic, s))):
                raise WitnessError(f"member {i} is not isotropic", certificate=s)
    return FiniteFlagPoint(field, ambient_dim, canon, form)


def _require_nested(members, field):
    """WitnessError unless each member lies in the next."""
    for i in range(len(members) - 1):
        if not la.rowspace_contains(members[i + 1], members[i], field):
            raise WitnessError(f"member {i} is not contained in member {i + 1}")


# ---------------------------------------------------------------------------
# Rebasing automorphisms (chain-stabilizing base changes).


def _basis_involution(basis, form):
    """(partner, Gram matrix) of a basis: partner[i] = j with form(basis_i,
    basis_j) != 0, with at most one fixed point; a split form's Gram matrix
    is (anti)symmetric, so partner is an involution."""
    vals = form.pair(basis, basis)
    partner = []
    for i, row in enumerate(vals):
        hits = [j for j, x in enumerate(row) if x]
        if len(hits) != 1:
            raise WitnessError(
                f"basis vector {i} pairs with {len(hits)} others; an isotropic "
                "basis pairs each vector with exactly one"
            )
        partner.append(hits[0])
    if sum(1 for i, j in enumerate(partner) if i == j) > 1:
        raise WitnessError("basis pairing has more than one fixed point")
    return partner, vals


def _closed_chain(members, form, field, n):
    """Sorted proper members of the perp-closure, which must stay a chain."""
    spaces = {s: None for s in members}
    for s in members:
        p = form.perp(s)
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
            (i for i, s in enumerate(chain) if la.rowspace_contains(s, (row,), field)),
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


def _listed_by_signature(gaps, partner):
    """Signature -> the indices that list their pair, in (gap, index) order;
    without a form (partner None) each index is a pair of its own."""
    groups = {}
    for g, i in sorted(zip(gaps, range(len(gaps)))):
        if partner is None:
            groups.setdefault((g,), []).append(i)
        elif (g, i) <= (gaps[partner[i]], partner[i]):
            groups.setdefault((g, gaps[partner[i]], partner[i] == i), []).append(i)
    return groups


# Both bases pass _gap_classes and, with a form, _basis_involution, so every
# signature lists as many indices of E as of E' (each gap class has dim C_g -
# dim C_(g-1) vectors, perp fixes a partner's gap by its own, and at most one
# vector pairs with itself), and a self-paired ratio is a square (both Gram
# matrices are hyperbolic planes plus that one value, with determinant
# det(basis)^2 det(form)).  A row left unset breaks that argument.
_UNMATCHED = "internal error: the bases do not match signature by signature"


def rebase_automorphism(chain, basis_e, basis_e2, form=None):
    """An invertible matrix alpha with alpha(E) = E' (up to the isotropic
    scalar corrections), alpha(F) = F for every chain member, and alpha
    preserving the chain's form, which is the only ``form`` taken: the
    members were tested isotropic under it.  The bases must be n x n for the
    chain's ambient n.  Output is verified before returning.

    A basis index has a signature: its gap (the least chain member holding
    the vector) and, with a form, its partner's gap and whether it pairs
    with itself.  Each pair is listed by whichever member comes first in
    (gap, index) order, and the listed indices of E and E' are zipped
    signature by signature.  A partner's row takes the ratio of the pairing
    values, a self-paired row its square root."""
    if not isinstance(chain, FiniteFlagPoint):
        raise WitnessError("chain must be a FiniteFlagPoint")
    field, n = chain.field, chain.ambient_dim
    members = list(chain.subspaces)
    E = la.mat(basis_e, field)
    E2 = la.mat(basis_e2, field)
    if any(len(b) != n or any(len(row) != n for row in b) for b in (E, E2)):
        raise WitnessError(f"bases must be {n}x{n} matrices")
    if la.rank(E, field) != n or la.rank(E2, field) != n:
        raise WitnessError("bases must be invertible matrices")

    # the chain's form is a split form too, so the Lie types tell them apart
    own = getattr(chain.form, "lie_type", None)
    if form is not None and _as_form(form, field, n).lie_type != own:
        raise WitnessError("form must be the chain's form")
    form = chain.form
    if form is not None:
        form = _as_form(form, field, n)
        members = _closed_chain(members, form, field, n)
    gaps_e = _gap_classes(members, E, field, "E")
    gaps_e2 = _gap_classes(members, E2, field, "E'")
    part_e = part_e2 = None
    if form is not None:
        part_e, vals_e = _basis_involution(E, form)
        part_e2, vals_e2 = _basis_involution(E2, form)
    listed_e2 = _listed_by_signature(gaps_e2, part_e2)

    rows = [None] * n
    for sig, src in _listed_by_signature(gaps_e, part_e).items():
        for i, j in zip(src, listed_e2.get(sig, ())):
            rows[i] = E2[j]
            if part_e is None:
                continue
            pi, pj = part_e[i], part_e2[j]
            ratio = field.reduce(vals_e[i][pi] * field.inv(vals_e2[j][pj]))
            s = ratio if pi != i else field.sqrt(ratio)
            rows[pi] = None if s is None else la.mat_scale(s, (E2[pj],), field)[0]
    if any(row is None for row in rows):
        raise WitnessError(_UNMATCHED)
    alpha = la.mat_mul(la.inverse(E, field), tuple(rows), field)

    _verify_rebase(alpha, members, E, E2, form, field, n)
    return alpha


def _verify_rebase(alpha, members, E, E2, form, field, n):
    if la.rank(alpha, field) != n:
        raise WitnessError("constructed map is not invertible")
    # alpha(E) = E' as sets up to scalars
    coords = la.mat_mul(la.product(E, alpha, field), la.inverse(E2, field), field)
    seen = set()
    for row in coords:
        hits = [j for j, x in enumerate(row) if x]
        if len(hits) != 1 or hits[0] in seen:
            raise WitnessError("alpha does not map E bijectively onto scalar multiples of E'")
        seen.add(hits[0])
    for k, s in enumerate(members):
        if not la.rowspace_eq(la.product(s, alpha, field), s, field):
            raise WitnessError(f"alpha moves chain member {k}", certificate=s)
    if form is not None:
        if not la.mat_eq(form.pair(alpha, alpha), form):
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
        source_form = _as_form(source_form, field, v)
        target_form = _as_form(target_form, field, w)
        if not la.mat_eq(target_form.pair(alpha, alpha), source_form):
            raise WitnessError("alpha is not compatible with the forms")
        if any(map(any, target_form.pair(alpha, complement))):
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


def _chain_image(alpha, members, tops, kappa, field):
    """The reduced forms of alpha(members[c]) + tops[j] for slot j and c =
    kappa[j], from one :func:`flagiso.linalg.rowspace_chain`: slot j is fed
    alpha applied to the new rows of its member over the member before it,
    and the new rows of its top over the top before it.  members[0] must
    be the zero space, the members and tops must grow, and kappa must not
    decrease.  A member of None is the whole source, whose new rows are
    unit rows at the pivot columns that the member before it lacks, so
    alpha sends them to its own rows there."""
    blocks, c_before, top_before = [], 0, ()
    for top, c in zip(tops, kappa):
        fed = la.new_rows(top_before, top, field)
        if c != c_before:
            before, member = members[c_before], members[c]
            if member is None:
                taken = la.rref(before, field)[1]
                image = la.pick(alpha, [i for i in range(len(alpha)) if i not in taken])
            else:
                image = la.product(la.new_rows(before, member, field), alpha, field)
            fed = la.stack(image, fed)
        blocks.append(fed)
        c_before, top_before = c, top
    return list(la.rowspace_chain(blocks, field))


def apply_standard_extension(d: StandardExtensionData, p: FiniteFlagPoint) -> FiniteFlagPoint:
    """The image of ``p``: slot j is alpha(F_kappa(j)) + K_j, and modified
    data take the annihilators of the slots in reverse order.  The slots
    are one chain (:func:`_chain_image`, the point's members between the
    zero space and the whole source), and their annihilators are one
    annihilator chain.  New rows span a member only over the one before it,
    so the point's members are checked to be nested first, as a point built
    without :func:`flag_point` may not be.  :func:`flag_point` checks the
    image."""
    field = d.field
    if p.field != field:
        raise WitnessError("field mismatch")
    if p.ambient_dim != d.source_dim or len(p.subspaces) != d.source_members:
        raise WitnessError(
            f"shape mismatch: data expects {d.source_members} members in ambient "
            f"{d.source_dim}, point has {len(p.subspaces)} in {p.ambient_dim}"
        )
    if d.source_form is not None:
        if p.form != d.source_form:
            raise WitnessError("point must carry the extension's source form")
    elif p.form is not None:
        raise WitnessError("a general-type extension applies to form-free points")
    _require_nested(p.subspaces, field)
    w = d.target_dim
    slots = _chain_image(d.alpha, ((), *p.subspaces, None), d.filtration, d.kappa, field)
    if d.strict:
        return flag_point(field, w, slots, form=d.target_form)
    return flag_point(field, w, la.annihilator_chain(slots, field, w))


def _dual_conjugate(d: StandardExtensionData) -> StandardExtensionData:
    """Data for the duality-conjugated map: reverse-annihilate, apply, then
    reverse-annihilate again.  Strict in the extended normal form.

    Everything is read off D = (S^T)^-1 for S = [alpha; C], C the reduced
    complement: S . D^T = I, so the first v rows of D pair with alpha to
    the identity and the rest, D_C, span the annihilator of alpha and pair
    with C to the identity.  Slot j of the filtration is the annihilator of
    alpha + K_(m+1-j).  A row x = z . D_C of ann(alpha) meets a row of K_j
    in z . X_j^T, where X_j holds that row's coordinates over C, its entries
    at C's pivot columns; so the slot is ann(X_(m+1-j)) . D_C.  The X_j grow
    with j, so their annihilators are one annihilator chain, and D_C, which
    is injective, carries it into the slots by :func:`_chain_image`, with
    slot j fed by the j-th annihilator and a zero top."""
    field = d.field
    v, w = d.source_dim, d.target_dim
    k, m = d.source_members, d.slots
    complement = la.rowspace(d.complement, field)
    dual = la.inverse(la.transpose(la.stack(d.alpha, complement)), field)
    alpha_d, complement_d = la.pick(dual, range(v)), la.pick(dual, range(v, w))
    pivots = complement.pivots
    coords = [tuple([tuple([row[c] for c in pivots]) for row in kj]) for kj in d.filtration]
    anns = la.annihilator_chain(coords, field, w - v)
    filtration_d = _chain_image(complement_d, ((), *anns), ((),) * m, range(1, m + 1), field)
    kappa_d = tuple(k + 1 - c for c in reversed(d.kappa))
    return standard_extension(field, k, alpha_d, complement_d, filtration_d, kappa_d, strict=True)


def _compose_strict(d1: StandardExtensionData, d2: StandardExtensionData) -> dict:
    """The parts of d1 followed by d2 read as strict data.  Filtration member
    j is d2.alpha(I_j) + L_j for the inner member I_j of d1 (the zero space,
    a filtration member or d1's complement, by d2's kappa) and d2's member
    L_j, and the complement is d2.alpha(d1's complement) + d2's complement.
    Both grow, so they are one chain (:func:`_chain_image`, with d2's
    complement as the top of one more slot, fed d1's complement)."""
    field = d1.field
    if d2.source_members != d1.slots or d2.source_dim != d1.target_dim:
        raise WitnessError("extensions do not compose: shapes disagree")
    forms = _chain_image(
        d2.alpha,
        ((), *d1.filtration, d1.complement),
        (*d2.filtration, d2.complement),
        (*d2.kappa, d1.slots + 1),
        field,
    )
    inner_kappa = (0, *d1.kappa, d1.source_members + 1)
    return dict(
        source_members=d1.source_members,
        alpha=la.mat_mul(d1.alpha, d2.alpha, field),
        complement=forms[-1],
        filtration=forms[:-1],
        kappa=tuple([inner_kappa[c] for c in d2.kappa]),
    )


def compose_standard_extensions(
    d1: StandardExtensionData, d2: StandardExtensionData
) -> StandardExtensionData:
    """Data applying as d1 followed by d2.

    The result is strict exactly when d1 and d2 are both strict or both
    modified.  Forms carry over when both sides have them; one side alone
    with forms is an error."""
    forms = {}
    if d1.source_form is not None or d2.source_form is not None:
        if d1.source_form is None or d2.source_form is None:
            raise WitnessError("cannot compose a form-compatible extension with a bare one")
        if d1.target_form != d2.source_form:
            raise WitnessError("the intermediate forms disagree")
        forms = dict(source_form=d1.source_form, target_form=d2.target_form)
    field = d1.field
    parts = _compose_strict(d1, d2 if d1.strict else _dual_conjugate(d2))
    return standard_extension(field, strict=d1.strict == d2.strict, **parts, **forms)


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


def pic_pullback(d: StandardExtensionData) -> PicPullback:
    """Columns send target generators to source generators per kappa; constant
    and full-image slots pull back to zero.  Modified data reverse the slots."""
    k, l = d.source_members, d.slots
    entries = [[0] * (l + 1) for _ in range(k + 1)]
    entries[0][0] = 1
    for j, c in enumerate(d.kappa if d.strict else reversed(d.kappa), 1):
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


def check_triangle(phi, psi, chi) -> TriangleReport:
    """Verify that chi matches psi after phi: slot maps compose, filtrations
    split as M_j = beta(K_lambda(j)) + L_j, and, up to the allowed adjustment
    of beta (a correction into M_{i0} plus one scalar), gamma = beta . alpha.
    Returns a report rather than raising on mismatch.

    The adjusted beta is s psi.alpha + P (gamma - s alpha . psi.alpha) for
    [P | Q] the inverse of S = [alpha; K], K = phi.complement.  As alpha . P
    = I and K . P = 0, S . beta = [gamma; s K . psi.alpha]: beta is S^-1
    times that, for every gamma."""
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
    bad = next(
        (
            i
            for i, (a, b) in enumerate(zip(expected["filtration"], chi.filtration))
            if not la.rowspace_eq(a, b, field)
        ),
        None,
    )
    filtration_ok = bad is None
    if not filtration_ok:
        messages.append(f"filtration mismatch at slot {bad + 1}")
    if not (slot_map_ok and filtration_ok):
        return TriangleReport(False, slot_map_ok, filtration_ok, messages=tuple(messages))

    ab = expected["alpha"]  # beta . alpha
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
    scalar = coeffs[0][0]
    # row i of the coefficients on beta.alpha must be scalar * e_i
    off = (i for i, row in enumerate(coeffs) if row[i] != scalar or any(row[:i] + row[i + 1 : v]))
    bad = next(off, None)
    if bad is not None:
        messages.append(
            "gamma is not a scalar multiple of beta.alpha modulo "
            f"M_{i0 + 1} (source basis vector {bad})"
        )
        return TriangleReport(False, True, True, messages=tuple(messages))
    if scalar == field.zero():
        messages.append("gamma collapses into the complement; not an embedding match")
        return TriangleReport(False, True, True, messages=tuple(messages))
    lower = la.product(la.mat_scale(scalar, phi.complement, field), psi.alpha, field)
    square = la.stack(phi.alpha, phi.complement)
    beta = la.mat_mul(la.inverse(square, field), la.stack(gamma, lower), field)
    if not la.mat_eq(la.product(phi.alpha, beta, field), gamma):
        raise WitnessError("internal error: adjusted beta fails gamma = beta . alpha")
    if la.rank(beta, field) != len(beta):
        messages.append("adjusted beta is not injective")
        return TriangleReport(False, True, True, messages=tuple(messages))
    return TriangleReport(
        True, True, True, adjusted=True, scalar=scalar, beta=beta
    )


# ---------------------------------------------------------------------------
# The exceptional orthogonal pair: explicit maps and the exhaustion square.

# Coordinates of the 2n-dimensional orthogonal space: e_i is coordinate i-1,
# its pair partner coordinate 2n-i; the split symmetric form pairs them.


def _unit_row(n, field, *ones):
    """The row of length n with one at the coordinates ``ones``, zero elsewhere."""
    return tuple([field.one() if j in ones else field.zero() for j in range(n)])


def bd_hyperplane_basis(n, field):
    """Rows spanning the odd-dimensional subspace W_n = <e_1 + pair(e_1), e_2,
    pair(e_2), ..., e_n, pair(e_n)> of the 2n-dimensional split space, which
    is (e_1 - pair(e_1))^perp = {x : x_1 = x_2n}."""
    N = 2 * n
    ones = [(0, N - 1)] + [(c,) for i in range(1, n) for c in (i, N - 1 - i)]
    return tuple([_unit_row(N, field, *cols) for cols in ones])


def in_reference_component(rows, n, field) -> bool:
    """Whether the Lagrangian with basis ``rows`` of the split 2n-space lies
    in the component of the reference Lagrangian R = <e_1..e_n>, the type-D
    convention dim(L ∩ R) = n (mod 2).  R is the first n coordinates, so
    dim(L ∩ R) = dim L - rank of the last n columns of L."""
    meet = len(rows) - la.rank(tuple(row[n:] for row in rows), field)
    return meet % 2 == n % 2


def bd_phi(n: int, m_point: FiniteFlagPoint) -> FiniteFlagPoint:
    """The unique Lagrangian over an isotropic (n-1)-subspace M of the odd
    hyperplane, inside the component fixed by the parity convention
    dim(L ∩ <e_1..e_n>) = n (mod 2).

    For a Lagrangian R', M + (M^perp ∩ R') is a Lagrangian over M: M^perp ∩
    R' has dimension 1 + dim(M ∩ R'), is totally singular and orthogonal to
    M, and meets M in M ∩ R'.  The candidates use R = <e_1..e_n> and R2 =
    <e_2..e_n, e_2n>, the image of R under the reflection in e_1 - e_2n.  That
    reflection fixes the odd hyperplane {x : x_1 = x_2n} pointwise, so it
    fixes M and carries the first candidate to the second; being a
    reflection, it swaps the two components (in every characteristic), so
    exactly one candidate lies in the reference component.  No quadratic is
    solved.  Only a point of ``split_form("D", 2n, field)`` is taken, so
    :func:`flag_point` has found M totally singular, and it checks L."""
    if n < 2:
        raise WitnessError("needs n >= 2")
    field = m_point.field
    N = 2 * n
    form = split_form("D", N, field)
    if m_point.form is not form and m_point.form != form:
        raise WitnessError(f"the point must carry the split form of type D in ambient {N}")
    if len(m_point.subspaces) != 1:
        raise WitnessError(f"expected one subspace in ambient {N}")
    m_rows = m_point.subspaces[0]
    if len(m_rows) != n - 1:
        raise WitnessError(f"expected an ({n - 1})-dimensional subspace")
    if any(row[0] != row[-1] for row in m_rows):
        raise WitnessError("the subspace does not lie in the odd hyperplane")
    zero = field.zero()
    for coords in (range(n), (*range(1, n), N - 1)):
        # x on these coordinates is orthogonal to a row when the sum of
        # row[N-1-j] x_j vanishes: the split form pairs j with N-1-j
        meet = la.nullspace(
            tuple(tuple(row[N - 1 - j] for j in coords) for row in m_rows), field, n
        )
        extra = []
        for vec in meet:
            placed = dict(zip(coords, vec))
            extra.append(tuple(placed.get(j, zero) for j in range(N)))
        lag = la.rowspace(la.stack(m_rows, tuple(extra)), field)
        if in_reference_component(lag, n, field):
            break
    else:
        raise WitnessError("internal error: neither Lagrangian is in the reference component")
    if len(lag) != n:
        raise WitnessError("internal error: the output is not a Lagrangian")
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
    rows.append(_unit_row(2 * n + 2, field, n))
    return flag_point(field, 2 * n + 2, [rows], form=split_form("D", 2 * n + 2, field))


def _shown(count):
    return str(count) if count < 10**12 else f"about 10^{math.log10(count):.0f}"


def enumerate_bd_sources(n: int, field):
    """All isotropic (n-1)-subspaces of the odd hyperplane (finite fields),
    grown as coefficient rows over its basis.  There are prod (p^i + 1) over
    i = 1..n-1 of them (the F_p points of B_(n-1)/P_(n-1)), and a first row
    with pivot 0 has p^n candidates, which at n = 2 are far more (p^2 against
    p + 1).  When either number is above ``MAX_BD_SOURCES`` the enumeration
    is refused."""
    if n < 2:
        raise WitnessError("needs n >= 2")
    count = math.prod([field.p**i + 1 for i in range(1, n)])
    candidates = field.p**n
    if max(count, candidates) > MAX_BD_SOURCES:
        raise ResourceLimitError(
            f"there are {_shown(count)} isotropic {n - 1}-subspaces of the odd "
            f"hyperplane over F_{field.p}, grown from {_shown(candidates)} candidate first "
            f"rows; the enumeration cap is {MAX_BD_SOURCES}"
        )
    w_rows = bd_hyperplane_basis(n, field)
    form = split_form("D", 2 * n, field)
    keep = form.restrict(w_rows).keep()
    for coeffs in la.enumerate_subspaces(2 * n - 1, n - 1, field, keep=keep):
        yield flag_point(field, 2 * n, [la.mat_mul(coeffs, w_rows, field)], form=form)


def enumerate_component_lagrangians(n: int, field):
    """All Lagrangians of the 2n-space in the reference component."""
    form = split_form("D", 2 * n, field)
    for rows in la.enumerate_subspaces(2 * n, n, field, keep=form.keep()):
        if in_reference_component(rows, n, field):
            yield flag_point(field, 2 * n, [rows], form=form)


def random_bd_source(rng, n: int, field) -> FiniteFlagPoint:
    """A random isotropic (n-1)-subspace of the odd hyperplane."""
    if n < 2:
        raise WitnessError("needs n >= 2")
    form = split_form("D", 2 * n, field)
    # W_n is the perp of e_1 - e_2n, so the pool, the part of W_n orthogonal
    # to the rows so far, is one perp; a random vector of it joins the rows
    # when it is singular and raises the rank.  A draw is tested in
    # coefficients, and its vector is built only when it passes.
    axis = ((1,) + (0,) * (2 * n - 2) + (-1,),)  # perp maps it into the field
    rows, pool = (), form.perp(axis)
    on_pool = form.restrict(pool)
    while len(rows) < n - 1:
        coeffs = [rng.randrange(field.p) for _ in pool]
        if on_pool.quadratic(coeffs):
            continue
        vec = la.mat_mul((coeffs,), pool, field)[0]
        grown = la.rowspace(la.stack(rows, (vec,)), field)
        if len(grown) > len(rows):
            rows = grown
            pool = form.perp(axis + rows)
            on_pool = form.restrict(pool)
    return flag_point(field, 2 * n, [rows], form=form)


@dataclass(frozen=True)
class SquareReport:
    """``lifts`` holds phi_n(M) for each sample point M, in sample order."""

    n: int
    failures: tuple
    lifts: tuple

    @property
    def checked(self):
        return len(self.lifts)

    @property
    def ok(self):
        return not self.failures


def bd_square_check(n: int, sample) -> SquareReport:
    """Verify phi_(n+1)(beta_n(M)) = alpha_n(phi_n(M)) for every sample point.

    The exhaustion maps beta_n (isotropic M in the odd hyperplane) and alpha_n
    (Lagrangian L) are one map, :func:`bd_step`: both embed the 2n-space with
    e_(n+1) and its partner in the middle and add e_(n+1), and that embedding
    carries the odd hyperplane W_n into W_(n+1).  The report keeps each
    phi_n(M) as one of its ``lifts``, so a caller that needs the lifts too
    does not compute them again.
    """
    failures, lifts = [], []
    for m_point in sample:
        lift = bd_phi(n, m_point)
        lifts.append(lift)
        left = bd_phi(n + 1, bd_step(n, m_point))
        if left.subspaces != bd_step(n, lift).subspaces:
            failures.append(m_point)
    return SquareReport(n, tuple(failures), tuple(lifts))


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


def _require_admissible_width(descriptor, n):
    n0 = min_truncation_width(descriptor)
    if n < n0:
        raise WitnessError(f"width {n} is below the smallest admissible width {n0}")


def exhaustion_step(descriptor, n: int) -> StandardExtensionData:
    """Strict standard extension embedding the truncation at width n into the
    truncation at width n + 1: alpha sends each coordinate to the coordinate
    with the same key, and the new coordinates span the complement."""
    _require_admissible_width(descriptor, n)
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
    """The coordinate flag of the truncation at width n; like
    ``exhaustion_step`` it rejects widths below the smallest admissible one."""
    _require_admissible_width(descriptor, n)
    layout = truncation_layout(descriptor, n)
    unit = la.identity(layout.ambient, QQ)
    form = split_form(layout.lie_type, layout.ambient, QQ)
    return flag_point(QQ, layout.ambient, [unit[:d] for d in layout.dims], form=form)
