"""Isomorphism decision procedures with machine-readable reasons.

``decide_finite`` compares two finite flag varieties above the standing
dimension hypotheses (general ambient >= 2, orthogonal >= 5, symplectic >= 6).
``decide_ind`` compares two ind-variety descriptors.  Besides isomorphisms
induced by chain isomorphisms (and chain duality in the general case), exactly
two cross-type coincidences exist, both recognized explicitly:

* the projective space / symplectic line grassmannian pair, and
* the pair of maximal orthogonal grassmannians (middle quotient of dimension
  one versus a self-perp member).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .descriptors import (
    FiniteFlagVariety,
    FlagDescriptor,
    FormType,
    GENERAL_MIN_AMBIENT,
    ORTHOGONAL_MIN_AMBIENT,
    SYMPLECTIC_MIN_AMBIENT,
    middle_codim,
    pic_rank,
    require_valid,
    require_valid_variety,
)
from .errors import ValidationError
from .orders import INF, is_isomorphic, normalize, reverse, seq


class Verdict(enum.Enum):
    ISOMORPHIC = "Isomorphic"
    NOT_ISOMORPHIC = "NotIsomorphic"


class Reason(enum.Enum):
    SAME_DIMS = "SameDims"
    COMPLEMENT_DIMS = "ComplementDims"
    FLAG_ISO = "FlagIso"
    DUAL_FLAG_ISO = "DualFlagIso"
    EXCEPTIONAL_PROJ_SYMP = "ExceptionalProjSymp"
    EXCEPTIONAL_BD = "ExceptionalBD"
    NO_RULE_APPLIES = "NoRuleApplies"


@dataclass(frozen=True)
class DecisionResult:
    verdict: Verdict
    reason: Reason
    detail: str

    def __post_init__(self):
        if (self.reason is Reason.NO_RULE_APPLIES) != (
            self.verdict is Verdict.NOT_ISOMORPHIC
        ):
            raise ValidationError("reason inconsistent with verdict")

    @property
    def isomorphic(self) -> bool:
        return self.verdict is Verdict.ISOMORPHIC

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "reason": self.reason.value,
            "detail": self.detail,
        }


def _yes(reason: Reason, detail: str) -> DecisionResult:
    return DecisionResult(Verdict.ISOMORPHIC, reason, detail)


def _no(detail: str) -> DecisionResult:
    return DecisionResult(Verdict.NOT_ISOMORPHIC, Reason.NO_RULE_APPLIES, detail)


class ThresholdError(ValidationError):
    """An input is below the standing dimension hypotheses."""


_TYPE_CLASS = {"A": "general", "B": "orthogonal", "C": "symplectic", "D": "orthogonal"}
_CLASS_MIN = {
    "general": GENERAL_MIN_AMBIENT,
    "orthogonal": ORTHOGONAL_MIN_AMBIENT,
    "symplectic": SYMPLECTIC_MIN_AMBIENT,
}


def _check_threshold(v: FiniteFlagVariety):
    cls = _TYPE_CLASS[v.lie_type]
    minimum = _CLASS_MIN[cls]
    if v.ambient_dim < minimum:
        raise ThresholdError(
            f"{cls} flag variety requires ambient dimension >= {minimum}, "
            f"got {v.ambient_dim}"
        )


def decide_finite(x: FiniteFlagVariety, y: FiniteFlagVariety) -> DecisionResult:
    require_valid_variety(x)
    require_valid_variety(y)
    _check_threshold(x)
    _check_threshold(y)
    cx, cy = _TYPE_CLASS[x.lie_type], _TYPE_CLASS[y.lie_type]

    if cx == cy and x.ambient_dim == y.ambient_dim and x.dims == y.dims:
        return _yes(Reason.SAME_DIMS, "same type class and dimension sequence")

    if cx == cy == "general" and x.ambient_dim == y.ambient_dim:
        n = x.ambient_dim
        if len(x.dims) == len(y.dims) and all(
            a == n - b for a, b in zip(x.dims, reversed(y.dims))
        ):
            return _yes(
                Reason.COMPLEMENT_DIMS,
                "complementary dimension sequences in equal ambient dimension",
            )

    if {cx, cy} == {"general", "symplectic"}:
        gen, symp = (x, y) if cx == "general" else (y, x)
        n = gen.ambient_dim
        if (
            n == symp.ambient_dim
            and symp.dims == (1,)
            and gen.dims in ((1,), (n - 1,))
        ):
            return _yes(
                Reason.EXCEPTIONAL_PROJ_SYMP,
                "projective space of an even-dimensional space and its "
                "symplectic line grassmannian",
            )

    if cx == cy == "orthogonal" and {x.lie_type, y.lie_type} == {"B", "D"}:
        b, d = (x, y) if x.lie_type == "B" else (y, x)
        n = d.ambient_dim // 2
        if (
            b.ambient_dim == 2 * n - 1
            and b.dims == (n - 1,)
            and d.dims == (n,)
        ):
            return _yes(
                Reason.EXCEPTIONAL_BD,
                "maximal orthogonal grassmannians in ambient dimensions "
                f"{2 * n - 1} and {2 * n}",
            )

    return _no("no classification rule matches the pair")


def _gr_dims(order):
    """(dim F, codim F) for a one-cut general chain, from its normal form."""
    norm = normalize(order)
    blocks = [s for atom in norm.atoms for s in atom.sizes]
    if len(blocks) != 2:
        raise ValidationError("descriptor does not have exactly one proper member")
    return blocks[0], blocks[1]


def decide_ind(x: FlagDescriptor, y: FlagDescriptor) -> DecisionResult:
    require_valid(x)
    require_valid(y)

    if x.form is y.form is FormType.GENERAL:
        nx, ny = normalize(x.order), normalize(y.order)
        if nx == ny:
            return _yes(Reason.FLAG_ISO, "chains isomorphic as weighted orders")
        # normalize commutes with reverse
        if nx == reverse(ny):
            return _yes(Reason.DUAL_FLAG_ISO, "one chain isomorphic to the dual of the other")
        return _no("neither chain isomorphism nor dual chain isomorphism holds")

    if x.form is y.form:
        if is_isomorphic(x.half, y.half) and x.middle == y.middle:
            return _yes(
                Reason.FLAG_ISO,
                "isotropic halves isomorphic with equal middle quotients",
            )
        if x.form is FormType.ORTHOGONAL:
            halves_max = all(
                normalize(d.half) == seq(INF) for d in (x, y)
            )
            if halves_max and {x.middle, y.middle} == {0, 1}:
                return _yes(
                    Reason.EXCEPTIONAL_BD,
                    "maximal orthogonal grassmannians: middle quotient of "
                    "dimension one versus a self-perp member",
                )
        return _no("isotropic chains are not isomorphic")

    forms = {x.form, y.form}
    if forms == {FormType.GENERAL, FormType.SYMPLECTIC}:
        gen, symp = (x, y) if x.form is FormType.GENERAL else (y, x)
        symp_is_line_gr = normalize(symp.half) == seq(1) and symp.middle is INF
        gen_norm = normalize(gen.order)
        gen_is_proj = gen_norm in (seq(1, INF), seq(INF, 1))
        if symp_is_line_gr and gen_is_proj:
            return _yes(
                Reason.EXCEPTIONAL_PROJ_SYMP,
                "projective ind-space and the symplectic line ind-grassmannian",
            )
        return _no("general and symplectic descriptors match no exceptional pair")

    return _no("orthogonal descriptors are never isomorphic to the other types")


def decide_ind_grassmannian(x: FlagDescriptor, y: FlagDescriptor) -> DecisionResult:
    """Decision for one-member descriptors, phrased purely in dimension data.

    A deliberately independent route: instead of normal-form comparison of
    whole chains it compares (dim F, codim F) for general descriptors and
    (dim F, middle quotient) for isotropic ones.
    """
    require_valid(x)
    require_valid(y)
    for d in (x, y):
        if pic_rank(d) != 1:
            raise ValidationError("decide_ind_grassmannian needs descriptors with one proper member")

    if x.form is y.form is FormType.GENERAL:
        a1, b1 = _gr_dims(x.order)
        a2, b2 = _gr_dims(y.order)
        if (a1, b1) == (a2, b2):
            return _yes(Reason.FLAG_ISO, "equal member dimension and codimension")
        if (a1, b1) == (b2, a2):
            return _yes(Reason.DUAL_FLAG_ISO, "member dimensions swap with codimensions")
        return _no("grassmannian dimension data differ")

    if x.form is y.form:
        # The half of a one-member isotropic descriptor is a single block.
        a1 = (normalize(x.half).atoms[0]).sizes[0]
        a2 = (normalize(y.half).atoms[0]).sizes[0]
        m1, m2 = middle_codim(x), middle_codim(y)
        if a1 == a2 and m1 == m2:
            return _yes(Reason.FLAG_ISO, "equal isotropic member dimension and middle quotient")
        if x.form is FormType.ORTHOGONAL and {m1, m2} == {0, 1}:
            return _yes(
                Reason.EXCEPTIONAL_BD,
                "maximal orthogonal grassmannians: middle quotient of "
                "dimension one versus a self-perp member",
            )
        return _no("isotropic grassmannian data differ")

    forms = {x.form, y.form}
    if forms == {FormType.GENERAL, FormType.SYMPLECTIC}:
        gen, symp = (x, y) if x.form is FormType.GENERAL else (y, x)
        a, b = _gr_dims(gen.order)
        g = (normalize(symp.half).atoms[0]).sizes[0]
        if g == 1 and (a == 1 or b == 1):
            return _yes(
                Reason.EXCEPTIONAL_PROJ_SYMP,
                "projective ind-space and the symplectic line ind-grassmannian",
            )
        return _no("general and symplectic grassmannians match no exceptional pair")

    return _no("orthogonal grassmannians are never isomorphic to the other types")
