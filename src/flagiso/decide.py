"""Isomorphism decision procedures with machine-readable reasons.

``decide_finite`` compares two finite flag varieties above the standing
dimension hypotheses (general ambient >= 2, orthogonal >= 5, symplectic >= 6).
``decide_ind`` compares two ind-variety descriptors.  Besides isomorphisms
induced by chain isomorphisms (and chain duality in the general case), exactly
two cross-type coincidences exist between ind-varieties:

* the projective space / symplectic line grassmannian pair, and
* the pair of maximal orthogonal grassmannians (middle quotient of dimension
  one versus a self-perp member).

Both are read as identifications: ``decide_ind`` compares one key, the normal
form of each chain after these two reductions, as ``decide_finite`` does.

Finite varieties are compared by marked Dynkin diagrams, which add the Klein
correspondence D_3 = A_3 and the triality of D_4.  B_2 = C_2 is absent because
C_2 is below the threshold, and the D_n spinor swap because the dims name only
one of the two families of maximal isotropic subspaces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations

from .descriptors import (
    FORM_OF_LIE_TYPE,
    MIDDLE_EMPTY,
    MIN_AMBIENT,
    FiniteFlagVariety,
    FlagDescriptor,
    FormType,
    require_valid,
)
from .errors import ValidationError
from .orders import INF, normalize, reverse, seq


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
    KLEIN_CORRESPONDENCE = "KleinCorrespondence"
    D4_TRIALITY = "D4Triality"
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


def _check_threshold(v: FiniteFlagVariety):
    form = FORM_OF_LIE_TYPE[v.lie_type]
    minimum = MIN_AMBIENT[form]
    if v.ambient_dim < minimum:
        raise ThresholdError(
            f"{form.value} flag variety requires ambient dimension >= {minimum}, "
            f"got {v.ambient_dim}"
        )


def _diagram(v: FiniteFlagVariety):
    """(Lie type, rank, marked nodes, reductions applied) of v's diagram.  The
    marked nodes are the dims, in type D too: dims with m - 1 also hold m."""
    t, rank, marked, used = v.lie_type, v.ambient_dim // 2, frozenset(v.dims), set()
    if t == "A":
        rank = v.ambient_dim - 1
    elif t == "C" and v.dims == (1,):
        t, rank, used = "A", 2 * rank - 1, {Reason.EXCEPTIONAL_PROJ_SYMP}
    elif t == "B" and v.dims == (rank,):
        t, rank, marked, used = "D", rank + 1, frozenset({rank + 1}), {Reason.EXCEPTIONAL_BD}
    if t == "D" and rank == 3:
        t, marked = "A", frozenset((2, 1, 3)[k - 1] for k in marked)
        used.add(Reason.KLEIN_CORRESPONDENCE)
    return t, rank, marked, used


def _images(t: str, rank: int, marked: frozenset) -> list:
    """The marked sets that the diagram automorphisms make of ``marked``."""
    if t == "A":
        return [{rank + 1 - k for k in marked}]
    if (t, rank) == ("D", 4):  # triality permutes the nodes 1, 3 and 4
        return [{(a, 2, b, c)[k - 1] for k in marked} for a, b, c in permutations((1, 3, 4))]
    return []


# What an isomorphism of two different varieties needs, strongest first: a
# reduction only one side used (so B:5:2 ~ D:6:3, both through A_3, stays
# ExceptionalBD), or the automorphism when the marked nodes differ.  Details
# are formatted with the ambient dimensions 2r - 1 and 2r of the rank r.
_IDENTIFICATIONS = {
    Reason.D4_TRIALITY: "triality of D_4 permutes its vector and two spinor nodes",
    Reason.KLEIN_CORRESPONDENCE: "Klein correspondence: the quadric in six variables is Gr(2, 4)",
    Reason.EXCEPTIONAL_BD: "maximal orthogonal grassmannians in ambient dimensions {} and {}",
    Reason.EXCEPTIONAL_PROJ_SYMP: "projective space of an even-dimensional space and its "
    "symplectic line grassmannian",
    Reason.COMPLEMENT_DIMS: "complementary dimension sequences in equal ambient dimension",
}


def decide_finite(x: FiniteFlagVariety, y: FiniteFlagVariety) -> DecisionResult:
    require_valid(x)
    require_valid(y)
    _check_threshold(x)
    _check_threshold(y)
    if x == y:
        return _yes(Reason.SAME_DIMS, "same type class and dimension sequence")
    t, rank, mx, ux = _diagram(x)
    ty, ry, my, uy = _diagram(y)
    moved = mx != my
    if (t, rank) != (ty, ry) or (moved and my not in _images(t, rank, mx)):
        return _no("no classification rule matches the pair")
    needed = ux ^ uy
    if moved:
        needed.add(Reason.D4_TRIALITY if t == "D" else Reason.COMPLEMENT_DIMS)
    reason = min(needed, key=list(_IDENTIFICATIONS).index)
    return _yes(reason, _IDENTIFICATIONS[reason].format(2 * rank - 1, 2 * rank))


# Built once: the line half, the projective chain and the maximal half.
_LINE, _PROJECTIVE, _MAXIMAL = seq(1), seq(1, INF), seq(INF)


def _ind_key(d: FlagDescriptor):
    """(form, middle, normal form of the chain or half, reductions applied) of
    d.  The symplectic line ind-grassmannian is read as the projective
    ind-space, as ``_diagram`` reads C as A, and a maximal orthogonal
    grassmannian with middle one as the one with a self-perp member."""
    if d.form is FormType.GENERAL:
        return d.form, None, normalize(d.order), set()
    half = normalize(d.half)
    if d.form is FormType.SYMPLECTIC and half == _LINE and d.middle is INF:
        return FormType.GENERAL, None, _PROJECTIVE, {Reason.EXCEPTIONAL_PROJ_SYMP}
    if d.form is FormType.ORTHOGONAL and half == _MAXIMAL and d.middle == 1:
        return d.form, MIDDLE_EMPTY, half, {Reason.EXCEPTIONAL_BD}
    return d.form, d.middle, half, set()


# What an isomorphism of two ind-varieties with matching keys needs, strongest
# first: a reduction only one side used, or duality when the chains differ.
_IND_IDENTIFICATIONS = {
    Reason.EXCEPTIONAL_BD: "maximal orthogonal grassmannians: middle quotient of "
    "dimension one versus a self-perp member",
    Reason.EXCEPTIONAL_PROJ_SYMP: "projective ind-space and the symplectic line ind-grassmannian",
    Reason.DUAL_FLAG_ISO: "one chain isomorphic to the dual of the other",
}

# Why keys differ, by the forms as given; any other pair holds an orthogonal
# descriptor and another form.
_IND_MISMATCHES = {
    frozenset({FormType.GENERAL}): "neither chain isomorphism nor dual chain isomorphism holds",
    frozenset({FormType.ORTHOGONAL}): "isotropic chains are not isomorphic",
    frozenset({FormType.SYMPLECTIC}): "isotropic chains are not isomorphic",
    frozenset({FormType.GENERAL, FormType.SYMPLECTIC}): "general and symplectic descriptors "
    "match no exceptional pair",
}


def decide_ind(x: FlagDescriptor, y: FlagDescriptor) -> DecisionResult:
    require_valid(x)
    require_valid(y)
    fx, mx, nx, ux = _ind_key(x)
    fy, my, ny, uy = _ind_key(y)
    dual = nx != ny  # normalize commutes with reverse, so reverse(ny) is normal
    if (fx, mx) != (fy, my) or dual and not (fx is FormType.GENERAL and nx == reverse(ny)):
        why = _IND_MISMATCHES.get(frozenset((x.form, y.form)))
        return _no(why or "orthogonal descriptors are never isomorphic to the other types")
    needed = ux ^ uy
    if dual:
        needed.add(Reason.DUAL_FLAG_ISO)
    if needed:
        reason = min(needed, key=list(_IND_IDENTIFICATIONS).index)
        return _yes(reason, _IND_IDENTIFICATIONS[reason])
    if x.form is FormType.GENERAL:
        return _yes(Reason.FLAG_ISO, "chains isomorphic as weighted orders")
    return _yes(Reason.FLAG_ISO, "isotropic halves isomorphic with equal middle quotients")
