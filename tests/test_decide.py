import random
from functools import lru_cache

import pytest

from flagiso.decide import (
    Reason,
    ThresholdError,
    Verdict,
    decide_finite,
    decide_ind,
)
from flagiso.descriptors import (
    FlagDescriptor,
    FormType,
    dual,
    finite_flag_variety,
    general_flags,
    orthogonal_flags,
    parse_descriptor,
    pic_rank,
    symplectic_flags,
    truncate_to_variety,
)
from flagiso.errors import ValidationError
from flagiso.generate import random_descriptor
from flagiso.orders import INF, omega, seq
from flagiso.selftest import _decision_universe
from oracles import (
    decide_finite_by_rules,
    decide_ind_by_branches,
    decide_ind_grassmannian,
    marked_cartan,
    marked_cartan_isomorphic,
)


def V(t, n, dims):
    return finite_flag_variety(t, n, dims)


# ---------------------------------------------------------------------------
# Finite decisions.


def test_same_dims():
    res = decide_finite(V("A", 6, (1, 3)), V("A", 6, (1, 3)))
    assert res.verdict is Verdict.ISOMORPHIC and res.reason is Reason.SAME_DIMS


def test_complement_dims():
    res = decide_finite(V("A", 6, (1, 3)), V("A", 6, (3, 5)))
    assert res.reason is Reason.COMPLEMENT_DIMS
    res = decide_finite(V("A", 7, (2, 3)), V("A", 7, (4, 5)))
    assert res.reason is Reason.COMPLEMENT_DIMS
    res = decide_finite(V("A", 6, (1, 3)), V("A", 6, (3, 4)))
    assert res.verdict is Verdict.NOT_ISOMORPHIC


def test_exceptional_proj_symp_finite():
    res = decide_finite(V("A", 8, (1,)), V("C", 8, (1,)))
    assert res.reason is Reason.EXCEPTIONAL_PROJ_SYMP
    # the dual projective space pairs up too
    res = decide_finite(V("A", 8, (7,)), V("C", 8, (1,)))
    assert res.reason is Reason.EXCEPTIONAL_PROJ_SYMP
    res = decide_finite(V("A", 8, (2,)), V("C", 8, (2,)))
    assert res.verdict is Verdict.NOT_ISOMORPHIC


def test_exceptional_bd_finite():
    res = decide_finite(V("B", 7, (3,)), V("D", 8, (4,)))
    assert res.reason is Reason.EXCEPTIONAL_BD
    res = decide_finite(V("D", 8, (4,)), V("B", 7, (3,)))
    assert res.reason is Reason.EXCEPTIONAL_BD
    res = decide_finite(V("B", 7, (2,)), V("D", 8, (4,)))
    assert res.verdict is Verdict.NOT_ISOMORPHIC


def test_threshold_violations():
    with pytest.raises(ThresholdError):
        decide_finite(V("B", 3, (1,)), V("B", 3, (1,)))
    with pytest.raises(ThresholdError):
        decide_finite(V("C", 4, (1,)), V("C", 4, (1,)))
    with pytest.raises(ThresholdError):
        decide_finite(V("D", 4, (2,)), V("D", 4, (2,)))


@lru_cache(maxsize=None)
def _universe_decisions():
    """``to_json()`` of every ordered pair of the 295 varieties of ambient <= 8."""
    universe = _decision_universe()
    assert len(universe) == 295
    return {(x, y): decide_finite(x, y).to_json() for x in universe for y in universe}


def test_decide_finite_symmetric():
    decisions = _universe_decisions()
    for (x, y), res in decisions.items():
        assert res == decisions[y, x], (x, y)


def test_decide_finite_matches_marked_cartan_oracle():
    universe = _decision_universe()
    keys = [marked_cartan(v) for v in universe]
    decisions = _universe_decisions()
    for i, x in enumerate(universe):
        for j in range(i, len(universe)):
            y = universe[j]
            iso = decisions[x, y]["verdict"] == Verdict.ISOMORPHIC.value
            assert iso == marked_cartan_isomorphic(keys[i], keys[j]), (x, y)


def test_marked_cartan_oracle_finds_b2_equals_c2_by_itself():
    # below the symplectic threshold, so decide_finite never sees the pair
    quadric, lagrangians = marked_cartan(V("B", 5, (1,))), marked_cartan(V("C", 4, (2,)))
    assert marked_cartan_isomorphic(quadric, lagrangians)
    assert not marked_cartan_isomorphic(quadric, marked_cartan(V("A", 3, (1,))))


def _literal(text):
    t, n, dims = text.split(":")
    return V(t, int(n), [int(d) for d in dims.split(",")])


# The isomorphisms the hand-written rules missed, by the reason now given.
_NEW_ISOMORPHISMS = {
    "KleinCorrespondence": [
        ("A:4:2", "D:6:1"),
        ("A:4:1", "D:6:3"),
        ("A:4:3", "D:6:3"),
        ("A:4:1,2", "D:6:1,3"),
        ("A:4:2,3", "D:6:1,3"),
        ("A:4:1,3", "D:6:2,3"),
        ("A:4:1,2,3", "D:6:1,2,3"),
        ("A:4:1", "B:5:2"),
        ("A:4:3", "B:5:2"),
    ],
    "D4Triality": [
        ("D:8:1", "D:8:4"),
        ("D:8:1,2", "D:8:2,4"),
        ("D:8:1,4", "D:8:3,4"),
        ("D:8:1,2,4", "D:8:2,3,4"),
        ("B:7:3", "D:8:1"),
    ],
}


def test_decide_finite_keeps_every_reference_isomorphism():
    changed = {}
    for (x, y), res in _universe_decisions().items():
        ref = decide_finite_by_rules(x, y).to_json()
        if ref["verdict"] == Verdict.ISOMORPHIC.value:
            assert res == ref, (x, y)
        elif res != ref:
            changed[x, y] = res["reason"]
    expected = {}
    for reason, pairs in _NEW_ISOMORPHISMS.items():
        for a, b in pairs:
            x, y = _literal(a), _literal(b)
            expected[x, y] = expected[y, x] = reason
    assert changed == expected


# ---------------------------------------------------------------------------
# Ind-variety decisions.


def test_ind_exceptional_proj_symp():
    res = decide_ind(
        general_flags(seq(1, INF)), symplectic_flags(seq(1), INF)
    )
    assert res.reason is Reason.EXCEPTIONAL_PROJ_SYMP
    res = decide_ind(
        general_flags(seq(INF, 1)), symplectic_flags(seq(1), INF)
    )
    assert res.reason is Reason.EXCEPTIONAL_PROJ_SYMP
    res = decide_ind(
        general_flags(seq(2, INF)), symplectic_flags(seq(1), INF)
    )
    assert res.verdict is Verdict.NOT_ISOMORPHIC
    res = decide_ind(
        general_flags(seq(1, INF)), symplectic_flags(seq(INF), 0)
    )
    assert res.verdict is Verdict.NOT_ISOMORPHIC


def test_ind_exceptional_bd():
    res = decide_ind(
        orthogonal_flags(seq(INF), 1), orthogonal_flags(seq(INF), 0)
    )
    assert res.reason is Reason.EXCEPTIONAL_BD
    # a two-block half, seq[inf, inf], is not the maximal grassmannian
    res = decide_ind(
        orthogonal_flags(seq(INF) + seq(INF), 1), orthogonal_flags(seq(INF), 0)
    )
    assert res.verdict is Verdict.NOT_ISOMORPHIC
    res = decide_ind(
        orthogonal_flags(seq(INF), 3), orthogonal_flags(seq(INF), 0)
    )
    assert res.verdict is Verdict.NOT_ISOMORPHIC


def test_ind_dual_flag_iso():
    res = decide_ind(general_flags(seq(INF, 1)), general_flags(seq(1, INF)))
    assert res.reason is Reason.DUAL_FLAG_ISO
    res = decide_ind(general_flags(seq(1, INF)), general_flags(seq(1, INF)))
    assert res.reason is Reason.FLAG_ISO


def test_ind_same_form_isotropic():
    res = decide_ind(
        symplectic_flags(seq(2) + omega(2), INF),
        symplectic_flags(seq(2, 2) + omega(2), INF),
    )
    assert res.reason is Reason.FLAG_ISO
    # Lagrangian member versus a middle quotient of dimension two
    res = decide_ind(
        symplectic_flags(seq(INF), 0),
        symplectic_flags(seq(INF), 2),
    )
    assert res.verdict is Verdict.NOT_ISOMORPHIC


def test_ind_orthogonal_never_matches_other_types():
    res = decide_ind(general_flags(seq(1, INF)), orthogonal_flags(seq(1), INF))
    assert res.verdict is Verdict.NOT_ISOMORPHIC
    res = decide_ind(
        symplectic_flags(seq(1), INF), orthogonal_flags(seq(1), INF)
    )
    assert res.verdict is Verdict.NOT_ISOMORPHIC


# Descriptors around the two exceptions: presentations of the projective
# ind-space and the symplectic line ind-grassmannian, and orthogonal halves
# with the middles that do and do not make the BD pair.
_NEAR_EXCEPTIONS = [
    "gen: seq[1,inf]",
    "gen: seq[inf,1]",
    "gen: seq[1] + seq[inf]",
    "gen: seq[2,inf]",
    "symp: half=seq[1]; middle=inf",
    "symp: half=seq[1,inf]; middle=4",
    "symp: half=seq[inf]; middle=empty",
    "orth: half=seq[inf]; middle=1",
    "orth: half=seq[inf]; middle=empty",
    "orth: half=seq[inf]; middle=3",
    "orth: half=seq[inf]; middle=inf",
    "orth: half=seq[1]; middle=inf",
    "orth: half=seq[1,inf]; middle=1",
]


def _assert_same_payloads(pairs):
    for x, y in pairs:
        for a, b in ((x, y), (y, x)):
            assert decide_ind(a, b).to_json() == decide_ind_by_branches(a, b).to_json(), (a, b)


def test_decide_ind_matches_branches_on_random_pairs():
    rng = random.Random(33)
    _assert_same_payloads(
        (random_descriptor(rng), random_descriptor(rng)) for _ in range(20_000)
    )


def test_decide_ind_matches_branches_near_the_exceptions():
    descriptors = [parse_descriptor(text) for text in _NEAR_EXCEPTIONS]
    _assert_same_payloads((x, y) for x in descriptors for y in descriptors)


def test_ind_invalid_descriptor_propagates():
    bad = orthogonal_flags(seq(INF), 2)
    with pytest.raises(ValidationError):
        decide_ind(bad, general_flags(seq(1, INF)))


# ---------------------------------------------------------------------------
# Grassmannian route.


def test_grassmannian_examples():
    res = decide_ind_grassmannian(
        general_flags(seq(3, INF)), general_flags(seq(INF, 3))
    )
    assert res.reason is Reason.DUAL_FLAG_ISO
    res = decide_ind_grassmannian(
        general_flags(seq(3, INF)), general_flags(seq(4, INF))
    )
    assert res.verdict is Verdict.NOT_ISOMORPHIC
    res = decide_ind_grassmannian(
        symplectic_flags(seq(2), INF), general_flags(seq(2, INF))
    )
    assert res.verdict is Verdict.NOT_ISOMORPHIC


def test_grassmannian_rejects_higher_rank():
    with pytest.raises(ValidationError):
        decide_ind_grassmannian(
            general_flags(seq(1, 2, INF)), general_flags(seq(1, INF))
        )


def _random_grassmannian(rng):
    form = rng.choice(list(FormType))
    if form is FormType.GENERAL:
        a = rng.choice([1, 2, 3, INF])
        b = rng.choice([1, 2, 3, INF]) if a is INF else INF
        return general_flags(seq(a, b))
    c = rng.choice([1, 2, 3, INF])
    if form is FormType.SYMPLECTIC:
        middle = rng.choice([0, 2, INF]) if c is INF else INF
    else:
        middle = rng.choice([0, 1, 3, INF]) if c is INF else INF
    return FlagDescriptor(form, half=seq(c), middle=middle)


def test_grassmannian_route_matches_general_decision():
    rng = random.Random(31)
    pool = [_random_grassmannian(rng) for _ in range(40)]
    for x in pool:
        assert pic_rank(x) == 1
        for y in pool:
            a = decide_ind(x, y)
            b = decide_ind_grassmannian(x, y)
            assert (a.verdict, a.reason) == (b.verdict, b.reason), (x, y)


# ---------------------------------------------------------------------------
# Cross-module sanity.


def test_bd_descriptor_truncations_form_the_finite_pair():
    x = orthogonal_flags(seq(INF), 1)
    y = orthogonal_flags(seq(INF), 0)
    for n in range(2, 7):
        vx = truncate_to_variety(x, n)
        vy = truncate_to_variety(y, n + 1)
        res = decide_finite(vx, vy)
        assert res.reason is Reason.EXCEPTIONAL_BD, (n, vx, vy)


def test_decide_ind_symmetry_and_double_dual():
    rng = random.Random(32)
    for _ in range(300):
        x = random_descriptor(rng)
        y = random_descriptor(rng)
        a = decide_ind(x, y).to_json()
        assert a == decide_ind(y, x).to_json(), (x, y)
        assert a == decide_ind(x, dual(dual(y))).to_json(), (x, y)


def test_result_json_shape():
    res = decide_ind(general_flags(seq(1, INF)), symplectic_flags(seq(1), INF))
    obj = res.to_json()
    assert set(obj) == {"verdict", "reason", "detail"}
    assert obj["verdict"] == "Isomorphic"
    assert obj["reason"] == "ExceptionalProjSymp"
