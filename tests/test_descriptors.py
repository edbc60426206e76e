import copy
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagiso import descriptors as D
from flagiso.counting import brute_force_count, dimension, point_count, poincare_polynomial
from flagiso.decide import decide_finite, decide_ind
from flagiso.descriptors import (
    DescriptorError,
    FiniteFlagVariety,
    FlagDescriptor,
    FormType,
    TruncationWidthError,
    descriptor_from_json,
    descriptor_to_json,
    dual,
    finite_flag_variety,
    full_chain,
    general_flags,
    min_truncation_width,
    orthogonal_flags,
    parse_descriptor,
    pic_rank,
    render_descriptor,
    symplectic_flags,
    truncate_to_variety,
    validate,
    variety_violations,
)
from flagiso.errors import ValidationError
from flagiso.generate import random_descriptor
from flagiso.orders import (
    EMPTY,
    INF,
    OrderParseError,
    normalize,
    omega,
    omegastar,
    parse_order,
    reverse,
    seq,
)
from flagiso.witness import exhaustion_step


def test_validate_line_grassmannian_ok():
    assert validate(general_flags(seq(1, INF))) == []


def test_validate_symplectic_odd_middle():
    d = symplectic_flags(seq(1), 3)
    violations = validate(d)
    assert any("even or inf" in v for v in violations)


def test_validate_orthogonal_middle_two_names_refinement():
    d = orthogonal_flags(seq(INF), 2)
    violations = validate(d)
    assert any("maximal isotropic" in v for v in violations)


def test_validate_requires_infinite_total():
    assert validate(general_flags(seq(1, 2))) != []
    assert validate(symplectic_flags(seq(2), 4)) != []


def test_parsed_descriptor_is_validated_once():
    with mock.patch.object(D, "validate", wraps=D.validate) as spy:
        x = parse_descriptor("gen: seq[1,2] + omega(1)")
        y = parse_descriptor("gen: seq[1,2] + omega(1)")
        decide_ind(x, y)
        dual(x), pic_rank(x), truncate_to_variety(x, 2)
        full_chain(y), min_truncation_width(y)
    assert spy.call_count == 2


_INVALID = [
    general_flags(seq(1, 2)),  # finite total dimension
    symplectic_flags(seq(1), 3),  # odd middle
    orthogonal_flags(seq(INF), 2),
    FlagDescriptor(FormType.GENERAL, order=seq(1, INF), middle=1),
]


@pytest.mark.parametrize("d", _INVALID, ids=range(len(_INVALID)))
def test_invalid_built_descriptor_raises_from_every_entry_point(d):
    good = parse_descriptor("gen: seq[1] + omega(1)")
    calls = [
        lambda: decide_ind(d, good),
        lambda: decide_ind(good, d),
        lambda: dual(d),
        lambda: pic_rank(d),
        lambda: truncate_to_variety(d, 3),
    ]
    for call in calls + calls:  # raising once leaves nothing behind
        with pytest.raises(DescriptorError):
            call()


def test_inf_keeps_its_identity_through_pickle_and_copy():
    # the library tests sizes and middles with `is INF`
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(INF, protocol)) is INF
    assert copy.copy(INF) is INF and copy.deepcopy(INF) is INF
    d = symplectic_flags(seq(1, INF), INF)
    for other in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert other == d and other.middle is INF and other.half.atoms[0].sizes[1] is INF
        assert pic_rank(other) == pic_rank(d)


def test_full_chain_expansions():
    assert full_chain(orthogonal_flags(seq(INF), 1)) == seq(INF) + seq(1) + seq(INF)
    assert full_chain(symplectic_flags(seq(1), INF)) == seq(1) + seq(INF) + seq(1)
    assert full_chain(orthogonal_flags(omega(1), 0)) == omega(1) + omegastar(1)


def test_full_chain_is_self_dual_for_isotropic():
    rng = random.Random(21)
    for _ in range(200):
        d = random_descriptor(rng)
        if d.form is FormType.GENERAL:
            continue
        chain = full_chain(d)
        assert normalize(reverse(chain)) == normalize(chain)


def test_dual_general_reverses():
    assert dual(general_flags(seq(1, INF))) == general_flags(seq(INF, 1))
    assert dual(general_flags(omega(1))) == general_flags(omegastar(1))


def test_dual_isotropic_unchanged():
    d = orthogonal_flags(seq(INF), 1)
    assert dual(d) is d
    assert d.is_isotropic()


def test_dual_is_involution():
    rng = random.Random(22)
    for _ in range(200):
        d = random_descriptor(rng)
        assert dual(dual(d)) == d


def test_pic_rank_examples():
    assert pic_rank(general_flags(seq(1, INF))) == 1
    assert pic_rank(orthogonal_flags(seq(INF, 1), INF)) == 2
    assert pic_rank(general_flags(omega(1))) is INF
    assert pic_rank(orthogonal_flags(seq(INF), 0)) == 1
    assert pic_rank(orthogonal_flags(seq(INF), 1)) == 1


def test_pic_rank_invariant_under_dual():
    rng = random.Random(23)
    for _ in range(200):
        d = random_descriptor(rng)
        assert pic_rank(dual(d)) == pic_rank(d)


def test_truncate_to_variety_examples():
    assert truncate_to_variety(general_flags(seq(1, INF)), 4) == FiniteFlagVariety("A", 5, (1,))
    assert truncate_to_variety(symplectic_flags(seq(1), INF), 3) == FiniteFlagVariety("C", 8, (1,))
    assert truncate_to_variety(orthogonal_flags(seq(INF), 1), 2) == FiniteFlagVariety("B", 5, (2,))


def test_truncate_to_variety_below_threshold():
    d = symplectic_flags(seq(1), INF)
    n0 = min_truncation_width(d)
    assert n0 == 2
    with pytest.raises(TruncationWidthError) as err:
        truncate_to_variety(d, 1)
    assert err.value.n0 == 2


def test_truncate_orthogonal_type_by_middle_parity():
    assert truncate_to_variety(orthogonal_flags(seq(INF), 0), 3).lie_type == "D"
    assert truncate_to_variety(orthogonal_flags(seq(INF), 1), 3).lie_type == "B"
    assert truncate_to_variety(orthogonal_flags(seq(INF), 4), 2).lie_type == "D"
    assert truncate_to_variety(orthogonal_flags(seq(1), INF), 2).lie_type == "B"


def test_truncation_monotone_with_exhaustion_data():
    rng = random.Random(24)
    cases = 0
    while cases < 60:
        d = random_descriptor(rng)
        try:
            n0 = min_truncation_width(d)
        except ValidationError:
            continue
        for n in (n0, n0 + 1):
            v = truncate_to_variety(d, n)
            w = truncate_to_variety(d, n + 1)
            step = exhaustion_step(d, n)
            assert step.source_members == len(v.dims)
            assert step.slots == len(w.dims)
            assert step.source_dim == v.ambient_dim
            src_dims = (0,) + v.dims + (v.ambient_dim,)
            for j, q in enumerate(w.dims, start=1):
                c = step.kappa[j - 1]
                base = src_dims[c] if c <= len(v.dims) else v.ambient_dim
                assert q == base + len(step.filtration[j - 1])
        cases += 1


def test_validate_accepts_generated_descriptors():
    rng = random.Random(25)
    for _ in range(300):
        assert validate(random_descriptor(rng)) == []


def test_parse_render_round_trip():
    rng = random.Random(26)
    for _ in range(200):
        d = random_descriptor(rng)
        assert parse_descriptor(render_descriptor(d)) == d


def test_parse_examples():
    d = parse_descriptor("gen: seq[1,inf]")
    assert d.form is FormType.GENERAL and d.order == seq(1, INF)
    d = parse_descriptor("symp: half=seq[1]; middle=inf")
    assert d.form is FormType.SYMPLECTIC and d.half == seq(1) and d.middle is INF
    with pytest.raises(DescriptorError):
        parse_descriptor("orth: half=seq[inf]; middle=2")


def test_parse_rejects_unknown_shapes():
    with pytest.raises(ValidationError):
        parse_descriptor("weird: seq[1]")
    with pytest.raises(ValidationError):
        parse_descriptor("symp: half=seq[1]")
    with pytest.raises(ValidationError):
        parse_descriptor("orth: half=seq[inf]; middle=maybe")
    # one half= and one middle=: a second must not win silently
    with pytest.raises(ValidationError, match="repeated key 'half'"):
        parse_descriptor("orth: half=seq[1]; half=seq[2]; middle=inf")
    with pytest.raises(ValidationError, match="repeated key 'middle'"):
        parse_descriptor("symp: half=omega(1); middle=inf; middle=2")


@pytest.mark.parametrize(
    "prefix, suffix",
    [
        ("gen:", ""),
        ("  gen :\t", ""),
        ("symp: half=", "; middle=inf"),
        ("orth:middle=1 ;  half =", ""),
        ("symp: middle = inf; half=", ""),
    ],
)
@pytest.mark.parametrize(
    "order", ["seq[1] + bogus(2)", " omega(1) +seq[1, 0]", "seq[1] ++ omega(2)", "seq[1"]
)
def test_order_error_column_counts_in_the_descriptor_text(prefix, suffix, order):
    with pytest.raises(OrderParseError) as alone:
        parse_order(order)
    with pytest.raises(OrderParseError) as err:
        parse_descriptor(prefix + order + suffix)
    assert err.value.column == alone.value.column + len(prefix)
    assert err.value.message == alone.value.message
    assert str(err.value) == f"{alone.value.message} (column {err.value.column})"
    # a JSON field is its own text
    key = "order" if prefix.strip().startswith("gen") else "half"
    obj = {"form": "general" if key == "order" else "symplectic", key: order, "middle": "inf"}
    with pytest.raises(OrderParseError) as field:
        descriptor_from_json(obj)
    assert str(field.value) == str(alone.value)


@pytest.mark.parametrize("middle", ["²", "٣"])
def test_parse_rejects_non_ascii_middle(middle):
    with pytest.raises(ValidationError):
        parse_descriptor(f"symp: half=seq[1]; middle={middle}")


def test_json_round_trip():
    rng = random.Random(27)
    for _ in range(100):
        d = random_descriptor(rng)
        obj = descriptor_to_json(d)
        assert set(obj) <= {"form", "half", "middle", "order"}
        assert descriptor_from_json(obj) == d


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"form": "bogus"},
        {"form": ["general"]},
        {"form": "general", "order": 5},
        {"form": "general"},
        {"form": "symplectic", "half": "seq[1]", "middle": None},
        {"form": "symplectic", "half": None, "middle": "inf"},
        {"form": "orthogonal", "half": "seq[1]", "middle": "2"},
        "gen: seq[inf]",
        None,
    ],
)
def test_json_rejects_malformed_input(obj):
    with pytest.raises(ValidationError):
        descriptor_from_json(obj)


# the profile in conftest.py derandomizes and drops the example database
_PROPERTY = settings(max_examples=400)

_sizes = st.one_of(st.integers(1, 3), st.just(INF))
_orders = st.lists(
    st.one_of(
        st.lists(_sizes, min_size=1, max_size=3).map(lambda sizes: seq(*sizes)),
        _sizes.map(omega),
        _sizes.map(omegastar),
    ),
    max_size=5,
).map(lambda parts: sum(parts, EMPTY))
_middles = st.one_of(st.integers(0, 5), st.just(INF))
_descriptors = st.one_of(
    _orders.map(general_flags),
    st.builds(orthogonal_flags, _orders, _middles),
    st.builds(symplectic_flags, _orders, _middles),
).filter(lambda d: not validate(d))


def test_empty_half_round_trips():
    d = orthogonal_flags(EMPTY, INF)
    assert render_descriptor(d) == "orth: half=; middle=inf"
    assert parse_descriptor(render_descriptor(d)) == d
    assert descriptor_from_json(descriptor_to_json(d)) == d


@_PROPERTY
@given(_descriptors)
def test_text_and_json_round_trip_property(d):
    assert parse_descriptor(render_descriptor(d)) == d
    assert descriptor_from_json(descriptor_to_json(d)) == d


@st.composite
def _edited_render(draw):
    """A rendered descriptor with one span replaced by a few grammar characters."""
    text = render_descriptor(draw(_descriptors))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 3)))
    return text[:i] + draw(st.text("genorthsympalfmidyx:;=[](),+ 01239²٣", max_size=3)) + text[j:]


@_PROPERTY
@given(st.one_of(st.text(max_size=60), _edited_render()))
def test_parse_arbitrary_text_succeeds_or_raises_validation_error(text):
    try:
        d = parse_descriptor(text)
    except ValidationError:
        return
    assert parse_descriptor(render_descriptor(d)) == d


def test_variety_validation():
    assert variety_violations(FiniteFlagVariety("A", 6, (1, 3))) == []
    assert variety_violations(FiniteFlagVariety("B", 6, (1,))) != []
    assert variety_violations(FiniteFlagVariety("C", 7, (1,))) != []
    assert variety_violations(FiniteFlagVariety("D", 8, (3,))) != []  # needs 4 too
    assert variety_violations(FiniteFlagVariety("D", 8, (3, 4))) == []
    assert variety_violations(FiniteFlagVariety("A", 4, (0, 2))) != []
    assert variety_violations(FiniteFlagVariety("A", 4, (2, 2))) != []
    assert variety_violations(FiniteFlagVariety("C", 6, ())) != []
    with pytest.raises(DescriptorError):
        finite_flag_variety("A", 4, (5,))


def test_built_variety_is_validated_once():
    other = finite_flag_variety("B", 5, (2,))
    with mock.patch.object(D, "variety_violations", wraps=D.variety_violations) as spy:
        v = finite_flag_variety("D", 6, (1, 3))
        poincare_polynomial(v), point_count(v, 3), dimension(v)
        decide_finite(v, other), decide_finite(other, v)
        brute_force_count(v, 2)
    assert spy.call_count == 1


_INVALID_VARIETIES = [
    FiniteFlagVariety("B", 6, (1,)),  # even ambient
    FiniteFlagVariety("D", 8, (3,)),  # needs 4 too
    FiniteFlagVariety("A", 4, (2, 2)),
    FiniteFlagVariety("C", 6, ()),
]


@pytest.mark.parametrize("v", _INVALID_VARIETIES, ids=range(len(_INVALID_VARIETIES)))
def test_invalid_built_variety_raises_from_every_entry_point(v):
    good = finite_flag_variety("A", 6, (1,))
    calls = [
        lambda: poincare_polynomial(v),
        lambda: point_count(v, 2),
        lambda: dimension(v),
        lambda: decide_finite(v, good),
        lambda: decide_finite(good, v),
        lambda: brute_force_count(v, 2),
    ]
    for call in calls + calls:  # raising once leaves nothing behind
        with pytest.raises(DescriptorError) as exc:
            call()
        assert exc.value.violations == tuple(variety_violations(v))
    assert "_valid" not in v.__dict__
