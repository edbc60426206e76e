import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagiso.errors import ValidationError
from flagiso.generate import insert_absorbable, random_order, random_size
from flagiso.orders import (
    INF,
    Omega,
    OmegaStar,
    OrderParseError,
    Seq,
    WeightedOrder,
    is_isomorphic,
    is_normalized,
    normalize,
    omega,
    omegastar,
    parse_order,
    render_order,
    reverse,
    rewrite_step,
    seq,
    total_dimension,
    truncate,
)

from oracles import normalize_by_rewriting, omega_shaped_iso

# derandomized and without an example database, so every run sees the same examples
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=400)

_sizes = st.one_of(st.integers(1, 3), st.just(INF))
_atoms = st.one_of(
    st.lists(_sizes, min_size=1, max_size=4).map(lambda sizes: Seq(tuple(sizes))),
    _sizes.map(Omega),
    _sizes.map(OmegaStar),
)
_orders = st.lists(_atoms, max_size=12).map(lambda atoms: WeightedOrder(tuple(atoms)))


def test_normalize_absorbs_prefix_block():
    assert normalize(seq(3) + omega(3)) == omega(3)


def test_normalize_keeps_block_after_omega():
    x = omega(3) + seq(3)
    assert normalize(x) == x


def test_normalize_merged_absorption_matches_block_oracle():
    a = seq(1) + seq(2, 2) + omega(2)
    b = seq(1) + omega(2)
    assert omega_shaped_iso(a, b)
    assert normalize(a) == normalize(b) == seq(1) + omega(2)


def test_iso_concatenation_associativity():
    assert is_isomorphic(seq(1) + seq(INF), seq(1, INF))


def test_iso_distinguishes_omega_from_omegastar():
    assert not is_isomorphic(omega(1), omegastar(1))


def test_iso_absorption_matches_block_oracle():
    a = seq(2) + omega(2)
    b = omega(2)
    assert omega_shaped_iso(a, b)
    assert is_isomorphic(a, b)


def test_reverse_two_blocks():
    assert reverse(seq(1, INF)) == seq(INF, 1)


def test_reverse_omega():
    assert reverse(omega(2)) == omegastar(2)


def test_reverse_palindrome_fixed():
    x = omegastar(1) + seq(5) + omega(1)
    assert reverse(x) == x


def test_reverse_is_involution_and_commutes_with_normalize():
    rng = random.Random(11)
    for _ in range(300):
        x = random_order(rng)
        assert reverse(reverse(x)) == x
        assert normalize(reverse(x)) == reverse(normalize(x))


def test_truncate_clips_infinite_block():
    sizes, keys = truncate(seq(1, INF), 3)
    assert sizes == (1, 3)
    assert keys == ((0, 0), (0, 1))


def test_truncate_omega_first_blocks():
    assert truncate(omega(1), 4)[0] == (1, 1, 1, 1)


def test_truncate_omegastar_final_segment():
    # direct construction: the final segment of the order is ..., 2, 2, 1
    assert truncate(omegastar(2) + seq(1), 2)[0] == (2, 2, 1)


def test_truncate_keys_are_monotone():
    rng = random.Random(12)
    for _ in range(200):
        x = random_order(rng)
        for n in range(1, 6):
            sizes_n, keys_n = truncate(x, n)
            sizes_m, keys_m = truncate(x, n + 1)
            index = {k: i for i, k in enumerate(keys_m)}
            for s, k in zip(sizes_n, keys_n):
                assert k in index
                assert s <= sizes_m[index[k]]


def test_total_dimension():
    assert total_dimension(seq(1, 2, 3)) == 6
    assert total_dimension(seq(1, INF)) is INF
    assert total_dimension(omega(1)) is INF


def test_normalize_idempotent():
    rng = random.Random(13)
    for _ in range(500):
        x = random_order(rng)
        assert normalize(normalize(x)) == normalize(x)
        assert is_normalized(normalize(x))


def _repetitive_order(rng, max_atoms):
    """Atoms whose sizes are mostly one value d, so that absorption chains
    and omegastar(d) + seq[d,...,d] + omega(d) runs occur often."""
    d = random_size(rng)
    sizes = [d, d, d, random_size(rng)]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        kind = rng.randrange(3)
        if kind == 0:
            atoms.append(Seq(tuple(rng.choice(sizes) for _ in range(rng.randint(1, 4)))))
        elif kind == 1:
            atoms.append(Omega(rng.choice(sizes)))
        else:
            atoms.append(OmegaStar(rng.choice(sizes)))
    return WeightedOrder(tuple(atoms))


def _vanishing_run(rng):
    """omegastar(d) + seq[d,...,d] (split into seq atoms) + omega(d) inside
    random context: the whole run is absorbed from both sides."""
    d = random_size(rng)
    run = [seq(*[d] * rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    middle = omegastar(d) + sum(run, WeightedOrder(())) + omega(d)
    return random_order(rng, 3) + middle + random_order(rng, 3)


def _seq_entries(x):
    return sum(len(a.sizes) for a in x.atoms if isinstance(a, Seq))


def test_normalize_equals_rewrite_fixed_point():
    rng = random.Random(18)
    cases = [random_order(rng, 12) for _ in range(2000)]
    cases += [_repetitive_order(rng, 12) for _ in range(2000)]
    cases += [_vanishing_run(rng) for _ in range(500)]
    chains = 0
    for x in cases:
        expected = normalize_by_rewriting(x)
        assert normalize(x) == expected, x
        # merges keep the seq entries, each absorption removes one
        chains += _seq_entries(x) - _seq_entries(expected) >= 2
    assert chains >= 1000


def test_normalize_long_order_equals_rewrite_fixed_point():
    rng = random.Random(19)
    x = WeightedOrder(
        sum((_repetitive_order(rng, 12).atoms for _ in range(250)), ())
    )
    assert len(x.atoms) >= 1000
    assert normalize(x) == normalize_by_rewriting(x)


@_PROPERTY
@given(_orders)
def test_normalize_property_equals_rewrite_fixed_point(x):
    assert normalize(x) == normalize_by_rewriting(x)


def test_rewrite_steps_are_block_deletions_on_truncations():
    rng = random.Random(14)
    for _ in range(300):
        cur = random_order(rng)
        while True:
            step = rewrite_step(cur)
            if step is None:
                break
            nxt, info = step
            for n in range(1, 21):
                s_cur, k_cur = truncate(cur, n)
                s_nxt, _ = truncate(nxt, n)
                if info[0] == "merge":
                    assert s_cur == s_nxt
                else:
                    _, ai, ei = info
                    idx = k_cur.index((ai, ei))
                    assert s_cur[:idx] + s_cur[idx + 1 :] == s_nxt
            cur = nxt


def test_is_isomorphic_equivalence_relation():
    rng = random.Random(15)
    for _ in range(300):
        a = random_order(rng)
        b = insert_absorbable(rng, a) or a
        c = insert_absorbable(rng, b) or b
        assert is_isomorphic(a, a)
        assert is_isomorphic(a, b) == is_isomorphic(b, a)
        if is_isomorphic(a, b) and is_isomorphic(b, c):
            assert is_isomorphic(a, c)


def test_absorbable_insertion_is_metamorphic():
    rng = random.Random(16)
    checked = 0
    while checked < 300:
        x = random_order(rng)
        z = random_order(rng)
        x2 = insert_absorbable(rng, x)
        if x2 is None:
            continue
        assert is_isomorphic(x, x2)
        assert is_isomorphic(x, z) == is_isomorphic(x2, z)
        checked += 1


def test_empty_seq_rejected():
    with pytest.raises(ValidationError):
        Seq(())
    with pytest.raises(ValidationError):
        seq()


def test_bad_sizes_rejected():
    with pytest.raises(ValidationError):
        seq(0)
    with pytest.raises(ValidationError):
        omega(-1)


@pytest.mark.parametrize("text", ["seq[²]", "seq[٣]", "omega(١)"])
def test_non_ascii_digits_rejected(text):
    # str.isdigit accepts these; int() rejects the first and reads the others
    with pytest.raises(ValidationError):
        parse_order(text)


def test_parse_render_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        x = random_order(rng)
        assert parse_order(render_order(x)) == x


@_PROPERTY
@given(_orders.filter(lambda x: x.atoms))
def test_parse_render_round_trip_property(x):
    assert parse_order(render_order(x)) == x


@st.composite
def _edited_render(draw):
    """A rendered order with one span replaced by a few grammar characters."""
    text = render_order(draw(_orders))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 3)))
    return text[:i] + draw(st.text("seqomgatrinf[](),+ 01239\t²٣", max_size=3)) + text[j:]


@_PROPERTY
@given(st.one_of(st.text(max_size=40), _edited_render()))
def test_parse_arbitrary_text_succeeds_or_raises_validation_error(text):
    try:
        x = parse_order(text)
    except ValidationError:
        return
    assert parse_order(render_order(x)) == x


def test_parse_examples():
    assert parse_order("seq[1] + omega(2) + seq[inf]") == seq(1) + omega(2) + seq(INF)
    assert parse_order("omegastar(inf)") == omegastar(INF)


def test_parse_error_reports_column():
    with pytest.raises(OrderParseError) as err:
        parse_order("seq[1] + bogus(2)")
    assert err.value.column >= 10


def test_concatenation_operator():
    x = seq(1) + omega(2)
    assert isinstance(x, WeightedOrder)
    assert len(x.atoms) == 2
