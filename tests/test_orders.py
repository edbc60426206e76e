import random

import pytest

from flagiso.errors import ValidationError
from flagiso.generate import insert_absorbable, random_order
from flagiso.orders import (
    INF,
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

from oracles import omega_shaped_iso


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
