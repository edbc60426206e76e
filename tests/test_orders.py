import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagiso.errors import ValidationError
from flagiso.generate import insert_absorbable, random_order, random_size
from flagiso.orders import (
    _MEMO_SIZE,
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
    _read_atom,
    truncate,
)

from oracles import check_atoms, normalize_by_rewriting, omega_shaped_iso, parse_order_by_scanning
from strategies import edited_render, order_text, orders

# the profile in conftest.py derandomizes and drops the example database
_PROPERTY = settings(max_examples=400)


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
@given(orders)
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: Seq(()),
        lambda: Seq((0,)),
        lambda: Omega(-1),
        lambda: WeightedOrder((1,)),
        lambda: Seq((True,)),
        lambda: Omega(True),
        lambda: OmegaStar(True),
    ],
    ids=[
        "empty-seq",
        "zero-entry",
        "negative-omega",
        "non-atom",
        "bool-entry",
        "bool-omega",
        "bool-omegastar",
    ],
)
def test_constructors_validate_user_input(build):
    with pytest.raises(ValidationError):
        build()


def test_seq_stores_sizes_as_tuple():
    assert Seq([1, 2]).sizes == (1, 2)
    assert type(Seq([1, 2]).sizes) is tuple


@_PROPERTY
@given(orders, orders)
def test_builders_emit_valid_atoms(x, y):
    # the builders skip the constructor checks; re-run them on every output
    outputs = [normalize(x), reverse(x), x + y]
    if x.atoms:
        outputs.append(parse_order(render_order(x)))
    step = rewrite_step(x)
    while step is not None:
        outputs.append(step[0])
        step = rewrite_step(step[0])
    for out in outputs:
        check_atoms(out)


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
@given(orders.filter(lambda x: x.atoms))
def test_parse_render_round_trip_property(x):
    assert parse_order(render_order(x)) == x


@_PROPERTY
@given(st.one_of(st.text(max_size=40), edited_render()))
def test_parse_arbitrary_text_succeeds_or_raises_validation_error(text):
    try:
        x = parse_order(text)
    except ValidationError:
        return
    assert parse_order(render_order(x)) == x


def _parse_outcome(parse, text):
    try:
        x = parse(text)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "column", None)
    check_atoms(x)
    return x


@settings(max_examples=500)
@given(order_text)
def test_parse_agrees_with_scanning_oracle(text):
    # equal atoms on success; the same class, message and column on failure
    assert _parse_outcome(parse_order, text) == _parse_outcome(parse_order_by_scanning, text)


_ERROR_MESSAGES = [
    ("seq[inf2]", "bad block size 'inf2' (column 9)"),
    ("seq[1, 0]", "bad block size '0' (column 9)"),
    ("seq[1,,2]", "expected a name or number (column 7)"),
    ("seq[1 2]", "expected ']' (column 7)"),
    ("omega(1,2)", "expected ')' (column 8)"),
    ("seqx[1]", "unknown atom 'seqx' (column 5)"),
    ("seq(1)", "expected '[' (column 4)"),
    ("seq[1] omega(1)", "expected '+' (column 8)"),
    ("seq[1] +", "expected a name or number (column 9)"),
    ("seq[%s, x]" % ("1" * 4301), "block size has too many digits (4301) (column 4306)"),
]


@pytest.mark.parametrize("text, message", _ERROR_MESSAGES)
def test_parse_error_messages(text, message):
    with pytest.raises(OrderParseError) as err:
        parse_order(text)
    assert str(err.value) == message
    assert _parse_outcome(parse_order_by_scanning, text)[1] == message


# Long texts: one piece per atom, joined by `+` with spacing drawn anew.
_SPACES = ("", " ", "  ", "\t", "\u2003")


def _join(rng, pieces):
    return "+".join(rng.choice(_SPACES) + p + rng.choice(_SPACES) for p in pieces)


def _spaced(rng, atom):
    """One atom text with spacing drawn around each of its tokens."""
    name, _, rest = atom.partition("[" if atom.startswith("seq") else "(")
    sizes = rest[:-1].split(",")
    return name + rng.choice(_SPACES) + atom[len(name)] + ",".join(
        rng.choice(_SPACES) + w + rng.choice(_SPACES) for w in sizes
    ) + atom[-1]


def _repeated_pieces(rng, count):
    atoms = ["seq[1]", "seq[2,inf]", "omega(1)", "omegastar(3)", "omega(inf)", "seq[01,5,1]"]
    pool = [_spaced(rng, atom) for atom in atoms for _ in range(2)]
    return [rng.choice(pool) for _ in range(count)]


def _distinct_pieces(count):
    return [f"seq[{i},inf]" if i % 3 else f"omega({i})" for i in range(1, count + 1)]


def test_long_text_of_repeated_atoms_parses_as_the_oracle():
    rng = random.Random(41)
    text = "seq[1]+ seq[1] + seq[1]+" + _join(rng, _repeated_pieces(rng, 2997))
    x = parse_order(text)
    assert len(x.atoms) == 3000
    assert _parse_outcome(parse_order, text) == _parse_outcome(parse_order_by_scanning, text)
    # atoms whose texts are equal once stripped of spacing are one object
    pieces = [p.strip() for p in text.split("+")]
    first = {}
    for piece, atom in zip(pieces, x.atoms, strict=True):
        assert first.setdefault(piece, atom) is atom
    assert len({id(a) for a in x.atoms}) == len(first)
    assert x.atoms[0] is x.atoms[1] is x.atoms[2]


def test_long_text_of_distinct_atoms_parses_as_the_oracle():
    rng = random.Random(43)
    text = _join(rng, _distinct_pieces(4000))
    x = parse_order(text)
    assert len({id(a) for a in x.atoms}) == 4000
    assert _parse_outcome(parse_order, text) == _parse_outcome(parse_order_by_scanning, text)
    # the piece memo keeps to its bound, and what it dropped reads as before
    assert _read_atom.cache_info().currsize <= _MEMO_SIZE
    for count in (5, 4000):  # evicted pieces, then the last ones read
        text = _join(rng, _distinct_pieces(count)[-40:])
        assert _parse_outcome(parse_order, text) == _parse_outcome(parse_order_by_scanning, text)


@pytest.mark.parametrize(
    "fault, message",
    [
        ("seq[1, x]", "bad block size 'x'"),
        ("bogus(2)", "unknown atom 'bogus'"),
        ("", "expected a name or number"),  # `++`
        ("omega(%s)" % ("1" * 4301), "block size has too many digits (4301)"),
    ],
    ids=["bad-size", "unknown-name", "double-plus", "too-many-digits"],
)
@pytest.mark.parametrize("twice", [False, True], ids=["once", "twice"])
@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
def test_first_fault_of_a_long_text_is_reported_as_the_oracle_reports_it(
    fault, message, twice, repeated
):
    rng = random.Random(47)
    pieces = _repeated_pieces(rng, 3200) if repeated else _distinct_pieces(3200)
    pieces[2998] = fault  # atom 2,999
    if twice:
        pieces[3100] = fault
    text = _join(rng, pieces)
    with pytest.raises(OrderParseError) as err:
        parse_order(text)
    assert str(err.value).startswith(message + " (column ")
    # the column points into atom 2,999, or just past it for `++`
    parts = text.split("+")
    start = sum(len(p) + 1 for p in parts[:2998])
    assert start < err.value.column <= start + len(parts[2998]) + 1
    assert _parse_outcome(parse_order, text) == _parse_outcome(parse_order_by_scanning, text)


# parse_order reads pieces through a memo kept for the whole process.


def _memo_texts():
    """The texts of the parse tests above: valid and faulty, short and long."""
    rng = random.Random(53)
    texts = ["seq[1] + omega(2) + seq[inf]", "omegastar(inf)", "seq[1] + bogus(2)"]
    texts += ["seq[²]", "seq[٣]", "omega(١)"]
    texts += [render_order(random_order(rng)) for _ in range(20)]
    texts += [text for text, _ in _ERROR_MESSAGES]
    texts.append("seq[1]+ seq[1] + seq[1]+" + _join(rng, _repeated_pieces(rng, 2997)))
    texts.append(_join(rng, _distinct_pieces(500)))
    for fault in ("seq[1, x]", "bogus(2)", "", "omega(%s)" % ("1" * 4301)):
        pieces = _repeated_pieces(rng, 300)
        pieces[200] = fault
        texts.append(_join(rng, pieces))
    return texts


def _sharing(outcome):
    """For a parsed order, the first position holding each atom object."""
    if not isinstance(outcome, WeightedOrder):
        return None
    first = {}
    return [first.setdefault(id(a), i) for i, a in enumerate(outcome.atoms)]


def test_memo_changes_no_outcome_cold_or_warm():
    texts = _memo_texts()
    cold = []
    for text in texts:
        _read_atom.cache_clear()
        cold.append(_parse_outcome(parse_order, text))
    for text in texts:  # the memo now holds the pieces of every text
        _parse_outcome(parse_order, text)
    for text, before in zip(texts, cold, strict=True):
        after = _parse_outcome(parse_order, text)
        assert after == before
        assert _sharing(after) == _sharing(before)
        assert after == _parse_outcome(parse_order_by_scanning, text)
    assert _read_atom.cache_info().hits > 0


def test_texts_that_share_a_piece_share_its_atom():
    x = parse_order("seq[1, 2] + omega(3)")
    y = parse_order("omegastar(1)+   seq[1, 2]")
    assert x.atoms[0] is y.atoms[1]
    assert parse_order("seq[1,2]").atoms[0] == x.atoms[0]


def test_memo_reads_a_long_piece_under_the_digit_limit_of_the_moment():
    # a piece that int() may refuse is read afresh: the limit can be lowered
    text = "omega(%s)" % ("1" * 700)
    assert parse_order(text).atoms[0].size == int("1" * 700)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(OrderParseError) as err:
            parse_order(text)
    finally:
        sys.set_int_max_str_digits(old)
    assert err.value.message == "block size has too many digits (700)"
    assert parse_order(text).atoms[0].size == int("1" * 700)


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
