"""Weighted linear orders: countable linear orders with a block size attached.

An order expression is a finite concatenation of atoms, each one of

* ``seq[d1,...,dk]`` -- k consecutive blocks with the listed sizes,
* ``omega(d)``       -- blocks of constant size d indexed by the naturals,
* ``omegastar(d)``   -- blocks of constant size d indexed by the negative
  integers (the reversed naturals).

Block sizes are positive integers or ``inf`` (countably infinite).  Two
expressions denote the same weighted order when there is an order isomorphism
of their blocks matching sizes; within this class that relation is decidable
and :func:`normalize` computes a canonical representative.  The only semantic
identities are ``1 + omega = omega`` and ``omegastar + 1 = omegastar`` at
matching block size, which the rewrite rules absorb.

:func:`rewrite_step` is the specification: one elementary rewrite (absorb a
seq entry into an adjacent omega-type atom, or merge two adjacent seq atoms),
each a block deletion or an identity on every truncation.  :func:`normalize`
computes its fixed point in one pass, and :func:`is_normalized` tests for it.

:func:`parse_order` splits the text at ``+``, which no atom contains, strips
each piece, and reads each distinct piece once with one single-atom pattern,
``_PIECE``.  Texts repeat a few atoms many times, within one text and across
the texts a process reads, so a bounded per-process memo, ``_read_atom``,
keeps the atoms of the last ``_MEMO_SIZE`` distinct pieces it read: the
per-atom work runs once per distinct piece while it stays in the memo, and
equal atom texts share one frozen atom object.  A piece of
``_MEMO_MAX_LEN`` characters or more is read afresh each time, because
whether ``int()`` accepts its sizes depends on a digit limit that can change
at run time.  A text whose pieces all parse is valid; otherwise ``_ATOM``
reads its first piece that does not parse, only to locate the error and
its column (see "Text format" below).

Validation happens at the public boundary.  ``Seq``, ``Omega``, ``OmegaStar``
and ``WeightedOrder`` built by callers check their fields in
``__post_init__``.  The builders here, :func:`parse_order`, :func:`normalize`,
:func:`reverse`, :func:`rewrite_step` and ``+``, skip those checks through
``_build``: every atom they assemble is valid by construction.  The parser
checks each size once as it reads it, and the others only move, reverse,
split off or join sizes and atoms of orders that were already valid, and
never emit an empty seq.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError


class _Infinity:
    """Countable infinity, used for block sizes and infinite counts."""

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self):
        return "inf"

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()

Size = "int | _Infinity"


def is_size(value) -> bool:
    return value is INF or (type(value) is int and value >= 1)  # no bool


def _check_size(value, what: str):
    if not is_size(value):
        raise ValidationError(f"{what} must be a positive integer or inf, got {value!r}")


def size_sum(values):
    """Sum of block sizes; INF absorbs."""
    total = 0
    for v in values:
        if v is INF:
            return INF
        total += v
    return total


def clip(value, n: int):
    """A size with every infinite datum clipped to n."""
    return n if value is INF else value


@dataclass(frozen=True)
class Seq:
    """A finite run of blocks."""

    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if not self.sizes:
            raise ValidationError("empty seq atom")
        for s in self.sizes:
            _check_size(s, "seq entry")


@dataclass(frozen=True)
class Omega:
    """Blocks of one constant size in order type omega."""

    size: object

    def __post_init__(self):
        _check_size(self.size, "omega block size")


@dataclass(frozen=True)
class OmegaStar:
    """Blocks of one constant size in order type omega-star."""

    size: object

    def __post_init__(self):
        _check_size(self.size, "omegastar block size")


@dataclass(frozen=True)
class WeightedOrder:
    """A finite concatenation of atoms, leftmost smallest."""

    atoms: tuple

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for a in self.atoms:
            if not isinstance(a, (Seq, Omega, OmegaStar)):
                raise ValidationError(f"not an atom: {a!r}")

    def __add__(self, other):
        if not isinstance(other, WeightedOrder):
            return NotImplemented
        return _build(WeightedOrder, self.atoms + other.atoms)

    def __repr__(self):
        return f"WeightedOrder({render_order(self)!r})"


EMPTY = WeightedOrder(())


def _build(cls, value):
    """``cls(value)`` without ``__post_init__``, for a value that is valid by
    construction: each of these classes has the one field its checks cover."""
    obj = object.__new__(cls)
    object.__setattr__(obj, cls.__match_args__[0], value)
    return obj


def seq(*sizes) -> WeightedOrder:
    return WeightedOrder((Seq(tuple(sizes)),))


def omega(size) -> WeightedOrder:
    return WeightedOrder((Omega(size),))


def omegastar(size) -> WeightedOrder:
    return WeightedOrder((OmegaStar(size),))


def total_dimension(x: WeightedOrder):
    """Sum of all block sizes; INF as soon as anything is infinite."""
    for a in x.atoms:
        if isinstance(a, (Omega, OmegaStar)):
            return INF
    return size_sum(s for a in x.atoms for s in a.sizes)


def block_count(x: WeightedOrder):
    """Number of blocks; INF when any omega/omegastar atom occurs."""
    total = 0
    for a in x.atoms:
        if isinstance(a, (Omega, OmegaStar)):
            return INF
        total += len(a.sizes)
    return total


def reverse(x: WeightedOrder) -> WeightedOrder:
    """Mirror image: atom list reversed, seq entries reversed, omega <-> omegastar."""
    out = []
    for a in reversed(x.atoms):
        if isinstance(a, Seq):
            out.append(_build(Seq, a.sizes[::-1]))
        else:
            out.append(_build(OmegaStar if isinstance(a, Omega) else Omega, a.size))
    return _build(WeightedOrder, tuple(out))


def rewrite_step(x: WeightedOrder):
    """One elementary rewrite, or None at normal form.

    Returns ``(y, info)`` where info is ``("absorb", atom_index, entry_index)``
    for an absorbed seq entry (indices into x's atom list and that seq's
    entries) or ``("merge", atom_index)`` for a merge of the seq atoms at
    positions atom_index, atom_index + 1.  Absorptions are exhausted before any
    merge happens.
    """
    atoms = x.atoms
    for i in range(len(atoms) - 1):
        a, b = atoms[i], atoms[i + 1]
        if isinstance(a, Seq) and isinstance(b, Omega) and a.sizes[-1] == b.size:
            rest = a.sizes[:-1]
            new = atoms[:i] + ((_build(Seq, rest),) if rest else ()) + atoms[i + 1 :]
            return _build(WeightedOrder, new), ("absorb", i, len(a.sizes) - 1)
        if isinstance(a, OmegaStar) and isinstance(b, Seq) and b.sizes[0] == a.size:
            rest = b.sizes[1:]
            new = atoms[: i + 1] + ((_build(Seq, rest),) if rest else ()) + atoms[i + 2 :]
            return _build(WeightedOrder, new), ("absorb", i + 1, 0)
    for i in range(len(atoms) - 1):
        a, b = atoms[i], atoms[i + 1]
        if isinstance(a, Seq) and isinstance(b, Seq):
            new = atoms[:i] + (_build(Seq, a.sizes + b.sizes),) + atoms[i + 2 :]
            return _build(WeightedOrder, new), ("merge", i)
    return None


def normalize(x: WeightedOrder) -> WeightedOrder:
    """Canonical form; equal canonical forms characterize isomorphic orders.

    One left-to-right pass.  The entries of each maximal run of seq atoms are
    collected; the run drops its leading entries equal to the size of an
    omegastar atom just before it and its trailing entries equal to the size
    of an omega atom just after it, and what is left is emitted as one seq
    atom (nothing when empty).

    This is the fixed point of :func:`rewrite_step`.  Absorptions only ever
    remove an end entry of a run, at the end an omega-type atom touches;
    merges only join atoms of one run; and a run emptied by absorptions leaves
    two omega-type atoms adjacent, where no rule applies.  So each run is
    rewritten on its own, and whatever order the steps take, a run loses the
    longest prefix of entries equal to the omegastar size and the longest
    suffix equal to the omega size: the two overlap only when together they
    cover the whole run, which then vanishes.

    An order that is already normal, as most short inputs are, is returned as
    it is after one linear :func:`is_normalized` scan, which costs less than
    rebuilding its atoms.
    """
    if is_normalized(x):
        return x
    out = []
    run = []
    for a in x.atoms + (None,):
        if isinstance(a, Seq):
            run.extend(a.sizes)
            continue
        lo, hi = 0, len(run)
        if out and isinstance(out[-1], OmegaStar):
            while lo < hi and run[lo] == out[-1].size:
                lo += 1
        if isinstance(a, Omega):
            while hi > lo and run[hi - 1] == a.size:
                hi -= 1
        if lo < hi:
            out.append(_build(Seq, tuple(run[lo:hi])))
        if a is not None:
            out.append(a)
        run = []
    return _build(WeightedOrder, tuple(out))


def is_normalized(x: WeightedOrder) -> bool:
    return rewrite_step(x) is None


def is_isomorphic(a: WeightedOrder, b: WeightedOrder) -> bool:
    return normalize(a) == normalize(b)


def truncate(x: WeightedOrder, n: int):
    """Finite sample of the order: n-bounded per atom, infinite data clipped to n.

    Returns ``(sizes, keys)``: the sampled block sizes and, parallel to them,
    stable position keys ``(atom_index, block_key)`` into x.  Omega atoms
    contribute their first n blocks (keys 0..n-1), omegastar atoms their last n
    (keys -n..-1), seq atoms every entry with infinite entries clipped.  Keys
    at width n are a subset of the keys at width n + 1, which realizes the
    embedding of successive truncations.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError(f"truncation width must be a positive integer, got {n!r}")
    sizes = []
    keys = []
    for ai, a in enumerate(x.atoms):
        if isinstance(a, Seq):
            for ei, s in enumerate(a.sizes):
                sizes.append(clip(s, n))
                keys.append((ai, ei))
        elif isinstance(a, Omega):
            for j in range(n):
                sizes.append(clip(a.size, n))
                keys.append((ai, j))
        else:
            for j in range(-n, 0):
                sizes.append(clip(a.size, n))
                keys.append((ai, j))
    return tuple(sizes), tuple(keys)


# ---------------------------------------------------------------------------
# Text format: seq[d1,d2,...], omega(d), omegastar(d), atoms joined by `+`,
# `inf` for a countably infinite size.  Tokens are words (maximal runs of
# alphanumeric characters, `[^\W_]` in `re`, which is exactly str.isalnum)
# and the punctuation `[ ] ( ) , +`; whitespace (`\s`, exactly str.isspace)
# may stand before any token.  A block size is `inf` or an ASCII decimal
# with a nonzero digit; leading zeros are allowed.
#
# Splitting at `+` is safe: `+` is punctuation of the concatenation only, and
# no atom contains it.  So a text is valid exactly when each piece between
# `+`s (and the ends of the text), stripped of the whitespace around it
# (str.strip strips exactly the `\s` characters), is one atom, which _PIECE
# matches whole.  parse_order reads each distinct stripped piece once and
# looks the rest up, so atom texts that are equal once stripped share one
# frozen atom object in the returned order.  It reads a piece through
# _read_atom, an lru_cache of _MEMO_SIZE pieces kept for the whole process,
# so a piece seen in an earlier text is not matched or converted again.  The
# memo holds atoms only: a piece that does not parse raises, and lru_cache
# keeps no exception.  A piece of _MEMO_MAX_LEN characters or more bypasses
# the memo.  Whether int() refuses a size depends on
# sys.get_int_max_str_digits(), which a program may lower at run time, so an
# atom read under one limit may not be valid under the next; but the limit is
# never below sys.int_info.str_digits_check_threshold (640) unless it is 0,
# none at all, so a shorter piece holds no size that any limit refuses.
#
# _ATOM and _parse_error only locate errors.  When a piece does not match, or
# int() refuses one of its sizes, _ATOM is matched once where the first such
# piece starts in the text, which is the first error in the text, since every
# piece before it parses.  Each piece of _ATOM after the atom
# name (opening bracket, sizes, closing bracket, `+` or end) is optional and
# nested in the one before, so a match always succeeds and stops where the
# text stops fitting the grammar.  The atom is complete when the group `end`
# took part: `+` to go on, empty at the end of the text.  Otherwise the groups
# that took part (`seq` or `omega`, `sizes`) and whether the match went past
# the last of them tell what the text lacks next, and the error is reported
# at the token after the stop: a bad name or size at the end of its word, a
# missing word, bracket or `+` where the next token starts.


class OrderParseError(ValidationError):
    """Syntax error in the order grammar, with a 1-based column."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column


_NUMBER = r"(?:inf|0*[1-9][0-9]*)"
_SIZE = _NUMBER + r"(?![^\W_])"  # and its word ends there
# Each optional piece is written `(?: ... |)` rather than `(?: ... )?`: the
# same match, but sre runs a branch faster than a repeat.
_ATOM = re.compile(
    rf"""\s*
    (?: (?: (?P<seq>seq) | (?P<omega>omega(?:star)?) ) (?![^\W_])
        (?: \s*(?(seq)\[|\()
            (?: (?P<sizes> \s*{_SIZE} (?(seq)(?:\s*,\s*{_SIZE})*) )
                (?: \s*(?(seq)\]|\))
                    (?: \s*(?P<end>\+|\Z) |)
                |)
            |)
        |)
    |)""",
    re.VERBOSE,
)
# A piece is matched whole, so each size in it is followed by spacing and `,`,
# `]` or `)`, and _PIECE needs no check that the word ends.
_PIECE = re.compile(
    rf"""seq\s*\[ (\s*{_NUMBER} (?:\s*,\s*{_NUMBER})*) \s*\]
    | (omega(?:star)?)\s*\( \s*({_NUMBER}) \s*\)""",
    re.VERBOSE,
)
_WORD = re.compile(r"\s*([^\W_]*)")


_MEMO_SIZE = 1024  # pieces; one seed of perfbench ind-decide holds 203-219 distinct
_MEMO_MAX_LEN = sys.int_info.str_digits_check_threshold


@lru_cache(maxsize=_MEMO_SIZE)
def _read_atom(piece: str):
    """The atom that the stripped ``piece`` is; ValueError if it is none."""
    m = _PIECE.fullmatch(piece)
    if m is None:
        raise ValueError(piece)
    sizes, name, size = m.groups()
    # a matched size is `inf` or decimal digits, with spaces around it;
    # int() refuses more digits than sys.get_int_max_str_digits()
    if sizes is not None:
        return _build(Seq, tuple([INF if "inf" in w else int(w) for w in sizes.split(",")]))
    size = INF if "inf" in size else int(size)
    return _build(Omega if name == "omega" else OmegaStar, size)


def parse_order(text: str) -> WeightedOrder:
    raw = text.split("+")
    parts = list(map(str.strip, raw))
    table = dict.fromkeys(parts)
    for piece in table:
        read = _read_atom if len(piece) < _MEMO_MAX_LEN else _read_atom.__wrapped__
        try:
            table[piece] = read(piece)
        except ValueError:
            raise _piece_error(text, raw, parts.index(piece)) from None
    return _build(WeightedOrder, tuple(map(table.__getitem__, parts)))


def _piece_error(text, raw, i) -> OrderParseError:
    """The error of piece ``i`` of ``text``, split at ``+`` into ``raw``.
    Table order is first-occurrence order, so every piece before it parses,
    and ``_ATOM`` matched where its raw text starts stops short in it or
    reads the sizes that ``int()`` refuses."""
    return _parse_error(text, _ATOM.match(text, sum(map(len, raw[:i])) + i))


def _parse_error(text, m) -> OrderParseError:
    """The error for an atom whose match stopped short or whose sizes do not
    convert.  Every token up to ``m.end()`` fits the grammar, so the error is
    the first matched size that ``int()`` refuses, else the next token."""
    seq_name, omega_name, sizes, _ = m.groups()
    stop = m.end()
    if sizes is not None:
        start = m.start("sizes")
        for piece in sizes.split(","):
            word = piece.strip()
            if word != "inf":
                try:
                    int(word)
                except ValueError:
                    return _bad_size(word, start + len(piece.rstrip()) + 1)
            start += len(piece) + 1
    word = _WORD.match(text, stop)
    at = word.start(1)
    if sizes is not None:
        if stop > m.end("sizes"):
            return OrderParseError("expected '+'", at + 1)
        if not (seq_name and text.startswith(",", at)):
            return OrderParseError(f"expected {']' if seq_name else ')'!r}", at + 1)
        word = _WORD.match(text, at + 1)  # a comma asks for one more entry
        at = word.start(1)
    elif seq_name or omega_name:
        if stop == m.end("seq" if seq_name else "omega"):
            return OrderParseError(f"expected {'[' if seq_name else '('!r}", at + 1)
    # a word is due here: an atom name or a block size
    if not word[1]:
        return OrderParseError("expected a name or number", at + 1)
    if not (seq_name or omega_name):
        return OrderParseError(f"unknown atom {word[1]!r}", word.end() + 1)
    return _bad_size(word[1], word.end() + 1)


def _bad_size(word, column) -> OrderParseError:
    if word.isascii() and word.isdigit():
        try:
            int(word)
        except ValueError:
            return OrderParseError(f"block size has too many digits ({len(word)})", column)
    return OrderParseError(f"bad block size {word!r}", column)


def _render_size(s):
    return "inf" if s is INF else str(s)


def render_order(x: WeightedOrder) -> str:
    parts = []
    for a in x.atoms:
        if isinstance(a, Seq):
            parts.append("seq[%s]" % ",".join(_render_size(s) for s in a.sizes))
        elif isinstance(a, Omega):
            parts.append("omega(%s)" % _render_size(a.size))
        else:
            parts.append("omegastar(%s)" % _render_size(a.size))
    return " + ".join(parts)
