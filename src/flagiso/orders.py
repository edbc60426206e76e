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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    return value is INF or (isinstance(value, int) and value >= 1)


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
        return WeightedOrder(self.atoms + other.atoms)

    def __repr__(self):
        return f"WeightedOrder({render_order(self)!r})"


EMPTY = WeightedOrder(())


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
            out.append(Seq(tuple(reversed(a.sizes))))
        elif isinstance(a, Omega):
            out.append(OmegaStar(a.size))
        else:
            out.append(Omega(a.size))
    return WeightedOrder(tuple(out))


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
            new = atoms[:i] + ((Seq(rest),) if rest else ()) + atoms[i + 1 :]
            return WeightedOrder(new), ("absorb", i, len(a.sizes) - 1)
        if isinstance(a, OmegaStar) and isinstance(b, Seq) and b.sizes[0] == a.size:
            rest = b.sizes[1:]
            new = atoms[: i + 1] + ((Seq(rest),) if rest else ()) + atoms[i + 2 :]
            return WeightedOrder(new), ("absorb", i + 1, 0)
    for i in range(len(atoms) - 1):
        a, b = atoms[i], atoms[i + 1]
        if isinstance(a, Seq) and isinstance(b, Seq):
            new = atoms[:i] + (Seq(a.sizes + b.sizes),) + atoms[i + 2 :]
            return WeightedOrder(new), ("merge", i)
    return None


def normalize(x: WeightedOrder) -> WeightedOrder:
    """Canonical form; equal canonical forms characterize isomorphic orders."""
    while True:
        step = rewrite_step(x)
        if step is None:
            return x
        x = step[0]


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
# `inf` for a countably infinite size.


class OrderParseError(ValidationError):
    """Syntax error in the order grammar, with a 1-based column."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def error(self, message):
        raise OrderParseError(message, self.pos + 1)

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        if self.pos == start:
            self.error("expected a name or number")
        return self.text[start : self.pos]

    def done(self):
        self._skip_ws()
        return self.pos >= len(self.text)


def _parse_size(tok: _Tokens):
    w = tok.word()
    if w == "inf":
        return INF
    if w.isascii() and w.isdigit():
        value = int(w)
        if value >= 1:
            return value
    tok.error(f"bad block size {w!r}")


def parse_order(text: str) -> WeightedOrder:
    tok = _Tokens(text)
    atoms = []
    while True:
        w = tok.word()
        if w == "seq":
            tok.expect("[")
            sizes = [_parse_size(tok)]
            while tok.peek() == ",":
                tok.expect(",")
                sizes.append(_parse_size(tok))
            tok.expect("]")
            atoms.append(Seq(tuple(sizes)))
        elif w in ("omega", "omegastar"):
            tok.expect("(")
            size = _parse_size(tok)
            tok.expect(")")
            atoms.append(Omega(size) if w == "omega" else OmegaStar(size))
        else:
            tok.error(f"unknown atom {w!r}")
        if tok.done():
            break
        tok.expect("+")
    return WeightedOrder(tuple(atoms))


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
