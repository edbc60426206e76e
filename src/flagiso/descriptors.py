"""Descriptors for ind-varieties of flags and for finite flag varieties.

A descriptor denotes an ind-variety of chains of subspaces in a countable
dimensional space, of one of three kinds: general (no bilinear form),
orthogonal, or symplectic.  A general descriptor stores the full chain as a
weighted order.  An isotropic descriptor stores only the strictly isotropic
part ``half`` (smallest member first) together with the size of the middle
quotient between the top isotropic member and its perp; the full chain
``half + middle + reverse(half)`` is derived, so self-duality of the chain is
structural and cannot be misstated.

Trivial members (the zero subspace and the whole space) are never stored;
proper members correspond to the internal cuts of the weighted order.

The ind-variety is the direct limit of its finite truncations.
:func:`truncation_layout` is the one definition of the truncation at width
n: the Lie type, the ambient dimension, the member dimensions and the keyed
blocks of the whole chain.  :func:`truncate_to_variety`, the exhaustion
steps and the standard points of :mod:`flagiso.witness` all read it.

Text format (an empty half is written as nothing)::

    gen: <order>
    orth: half=<order>; middle=<empty|d|inf>
    symp: half=<order>; middle=<empty|d|inf>

with the order grammar of :mod:`flagiso.orders`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .errors import ValidationError
from .orders import (
    EMPTY,
    INF,
    OrderParseError,
    WeightedOrder,
    block_count,
    is_size,
    parse_order,
    render_order,
    reverse,
    seq,
    size_sum,
    total_dimension,
    truncate,
)


class FormType(enum.Enum):
    GENERAL = "general"
    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"


# The middle is encoded by the dimension of the quotient between the top
# isotropic member and its perp: 0 for an empty middle, otherwise a positive
# size (possibly INF).
MIDDLE_EMPTY = 0


@dataclass(frozen=True)
class FlagDescriptor:
    form: FormType
    order: WeightedOrder = None  # general only: the whole chain
    half: WeightedOrder = None  # isotropic only: strictly isotropic part
    middle: object = None  # isotropic only: 0, positive int, or INF

    def is_isotropic(self) -> bool:
        return self.form is not FormType.GENERAL

    def __repr__(self):
        return f"FlagDescriptor({render_descriptor(self)!r})"


def general_flags(order: WeightedOrder) -> FlagDescriptor:
    return FlagDescriptor(FormType.GENERAL, order=order)


def orthogonal_flags(half: WeightedOrder, middle) -> FlagDescriptor:
    return FlagDescriptor(FormType.ORTHOGONAL, half=half, middle=middle)


def symplectic_flags(half: WeightedOrder, middle) -> FlagDescriptor:
    return FlagDescriptor(FormType.SYMPLECTIC, half=half, middle=middle)


class DescriptorError(ValidationError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


def validate(d: FlagDescriptor):
    """List of violated invariants (empty list means valid)."""
    out = []
    if d.form is FormType.GENERAL:
        if d.order is None or d.half is not None or d.middle is not None:
            return ["general descriptor must carry an order and nothing else"]
        if total_dimension(d.order) is not INF:
            out.append("total dimension must be countably infinite")
        return out
    if d.order is not None or d.half is None or d.middle is None:
        return ["isotropic descriptor must carry half and middle only"]
    m = d.middle
    if m != MIDDLE_EMPTY and not is_size(m):
        return [f"middle must be empty, a positive integer, or inf, got {m!r}"]
    half_dim = total_dimension(d.half)
    if size_sum((half_dim, m, half_dim)) is not INF:
        out.append("total dimension must be countably infinite")
    if d.form is FormType.SYMPLECTIC:
        if m is not INF and m % 2 == 1:
            out.append("symplectic middle must be even or inf")
    else:
        if m == 2:
            out.append(
                "orthogonal middle of size 2 is not accepted: refine the flag by "
                "inserting one of the two maximal isotropic members between the "
                "top isotropic member and its perp"
            )
    return out


def require_valid(value):
    """Raise :class:`DescriptorError` unless ``value``, a :class:`FlagDescriptor`
    (checked by :func:`validate`) or a :class:`FiniteFlagVariety` (checked by
    :func:`variety_violations`), is valid.  Both are frozen, so a value that
    passes (every parsed descriptor and every result of
    :func:`finite_flag_variety` does) is marked and not checked again; an
    invalid one is never marked and raises each time."""
    if "_valid" in value.__dict__:
        return
    check = validate if isinstance(value, FlagDescriptor) else variety_violations
    violations = check(value)
    if violations:
        raise DescriptorError(violations)
    object.__setattr__(value, "_valid", True)


def full_chain(d: FlagDescriptor) -> WeightedOrder:
    """The whole chain as a weighted order (isotropic chains are expanded)."""
    require_valid(d)
    if d.form is FormType.GENERAL:
        return d.order
    middle = EMPTY if d.middle == MIDDLE_EMPTY else seq(d.middle)
    return d.half + middle + reverse(d.half)


def dual(d: FlagDescriptor) -> FlagDescriptor:
    """The chain of annihilators.  Isotropic chains are their own duals."""
    require_valid(d)
    if d.form is FormType.GENERAL:
        return general_flags(reverse(d.order))
    return d


def pic_rank(d: FlagDescriptor):
    """Number of proper members, counting one per perp-orbit for isotropic chains."""
    require_valid(d)
    if d.form is FormType.GENERAL:
        blocks = block_count(d.order)
        return INF if blocks is INF else blocks - 1
    blocks = block_count(d.half)
    # Internal cuts of the half plus the boundary member at the top of the
    # half (a single perp-orbit whether or not the middle is empty).
    return blocks


# ---------------------------------------------------------------------------
# Finite flag varieties.


@dataclass(frozen=True)
class FiniteFlagVariety:
    """A Lie type with an increasing dimension sequence.

    For types B, C, D only the isotropic half of the chain is listed and the
    split form is understood; for type A the dims are the proper subspace
    dimensions.
    """

    lie_type: str
    ambient_dim: int
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))

    def __repr__(self):
        dims = ",".join(str(x) for x in self.dims)
        return f"FiniteFlagVariety({self.lie_type}:{self.ambient_dim}:[{dims}])"


def variety_violations(v: FiniteFlagVariety):
    out = []
    t, n, dims = v.lie_type, v.ambient_dim, v.dims
    if t not in ("A", "B", "C", "D"):
        return [f"unknown lie type {t!r}"]
    if not (isinstance(n, int) and n >= 2):
        return [f"ambient dimension must be an integer >= 2, got {n!r}"]
    if not dims:
        out.append("dimension sequence must be nonempty")
    if any(not isinstance(d, int) for d in dims) or any(
        dims[i] >= dims[i + 1] for i in range(len(dims) - 1)
    ):
        out.append("dims must be strictly increasing integers")
        return out
    if t == "A":
        if dims and (dims[0] < 1 or dims[-1] >= n):
            out.append("type A dims must satisfy 1 <= d < ambient")
        return out
    if t == "B" and n % 2 == 0:
        out.append("type B needs odd ambient dimension")
    if t in ("C", "D") and n % 2 == 1:
        out.append(f"type {t} needs even ambient dimension")
    m = n // 2
    if dims and (dims[0] < 1 or dims[-1] > m):
        out.append("isotropic dims must satisfy 1 <= d <= ambient/2")
    if t == "D" and (m - 1) in dims and m not in dims:
        out.append(
            "type D with an isotropic member of dimension ambient/2 - 1 must also "
            "list a member of dimension ambient/2"
        )
    return out


def finite_flag_variety(lie_type, ambient_dim, dims) -> FiniteFlagVariety:
    v = FiniteFlagVariety(lie_type, ambient_dim, tuple(dims))
    require_valid(v)
    return v


# ---------------------------------------------------------------------------
# Truncation to finite flag varieties.

# Theorem hypotheses for the finite classification: the form class of each
# Lie type and the smallest ambient dimension of each class.  Truncations are
# only produced above these ambient sizes.
FORM_OF_LIE_TYPE = {
    "A": FormType.GENERAL,
    "B": FormType.ORTHOGONAL,
    "C": FormType.SYMPLECTIC,
    "D": FormType.ORTHOGONAL,
}
MIN_AMBIENT = {
    FormType.GENERAL: 2,
    FormType.ORTHOGONAL: 5,
    FormType.SYMPLECTIC: 6,
}

_WIDTH_SEARCH_CAP = 64


class TruncationWidthError(ValidationError):
    def __init__(self, n, n0):
        self.n0 = n0
        super().__init__(
            f"truncation width {n} is below the smallest admissible width n0={n0}"
        )


def _truncated_middle(d: FlagDescriptor, n: int) -> int:
    m = d.middle
    if m == MIDDLE_EMPTY:
        return 0
    if m is INF:
        # The middle quotient carries a nondegenerate form of its own, so the
        # clipped width is 2n for a symplectic middle; an infinite orthogonal
        # middle is sampled at odd width 2n+1 (the truncations are then of
        # type B, which any such chain admits).
        return 2 * n if d.form is FormType.SYMPLECTIC else 2 * n + 1
    return m


class TruncationLayout(NamedTuple):
    """How the chain of a valid descriptor lays out at width n.

    ``dims`` are the dimensions of the listed members (every proper member
    of a general chain, the isotropic members of an isotropic one) and
    ``ambient`` is the sum of the block sizes of the whole chain.  ``keys``
    and ``sizes`` are the :func:`flagiso.orders.truncate` sample of the
    general chain or of the half, and ``middle`` is the size of the
    isotropic middle block (0 when there is none); :meth:`blocks` lays the
    whole chain out from them.
    """

    lie_type: str
    ambient: int
    dims: tuple
    keys: tuple
    sizes: tuple
    middle: int

    def blocks(self) -> tuple:
        """The blocks of the whole chain in coordinate order, as ``(key, size)``
        keyed as :func:`truncation_layout` describes."""
        if self.lie_type == "A":
            return tuple(zip(self.keys, self.sizes))
        lo = [(("lo", k), s) for k, s in zip(self.keys, self.sizes)]
        hi = [(("hi", k), s) for (_, k), s in reversed(lo)]
        if self.middle:
            lo.append((("mid",), self.middle))
        return tuple(lo + hi)


def truncation_layout(d: FlagDescriptor, n: int) -> TruncationLayout:
    """The truncation of a valid descriptor at width n.

    Block keys: a general chain keeps the ``(atom, entry)`` keys of
    :func:`flagiso.orders.truncate`.  An isotropic chain is its half keyed
    ``("lo", k)``, then the middle keyed ``("mid",)`` when it is nonempty,
    then the mirrored half keyed ``("hi", k)``.  The keys of ``truncate`` at
    width n are keys at width n + 1 with sizes that only grow, the middle
    keeps its parity, and the two halves mirror each other, so every key at
    width n is a key at width n + 1 with a block at least as large.  The
    embedding of successive truncations
    (:func:`flagiso.witness.exhaustion_step`) is read off these keys.
    """
    if d.form is FormType.GENERAL:
        sizes, keys = truncate(d.order, n)
        dims = tuple(accumulate(sizes[:-1]))
        return TruncationLayout("A", sum(sizes), dims, keys, sizes, 0)
    sizes, keys = truncate(d.half, n)
    m = _truncated_middle(d, n)
    if d.form is FormType.SYMPLECTIC:
        t = "C"
    else:
        t = "B" if m % 2 == 1 else "D"
    dims = tuple(accumulate(sizes))
    return TruncationLayout(t, 2 * sum(sizes) + m, dims, keys, sizes, m)


def min_truncation_width(d: FlagDescriptor) -> int:
    """Smallest width n0 at which the truncation meets the theorem hypotheses."""
    require_valid(d)
    if d.form is FormType.GENERAL:
        memberless = block_count(d.order) == 1
    else:
        memberless = block_count(d.half) == 0
    if memberless:
        raise ValidationError("descriptor has no proper members; cannot truncate")
    threshold = MIN_AMBIENT[d.form]
    for n in range(1, _WIDTH_SEARCH_CAP):
        layout = truncation_layout(d, n)
        if layout.dims and layout.ambient >= threshold:
            return n
    raise AssertionError("unreachable: truncated ambient is unbounded")


def truncate_to_variety(d: FlagDescriptor, n: int) -> FiniteFlagVariety:
    """The finite flag variety sampled from the descriptor at width n."""
    require_valid(d)
    # Blocks only grow and are only added as the width grows, so the width-n
    # truncation meets the theorem hypotheses exactly when n >= n0.
    if n >= 1:
        layout = truncation_layout(d, n)
        if layout.dims and layout.ambient >= MIN_AMBIENT[d.form]:
            return finite_flag_variety(layout.lie_type, layout.ambient, layout.dims)
    raise TruncationWidthError(n, min_truncation_width(d))


# ---------------------------------------------------------------------------
# Text and JSON formats.


def _parse_middle(text: str):
    text = text.strip()
    if text == "empty":
        return MIDDLE_EMPTY
    if text == "inf":
        return INF
    if text.isascii() and text.isdigit():
        try:
            value = int(text)
        except ValueError:  # beyond sys.get_int_max_str_digits()
            raise ValidationError(f"middle has too many digits ({len(text)})") from None
        if value >= 1:
            return value
    raise ValidationError(f"bad middle {text!r}: expected empty, a positive integer, or inf")


def _parse_half(text: str) -> WeightedOrder:
    # render_order writes the empty order as no text at all
    return parse_order(text) if text.strip() else EMPTY


_CLAUSE_PARSERS = {"half": _parse_half, "middle": _parse_middle}


def _parse_at(parse, text: str, offset: int):
    """``parse(text)`` for a ``text`` that starts after ``offset`` characters
    of a longer one: an order's error column then counts in the longer text."""
    try:
        return parse(text)
    except OrderParseError as exc:
        raise OrderParseError(exc.message, exc.column + offset) from None


_FORM_TAGS = {
    "gen": FormType.GENERAL,
    "orth": FormType.ORTHOGONAL,
    "symp": FormType.SYMPLECTIC,
}


def parse_descriptor(text: str) -> FlagDescriptor:
    head, _, body = text.partition(":")
    tag = head.strip()
    if tag not in _FORM_TAGS:
        raise ValidationError(
            f"descriptor must start with one of gen:, orth:, symp: (got {tag!r})"
        )
    form = _FORM_TAGS[tag]
    at = len(head) + 1  # characters of text before body
    if form is FormType.GENERAL:
        d = general_flags(_parse_at(parse_order, body, at))
    else:
        clauses = {}
        for clause in body.split(";"):
            key, sep, value = clause.partition("=")
            key = key.strip()
            if not sep:
                raise ValidationError(f"expected key=value, got {clause.strip()!r}")
            if key not in _CLAUSE_PARSERS:
                raise ValidationError(f"unknown key {key!r} (expected half, middle)")
            if key in clauses:
                raise ValidationError(f"repeated key {key!r} (give half and middle once each)")
            clauses[key] = _parse_at(_CLAUSE_PARSERS[key], value, at + len(clause) - len(value))
            at += len(clause) + 1
        if len(clauses) != len(_CLAUSE_PARSERS):
            raise ValidationError("isotropic descriptor needs both half= and middle=")
        d = FlagDescriptor(form, **clauses)
    require_valid(d)
    return d


def _render_middle(m) -> str:
    if m == MIDDLE_EMPTY:
        return "empty"
    return "inf" if m is INF else str(m)


_TAG_OF_FORM = {v: k for k, v in _FORM_TAGS.items()}


def render_descriptor(d: FlagDescriptor) -> str:
    if d.form is FormType.GENERAL:
        return f"gen: {render_order(d.order)}"
    tag = _TAG_OF_FORM[d.form]
    return f"{tag}: half={render_order(d.half)}; middle={_render_middle(d.middle)}"


def descriptor_to_json(d: FlagDescriptor) -> dict:
    if d.form is FormType.GENERAL:
        return {"form": d.form.value, "order": render_order(d.order)}
    return {
        "form": d.form.value,
        "half": render_order(d.half),
        "middle": _render_middle(d.middle),
    }


def _json_text(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ValidationError(
            f"descriptor JSON needs a string {key!r}, got {type(value).__name__}"
        )
    return value


_FORM_OF_VALUE = {f.value: f for f in FormType}


def descriptor_from_json(obj: dict) -> FlagDescriptor:
    """Inverse of :func:`descriptor_to_json`; malformed input raises
    :class:`ValidationError`."""
    if not isinstance(obj, dict):
        raise ValidationError(
            f"descriptor JSON must be an object, got {type(obj).__name__}"
        )
    form = _FORM_OF_VALUE.get(_json_text(obj, "form"))
    if form is None:
        raise ValidationError(
            f"unknown form {obj['form']!r} (expected general, orthogonal, symplectic)"
        )
    if form is FormType.GENERAL:
        d = general_flags(parse_order(_json_text(obj, "order")))
    else:
        d = FlagDescriptor(
            form,
            half=_parse_half(_json_text(obj, "half")),
            middle=_parse_middle(_json_text(obj, "middle")),
        )
    require_valid(d)
    return d
