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

Text format::

    gen: <order>
    orth: half=<order>; middle=<empty|d|inf>
    symp: half=<order>; middle=<empty|d|inf>

with the order grammar of :mod:`flagiso.orders`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ValidationError
from .orders import (
    EMPTY,
    INF,
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


def require_valid(d: FlagDescriptor):
    violations = validate(d)
    if violations:
        raise DescriptorError(violations)


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


def is_self_dual(d: FlagDescriptor) -> bool:
    return d.is_isotropic()


def middle_codim(d: FlagDescriptor):
    """Dimension of the quotient between the top isotropic member and its perp."""
    if not d.is_isotropic():
        raise ValidationError("middle_codim is only defined for isotropic descriptors")
    require_valid(d)
    return d.middle


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


def require_valid_variety(v: FiniteFlagVariety):
    violations = variety_violations(v)
    if violations:
        raise DescriptorError(violations)


def finite_flag_variety(lie_type, ambient_dim, dims) -> FiniteFlagVariety:
    v = FiniteFlagVariety(lie_type, ambient_dim, tuple(dims))
    require_valid_variety(v)
    return v


# ---------------------------------------------------------------------------
# Truncation to finite flag varieties.

# Theorem hypotheses for the finite classification; truncations are only
# produced above these ambient sizes.
GENERAL_MIN_AMBIENT = 2
ORTHOGONAL_MIN_AMBIENT = 5
SYMPLECTIC_MIN_AMBIENT = 6

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


def _truncation_shape(d: FlagDescriptor, n: int):
    if d.form is FormType.GENERAL:
        sizes, _ = truncate(d.order, n)
        ambient = sum(sizes)
        dims = []
        acc = 0
        for s in sizes[:-1]:
            acc += s
            dims.append(acc)
        return "A", ambient, tuple(dims)
    half_sizes, _ = truncate(d.half, n)
    m = _truncated_middle(d, n)
    s = sum(half_sizes)
    ambient = 2 * s + m
    dims = []
    acc = 0
    for b in half_sizes:
        acc += b
        dims.append(acc)
    if d.form is FormType.SYMPLECTIC:
        t = "C"
    else:
        t = "B" if m % 2 == 1 else "D"
    return t, ambient, tuple(dims)


def min_truncation_width(d: FlagDescriptor) -> int:
    """Smallest width at which the truncation meets the theorem hypotheses."""
    require_valid(d)
    if d.form is FormType.GENERAL:
        if block_count(d.order) == 1:
            raise ValidationError("descriptor has no proper members; cannot truncate")
        threshold = GENERAL_MIN_AMBIENT
    else:
        if block_count(d.half) == 0:
            raise ValidationError("descriptor has no proper members; cannot truncate")
        threshold = (
            SYMPLECTIC_MIN_AMBIENT
            if d.form is FormType.SYMPLECTIC
            else ORTHOGONAL_MIN_AMBIENT
        )
    for n in range(1, _WIDTH_SEARCH_CAP):
        _, ambient, dims = _truncation_shape(d, n)
        if ambient >= threshold and dims:
            return n
    raise AssertionError("unreachable: truncated ambient is unbounded")


def truncate_to_variety(d: FlagDescriptor, n: int) -> FiniteFlagVariety:
    """The finite flag variety sampled from the descriptor at width n."""
    require_valid(d)
    n0 = min_truncation_width(d)
    if n < n0:
        raise TruncationWidthError(n, n0)
    t, ambient, dims = _truncation_shape(d, n)
    return finite_flag_variety(t, ambient, dims)


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
    if form is FormType.GENERAL:
        d = general_flags(parse_order(body))
    else:
        half = None
        middle = None
        for clause in body.split(";"):
            key, sep, value = clause.partition("=")
            key = key.strip()
            if not sep:
                raise ValidationError(f"expected key=value, got {clause.strip()!r}")
            if key == "half":
                half = parse_order(value)
            elif key == "middle":
                middle = _parse_middle(value)
            else:
                raise ValidationError(f"unknown key {key!r} (expected half, middle)")
        if half is None or middle is None:
            raise ValidationError("isotropic descriptor needs both half= and middle=")
        d = FlagDescriptor(form, half=half, middle=middle)
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


def descriptor_from_json(obj: dict) -> FlagDescriptor:
    form = FormType(obj["form"])
    if form is FormType.GENERAL:
        d = general_flags(parse_order(obj["order"]))
    else:
        d = FlagDescriptor(
            form, half=parse_order(obj["half"]), middle=_parse_middle(obj["middle"])
        )
    require_valid(d)
    return d
