"""Hypothesis strategies for order text, shared by the order and CLI tests."""

import re

from hypothesis import strategies as st

from flagiso.orders import INF, Omega, OmegaStar, Seq, WeightedOrder, render_order

sizes = st.one_of(st.integers(1, 3), st.just(INF))
atoms = st.one_of(
    st.lists(sizes, min_size=1, max_size=4).map(lambda s: Seq(tuple(s))),
    sizes.map(Omega),
    sizes.map(OmegaStar),
)
orders = st.lists(atoms, max_size=12).map(lambda a: WeightedOrder(tuple(a)))


@st.composite
def edited_render(draw):
    """A rendered order with one span replaced by a few grammar characters."""
    text = render_order(draw(orders))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 3)))
    return text[:i] + draw(st.text("seqomgatrinf[](),+ 01239\t²٣", max_size=3)) + text[j:]


# Digits that str.isdigit accepts and int() rejects or reads, non-ASCII
# whitespace, sizes that are not positive decimals, and sizes with more
# digits than int() converts (sys.get_int_max_str_digits() is 4300).
TRICKY = ("²", "٣", "\t", "\u2003", "inf2", "0", "01", "1" * 4301, "0" * 4400)


@st.composite
def tricky_text(draw):
    """A rendered or edited order with one to three tricky tokens put in
    place of a size or a space, or inserted anywhere."""
    text = draw(st.one_of(orders.map(render_order), edited_render()))
    for _ in range(draw(st.integers(1, 3))):
        spots = [m.span() for m in re.finditer(r"inf|[0-9]+| ", text)]
        if spots and draw(st.booleans()):
            i, j = draw(st.sampled_from(spots))
        else:
            i = j = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(TRICKY)) + text[j:]
    return text


order_text = st.one_of(st.text(max_size=40), edited_render(), tricky_text())
