"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: counts come
from closed-form products or raw vector loops, polynomial identities from the
Pascal-style recursion, Coxeter lengths from breadth-first word search,
Poincare polynomials from enumerating the Weyl group as signed permutations,
order normal forms from iterating the single-step rewrite specification,
order text from a scanner that reads one character at a time,
grassmannian verdicts from dimension data alone, finite verdicts from node
bijections that preserve Cartan matrices (beside the hand-written rule chain
they replaced, kept as the reference for reasons and details), exact linear
algebra from Gauss-Jordan elimination on ``Fraction`` (or F_p) entries,
square roots mod p from scanning 0..p-1,
the subspaces of F_p^n from one product over all free entries of an echelon
form at once, the sources of the odd/even orthogonal pair by filtering
every subspace of the odd hyperplane with the split form built out in full,
that pair's Lagrangian over a source from the singular lines of a
quadratic on perp(M)/M, rebasing automorphisms from the greedy search
that the signature match of ``rebase_automorphism`` replaced, and the
slots, annihilators and composed filtrations of standard extensions
reduced one member at a time, as they were before one elimination served
each chain.
"""

import itertools
from functools import lru_cache

from flagiso.counting import QPolynomial
from flagiso.decide import DecisionResult, Reason, _no, _yes
from flagiso.descriptors import (
    FORM_OF_LIE_TYPE,
    FlagDescriptor,
    FormType,
    pic_rank,
    require_valid,
)
from flagiso import linalg as la
from flagiso import witness as W
from flagiso.errors import ValidationError
from flagiso.linalg import PrimeField, rank, stack, transpose
from flagiso.orders import (
    INF,
    Omega,
    OmegaStar,
    OrderParseError,
    Seq,
    WeightedOrder,
    is_isomorphic,
    normalize,
    reverse,
    rewrite_step,
    seq,
)


# ---------------------------------------------------------------------------
# q-binomials and product formulas.


def poly_from_degrees(by_degree):
    """The polynomial with coefficient ``by_degree[i]`` at q^i, 0 elsewhere."""
    return QPolynomial(tuple(by_degree.get(i, 0) for i in range(max(by_degree, default=-1) + 1)))


def poly_add(p, r):
    a, b = p.coefficients, r.coefficients
    if len(a) < len(b):
        a, b = b, a
    return QPolynomial(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))


def is_palindromic(p):
    return p.coefficients == p.coefficients[::-1]


@lru_cache(maxsize=None)
def gaussian_binomial_poly(n, k):
    """[n choose k]_q via the recursion [n k] = [n-1 k-1] + q^k [n-1 k]."""
    if k < 0 or k > n:
        return QPolynomial(())
    if k == 0 or k == n:
        return QPolynomial((1,))
    shifted = tuple([0] * k) + gaussian_binomial_poly(n - 1, k).coefficients
    return poly_add(gaussian_binomial_poly(n - 1, k - 1), QPolynomial(shifted))


def gaussian_binomial(n, k, q):
    return gaussian_binomial_poly(n, k)(q)


def q_integer_product(ks):
    """prod of [k]_q = 1 + q + ... + q^(k-1) by coefficient convolution."""
    coeffs = [1]
    for k in ks:
        out = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j in range(k):
                out[i + j] += c
        coeffs = out
    return QPolynomial(tuple(coeffs))


def symplectic_grassmannian_count(m, k, q):
    """Isotropic k-subspaces of a 2m-dimensional symplectic space."""
    total = gaussian_binomial(m, k, q)
    for i in range(m - k + 1, m + 1):
        total *= q**i + 1
    return total


def odd_orthogonal_grassmannian_count(m, k, q):
    """Isotropic k-subspaces of a (2m+1)-dimensional split orthogonal space."""
    total = gaussian_binomial(m, k, q)
    for i in range(m - k + 1, m + 1):
        total *= q**i + 1
    return total


def even_orthogonal_grassmannian_count(m, k, q):
    """Isotropic k-subspaces (k <= m-1) of a split 2m-dimensional space."""
    total = gaussian_binomial(m, k, q)
    for i in range(m - k, m):
        total *= q**i + 1
    return total


def lagrangian_component_count(m, q):
    """Lagrangians of a split 2m-dimensional space, one component."""
    total = 1
    for i in range(1, m):
        total *= q**i + 1
    return total


# ---------------------------------------------------------------------------
# Raw vector loops over F_2 (independent of any echelon machinery).


def count_incident_line_hyperplane_f2(n):
    """Pairs (line, hyperplane) with the line inside the hyperplane, in F_2^n."""
    vectors = [v for v in itertools.product((0, 1), repeat=n) if any(v)]
    total = 0
    for v in vectors:  # each nonzero vector is its own line over F_2
        for f in vectors:  # each nonzero functional cuts out a hyperplane
            if sum(a * b for a, b in zip(v, f)) % 2 == 0:
                total += 1
    return total


def count_lines_f2(n):
    return sum(1 for v in itertools.product((0, 1), repeat=n) if any(v))


# ---------------------------------------------------------------------------
# Coxeter lengths by breadth-first search over generator words.


def _apply_right(w, gen):
    w = list(w)
    kind, i = gen
    if kind == "swap":
        w[i], w[i + 1] = w[i + 1], w[i]
    elif kind == "flip":
        w[i] = -w[i]
    else:  # flip-and-swap of the last two positions
        w[-2], w[-1] = -w[-1], -w[-2]
    return tuple(w)


def bfs_lengths(kind, m):
    """Exact word lengths for W(A_{m-1}) on 1..m, W(B_m)=W(C_m), or W(D_m)."""
    gens = [("swap", i) for i in range(m - 1)]
    if kind == "BC":
        gens.append(("flip", m - 1))
    elif kind == "D":
        gens.append(("ds", None))
    identity = tuple(range(1, m + 1))
    lengths = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = _apply_right(w, g)
                if u not in lengths:
                    lengths[u] = lengths[w] + 1
                    nxt.append(u)
        frontier = nxt
    return lengths


# ---------------------------------------------------------------------------
# Poincare polynomials by Weyl group enumeration.
#
# Signed permutations act on positions 1..m with the special generator at the
# last position (sign flip at m for types B/C, flip-and-swap of the last two
# positions for type D).  A type D variety with a Lagrangian member is the
# component of the span of the first m coordinates, so its group is D_m.


def inversions(w) -> int:
    n = len(w)
    total = 0
    for i in range(n):
        wi = w[i]
        for j in range(i + 1, n):
            if wi > w[j]:
                total += 1
    return total


def signed_root_flips(w):
    """Counts of flipped roots e_i - e_j and e_i + e_j (i < j)."""
    a = b = 0
    n = len(w)
    for i in range(n):
        wi = w[i]
        for j in range(i + 1, n):
            wj = w[j]
            if wi < 0:
                if wj > 0:
                    a += 1
                    if wi + wj > 0:
                        b += 1
                else:
                    if wi > wj:
                        a += 1
                    b += 1
            else:
                if wj > 0:
                    if wi > wj:
                        a += 1
                else:
                    if wi + wj > 0:
                        b += 1
    return a, b


def length(w, kind) -> int:
    if kind == "A":
        return inversions(w)
    a, b = signed_root_flips(w)
    if kind == "D":
        return a + b
    return a + b + sum(1 for x in w if x < 0)


def adjacent_descent(wi, wj) -> bool:
    """Right descent at the swap of two adjacent positions with images wi, wj."""
    if wi < 0 < wj:
        return True
    if (wi < 0) == (wj < 0):
        return wi > wj
    return False


def is_minimal_rep(w, kind, adjacent, special) -> bool:
    for i in adjacent:  # 0-based position: generator swaps i, i+1
        if adjacent_descent(w[i], w[i + 1]):
            return False
    if special:
        if kind == "BC":
            if w[-1] < 0:
                return False
        else:  # D: root e_{m-1} + e_m
            a, b = w[-2], w[-1]
            if a < 0 and b < 0:
                return False
            if (a < 0) != (b < 0) and a + b > 0:
                return False
    return True


def weyl_elements(kind, m):
    if kind == "A":
        yield from itertools.permutations(range(1, m + 1))
        return
    for perm in itertools.permutations(range(1, m + 1)):
        for signs in itertools.product((1, -1), repeat=m):
            if kind == "D" and signs.count(-1) % 2 == 1:
                continue
            yield tuple(s * p for s, p in zip(signs, perm))


def parabolic_data(v):
    """(kind, m, adjacent generators kept, keep-special) for the stabilizer."""
    t, n, dims = v.lie_type, v.ambient_dim, v.dims
    if t == "A":
        adjacent = tuple(i - 1 for i in range(1, n) if i not in dims)
        return "A", n, adjacent, False
    m = n // 2
    adjacent = tuple(i - 1 for i in range(1, m) if i not in dims)
    if t == "D":
        special = max(dims) <= m - 2
        return "D", m, adjacent, special
    special = m not in dims
    return "BC", m, adjacent, special


def coset_poincare(v):
    """Sum of q^length over the minimal coset representatives of the parabolic."""
    kind, m, adjacent, special = parabolic_data(v)
    coeffs = {}
    for w in weyl_elements(kind, m):
        if is_minimal_rep(w, kind, adjacent, special):
            l = length(w, kind)
            coeffs[l] = coeffs.get(l, 0) + 1
    return poly_from_degrees(coeffs)


# ---------------------------------------------------------------------------
# Weighted-order comparison by block matching (independent of the rewriter).


def front_blocks(x, k):
    """First k block sizes, or None when the order has no k-th block from the
    left (an omegastar gives unreachable leading blocks)."""
    out = []
    for atom in x.atoms:
        if isinstance(atom, OmegaStar):
            return None if len(out) < k else out[:k]
        if isinstance(atom, Seq):
            out.extend(atom.sizes)
        else:
            while len(out) < k:
                out.append(atom.size)
            return out[:k]
        if len(out) >= k:
            return out[:k]
    return out[:k] if len(out) >= k else None


def tail_kind(x):
    """The final atom's shape: ('seq', last size), ('omega', d), ('omegastar', d)."""
    atom = x.atoms[-1]
    if isinstance(atom, Seq):
        return ("seq", atom.sizes[-1])
    if isinstance(atom, Omega):
        return ("omega", atom.size)
    return ("omegastar", atom.size)


def omega_shaped_iso(a, b, window=60):
    """Isomorphism test for orders that are a finite prefix plus one omega
    tail: the weight sequences must agree pointwise, checked on a window plus
    the tail type."""
    assert all(isinstance(t, (Seq, Omega)) for t in a.atoms + b.atoms)
    assert isinstance(a.atoms[-1], Omega) and isinstance(b.atoms[-1], Omega)
    for k in range(1, window + 1):
        if front_blocks(a, k) != front_blocks(b, k):
            return False
    return tail_kind(a) == tail_kind(b)


# ---------------------------------------------------------------------------
# Order normal forms from the rewrite specification, one step at a time.


def normalize_by_rewriting(x):
    """Normal form as the fixed point of ``rewrite_step``, one step at a time."""
    while True:
        step = rewrite_step(x)
        if step is None:
            return x
        x = step[0]


# ---------------------------------------------------------------------------
# Order text from a scanner that reads one character at a time, and the atom
# checks of the public constructors, re-run on a built order.


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
        try:
            value = int(w)
        except ValueError:  # beyond sys.get_int_max_str_digits()
            tok.error(f"block size has too many digits ({len(w)})")
        if value >= 1:
            return value
    tok.error(f"bad block size {w!r}")


def parse_order_by_scanning(text: str) -> WeightedOrder:
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


def _is_size(value):
    return value is INF or (type(value) is int and value >= 1)


def check_atoms(x):
    """Raise AssertionError unless every field of x would pass the checks of
    the public constructors: a tuple of atoms, each seq a nonempty tuple of
    sizes, each omega-type atom a size."""
    assert type(x) is WeightedOrder and type(x.atoms) is tuple, x
    for a in x.atoms:
        if type(a) is Seq:
            assert type(a.sizes) is tuple and a.sizes, a
            assert all(_is_size(s) for s in a.sizes), a
        else:
            assert type(a) in (Omega, OmegaStar) and _is_size(a.size), a


# ---------------------------------------------------------------------------
# Grassmannian verdicts from dimension data, without comparing whole chains.


def _gr_dims(order):
    """(dim F, codim F) for a one-cut general chain, from its normal form."""
    norm = normalize(order)
    blocks = [s for atom in norm.atoms for s in atom.sizes]
    if len(blocks) != 2:
        raise ValidationError("descriptor does not have exactly one proper member")
    return blocks[0], blocks[1]


def decide_ind_grassmannian(x: FlagDescriptor, y: FlagDescriptor) -> DecisionResult:
    """Decision for one-member descriptors, phrased purely in dimension data.

    A deliberately independent route: instead of normal-form comparison of
    whole chains it compares (dim F, codim F) for general descriptors and
    (dim F, middle quotient) for isotropic ones.
    """
    require_valid(x)
    require_valid(y)
    for d in (x, y):
        if pic_rank(d) != 1:
            raise ValidationError("decide_ind_grassmannian needs descriptors with one proper member")

    if x.form is y.form is FormType.GENERAL:
        a1, b1 = _gr_dims(x.order)
        a2, b2 = _gr_dims(y.order)
        if (a1, b1) == (a2, b2):
            return _yes(Reason.FLAG_ISO, "equal member dimension and codimension")
        if (a1, b1) == (b2, a2):
            return _yes(Reason.DUAL_FLAG_ISO, "member dimensions swap with codimensions")
        return _no("grassmannian dimension data differ")

    if x.form is y.form:
        # The half of a one-member isotropic descriptor is a single block.
        a1 = (normalize(x.half).atoms[0]).sizes[0]
        a2 = (normalize(y.half).atoms[0]).sizes[0]
        m1, m2 = x.middle, y.middle
        if a1 == a2 and m1 == m2:
            return _yes(Reason.FLAG_ISO, "equal isotropic member dimension and middle quotient")
        if x.form is FormType.ORTHOGONAL and {m1, m2} == {0, 1}:
            return _yes(
                Reason.EXCEPTIONAL_BD,
                "maximal orthogonal grassmannians: middle quotient of "
                "dimension one versus a self-perp member",
            )
        return _no("isotropic grassmannian data differ")

    forms = {x.form, y.form}
    if forms == {FormType.GENERAL, FormType.SYMPLECTIC}:
        gen, symp = (x, y) if x.form is FormType.GENERAL else (y, x)
        a, b = _gr_dims(gen.order)
        g = (normalize(symp.half).atoms[0]).sizes[0]
        if g == 1 and (a == 1 or b == 1):
            return _yes(
                Reason.EXCEPTIONAL_PROJ_SYMP,
                "projective ind-space and the symplectic line ind-grassmannian",
            )
        return _no("general and symplectic grassmannians match no exceptional pair")

    return _no("orthogonal grassmannians are never isomorphic to the other types")


# ---------------------------------------------------------------------------
# Finite verdicts from Cartan matrices.  After the two Onishchik reductions
# (C_m/P_1 = A_{2m-1}/P_1 and B_m/P_m = D_{m+1}/P_{m+1}), two flag varieties
# are isomorphic exactly when some bijection of the simple roots preserves the
# Cartan matrices and carries one set of marked nodes onto the other.  The
# search knows no isogeny or diagram automorphism: D_3 = A_3, B_2 = C_2 and
# the triality of D_4 come out of it by themselves.


def simple_roots(lie_type, rank):
    """The simple roots of the split group, in the standard coordinates
    e_1, ..., e_{rank+1} (type A) or e_1, ..., e_rank."""
    size = rank + 1 if lie_type == "A" else rank
    roots = []
    for i in range(rank if lie_type == "A" else rank - 1):
        root = [0] * size
        root[i], root[i + 1] = 1, -1  # e_i - e_{i+1}
        roots.append(root)
    if lie_type != "A":
        root = [0] * size
        if lie_type == "B":
            root[-1] = 1  # e_m
        elif lie_type == "C":
            root[-1] = 2  # 2 e_m
        else:
            root[-2] = root[-1] = 1  # e_{m-1} + e_m
        roots.append(root)
    return roots


def cartan_matrix(roots):
    """Entries 2 (a_i, a_j) / (a_j, a_j)."""

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    return tuple(tuple(2 * dot(a, b) // dot(b, b) for b in roots) for a in roots)


def marked_cartan(v):
    """(Cartan matrix, marked nodes counted from 0) after the reductions."""
    t, dims = v.lie_type, frozenset(v.dims)
    rank = v.ambient_dim - 1 if t == "A" else v.ambient_dim // 2
    if t == "C" and dims == {1}:
        t, rank = "A", 2 * rank - 1
    elif t == "B" and dims == {rank}:
        t, rank, dims = "D", rank + 1, {rank + 1}
    return cartan_matrix(simple_roots(t, rank)), frozenset(k - 1 for k in dims)


def marked_cartan_isomorphic(a, b):
    """Whether a node bijection maps Cartan matrix onto Cartan matrix and
    marked set onto marked set, found by backtracking one node at a time."""
    (ca, ma), (cb, mb) = a, b
    if len(ca) != len(cb) or len(ma) != len(mb):
        return False
    image = []

    def extend():
        i = len(image)
        if i == len(ca):
            return True
        for j in range(len(cb)):
            if j in image or (i in ma) != (j in mb):
                continue
            pairs = list(enumerate(image)) + [(i, j)]
            if all(ca[i][k] == cb[j][l] and ca[k][i] == cb[l][j] for k, l in pairs):
                image.append(j)
                if extend():
                    return True
                image.pop()
        return False

    return extend()


def decide_finite_by_rules(x, y) -> DecisionResult:
    """The hand-written rule chain that the marked-diagram key replaced: the
    reference for the reason and detail of every pair it finds isomorphic.
    It misses the Klein correspondence and triality.  Inputs must be valid
    varieties above the thresholds."""
    cx, cy = FORM_OF_LIE_TYPE[x.lie_type], FORM_OF_LIE_TYPE[y.lie_type]

    if cx is cy and x.ambient_dim == y.ambient_dim and x.dims == y.dims:
        return _yes(Reason.SAME_DIMS, "same type class and dimension sequence")

    if cx is cy is FormType.GENERAL and x.ambient_dim == y.ambient_dim:
        n = x.ambient_dim
        if len(x.dims) == len(y.dims) and all(
            a == n - b for a, b in zip(x.dims, reversed(y.dims))
        ):
            return _yes(
                Reason.COMPLEMENT_DIMS,
                "complementary dimension sequences in equal ambient dimension",
            )

    if {cx, cy} == {FormType.GENERAL, FormType.SYMPLECTIC}:
        gen, symp = (x, y) if cx is FormType.GENERAL else (y, x)
        n = gen.ambient_dim
        if (
            n == symp.ambient_dim
            and symp.dims == (1,)
            and gen.dims in ((1,), (n - 1,))
        ):
            return _yes(
                Reason.EXCEPTIONAL_PROJ_SYMP,
                "projective space of an even-dimensional space and its "
                "symplectic line grassmannian",
            )

    if cx is cy is FormType.ORTHOGONAL and {x.lie_type, y.lie_type} == {"B", "D"}:
        b, d = (x, y) if x.lie_type == "B" else (y, x)
        n = d.ambient_dim // 2
        if (
            b.ambient_dim == 2 * n - 1
            and b.dims == (n - 1,)
            and d.dims == (n,)
        ):
            return _yes(
                Reason.EXCEPTIONAL_BD,
                "maximal orthogonal grassmannians in ambient dimensions "
                f"{2 * n - 1} and {2 * n}",
            )

    return _no("no classification rule matches the pair")


def decide_ind_by_branches(x: FlagDescriptor, y: FlagDescriptor) -> DecisionResult:
    """The hand-written branches per pair of forms that the chain key of
    ``decide_ind`` replaced: the reference for every verdict, reason and
    detail."""
    require_valid(x)
    require_valid(y)

    if x.form is y.form is FormType.GENERAL:
        nx, ny = normalize(x.order), normalize(y.order)
        if nx == ny:
            return _yes(Reason.FLAG_ISO, "chains isomorphic as weighted orders")
        # normalize commutes with reverse
        if nx == reverse(ny):
            return _yes(Reason.DUAL_FLAG_ISO, "one chain isomorphic to the dual of the other")
        return _no("neither chain isomorphism nor dual chain isomorphism holds")

    if x.form is y.form:
        if is_isomorphic(x.half, y.half) and x.middle == y.middle:
            return _yes(
                Reason.FLAG_ISO,
                "isotropic halves isomorphic with equal middle quotients",
            )
        if x.form is FormType.ORTHOGONAL:
            halves_max = all(
                normalize(d.half) == seq(INF) for d in (x, y)
            )
            if halves_max and {x.middle, y.middle} == {0, 1}:
                return _yes(
                    Reason.EXCEPTIONAL_BD,
                    "maximal orthogonal grassmannians: middle quotient of "
                    "dimension one versus a self-perp member",
                )
        return _no("isotropic chains are not isomorphic")

    forms = {x.form, y.form}
    if forms == {FormType.GENERAL, FormType.SYMPLECTIC}:
        gen, symp = (x, y) if x.form is FormType.GENERAL else (y, x)
        symp_is_line_gr = normalize(symp.half) == seq(1) and symp.middle is INF
        gen_norm = normalize(gen.order)
        gen_is_proj = gen_norm in (seq(1, INF), seq(INF, 1))
        if symp_is_line_gr and gen_is_proj:
            return _yes(
                Reason.EXCEPTIONAL_PROJ_SYMP,
                "projective ind-space and the symplectic line ind-grassmannian",
            )
        return _no("general and symplectic descriptors match no exceptional pair")

    return _no("orthogonal descriptors are never isomorphic to the other types")


# ---------------------------------------------------------------------------
# Exact linear algebra by Gauss-Jordan elimination on field elements: every
# step is a Fraction (or reduced F_p) operation, with no cleared denominators.


def mat_mul_by_fractions(a, b, field):
    if not a:
        return ()
    bt = transpose(b)
    return tuple(tuple(_dot_row(row, col, field) for col in bt) for row in a)


def _dot_row(u, v, field):
    # Most left entries are zero, so skip them; the zero() start keeps QQ
    # entries Fraction when every term is skipped.
    return field.reduce(sum((x * y for x, y in zip(u, v) if x), field.zero()))


def rref_by_fractions(a, field):
    """(reduced row echelon form with zero rows dropped, pivot columns)."""
    mat_ = [list(row) for row in a]
    if not mat_:
        return (), ()
    ncols = len(mat_[0])
    pivots = []
    r = 0
    zero = field.zero()
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat_)) if mat_[i][c] != zero), None)
        if pivot_row is None:
            continue
        mat_[r], mat_[pivot_row] = mat_[pivot_row], mat_[r]
        inv = field.inv(mat_[r][c])
        mat_[r] = [field.reduce(inv * x) for x in mat_[r]]
        for i in range(len(mat_)):
            if i != r and mat_[i][c] != zero:
                f = mat_[i][c]
                mat_[i] = [field.reduce(x - f * y) for x, y in zip(mat_[i], mat_[r])]
        pivots.append(c)
        r += 1
        if r == len(mat_):
            break
    return tuple(tuple(row) for row in mat_[:r]), tuple(pivots)


def inverse_by_fractions(a, field):
    """The right block of the reduced [a | I]; ValidationError when a is
    not square or is singular."""
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValidationError(f"cannot invert {n} rows: a row has length {len(row)}, not {n}")
    unit = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
    reduced, pivots = rref_by_fractions([[*row, *e] for row, e in zip(a, unit)], field)
    if pivots != tuple(range(n)):
        raise ValidationError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def nullspace_by_fractions(a, field, ncols):
    """The reduced basis of { x : a . x^T = 0 }: for each free column of the
    reduced form, x is 1 there and minus that column's entry of each row at
    the row's pivot."""
    reduced, pivots = rref_by_fractions(a, field)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [field.zero()] * ncols
            vec[fc] = field.one()
            for row, pc in zip(reduced, pivots):
                vec[pc] = field.reduce(-row[fc])
            basis.append(vec)
    return rref_by_fractions(basis, field)[0]


def solve_left_by_fractions(m, b, field):
    """X with X . m = b whose free unknowns are 0, or None: column c of b is
    X times column c of m, so each column is one equation in the entries of
    a row of X, reduced in [m^T | b^T]."""
    if not b:
        return ()
    k = len(m)
    ncols = len(b[0])
    aug = [[row[c] for row in m] + [brow[c] for brow in b] for c in range(ncols)]
    reduced, pivots = rref_by_fractions(aug, field)
    if any(p >= k for p in pivots):
        return None
    x = [[field.zero()] * k for _ in b]
    for row, p in zip(reduced, pivots):
        for j in range(len(b)):
            x[j][p] = row[k + j]
    return tuple(tuple(row) for row in x)


def in_rowspace(v, canonical, field):
    """Membership test against a canonical (rref) basis, by eliminating v
    with each basis row in turn."""
    v = list(v)
    zero = field.zero()
    for row in canonical:
        c = next(i for i, x in enumerate(row) if x != zero)
        if v[c] != zero:
            f = v[c]
            v = [field.reduce(x - f * y) for x, y in zip(v, row)]
    return all(x == zero for x in v)


def rowspace_contains_by_elimination(a, b, field):
    """Whether rowspace(b) is contained in rowspace(a), row by row."""
    canon = rref_by_fractions(a, field)[0]
    return all(in_rowspace(r, canon, field) for r in b)


def rowspace_contains_by_rank(a, b, field):
    """Whether rowspace(b) is contained in rowspace(a): adding b's rows does
    not raise the rank (the kernel's rank, not its containment test)."""
    return rank(stack(a, b), field) == rank(a, field)


def intersect_rowspaces(a, b, field, ncols):
    """Canonical basis of rowspace(a) ∩ rowspace(b): the annihilator of the
    two annihilators."""
    ann_a = la.nullspace(a, field, ncols)
    ann_b = la.nullspace(b, field, ncols)
    return la.nullspace(stack(ann_a, ann_b), field, ncols)


def sqrt_by_scan(a, p):
    """The first x in 0..p-1 with x^2 = a mod p, or None."""
    a %= p
    return next((x for x in range(p) if x * x % p == a), None)


# ---------------------------------------------------------------------------
# Subspaces of F_p^n in reduced echelon form: one product over the free
# entries of every row at once, with no pruning.


def enumerate_subspaces_by_product(n, d, field):
    """All d-dimensional subspaces of field^n (prime fields only), as rrefs."""
    if not isinstance(field, PrimeField):
        raise ValidationError("subspace enumeration needs a finite field")
    q = field.p
    for pivots in itertools.combinations(range(n), d):
        free = [
            (i, c)
            for i in range(d)
            for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        base = [[0] * n for _ in range(d)]
        for i, c in enumerate(pivots):
            base[i][c] = 1
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, c), val in zip(free, values):
                rows[i][c] = val
            yield tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# The odd/even orthogonal pair: split forms built per kind, total singularity
# from the whole Gram matrix, every (n-1)-subspace of the odd hyperplane
# filtered after enumeration, and sampling that starts over from no rows
# after 200 draws.


def split_symmetric_form(n_ambient, field):
    one, zero = field.one(), field.zero()
    return tuple(
        tuple(one if i + j == n_ambient - 1 else zero for j in range(n_ambient))
        for i in range(n_ambient)
    )


def split_antisymmetric_form(n_ambient, field):
    one, zero = field.one(), field.zero()
    minus = field.reduce(-one)
    m = n_ambient // 2
    return tuple(
        tuple(
            (one if i < m else minus) if i + j == n_ambient - 1 else zero
            for j in range(n_ambient)
        )
        for i in range(n_ambient)
    )


def split_form_by_kind(lie_type, n_ambient, field):
    if lie_type == "C":
        return split_antisymmetric_form(n_ambient, field)
    return split_symmetric_form(n_ambient, field)


def split_quadratic_by_formula(vec, field):
    """Q(x) = sum x_i x_(pair of i) over the lower half, plus x_mid^2 / 2 at
    odd length."""
    n = len(vec)
    total = sum((vec[i] * vec[n - 1 - i] for i in range(n // 2)), field.zero())
    if n % 2:
        total += field.inv(field.of(2)) * vec[n // 2] * vec[n // 2]
    return field.reduce(total)


def bilinear_by_form(rows_a, form, rows_b, field):
    """The form between each row of ``rows_a`` and each of ``rows_b``, by two
    products with the plain matrix."""
    if not rows_b:
        return tuple(() for _ in rows_a)
    return la.mat_mul(la.mat_mul(rows_a, form, field), la.transpose(rows_b), field)


def is_isotropic_by_form(rows, form, field):
    return not any(map(any, bilinear_by_form(rows, form, rows, field)))


def perp_by_form(rows, form, field):
    n = len(form)
    return la.nullspace(la.mat_mul(la.mat(rows, field), la.mat(form, field), field), field, n)


def is_totally_singular_by_form(rows, field):
    n = len(rows[0]) if rows else 0
    form = split_symmetric_form(n, field)
    if not is_isotropic_by_form(rows, form, field):
        return False
    zero = field.zero()
    return all(split_quadratic_by_formula(r, field) == zero for r in rows)


def isotropic_keep_by_terms(lie_type, n_ambient, field):
    """The keep of a split form value, with the new row's polar terms built
    from the plain form's entries, and Q of the row, on every call."""
    form = split_form_by_kind(lie_type, n_ambient, field)
    entries = [(i, j, g) for i, row in enumerate(form) for j, g in enumerate(row) if g]
    singular = lie_type != "C"

    def keep(row, rows):
        if singular and split_quadratic_by_formula(row, field):
            return False
        # the form between row and u is the sum of row_i g_ij u_j
        terms = [(j, g * row[i]) for i, j, g in entries if row[i]]
        return not any(field.reduce(sum(c * u[j] for j, c in terms)) for u in rows)

    return keep


def enumerate_bd_sources_by_filtering(n, field):
    w_rows = W.bd_hyperplane_basis(n, field)
    form = W.split_form("D", 2 * n, field)
    for coeffs in la.enumerate_subspaces(2 * n - 1, n - 1, field):
        rows = la.rowspace(la.mat_mul(coeffs, w_rows, field), field)
        if is_totally_singular_by_form(rows, field):
            yield W.flag_point(field, 2 * n, [rows], form=form)


def random_bd_source_with_retries(rng, n, field):
    w_rows = la.rowspace(W.bd_hyperplane_basis(n, field), field)
    form = split_symmetric_form(2 * n, field)
    zero = field.zero()
    while True:
        rows = []
        for _ in range(200):
            if len(rows) == n - 1:
                break
            if rows:
                pool = intersect_rowspaces(
                    w_rows, perp_by_form(tuple(rows), form, field), field, 2 * n
                )
            else:
                pool = w_rows
            coeffs = [field.of(rng.randrange(field.p)) for _ in pool]
            vec = la.mat_mul((coeffs,), pool, field)[0]
            if split_quadratic_by_formula(vec, field) != zero:
                continue
            cand = la.rowspace(la.stack(tuple(rows), (vec,)), field)
            if len(cand) != len(rows) + 1:
                continue
            if not is_totally_singular_by_form(cand, field):
                continue
            rows = list(cand)
        if len(rows) == n - 1:
            return W.flag_point(field, 2 * n, [tuple(rows)], form=W.split_form("D", 2 * n, field))


# ---------------------------------------------------------------------------
# The Lagrangian over an isotropic (n-1)-subspace M of the odd hyperplane, by
# the quadratic formula: the split quadratic restricted to perp(M)/M has two
# singular lines, each giving a Lagrangian over M, and the one in the
# reference component is kept.  Input checks are left to witness.bd_phi.


def _singular_lines_in_plane(u1, u2, field):
    """The isotropic lines of the split quadratic restricted to <u1, u2>."""
    a = split_quadratic_by_formula(u1, field)
    b = split_quadratic_by_formula(u2, field)
    usum = tuple(field.reduce(x + y) for x, y in zip(u1, u2))
    c = field.reduce(split_quadratic_by_formula(usum, field) - a - b)
    # Q(x u1 + y u2) = a x^2 + c xy + b y^2
    zero, one = field.zero(), field.one()
    lines = []
    if isinstance(field, PrimeField):
        candidates = [(one, field.of(t)) for t in range(field.p)] + [(zero, one)]
        for x, y in candidates:
            if field.reduce(a * x * x + b * y * y + c * x * y) == zero:
                lines.append((x, y))
        return lines
    if a == zero:
        lines.append((one, zero))
        # remaining: y (c x + b y) = 0 with y != 0
        if c != zero:
            lines.append((field.reduce(-b * field.inv(c)), one))
        elif b == zero:
            raise W.WitnessError("quadratic vanishes identically; form is degenerate here")
        return lines
    disc = field.reduce(c * c - 4 * a * b)
    root = field.sqrt(disc)
    if root is None:
        raise W.WitnessError("the middle quadric does not split over the field")
    for sgn in (root, field.reduce(-root)):
        x = field.reduce((sgn - c) * field.inv(2 * a))
        lines.append((x, one))
    return list(dict.fromkeys(lines))


def bd_phi_by_quadratic(n, m_point):
    field = m_point.field
    N = 2 * n
    m_rows = m_point.subspaces[0]
    form = split_symmetric_form(N, field)
    perp_m = perp_by_form(m_rows, form, field)
    # two independent directions of perp(M) modulo M: the rows of perp(M)
    # that raise the rank of the span
    span = m_rows
    quotient = []
    for row in perp_m:
        grown = la.stack(span, (row,))
        if la.rank(grown, field) > len(span):
            quotient.append(row)
            span = grown
        if len(quotient) == 2:
            break
    if len(quotient) != 2:
        raise W.WitnessError("internal error: perp/M is not two-dimensional")
    u1, u2 = quotient
    candidates = []
    for x, y in _singular_lines_in_plane(u1, u2, field):
        vec = la.mat_mul(((x, y),), (u1, u2), field)[0]
        rows = la.rowspace(la.stack(m_rows, (vec,)), field)
        if len(rows) == n and is_totally_singular_by_form(rows, field):
            candidates.append(rows)
    candidates = list(dict.fromkeys(candidates))
    if len(candidates) != 2:
        raise W.WitnessError(
            f"expected exactly two Lagrangians over the subspace, found {len(candidates)}"
        )
    chosen = [c for c in candidates if W.in_reference_component(c, n, field)]
    if len(chosen) != 1:
        raise W.WitnessError("the two Lagrangians do not split between the components")
    return W.flag_point(field, N, [chosen[0]], form=W.split_form("D", N, field))


# ---------------------------------------------------------------------------
# Rebasing by a greedy search: the matching that the signature grouping of
# ``rebase_automorphism`` replaced, kept as the reference for every
# automorphism and every error message.


def rebase_automorphism_by_greedy(chain, basis_e, basis_e2, form=None):
    """Each E vector, in (gap, index) order, takes the first untaken E' vector
    of its gap class whose partner lies in the same gap class as its own
    partner; a partner is then forced, with the scalar that fixes the
    pairing value."""
    if isinstance(chain, W.FiniteFlagPoint):
        field = chain.field
        members = list(chain.subspaces)
        if form is None:
            form = chain.form
        n = chain.ambient_dim
    else:
        raise W.WitnessError("chain must be a FiniteFlagPoint")
    E = la.mat(basis_e, field)
    E2 = la.mat(basis_e2, field)
    if la.rank(E, field) != n or la.rank(E2, field) != n:
        raise W.WitnessError("bases must be invertible matrices")

    value = None
    if form is not None:
        value = W._as_form(form, field, n)
        form = la.mat(form, field)
        members = W._closed_chain(members, value, field, n)
    gaps_e = W._gap_classes(members, E, field, "E")
    gaps_e2 = W._gap_classes(members, E2, field, "E'")

    assigned = [None] * n  # E-index -> (E2-index, scalar)
    taken = [False] * n

    def class_indices(gaps, g):
        return [i for i, gi in enumerate(gaps) if gi == g]

    if form is None:
        for g in sorted(set(gaps_e)):
            src = class_indices(gaps_e, g)
            dst = class_indices(gaps_e2, g)
            if len(src) != len(dst):
                raise W.WitnessError(W._UNMATCHED)
            one = field.one()
            for i, j in zip(src, dst):
                assigned[i] = (j, one)
    else:
        part_e = W._basis_involution(E, value)[0]
        part_e2 = W._basis_involution(E2, value)[0]
        vals_e = bilinear_by_form(E, form, E, field)
        vals_e2 = bilinear_by_form(E2, form, E2, field)
        for g in sorted(set(gaps_e)):
            for i in class_indices(gaps_e, g):
                if assigned[i] is not None:
                    continue
                fixed = part_e[i] == i
                same_class = gaps_e[part_e[i]] == g
                candidates = [
                    j
                    for j in class_indices(gaps_e2, g)
                    if not taken[j]
                    and (part_e2[j] == j) == fixed
                    and (not fixed or not same_class or gaps_e2[part_e2[j]] == g)
                ]
                if fixed:
                    if not candidates:
                        raise W.WitnessError(
                            f"gap class {g}: no unmatched self-paired vector in E'"
                        )
                    j = candidates[0]
                    ratio = field.reduce(vals_e[i][i] * field.inv(vals_e2[j][j]))
                    s = field.sqrt(ratio)
                    if s is None:
                        raise W.WitnessError(W._UNMATCHED)
                    assigned[i] = (j, s)
                    taken[j] = True
                    continue
                candidates = [
                    j for j in candidates if gaps_e2[part_e2[j]] == gaps_e[part_e[i]]
                ]
                if not candidates:
                    raise W.WitnessError(f"gap class {g}: no matching vector left in E'")
                j = candidates[0]
                assigned[i] = (j, field.one())
                taken[j] = True
                # the partner is forced, with the scalar fixing the pairing value
                scalar = field.reduce(
                    vals_e[i][part_e[i]] * field.inv(vals_e2[j][part_e2[j]])
                )
                assigned[part_e[i]] = (part_e2[j], scalar)
                taken[part_e2[j]] = True

    rows = []
    for i in range(n):
        j, s = assigned[i]
        rows.append(tuple(field.reduce(s * x) for x in E2[j]))
    alpha = la.mat_mul(la.inverse(E, field), tuple(rows), field)

    W._verify_rebase(alpha, members, E, E2, value, field, n)
    return alpha


# ---------------------------------------------------------------------------
# The triangle's adjusted beta and the data of the duality conjugate as they
# were first built, from the projection onto the source (the first v columns
# of the inverse of [alpha; complement]) and from null spaces, in Fraction
# (or F_p) arithmetic.


def triangle_beta_by_correction(phi, psi, chi):
    """(s, beta) of the triangle check's adjustment, or None when gamma is
    not s (alpha . psi.alpha) modulo M_{i0} for a nonzero s: beta is s
    psi.alpha plus the correction gamma - s (alpha . psi.alpha) carried
    back through the projection onto phi's source.  beta need not be
    injective."""
    field = phi.field
    ab = mat_mul_by_fractions(phi.alpha, psi.alpha, field)
    gamma = chi.alpha
    i0 = next(i for i, c in enumerate(chi.kappa) if c != 0)
    coeffs = solve_left_by_fractions(ab + tuple(chi.filtration[i0]), gamma, field)
    if coeffs is None:
        return None
    v = len(gamma)
    s = coeffs[0][0]
    zero = field.zero()
    want = [tuple(s if j == i else zero for j in range(v)) for i in range(v)]
    if s == zero or any(row[:v] != w for row, w in zip(coeffs, want)):
        return None
    correction = [
        [field.reduce(g - s * x) for g, x in zip(grow, arow)] for grow, arow in zip(gamma, ab)
    ]
    inv = inverse_by_fractions(tuple(phi.alpha) + tuple(phi.complement), field)
    moved = mat_mul_by_fractions([row[:v] for row in inv], correction, field)
    beta = tuple(
        tuple(field.reduce(s * x + y) for x, y in zip(prow, mrow))
        for prow, mrow in zip(psi.alpha, moved)
    )
    return s, beta


def dual_data_by_nullspace(d):
    """(alpha, complement, filtration) of the duality conjugate of ``d``:
    alpha the transpose of the projection onto the source, the complement
    the null space of alpha, and slot j of the filtration the null space of
    [alpha; K_(m+1-j)]."""
    field = d.field
    v, w, m = d.source_dim, d.target_dim, d.slots
    inv = inverse_by_fractions(tuple(d.alpha) + tuple(d.complement), field)
    alpha = transpose([row[:v] for row in inv])
    complement = nullspace_by_fractions(d.alpha, field, w)
    filtration = tuple(
        nullspace_by_fractions(tuple(d.alpha) + tuple(d.filtration[m - j]), field, w)
        for j in range(1, m + 1)
    )
    return alpha, complement, filtration


# ---------------------------------------------------------------------------
# Standard extensions one member at a time: each slot, annihilator and
# composed filtration member reduced on its own from all of its spanning
# rows, as they were built before one elimination served each chain.


def apply_by_slots(d, p):
    """The image of ``p`` under ``d``: slot j the reduced form of
    alpha(F_kappa(j)) stacked with K_j, alpha applied to the whole member,
    and for modified data the null space of each slot, in reverse order."""
    field, w = d.field, d.target_dim
    slots = []
    for kj, c in zip(d.filtration, d.kappa):
        if c == 0:
            image = ()
        elif c == d.source_members + 1:
            image = d.alpha
        else:
            image = la.product(p.subspaces[c - 1], d.alpha, field)
        slots.append(la.rowspace(stack(image, kj), field))
    if d.strict:
        return W.flag_point(field, w, slots, form=d.target_form)
    return W.flag_point(field, w, [la.nullspace(s, field, w) for s in reversed(slots)])


def compose_parts_by_members(d1, d2):
    """(complement, filtration) of d1 followed by the strict data d2, each
    the reduced form of its spanning rows: d2.alpha of d1's complement with
    d2's complement, and d2.alpha of the inner member (nothing, a filtration
    member of d1 or its complement) with d2's filtration member."""
    field, l1 = d1.field, d1.slots
    complement = stack(la.product(d1.complement, d2.alpha, field), d2.complement)
    filtration = []
    for lj, c in zip(d2.filtration, d2.kappa):
        inner = () if c == 0 else d1.complement if c == l1 + 1 else d1.filtration[c - 1]
        filtration.append(la.rowspace(stack(la.product(inner, d2.alpha, field), lj), field))
    return la.rowspace(complement, field), filtration


def dual_filtration_by_members(d):
    """Slot j of the duality conjugate's filtration, the null space of
    [alpha; K_(m+1-j)], one null space per slot."""
    m, w = d.slots, d.target_dim
    return [la.nullspace(stack(d.alpha, d.filtration[m - j]), d.field, w) for j in range(1, m + 1)]
