"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: counts come
from closed-form products or raw vector loops, polynomial identities from the
Pascal-style recursion, Coxeter lengths from breadth-first word search,
Poincare polynomials from enumerating the Weyl group as signed permutations,
and order normal forms from iterating the single-step rewrite specification.
"""

import itertools
from functools import lru_cache

from flagiso.counting import QPolynomial
from flagiso.orders import INF, Omega, OmegaStar, Seq, rewrite_step


# ---------------------------------------------------------------------------
# q-binomials and product formulas.


@lru_cache(maxsize=None)
def gaussian_binomial_poly(n, k):
    """[n choose k]_q via the recursion [n k] = [n-1 k-1] + q^k [n-1 k]."""
    if k < 0 or k > n:
        return QPolynomial(())
    if k == 0 or k == n:
        return QPolynomial((1,))
    shifted = tuple([0] * k) + gaussian_binomial_poly(n - 1, k).coefficients
    return gaussian_binomial_poly(n - 1, k - 1) + QPolynomial(shifted)


def gaussian_binomial(n, k, q):
    return gaussian_binomial_poly(n, k)(q)


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
    return QPolynomial.from_dict(coeffs)


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
