"""Structural trichotomy: rank conditions, the small-bracket-closure
dichotomy, and the cocycle/derivation classes with their distinguished
subalgebra shapes.

All verdicts are decided over exact rational arithmetic. The rank
conditions rk5 and rk7 (Lemma 7) and the largest bracket closure dim L
(Lemma 6) are generic ranks of bracket words in k vectors, decided by a
bordered-minor walk on polynomials alone, in a bracket-word basis of the
algebra; the first seeded integer tuple that reaches the rank is only
its witness. So a False verdict is proven absence. The cocycle class is
decided the same way, on a bordered matrix of quadratic forms. Only the
standard library and numpy are imported.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import NilpotentAlgebra, Subspace
from .catalog import build
from .rational import identity, integer_nullspace, integer_row, integer_rref


class ClassificationError(ValueError):
    """Preconditions of a classification operation unmet."""


# ---------------------------------------------------------------------------
# generic rank of bracket words


# A word in the vectors X_0 .. X_(k-1) of a k-tuple is an index s for X_s,
# or a pair (u, v) of words for the bracket [u, v]. A condition is the rank
# of the k vectors followed by a list of words.
_RK5_WORDS = ((0, 1), (0, (0, 1)), (1, (0, 1)))
_RK7_WORDS = ((0, 1), (0, 2), (1, 2), (2, (0, 1)))
_DIML_WORDS = ((0, 1), (1, 2), (0, 2))


def _eval_words(bracket, xs: list, words) -> list:
    """The vectors xs followed by the value of each word at them."""
    def value(w):
        return (xs[w] if isinstance(w, int)
                else bracket(value(w[0]), value(w[1])))
    return list(xs) + [value(w) for w in words]


def _grid_points(k: int, n: int):
    """Seeded integer k-tuples from {-2..2}^(k n), the box growing by one
    every 8 points, so that a nonzero polynomial is eventually nonzero at
    one of them (Schwartz-Zippel), as lists of int."""
    rng = np.random.default_rng(0)
    for t in itertools.count():
        r = 2 + t // 8
        yield rng.integers(-r, r + 1, size=(k, n)).tolist()


def _generic_rank(a: NilpotentAlgebra, k: int,
                  words) -> tuple[int, list]:
    """(rank, tuple): the exact generic rank of the k vectors and their
    words, and the first seeded integer tuple of `_grid_points` that
    reaches it, a witness anyone can re-check.

    GL(2) on (X1, X2), X3 fixed, keeps the span of every condition
    (X12 -> det X12; [X_i, X12] -> det times a combination of X112 and
    X212; X13, X23 -> combinations of each other; X312 -> det X312), so
    the rank is reached at X_s = e_s + sum_{i>=2} y_(s,i) e_i, s = 0, 1,
    X3 free, where it is 2 + rank S over Q(y) (`_schur_complement`), which
    `_minor_rank` decides. The rank does not depend on the basis: the walk
    runs in the sparse `a.word_basis()`, the witness is drawn in a's. The
    points are tested with the integer bracket, which scales each word by
    a power of D and so keeps the rank; only the witness returned is made
    of Fractions.
    """
    cap = min(k + len(words), a.n)
    # k >= n vectors span g at a generic point
    generic = (cap if cap <= k else 2 + _minor_rank(
        _schur_complement(a.word_basis(), k, words), cap - 2))
    wit = next(xs for xs in _grid_points(k, a.n)
               if len(integer_rref(_eval_words(
                   a.integer_bracket, [integer_row(x)[0] for x in xs],
                   words))[0]) == generic)
    return generic, [[Fraction(v) for v in x] for x in wit]


def _minor_rank(mat: list[list[dict]], cap: int) -> int:
    """min(cap, generic rank) of a matrix of polynomials: a walk up from
    the empty minor, each step to a nonzero minor one size larger that
    borders the last. When all the bordering minors vanish, so does every
    larger minor (the bordering theorem, Gantmacher)."""
    rows, cols = [], []
    while len(rows) < cap:
        border = next(((i, j) for i in range(len(mat)) if i not in rows
                       for j in range(len(mat[i])) if j not in cols
                       if _poly_det([[mat[r][c] for c in cols + [j]]
                                     for r in rows + [i]])), None)
        if border is None:
            break
        rows.append(border[0])
        cols.append(border[1])
    return len(rows)


# sparse integer polynomials: {monomial: coefficient}, the monomial
# prod_v y_v^(d_v) packed as the integer sum_v d_v 16^v, so that a product
# of monomials is a sum. No degree reaches 16: in a row of the Schur
# complement a variable of X1 or X2 has degree at most one more than in
# its word, so at most 2 + 3 + 2 = 7 in a minor of rk5, 8 in one of rk7
# (X3 1, X12 2, X13 and X23 2 + 1, X312 2) and 6 of dim L, and one of X3
# at most 1 per row; in the bordered cocycle matrix an entry has degree
# at most 2, a minor of at most three rows at most 5.

def _poly_add(p: dict, q: dict, factor: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + factor * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _poly_det(rows: list[list[dict]]) -> dict:
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    out: dict = {}
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            out = _poly_add(out, _poly_mul(entry, _poly_det(minor)),
                            (-1) ** j)
    return out


def _poly_bracket(a: NilpotentAlgebra, x: list[dict],
                  y: list[dict]) -> list[dict]:
    """D [x, y] for vectors of polynomials, summed over the integer
    constants of `a.integer_constants()`, D their common denominator."""
    out: list[dict] = [{} for _ in range(a.n)]
    for (i, j), comps in a.integer_constants()[0].items():
        coef = _poly_add(_poly_mul(x[i], y[j]), _poly_mul(x[j], y[i]), -1)
        for k, c in comps:
            out[k] = _poly_add(out[k], coef, c)
    return out


def _schur_complement(a: NilpotentAlgebra, k: int,
                      words) -> list[list[dict]]:
    """S = B - C Y for X_s = e_s + sum_{i>=2} y_(s,i) e_i, s = 0, 1, and
    X_2 = sum_i y_(2,i) e_i if k = 3, y_(s,i) the variable s (n-2) + i - 2
    (s < 2) or 2 (n-2) + i: the other rows are (C | B) in the columns
    (first 2 | rest), the rows X_0, X_1 (I | Y)."""
    n = a.n
    # integer coefficients: the bracket D [x, y] of _poly_bracket scales
    # each word by a power of D, which keeps the rank
    xs = [[{0: 1} if j == s else
           {16 ** (s * (n - 2) + j - 2): 1} if j >= 2 else {}
           for j in range(n)] for s in range(2)]
    xs += [[{16 ** (2 * (n - 2) + (s - 2) * n + j): 1} for j in range(n)]
           for s in range(2, k)]
    s_rows = []
    for w in _eval_words(lambda x, y: _poly_bracket(a, x, y), xs,
                         words)[2:]:
        for r in range(2):   # w - w_r X_r is 0 in column r
            w = [_poly_add(p, _poly_mul(w[r], x), -1)
                 for p, x in zip(w, xs[r])]
        s_rows.append(w[2:])
    return s_rows


# ---------------------------------------------------------------------------
# rank conditions


def check_rk5(a: NilpotentAlgebra) -> tuple[bool, list | None]:
    """Existence of a pair with rank(X1, X2, X12, X112, X212) = 5, decided
    exactly as a generic rank, with a seeded integer witness pair."""
    if a.n < 5:   # a rank never exceeds n
        return False, None
    r, wit = _generic_rank(a, 2, _RK5_WORDS)
    return r == 5, wit if r == 5 else None


def check_rk7(a: NilpotentAlgebra) -> tuple[bool, list | None]:
    """Existence of a triple with rank(X1, X2, X3, X12, X13, X23, X312)
    = 7, decided exactly as a generic rank, with a seeded witness triple."""
    if a.n < 7:   # a rank never exceeds n
        return False, None
    r, wit = _generic_rank(a, 3, _RK7_WORDS)
    return r == 7, wit if r == 7 else None


def max_dimL_exact(a: NilpotentAlgebra) -> int:
    """Exact maximum of dim L over all real triples: the generic rank of
    (X1, X2, X3, X12, X23, X13). A minor of that matrix has degree at most
    3 in each coordinate, so the maximum is also the largest rank over the
    {-2..2} grid, five points per variable (the report's "identity
    certificate")."""
    return _generic_rank(a, 3, _DIML_WORDS)[0]


# ---------------------------------------------------------------------------
# small-closure dichotomy


def _filiform4_certificate(a: NilpotentAlgebra):
    """A basis (W, X, Y, Z) with [W,X]=Y, [W,Y]=Z and all other brackets
    zero, or None.

    The only four-dimensional nilpotent algebra of class 3 is filiform4,
    which has a codimension-one abelian ideal A >= g'. For W outside A,
    g' = [W, A] (A is abelian), so ad_W restricted to A is nilpotent of
    rank dim g' = 2: a single 3x3 Jordan block with image g'. Any X in A
    outside g' is a cyclic vector, so Y = [W,X] and Z = [W,Y] != 0 span
    g'. The other brackets vanish: X, Y, Z lie in the abelian A, and
    [W,Z] lies in the fourth term of the lower central series, which is 0.
    """
    if a.n != 4 or a.nilpotency_class() != 3:
        return None
    ideal = a.find_codim1_abelian_ideal()
    w = ideal.complement()[0]
    gp = a.derived_algebra()
    x = next(v for v in ideal.basis if not gp.contains(v))
    y = a.bracket(w, x)
    return [w, x, y, a.bracket(w, y)]


def lemma6_classify(a: NilpotentAlgebra) -> dict:
    """Verdict for the small-closure dichotomy.

    If the exact maximum of dim L is at most 4, the algebra must be a
    Heisenberg-times-abelian product or the four-dimensional filiform
    algebra; the verdict includes the exact certificate, and `witness` is
    a seeded integer triple that reaches the maximum. `ambiguous` is
    reported rather than guessed when neither certificate is found.
    """
    max_l, wit = _generic_rank(a, 3, _DIML_WORDS)
    found = {"max_dimL": max_l, "witness": wit}
    if max_l > 4:
        return {"class": "not_applicable", **found}
    if a.is_abelian():
        return {"class": "heisenberg_x_abelian", **found,
                "heisenberg_rank": 0}
    if a.derived_algebra().dim == 1 and a.is_two_step():
        # the induced pairing on g/z is a nondegenerate skew form on a
        # complement, so the algebra splits as Heisenberg x abelian
        pad = a.center().dim - 1
        return {"class": "heisenberg_x_abelian", **found,
                "heisenberg_rank": (a.n - 1 - pad) // 2, "pad": pad}
    cert = _filiform4_certificate(a)
    if cert is not None:
        return {"class": "filiform4", **found, "basis": cert}
    return {"class": "ambiguous", **found}


# ---------------------------------------------------------------------------
# subalgebra restriction and invariants


def restrict(a: NilpotentAlgebra, s: Subspace) -> NilpotentAlgebra | None:
    """The bracket restricted to a subalgebra, in the RREF basis of s;
    None if s is not closed under the bracket. The RREF row b_i is
    r_i / r_i[p_i], r_i the integer row of s, so [b_i, b_j] is
    `integer_bracket`(r_i, r_j) / (D r_i[p_i] r_j[p_j]), and coordinate k
    of it is its entry at the pivot p_k."""
    rs, ps, den = s.rows, s.pivots, a.integer_constants()[1]
    m = len(rs)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j in itertools.combinations(range(m), 2):
        w = a.integer_bracket(rs[i], rs[j])
        if not s.contains(w):
            return None
        d = den * rs[i][ps[i]] * rs[j][ps[j]]
        entry = {k: Fraction(w[p], d) for k, p in enumerate(ps) if w[p]}
        if entry:
            brackets[(i, j)] = entry
    return NilpotentAlgebra(m, brackets, name=f"{a.name}|sub{m}")


def derivation_dimension(a: NilpotentAlgebra) -> int:
    """dim of the derivation algebra, by exact linear algebra.

    Unknowns d[m][k] with D e_k = sum_m d[m][k] e_m, at column m n + k;
    one equation per (i < j, component m):
    sum_k c_ij^k d[m][k] - sum_p (c_pj^m d[p][i] + c_ip^m d[p][j]) = 0,
    built from the sparse integer constants (the common denominator
    scales every equation alike)."""
    n = a.n
    consts = a.integer_constants()[0]
    into = defaultdict(list)   # (j, m) -> (p, c) for each c = c_pj^m != 0
    for (i, j), comps in consts.items():
        for m, c in comps:
            into[j, m].append((i, c))
            into[i, m].append((j, -c))
    rows = []
    for i, j in itertools.combinations(range(n), 2):
        for m in range(n):
            row = [0] * (n * n)
            for k, c in consts.get((i, j), ()):
                row[m * n + k] += c
            for p, c in into.get((j, m), ()):
                row[p * n + i] -= c
            for p, c in into.get((i, m), ()):   # c_ip^m = -c_pi^m
                row[p * n + j] += c
            if any(row):
                rows.append(row)
    return n * n - len(integer_rref(rows)[0])


def invariant_tuple(a: NilpotentAlgebra) -> tuple:
    series = tuple(s.dim for s in a.lower_central_series())
    return (a.n, series, a.center().dim, a.derived_algebra().dim,
            derivation_dimension(a))


# ---------------------------------------------------------------------------
# cocycle / derivation classes


def _rational_roots(b11, b12, b22) -> list[tuple]:
    """The rational roots (y1 : y2) of b11 y1^2 + 2 b12 y1 y2 + b22 y2^2,
    whose discriminant d = b12^2 - b11 b22 is nonzero."""
    d = b12 * b12 - b11 * b22
    # a negative d fails the square test of its numerator
    p, q = math.isqrt(abs(d.numerator)), math.isqrt(d.denominator)
    if p * p != d.numerator or q * q != d.denominator:
        return []
    if b11 == 0:
        return [(1, 0), (-b22, 2 * b12)]
    return [(s - b12, b11) for s in (Fraction(p, q), -Fraction(p, q))]


def derivation_class_certificate(a: NilpotentAlgebra) -> dict | None:
    """(h, c, D) with h a codimension-one two-step ideal, D = ad_c|_h
    nilpotent and [DX, X] = 0 for all X in h; None if no rational h has
    them.

    For h = ker phi >= g' that holds, for any c outside h, iff
    ad_X^2 = 0 for all X in h (polarize, then apply Jacobi). An entry
    form of ad_X^2 that vanishes on ker phi is phi times a linear form,
    so the first nonzero one leaves at most two candidates phi: its row
    at rank 1, its rational linear factors at rank 2. If there is none, g
    is two-step and every h >= g' qualifies. An irrational phi has no
    rational certificate; then every entry form is a multiple of one
    binary form with irrational roots, and None is returned.

    The entry forms are built from the integer constants: the common
    denominator scales them all by D^2, which keeps their spans, their
    roots and where they vanish.
    """
    n, gp = a.n, a.derived_algebra()
    adj: list[list] = [[] for _ in range(n)]  # (u, m, c): [e_u, e_k]_m = c
    for (i, j), comps in a.integer_constants()[0].items():
        for m, c in comps:
            adj[j].append((i, m, c))
            adj[i].append((j, m, -c))
    # twice the matrix of the (m, b) entry of ad_X^2, the quadratic form
    # sum_{u,v} X_u X_v [e_u, [e_v, e_b]]_m, as sparse {(u, v): entry}
    forms: dict[tuple[int, int], Counter] = defaultdict(Counter)
    for b in range(n):
        for v, k, c1 in adj[b]:
            for u, m, c2 in adj[k]:
                forms[m, b][u, v] += c1 * c2
                forms[m, b][v, u] += c1 * c2
    nonzero = [f for _, f in sorted(forms.items()) if any(f.values())]
    if not nonzero:
        phis = integer_nullspace(gp.rows, n)[0][:1]
    else:
        form = nonzero[0]
        span = Subspace.from_integer_rows(
            [[form[u, v] for v in range(n)] for u in range(n)], n)
        phis = span.rows if span.dim == 1 else []
        if span.dim == 2:
            # y2 b1 - y1 b2 for the RREF rows b_i = r_i / r_i[p_i]
            (p1, p2), (r1, r2) = span.pivots, span.rows
            phis = [integer_row([y2 * r2[p2] * x - y1 * r1[p1] * z
                                 for x, z in zip(r1, r2)])[0]
                    for y1, y2 in _rational_roots(
                        form[p1, p1], form[p1, p2], form[p2, p2])]
    for phi in phis:
        h = Subspace.from_integer_rows(integer_nullspace([phi], n)[0], n)
        # the (m, b) entries of ad_x ad_y + ad_y ad_x on basis pairs
        if not h.contains_subspace(gp) or any(
                sum(w * x[u] * y[v] for (u, v), w in f.items()) != 0
                for f in nonzero for i, x in enumerate(h.rows)
                for y in h.rows[i:]):
            continue
        c = h.complement()[0]
        # h >= g' is an ideal, so every [c, v] has coordinates in h. D is
        # nilpotent without a test: ad_c is nilpotent (Engel) and h is
        # ad_c-invariant, so its restriction is nilpotent too.
        d_cols = [h.coordinates(a.bracket(c, v)) for v in h.basis]
        d_mat = [[col[i] for col in d_cols] for i in range(h.dim)]
        return {"h": h, "c": c, "D": d_mat, "sub": restrict(a, h)}
    return None


def cocycle_class_certificate(a: NilpotentAlgebra) -> dict | None:
    """A central line R c with two-step quotient h = g / R c, where the
    cocycle omega (the c-component of the bracket) satisfies: for almost
    all X there is Y with omega(X, [X,Y]_h) = 0 and
    omega(Y, [X,Y]_h) != 0. None if g is two-step (outside Lemma 7), if
    g has no such line, or if the condition fails: exact either way.

    For g not two-step the line is forced: g / R c is two-step iff
    C3 = [g, [g, g]] lies in R c, and C3 != 0, so a line exists iff
    dim C3 = 1, and then R c = C3. A one-dimensional ideal of a nilpotent
    algebra is central. The quotient by an ideal is a Lie algebra, C3 in
    R c makes it two-step, and g' strictly contains C3 (nilpotency), so
    it is nonabelian; none of this is re-tested.

    With L_X(Y) = omega(X, [X,Y]_h) and M_X the matrix of the quadratic
    form Q_X(Y) = omega(Y, [X,Y]_h), the bordered matrix
    B(X) = [[M_X, L_X], [L_X^T, 0]] has rank 2 + rank(M_X on ker L_X)
    where L_X != 0. So X qualifies iff L_X != 0 and rank B(X) >= 3, a
    Zariski-open condition: it holds for almost all X iff L is not
    identically zero and the generic rank of B over Q(X) reaches 3, which
    `_minor_rank` decides. Then the first seeded point that qualifies is
    returned as `x`. (L identically zero means ad_X^2 = 0 for all X, as h
    is two-step and c central, and then Q_X(Y), the c-component of
    -ad_Y^2 X, vanishes too.)
    """
    series = a.lower_central_series()
    if len(series) < 3 or series[2].dim != 1:
        return None
    c = series[2].basis[0]
    comp = series[2].complement()
    m = len(comp)
    # the basis (c, comp...) omits only e_r, r the last nonzero
    # coordinate of c: w = alpha c + sum (w_p - alpha c_p) e_p with
    # alpha = w_r / c_r, over the complement pivots p
    r = max(i for i, v in enumerate(c) if v != 0)
    pivots = [v.index(1) for v in comp]
    q_brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    omega = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            w = a.bracket(comp[i], comp[j])
            alpha = w[r] / c[r]
            omega[i][j] = alpha
            omega[j][i] = -alpha
            coords = [w[p] - alpha * c[p] for p in pivots]
            entry = {k: v for k, v in enumerate(coords) if v != 0}
            if entry:
                q_brackets[(i, j)] = entry
    quotient = NilpotentAlgebra(m, q_brackets, name=f"{a.name}/c")

    # B over Q(X), X_i the variable 16^i, with integer coefficients: omega
    # and the quotient bracket each over its own common denominator, which
    # scales B and keeps its rank; at a point x, whose coordinates are
    # constants, the walk is the rank of B(x)
    ints = integer_row([w for row in omega for w in row])[0]
    entries = [(i, j, w) for (i, j), w in
               zip(itertools.product(range(m), repeat=2), ints) if w]
    es = [[{0: 1} if k == j else {} for k in range(m)] for j in range(m)]

    def om(u, v):
        out: dict = {}
        for i, j, w in entries:
            if u[i] and v[j]:
                out = _poly_add(out, _poly_mul(u[i], v[j]), w)
        return out

    def bordered(x):
        x_es = [_poly_bracket(quotient, x, e) for e in es]
        lin = [om(x, v) for v in x_es]
        return [[_poly_add(om(es[p], x_es[q]), om(es[q], x_es[p]))
                 for q in range(m)] + [lin[p]]
                for p in range(m)] + [lin + [{}]]

    generic = bordered([{16 ** i: 1} for i in range(m)])
    if not any(generic[-1]) or _minor_rank(generic, 3) < 3:
        return None

    def qualifies(x) -> bool:
        b = bordered([{0: v} if v else {} for v in x])  # integer x
        return any(b[-1]) and _minor_rank(b, 3) == 3

    x = next(filter(qualifies, (pt[0] for pt in _grid_points(1, m))))
    return {"c": c, "quotient": quotient, "omega": omega,
            "x": [Fraction(v) for v in x]}


# ---------------------------------------------------------------------------
# distinguished subalgebra shapes for the derivation class


_SHAPE_CACHE: dict[str, tuple] = {}


def _shape_invariants(key: str) -> tuple:
    if key not in _SHAPE_CACHE:
        _SHAPE_CACHE[key] = invariant_tuple(build(key))
    return _SHAPE_CACHE[key]


def _l6_shape(sub: NilpotentAlgebra) -> str | None:
    """Distinguish the three six-dimensional shapes via the derivation
    acting on the center of the two-step ideal: with m the ideal,
    V = z(m), m' = [m, m]: D(V) inside m' gives the second shape,
    D^2(V) = 0 the first, otherwise the third."""
    cert = derivation_class_certificate(sub)
    if cert is None:
        return None
    # each test below holds for vectors iff it holds for nonzero multiples
    # of them, so all run on integer rows
    h = cert["h"]
    hr, big = h.rows, math.prod(r[p] for r, p in zip(h.rows, h.pivots))
    # V = z(m): the center of the restricted bracket, in the coordinates
    # of the RREF basis r_i / r_i[p_i] of m, mapped back (times big)
    scale = [big // r[p] for r, p in zip(hr, h.pivots)]
    v_basis = [[sum(cf * s * r[t] for cf, s, r in zip(kv, scale, hr))
                for t in range(sub.n)] for kv in cert["sub"].center().rows]
    m_prime = Subspace.from_integer_rows(
        [sub.integer_bracket(x, y)
         for x, y in itertools.combinations(hr, 2)], sub.n)
    c = integer_row(cert["c"])[0]
    dv = [sub.integer_bracket(c, v) for v in v_basis]
    if all(m_prime.contains(x) for x in dv):
        return "dimsix2"
    if not any(any(sub.integer_bracket(c, x)) for x in dv):
        return "dimsix1"
    return "dimsix3"


def shape_of_L(a: NilpotentAlgebra, triple) -> tuple[int, str | None]:
    """(N, shape label) for the bracket closure of a generic triple.

    N = 5 is matched against the five-dimensional normal form by
    invariants; N = 6 against the three six-dimensional forms by the
    derivation-action criterion plus invariant confirmation."""
    sp = Subspace.from_integer_rows(_eval_words(
        a.integer_bracket, [integer_row(x)[0] for x in triple],
        _DIML_WORDS), a.n)
    n_dim = sp.dim
    sub = restrict(a, sp)
    if sub is None:
        return n_dim, None
    if n_dim == 5:
        if invariant_tuple(sub) == _shape_invariants("L5_lemma7a"):
            return 5, "lemma7a"
        return 5, None
    if n_dim == 6:
        label = _l6_shape(sub)
        if label is not None:
            key = {"dimsix1": "L6_1", "dimsix2": "L6_2",
                   "dimsix3": "L6_3"}[label]
            if invariant_tuple(sub) == _shape_invariants(key):
                return 6, label
        return 6, None
    return n_dim, None


# ---------------------------------------------------------------------------
# top-level verdicts


@dataclass
class StructureVerdict:
    rk5_holds: bool
    rk7_holds: bool
    two_step: bool
    rk5_witness: list | None = None
    rk7_witness: list | None = None
    codim1_abelian: Subspace | None = None
    lemma6: dict = field(default_factory=dict)
    lemma7_classes: list[str] = field(default_factory=list)
    N: int | None = None
    L_shape: str | None = None
    certificates: dict = field(default_factory=dict)


def classify(a: NilpotentAlgebra) -> StructureVerdict:
    """The structure verdict, each part computed once: the rank
    conditions, two-step, the codimension-one abelian ideal and the
    small-closure dichotomy; and, for a nonabelian algebra that is not
    two-step and on which both rank conditions fail, the cocycle and
    derivation classes with their certificates, and N and the shape of
    the bracket closure of the Lemma 6 witness, a triple of generic
    dim L."""
    rk5, w5 = check_rk5(a)
    rk7, w7 = check_rk7(a)
    two_step = a.is_two_step()
    verdict = StructureVerdict(
        rk5_holds=rk5, rk7_holds=rk7, two_step=two_step,
        rk5_witness=w5, rk7_witness=w7,
        codim1_abelian=a.find_codim1_abelian_ideal(),
        lemma6=lemma6_classify(a))
    if two_step or rk5 or rk7:   # abelian counts as two-step
        return verdict
    dcert = derivation_class_certificate(a)
    if dcert is not None:
        verdict.lemma7_classes.append("derivation")
        verdict.certificates["derivation"] = dcert
        verdict.N, verdict.L_shape = shape_of_L(a, verdict.lemma6["witness"])
    ccert = cocycle_class_certificate(a)
    if ccert is not None:
        verdict.lemma7_classes.append("cocycle")
        verdict.certificates["cocycle"] = ccert
    return verdict


def lemma7_classify(a: NilpotentAlgebra) -> StructureVerdict:
    """The `classify` verdict of a nonabelian, not two-step algebra on
    which both rank conditions fail; ClassificationError otherwise."""
    if a.is_abelian():
        raise ClassificationError("algebra is abelian")
    if a.is_two_step():
        raise ClassificationError("algebra is two-step")
    verdict = classify(a)
    if verdict.rk5_holds or verdict.rk7_holds:
        raise ClassificationError(
            "a rank condition holds: the generic-case analysis applies "
            "instead of the class dichotomy")
    return verdict


def theorem2_expected_M(a: NilpotentAlgebra) -> Subspace:
    """The subspace whose projectivization is the expected closure of the
    Ricci-maximal set: g' for two-step, a codimension-one abelian ideal
    when one exists, the whole algebra otherwise."""
    if a.is_abelian():
        return Subspace(identity(a.n), a.n)
    if a.is_two_step():
        return a.derived_algebra()
    return a.find_codim1_abelian_ideal() or Subspace(identity(a.n), a.n)
