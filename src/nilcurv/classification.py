"""Structural trichotomy: rank conditions, the small-bracket-closure
dichotomy, and the cocycle/derivation classes with their distinguished
subalgebra shapes.

All verdicts are decided over exact rational arithmetic. "Almost all"
conditions are sampled with seeded rational coordinates and every hit is
re-verified exactly; negative sampling verdicts are budget-qualified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    NilpotentAlgebra,
    Subspace,
    basis_vector,
    exact_vector,
)
from .rational import Matrix, nullspace, rank, solve

RATIONAL_BOUND = 97


class ClassificationError(ValueError):
    """Preconditions of a classification operation unmet."""


def _random_rational_vector(rng, n: int) -> list[Fraction]:
    return [Fraction(int(rng.integers(-RATIONAL_BOUND, RATIONAL_BOUND + 1)),
                     int(rng.integers(1, RATIONAL_BOUND + 1)))
            for _ in range(n)]


# ---------------------------------------------------------------------------
# rank conditions


def _rk5_rank(a: NilpotentAlgebra, x1, x2) -> int:
    x12 = a.bracket(x1, x2)
    return rank([exact_vector(x1), exact_vector(x2), x12,
                 a.bracket(x1, x12), a.bracket(x2, x12)])


def check_rk5(a: NilpotentAlgebra, samples: int = 50,
              seed: int = 0) -> tuple[bool, tuple | None]:
    """Existence of a pair with rank(X1, X2, X12, X112, X212) = 5.

    The condition is open, so if it holds at all it holds for almost all
    pairs; a basis sweep plus seeded rational samples decides it with an
    exactly verified witness. A False verdict means "not found within
    budget".
    """
    if a.n < 5:
        return False, None
    for i in range(a.n):
        for j in range(i + 1, a.n):
            x1, x2 = basis_vector(a.n, i), basis_vector(a.n, j)
            if _rk5_rank(a, x1, x2) == 5:
                return True, (x1, x2)
    import numpy as np
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x1 = _random_rational_vector(rng, a.n)
        x2 = _random_rational_vector(rng, a.n)
        if _rk5_rank(a, x1, x2) == 5:
            return True, (x1, x2)
    return False, None


def _rk7_rank(a: NilpotentAlgebra, x1, x2, x3) -> int:
    x12 = a.bracket(x1, x2)
    return rank([exact_vector(x1), exact_vector(x2), exact_vector(x3),
                 x12, a.bracket(x1, x3), a.bracket(x2, x3),
                 a.bracket(x3, x12)])


def check_rk7(a: NilpotentAlgebra, samples: int = 50,
              seed: int = 0) -> tuple[bool, tuple | None]:
    """Existence of a triple with
    rank(X1, X2, X3, X12, X13, X23, X312) = 7."""
    if a.n < 7:
        return False, None
    for i, j, k in itertools.combinations(range(a.n), 3):
        t = (basis_vector(a.n, i), basis_vector(a.n, j),
             basis_vector(a.n, k))
        if _rk7_rank(a, *t) == 7:
            return True, t
    import numpy as np
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        t = tuple(_random_rational_vector(rng, a.n) for _ in range(3))
        if _rk7_rank(a, *t) == 7:
            return True, t
    return False, None


# ---------------------------------------------------------------------------
# bracket-closure dimension L(X1, X2, X3)


def max_dimL_sampled(a: NilpotentAlgebra, samples: int = 100,
                     seed: int = 0) -> tuple[int, tuple]:
    """Max of dim L over basis triples and seeded rational triples,
    with an exactly verified witness triple."""
    best, wit = 0, None
    cap = min(6, a.n)
    for i, j, k in itertools.combinations(range(a.n), 3):
        t = (basis_vector(a.n, i), basis_vector(a.n, j),
             basis_vector(a.n, k))
        d = a.span_with_brackets(*t).dim
        if d > best:
            best, wit = d, t
        if best == cap:
            return best, wit
    import numpy as np
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        t = tuple(_random_rational_vector(rng, a.n) for _ in range(3))
        d = a.span_with_brackets(*t).dim
        if d > best:
            best, wit = d, t
        if best == cap:
            break
    return best, wit


def max_dimL_exact(a: NilpotentAlgebra) -> int:
    """Exact maximum of dim L over all real triples, by symbolic minors.

    The stacked 6 x n matrix (X1, X2, X3, X12, X23, X13) has polynomial
    entries of degree at most 3 in each single coordinate. A k x k minor
    that is not the zero polynomial is nonzero at some point of the grid
    {-2..2}^(3n) (five points per variable exceed the degree), so this
    certificate coincides with brute force over that grid.
    """
    import sympy

    n = a.n
    xs = [[sympy.Symbol(f"x{s}_{i}") for i in range(n)] for s in range(3)]

    def sym_bracket(u, v):
        out = [sympy.Integer(0)] * n
        for (i, j), comps in a.brackets.items():
            coef = u[i] * v[j] - u[j] * v[i]
            for k, c in comps.items():
                out[k] += coef * sympy.Rational(c.numerator, c.denominator)
        return out

    rows = [xs[0], xs[1], xs[2],
            sym_bracket(xs[0], xs[1]),
            sym_bracket(xs[1], xs[2]),
            sym_bracket(xs[0], xs[2])]
    m = sympy.Matrix(rows)
    for k in range(min(6, n), 0, -1):
        for rsel in itertools.combinations(range(6), k):
            for csel in itertools.combinations(range(n), k):
                det = m[rsel, csel].det(method="berkowitz")
                if sympy.expand(det) != 0:
                    return k
    return 0


# ---------------------------------------------------------------------------
# small-closure dichotomy


def _filiform4_certificate(a: NilpotentAlgebra):
    """A basis (W, X, Y, Z) with [W,X]=Y, [W,Y]=Z and all other brackets
    zero, or None."""
    if a.n != 4 or a.nilpotency_class() != 3:
        return None
    candidates = [basis_vector(4, i) for i in range(4)]
    candidates += [[Fraction(u), Fraction(v), Fraction(w), Fraction(s)]
                   for u, v, w, s in itertools.product((-1, 0, 1), repeat=4)
                   if any((u, v, w, s))]
    for w in candidates:
        for x in candidates:
            y = a.bracket(w, x)
            z = a.bracket(w, y)
            if all(v == 0 for v in z):
                continue
            if rank([exact_vector(w), exact_vector(x), y, z]) != 4:
                continue
            xy = a.bracket(x, y)
            gamma = solve([[zi] for zi in z], xy)
            if gamma is None:
                continue
            x2 = [xi - gamma[0] * wi
                  for xi, wi in zip(exact_vector(x), exact_vector(w))]
            y2 = a.bracket(w, x2)
            basis = [exact_vector(w), x2, y2, a.bracket(w, y2)]
            if rank(basis) != 4:
                continue
            sub = restrict(a, Subspace(basis, 4), basis=basis)
            if sub is None:
                continue
            expect = {(0, 1): {2: Fraction(1)}, (0, 2): {3: Fraction(1)}}
            if sub.brackets == expect:
                return basis
    return None


def lemma6_classify(a: NilpotentAlgebra, samples: int = 100,
                    seed: int = 0) -> dict:
    """Verdict for the small-closure dichotomy.

    If every sampled/swept triple has dim L <= 4, the algebra must be a
    Heisenberg-times-abelian product or the four-dimensional filiform
    algebra; the verdict includes the exact certificate. `ambiguous` is
    reported rather than guessed when neither certificate is found.
    """
    max_l, wit = max_dimL_sampled(a, samples, seed)
    if max_l > 4:
        return {"class": "not_applicable", "max_dimL": max_l,
                "witness": wit}
    if a.is_abelian():
        return {"class": "heisenberg_x_abelian", "max_dimL": max_l,
                "witness": wit, "heisenberg_rank": 0}
    if a.derived_algebra().dim == 1 and a.is_two_step():
        # the induced pairing on g/z is a nondegenerate skew form on a
        # complement, so the algebra splits as Heisenberg x abelian
        pad = a.center().dim - 1
        l_rank = (a.n - 1 - pad) // 2
        return {"class": "heisenberg_x_abelian", "max_dimL": max_l,
                "witness": wit, "heisenberg_rank": l_rank, "pad": pad}
    cert = _filiform4_certificate(a)
    if cert is not None:
        return {"class": "filiform4", "max_dimL": max_l, "witness": wit,
                "basis": cert}
    return {"class": "ambiguous", "max_dimL": max_l, "witness": wit}


# ---------------------------------------------------------------------------
# subalgebra restriction and invariants


def restrict(a: NilpotentAlgebra, s: Subspace,
             basis: Matrix | None = None) -> NilpotentAlgebra | None:
    """The bracket restricted to a subalgebra, in the given (or canonical)
    basis; None if s is not closed under the bracket."""
    bs = basis if basis is not None else s.basis
    m = len(bs)
    cols = [[bs[r][c] for r in range(m)] for c in range(a.n)]
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = a.bracket(bs[i], bs[j])
            coords = solve([[bs[r][c] for r in range(m)]
                            for c in range(a.n)], w)
            if coords is None:
                return None
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                brackets[(i, j)] = entry
    return NilpotentAlgebra(m, brackets, name=f"{a.name}|sub{m}")


def derivation_dimension(a: NilpotentAlgebra) -> int:
    """dim of the derivation algebra, by exact linear algebra.

    Unknowns d[m][k] with D e_k = sum_m d[m][k] e_m; one equation per
    (i < j, component m)."""
    n = a.n
    rows: Matrix = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = a.basis_bracket(i, j)
            for m in range(n):
                row = [Fraction(0)] * (n * n)

                def idx(r, c):
                    return r * n + c
                for k in range(n):
                    row[idx(m, k)] += cij[k]
                for p in range(n):
                    row[idx(p, i)] -= a.basis_bracket(p, j)[m]
                    row[idx(p, j)] -= a.basis_bracket(i, p)[m]
                if any(v != 0 for v in row):
                    rows.append(row)
    return n * n - (rank(rows) if rows else 0)


def invariant_tuple(a: NilpotentAlgebra) -> tuple:
    series = tuple(s.dim for s in a.lower_central_series())
    return (a.n, series, a.center().dim, a.derived_algebra().dim,
            derivation_dimension(a))


# ---------------------------------------------------------------------------
# cocycle / derivation classes


def _hyperplanes_containing(a: NilpotentAlgebra, inner: Subspace):
    """Codimension-one subspaces of the algebra containing `inner`
    (these are exactly the codim-1 ideals when inner >= g')."""
    comp = []
    cur = Subspace(inner.basis, a.n)
    for i in range(a.n):
        e = basis_vector(a.n, i)
        if not cur.contains(e):
            comp.append(e)
            cur = cur.sum(Subspace([e], a.n))
    q = len(comp)
    if q == 0:
        return
    seen = set()
    rng_vals = [Fraction(v) for v in range(-3, 4)]
    for normal in itertools.product(rng_vals, repeat=q):
        if all(v == 0 for v in normal):
            continue
        kern = nullspace([list(normal)], q)
        vecs = list(inner.basis)
        for kv in kern:
            w = [Fraction(0)] * a.n
            for c, base in zip(kv, comp):
                for t in range(a.n):
                    w[t] += c * base[t]
            vecs.append(w)
        h = Subspace(vecs, a.n)
        key = tuple(tuple(r) for r in h.basis)
        if key in seen or h.dim != a.n - 1:
            continue
        seen.add(key)
        yield h


def derivation_class_certificate(a: NilpotentAlgebra) -> dict | None:
    """(h, c, D) with h a codimension-one two-step ideal, D = ad_c|_h
    nilpotent and [DX, X] = 0 for all X in h; None if no such h found.

    The certificate is independent of the choice of c modulo h: for
    w in h, [[w,X],X] = 0 because h is two-step.
    """
    gp = a.derived_algebra()
    if gp.dim >= a.n:
        return None
    for h in _hyperplanes_containing(a, gp):
        sub = restrict(a, h)
        if sub is None or not sub.is_two_step():
            continue
        c = next(basis_vector(a.n, i) for i in range(a.n)
                 if not h.contains(basis_vector(a.n, i)))
        hb = h.basis
        m = len(hb)
        cols_matrix = [[hb[r][t] for r in range(m)] for t in range(a.n)]
        d_cols = []
        ok = True
        for v in hb:
            dv = a.bracket(c, v)
            coords = solve(cols_matrix, dv)
            if coords is None:
                ok = False
                break
            d_cols.append(coords)
        if not ok:
            continue
        # D is nilpotent without a test: ad_c is nilpotent (Engel) and h
        # is ad_c-invariant, so its restriction is nilpotent too.
        d_mat = [[d_cols[j][i] for j in range(m)] for i in range(m)]
        # polarized [DX, X] = 0: [Du, v] + [Dv, u] = 0 on basis pairs
        imgs = [a.bracket(c, v) for v in hb]
        good = True
        for i in range(m):
            for j in range(i, m):
                s = [x + y for x, y in zip(a.bracket(imgs[i], hb[j]),
                                           a.bracket(imgs[j], hb[i]))]
                if any(v != 0 for v in s):
                    good = False
                    break
            if not good:
                break
        if good:
            return {"h": h, "c": c, "D": d_mat, "sub": sub}
    return None


def _central_line_candidates(a: NilpotentAlgebra):
    z = a.center()
    seen = set()
    coeffs = [Fraction(v) for v in (-1, 0, 1, 2)]
    combos = [list(v) for v in itertools.product(coeffs, repeat=z.dim)
              if any(x != 0 for x in v)]
    for combo in combos:
        c = [Fraction(0)] * a.n
        for t, base in zip(combo, z.basis):
            for i in range(a.n):
                c[i] += t * base[i]
        sp = Subspace([c], a.n)
        key = tuple(tuple(r) for r in sp.basis)
        if key in seen:
            continue
        seen.add(key)
        yield c


def cocycle_class_certificate(a: NilpotentAlgebra, samples: int = 30,
                              seed: int = 0) -> dict | None:
    """A central line R c with two-step quotient h = g / R c, where the
    cocycle omega (the c-component of the bracket) satisfies: for almost
    all X there is Y with omega(X, [X,Y]_h) = 0 and
    omega(Y, [X,Y]_h) != 0. Sampled X's are checked exactly; success on
    at least 90% qualifies."""
    import numpy as np

    for c in _central_line_candidates(a):
        line = Subspace([c], a.n)
        # complement basis: standard vectors completing the line
        comp = []
        cur = line
        for i in range(a.n):
            e = basis_vector(a.n, i)
            if not cur.contains(e):
                comp.append(e)
                cur = cur.sum(Subspace([e], a.n))
        m = len(comp)
        if m != a.n - 1:
            continue
        # coordinates: solve against [c, comp...]
        full = [c] + comp
        cols = [[full[r][t] for r in range(a.n)] for t in range(a.n)]
        q_brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
        omega = [[Fraction(0)] * m for _ in range(m)]
        degenerate = False
        for i in range(m):
            for j in range(i + 1, m):
                w = a.bracket(comp[i], comp[j])
                coords = solve(cols, w)
                if coords is None:
                    degenerate = True
                    break
                omega[i][j] = coords[0]
                omega[j][i] = -coords[0]
                entry = {k - 1: v for k, v in enumerate(coords)
                         if k >= 1 and v != 0}
                if entry:
                    q_brackets[(i, j)] = entry
            if degenerate:
                break
        if degenerate:
            continue
        quotient = NilpotentAlgebra(m, q_brackets, name=f"{a.name}/c")
        if quotient.jacobi_failures() or not quotient.is_two_step() \
                or quotient.is_abelian():
            continue

        def om(u, v):
            return sum(u[i] * omega[i][j] * v[j]
                       for i in range(m) for j in range(m))

        rng = np.random.default_rng(seed)
        hits = 0
        for _ in range(samples):
            x = _random_rational_vector(rng, m)
            # condition 1 is linear in Y: omega(X, [X, Y]_h) = 0
            lin = [Fraction(0)] * m
            for j in range(m):
                bxj = quotient.bracket(x, basis_vector(m, j))
                lin[j] = om(x, bxj)
            kern = nullspace([lin], m) if any(v != 0 for v in lin) \
                else [basis_vector(m, j) for j in range(m)]
            # condition 2: the quadratic Y -> omega(Y, [X,Y]_h) is not
            # identically zero on the kernel
            found = False
            kb = kern
            for p in range(len(kb)):
                for r in range(p, len(kb)):
                    val = (om(kb[p], quotient.bracket(x, kb[r]))
                           + om(kb[r], quotient.bracket(x, kb[p])))
                    if val != 0:
                        found = True
                        break
                if found:
                    break
            if found:
                hits += 1
        if samples > 0 and hits >= 0.9 * samples:
            return {"c": c, "quotient": quotient, "omega": omega,
                    "success_fraction": hits / samples}
    return None


# ---------------------------------------------------------------------------
# distinguished subalgebra shapes for the derivation class


_SHAPE_CACHE: dict[str, tuple] = {}


def _shape_invariants(key: str) -> tuple:
    if key not in _SHAPE_CACHE:
        from .catalog import build
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
    hb = cert["h"].basis
    k = len(hb)
    # center of the ideal m: null space of v -> ([v, w])_w over
    # coefficient vectors in the hb basis
    rows = []
    for w in hb:
        for t in range(sub.n):
            rows.append([sub.bracket(hb[r], w)[t] for r in range(k)])
    kern = nullspace(rows, k)
    v_basis = []
    for kv in kern:
        vec = [Fraction(0)] * sub.n
        for cf, bv in zip(kv, hb):
            for t in range(sub.n):
                vec[t] += cf * bv[t]
        v_basis.append(vec)
    m_prime_gens = [sub.bracket(hb[i], hb[j])
                    for i in range(k) for j in range(i + 1, k)]
    m_prime = Subspace(m_prime_gens, sub.n)
    c = cert["c"]
    dv = [sub.bracket(c, v) for v in v_basis]
    if all(m_prime.contains(x) for x in dv):
        return "dimsix2"
    d2 = [sub.bracket(c, x) for x in dv]
    if all(all(t == 0 for t in x) for x in d2):
        return "dimsix1"
    return "dimsix3"


def shape_of_L(a: NilpotentAlgebra, triple) -> tuple[int, str | None]:
    """(N, shape label) for the bracket closure of a generic triple.

    N = 5 is matched against the five-dimensional normal form by
    invariants; N = 6 against the three six-dimensional forms by the
    derivation-action criterion plus invariant confirmation."""
    sp = a.span_with_brackets(*triple)
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
    rk5_witness: tuple | None = None
    rk7_witness: tuple | None = None
    codim1_abelian: Subspace | None = None
    lemma6: dict = field(default_factory=dict)
    lemma7_classes: list[str] = field(default_factory=list)
    N: int | None = None
    L_shape: str | None = None
    certificates: dict = field(default_factory=dict)
    budget_note: str = ""


def lemma7_classify(a: NilpotentAlgebra, samples: int = 30,
                    seed: int = 0) -> StructureVerdict:
    """Cocycle/derivation class membership for a nonabelian, not
    two-step algebra on which both rank conditions fail."""
    if a.is_abelian():
        raise ClassificationError("algebra is abelian")
    if a.is_two_step():
        raise ClassificationError("algebra is two-step")
    rk5, w5 = check_rk5(a, samples, seed)
    rk7, w7 = check_rk7(a, samples, seed)
    if rk5 or rk7:
        raise ClassificationError(
            "a rank condition holds: the generic-case analysis applies "
            "instead of the class dichotomy")
    verdict = StructureVerdict(rk5_holds=False, rk7_holds=False,
                               two_step=False,
                               budget_note=f"rank searches budget-limited "
                                           f"({samples} samples, seed "
                                           f"{seed})")
    classes = []
    certs = {}
    dcert = derivation_class_certificate(a)
    if dcert is not None:
        classes.append("derivation")
        certs["derivation"] = dcert
    ccert = cocycle_class_certificate(a, samples, seed)
    if ccert is not None:
        classes.append("cocycle")
        certs["cocycle"] = ccert
    verdict.lemma7_classes = classes
    verdict.certificates = certs
    if "derivation" in classes:
        import numpy as np
        rng = np.random.default_rng(seed)
        best_n, best_triple = 0, None
        for _ in range(max(10, samples)):
            t = tuple(_random_rational_vector(rng, a.n) for _ in range(3))
            d = a.span_with_brackets(*t).dim
            if d > best_n:
                best_n, best_triple = d, t
        if best_triple is not None:
            n_dim, label = shape_of_L(a, best_triple)
            verdict.N = n_dim
            verdict.L_shape = label
    return verdict


def theorem2_expected_M(a: NilpotentAlgebra) -> Subspace:
    """The subspace whose projectivization is the expected closure of the
    Ricci-maximal set: g' for two-step, a codimension-one abelian ideal
    when one exists, the whole algebra otherwise."""
    if a.is_abelian():
        return Subspace([basis_vector(a.n, i) for i in range(a.n)], a.n)
    if a.is_two_step():
        return a.derived_algebra()
    ideal = a.find_codim1_abelian_ideal()
    if ideal is not None:
        return ideal
    return Subspace([basis_vector(a.n, i) for i in range(a.n)], a.n)
