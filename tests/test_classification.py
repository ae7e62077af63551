"""Rank conditions, bracket-closure dichotomy, and the cocycle/derivation
class certificates."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

from nilcurv import (
    ClassificationError,
    NilpotentAlgebra,
    Subspace,
    build,
    classification,
    check_rk5,
    check_rk7,
    classify,
    cocycle_class_certificate,
    derivation_class_certificate,
    derivation_dimension,
    invariant_tuple,
    lemma6_classify,
    lemma7_classify,
    list_catalog,
    max_dimL_exact,
    restrict,
    save_algebra,
    shape_of_L,
    theorem2_expected_M,
)
from nilcurv.algebra import basis_vector
from nilcurv.cli import main
from nilcurv.rational import nullspace, rank, solve
from test_algebra import in_basis, unimodular

RATIONAL_BOUND = 97


def _random_rational_vector(rng, n: int) -> list[Fraction]:
    return [Fraction(int(rng.integers(-RATIONAL_BOUND, RATIONAL_BOUND + 1)),
                     int(rng.integers(1, RATIONAL_BOUND + 1)))
            for _ in range(n)]


def test_rk5_holds_on_filiform5():
    ok, wit = check_rk5(build("filiform_standard", n=5))
    assert ok and rank(_rk5_rows(build("filiform_standard", n=5), *wit)) == 5


def test_rk5_fails_within_budget_on_small_closure():
    """rk5 is a generic rank decided exactly: False is proven absence."""
    ok, wit = check_rk5(build("L5_lemma7a"))
    assert not ok and wit is None
    ok, _ = check_rk5(build("heisenberg", m=2))
    assert not ok


def test_rk7_on_seven_dim():
    a = build("remark_famB", k=2, l=1)   # dim 5: rk7 cannot hold
    assert not check_rk7(a)[0]


def _class_b_algebra():
    """Central extension of h3 + h3 by the cocycle with
    omega(z1, x1) = omega(z2, x2) = 1: class (B) but not class (C)."""
    from fractions import Fraction as F
    from nilcurv import NilpotentAlgebra
    br = {(0, 1): {2: F(1)}, (3, 4): {5: F(1)},
          (0, 2): {6: F(-1)}, (3, 5): {6: F(-1)}}
    return NilpotentAlgebra(7, br, name="classB")


def _rk7_algebra():
    """x1, x2, x3, y12, y13, y23, z with [x_i, x_j] = y_ij and
    [x3, y12] = [x2, y13] = z: rk7 holds at the basis triple."""
    return NilpotentAlgebra(7, {(0, 1): {3: 1}, (0, 2): {4: 1},
                                (1, 2): {5: 1}, (2, 3): {6: 1},
                                (1, 4): {6: 1}}, name="rk7_extension")


def test_rk7_holds_on_seven_dim_extension():
    a = _rk7_algebra()
    assert a.validate().valid
    ok, wit = check_rk7(a)
    assert ok and rank(_rk7_rows(a, *wit)) == 7


def _rk5_rows(a, x1, x2):
    x12 = a.bracket(x1, x2)
    return [x1, x2, x12, a.bracket(x1, x12), a.bracket(x2, x12)]


def _rk7_rows(a, x1, x2, x3):
    x12 = a.bracket(x1, x2)
    return [x1, x2, x3, x12, a.bracket(x1, x3), a.bracket(x2, x3),
            a.bracket(x3, x12)]


def _dimL_rows(a, x1, x2, x3):
    return [x1, x2, x3, a.bracket(x1, x2), a.bracket(x2, x3),
            a.bracket(x1, x3)]


def _rank_search_reference(a, rows, k):
    """The largest rank of rows(a, *t) over the basis k-tuples t in
    `combinations` order and 60 rational k-tuples drawn at seed 0: the
    sweep the rank conditions were once decided by. A lower bound on the
    generic rank."""
    n = a.n
    tuples = [tuple(basis_vector(n, i) for i in idx)
              for idx in itertools.combinations(range(n), k)]
    rng = np.random.default_rng(0)
    tuples += [tuple(_random_rational_vector(rng, n) for _ in range(k))
               for _ in range(60)]
    return max(rank(rows(a, *t)) for t in tuples)


REFERENCE_ALGEBRAS = [e.build() for e in list_catalog()] + [
    _class_b_algebra(), _rk7_algebra()]


@pytest.mark.parametrize("a", REFERENCE_ALGEBRAS, ids=lambda a: a.name)
def test_rank_conditions_match_reference_search(a):
    """check_rk5 and check_rk7 agree with the seeded sweep, and each
    witness reaches full rank, re-checked exactly."""
    for check, rows, k, full in ((check_rk5, _rk5_rows, 2, 5),
                                 (check_rk7, _rk7_rows, 3, 7)):
        ok, wit = check(a)
        assert ok == (_rank_search_reference(a, rows, k) == full), a.name
        assert wit is None if not ok else rank(rows(a, *wit)) == full


def test_max_dimL_exact_matches_sampled():
    """The generic rank against the seeded sweep, and the Lemma 6 witness
    reaches it, re-checked exactly."""
    for a in REFERENCE_ALGEBRAS:
        exact = max_dimL_exact(a)
        assert exact == _rank_search_reference(a, _dimL_rows, 3), a.name
        v = lemma6_classify(a)
        assert v["max_dimL"] == exact
        assert rank(_dimL_rows(a, *v["witness"])) == exact, a.name


def _sympy_poly(p, gens):
    """A packed sparse polynomial as a sympy expression."""
    def monomial(m):
        out = 1
        for g in gens:
            m, d = divmod(m, 16)
            out *= g ** d
        return out
    return sum(c * monomial(m) for m, c in p.items())


def test_minor_rank_on_known_ranks():
    """min(cap, generic rank) on matrices whose rank is known: singular
    at every point yet nonzero, rank only off the diagonal, and products
    of random polynomial factors, checked against sympy."""
    x, y, z = {1: 1}, {16: 1}, {256: 1}
    mul, add = classification._poly_mul, classification._poly_add
    minor_rank = classification._minor_rank
    assert minor_rank([[{}, {}], [{}, {}]], 2) == 0
    assert minor_rank([[mul(x, x), mul(x, y)], [mul(y, x), mul(y, y)]], 2) == 1
    assert minor_rank([[{}, x], [y, {}]], 2) == 2
    assert minor_rank([[{}, x], [y, {}]], 1) == 1
    sym = [[x, y, add(x, y)], [z, x, add(z, x)], [add(x, z), add(x, y),
                                                 add(add(x, x), add(y, z))]]
    assert minor_rank(sym, 3) == 2
    gens = sympy.symbols("y0:3")
    rng = np.random.default_rng(5)

    def factor(rows, cols):
        """Entries c y^m, m a monomial of degree <= 2, c in -3..3."""
        return [[{int(m): int(c)} if c else {}
                 for m, c in zip(rng.choice([0, 1, 16, 256, 17, 272], cols),
                                 rng.integers(-3, 4, cols))]
                for _ in range(rows)]
    for inner in (1, 2, 3):
        left, right = factor(4, inner), factor(inner, 4)
        mat = [[{} for _ in range(4)] for _ in range(4)]
        for i, j, k in itertools.product(range(4), range(4), range(inner)):
            mat[i][j] = add(mat[i][j], mul(left[i][k], right[k][j]))
        expected = sympy.Matrix([[_sympy_poly(p, gens) for p in row]
                                 for row in mat]).rank()
        assert expected == inner
        assert minor_rank(mat, 4) == expected
        assert minor_rank(mat, 1) == min(1, expected)


def _rank_verdicts(a):
    """rk5, rk7, max dim L and the Lemma 6 class, each rank computed
    once; the rk5, rk7 and dim L witnesses are re-checked exactly to
    reach their ranks."""
    ok5, wit5 = check_rk5(a)
    assert wit5 is None if not ok5 else rank(_rk5_rows(a, *wit5)) == 5, \
        a.name
    ok7, wit7 = check_rk7(a)
    assert wit7 is None if not ok7 else rank(_rk7_rows(a, *wit7)) == 7, \
        a.name
    v = lemma6_classify(a)
    assert rank(_dimL_rows(a, *v["witness"])) == v["max_dimL"], a.name
    return ok5, ok7, v["max_dimL"], v["class"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rank_verdicts_are_basis_independent(seed):
    """rk5, rk7, max dim L and the Lemma 6 class are the same in a
    unimodular basis as in the original basis, for every catalog algebra
    with n <= 6, class-B and the rk7 extension, and the witnesses in that
    basis reach their ranks, re-checked exactly."""
    algebras = [e.build() for e in list_catalog()]
    for a in [a for a in algebras if a.n <= 6] + [_class_b_algebra(),
                                                  _rk7_algebra()]:
        b = in_basis(a, unimodular(a.n, seed))
        assert _rank_verdicts(b) == _rank_verdicts(a), a.name


def test_rk7_is_decided_by_the_walk_not_the_points(monkeypatch):
    """Four rank-deficient triples ahead of the seeded points change
    neither the rk7 verdict nor the rank its witness reaches: the points
    only supply the witness."""
    a = _rk7_algebra()
    seeded = classification._grid_points

    def padded(k, n):
        for i in range(4):   # X3 = X1: rank at most 5
            e1, e2 = basis_vector(n, i), basis_vector(n, i + 1)
            yield [e1, e2, e1][:k]
        yield from seeded(k, n)
    monkeypatch.setattr(classification, "_grid_points", padded)
    ok, wit = check_rk7(a)
    assert ok and rank(_rk7_rows(a, *wit)) == 7


def _max_dimL_sympy_reference(a):
    """The generic rank of (X1, X2, X3, X12, X23, X13): the largest k
    with a k x k minor that sympy expands to a nonzero polynomial."""
    n = a.n
    xs = [[sympy.Symbol(f"x{s}_{i}") for i in range(n)] for s in range(3)]

    def sym_bracket(u, v):
        out = [sympy.Integer(0)] * n
        for (i, j), comps in a.brackets.items():
            coef = u[i] * v[j] - u[j] * v[i]
            for k, c in comps.items():
                out[k] += coef * sympy.Rational(c.numerator, c.denominator)
        return out

    m = sympy.Matrix([xs[0], xs[1], xs[2], sym_bracket(xs[0], xs[1]),
                      sym_bracket(xs[1], xs[2]), sym_bracket(xs[0], xs[2])])
    for k in range(min(6, n), 0, -1):
        for rsel in itertools.combinations(range(6), k):
            for csel in itertools.combinations(range(n), k):
                det = m[rsel, csel].det(method="berkowitz")
                if sympy.expand(det) != 0:
                    return k
    return 0


@pytest.mark.parametrize("entry", [e for e in list_catalog()
                                   if e.build().n <= 5],
                         ids=lambda e: e.label)
def test_max_dimL_exact_matches_sympy_in_every_basis(entry):
    """The minor walk against the sympy oracle, in four bases."""
    a = entry.build()
    ref = _max_dimL_sympy_reference(a)
    for b in [a] + [in_basis(a, unimodular(a.n, s)) for s in (1, 2, 3)]:
        assert max_dimL_exact(b) == ref


def test_max_dimL_exact_leaves_sympy_unloaded():
    code = ("import sys\n"
            "from nilcurv import verify\n"
            "assert verify.check_closure_dichotomy(seed=0)['passed']\n"
            "assert 'sympy' not in sys.modules\n")
    src = str(Path(classification.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    p = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, timeout=60)
    assert p.returncode == 0, p.stderr.decode()


def test_lemma6_verdicts():
    v = lemma6_classify(build("heisenberg_x_abelian", l=2, pad=2))
    assert v["class"] == "heisenberg_x_abelian"
    assert v["heisenberg_rank"] == 2 and v["pad"] == 2
    v = lemma6_classify(build("filiform4"))
    assert v["class"] == "filiform4"
    assert_filiform4_basis(build("filiform4"), v["basis"])
    v = lemma6_classify(build("filiform_standard", n=5))
    assert v["class"] == "not_applicable" and v["max_dimL"] == 5


def assert_filiform4_basis(a, basis):
    """(W, X, Y, Z) is a basis with [W,X] = Y, [W,Y] = Z != 0 and the
    other four brackets zero."""
    w, x, y, z = basis
    assert rank(basis) == 4
    assert a.bracket(w, x) == y and a.bracket(w, y) == z and any(z)
    for u, v in ((w, z), (x, y), (x, z), (y, z)):
        assert not any(a.bracket(u, v))


def _sheared_filiform4():
    """filiform4 in the basis (W, X - 5W, Y, Z)."""
    return NilpotentAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1},
                                (1, 2): {3: -5}}, name="filiform4_sheared")


def test_filiform4_certificate_is_exact():
    a = build("filiform4")
    assert lemma6_classify(a)["basis"] == [basis_vector(4, i)
                                           for i in range(4)]
    sheared = _sheared_filiform4()
    for b in [sheared] + [in_basis(a, unimodular(4, s)) for s in (1, 2, 3)]:
        v = lemma6_classify(b)
        assert v["class"] == "filiform4"
        assert_filiform4_basis(b, v["basis"])


def test_lemma6_on_rotated_filiform4():
    """The certificate is basis-independent: scramble filiform4 by an
    integer change of basis and classify again."""
    from fractions import Fraction
    a = build("filiform4")
    p = [[1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1], [0, 1, 0, 1]]  # det 1
    pinv = np.linalg.inv(np.array(p, float))
    brackets = {}
    for i in range(4):
        for j in range(i + 1, 4):
            w = a.bracket([Fraction(v) for v in p[i]],
                          [Fraction(v) for v in p[j]])
            coords = pinv.T @ np.array([float(t) for t in w])
            entry = {k: Fraction(round(c)) for k, c in enumerate(coords)
                     if abs(c) > 1e-9}
            if entry:
                brackets[(i, j)] = entry
    from nilcurv import NilpotentAlgebra
    scrambled = NilpotentAlgebra(4, brackets, name="scrambled")
    assert scrambled.validate().valid
    assert lemma6_classify(scrambled)["class"] == "filiform4"


def test_derivation_dimension_oracle():
    # abelian: every endomorphism is a derivation
    assert derivation_dimension(build("abelian", n=3)) == 9
    # h3: classical value dim Der(h3) = 6
    assert derivation_dimension(build("heisenberg", m=1)) == 6


def fraction_derivation_dimension(a):
    """Reference: the dense Fraction system, one equation per (i < j,
    component m) read off the basis brackets, for the unknowns d[m][k]
    with D e_k = sum_m d[m][k] e_m at column m n + k."""
    n = a.n
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = a.basis_bracket(i, j)
            for m in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[m * n + k] += cij[k]
                for p in range(n):
                    row[p * n + i] -= a.basis_bracket(p, j)[m]
                    row[p * n + j] -= a.basis_bracket(i, p)[m]
                if any(v != 0 for v in row):
                    rows.append(row)
    return n * n - (rank(rows) if rows else 0)


def _shape_subalgebras():
    """The subalgebras `shape_of_L` restricts the catalog to: the
    bracket closures of the Lemma 6 witness triples."""
    subs = []
    for e in list_catalog():
        a = e.build()
        v = classify(a)
        if v.N is None:
            continue
        words = classification._eval_words(a.bracket, v.lemma6["witness"],
                                           classification._DIML_WORDS)
        sub = restrict(a, Subspace(words, a.n))
        if sub is not None:
            subs.append(sub)
    return subs


def test_derivation_dimension_matches_the_fraction_reference():
    """On every catalog algebra and every subalgebra that shape_of_L
    restricts to, in the catalog basis and in unimodular bases 1-3, where
    dim Der must not change."""
    subs = _shape_subalgebras()
    assert len(subs) >= 4
    for a in [e.build() for e in list_catalog()] + subs:
        dim = fraction_derivation_dimension(a)
        assert derivation_dimension(a) == dim, a.name
        for seed in (1, 2, 3):
            b = in_basis(a, unimodular(a.n, seed))
            assert derivation_dimension(b) == dim, (a.name, seed)
            assert fraction_derivation_dimension(b) == dim, (a.name, seed)


def _exact_verdict(v):
    """The fields of a classify verdict that no basis may change."""
    return (v.rk5_holds, v.rk7_holds, v.two_step, v.lemma6["class"],
            v.lemma6["max_dimL"], v.lemma7_classes, v.N, v.L_shape)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_verdicts_are_basis_independent(seed):
    """The 17 non-abelian catalog algebras in a unimodular basis get the
    exact verdict of their catalog basis, and theorem2_expected_M there is
    the image of the catalog one."""
    algebras = [a for a in (e.build() for e in list_catalog())
                if not a.is_abelian()]
    assert len(algebras) == 17
    for a in algebras:
        p = unimodular(a.n, seed)
        b = in_basis(a, p)
        assert _exact_verdict(classify(b)) == _exact_verdict(classify(a)), \
            a.name
        mapped = Subspace([solve(p, v) for v in theorem2_expected_M(a).basis],
                          b.n)
        assert theorem2_expected_M(b) == mapped, a.name


def test_invariant_tuple_separates_L6_forms():
    ts = {key: invariant_tuple(build(key)) for key in ("L6_1", "L6_2",
                                                       "L6_3")}
    assert len(set(ts.values())) == 3


def assert_derivation_witness(a, cert):
    """Re-checked from the bracket: h >= g' is a hyperplane not containing
    c, two-step as an algebra, D is ad_c on h, and [DX, X] = 0 on h by
    polarization: [Du, v] + [Dv, u] = 0 on basis pairs."""
    h, c = cert["h"], cert["c"]
    hb = h.basis
    assert h.dim == a.n - 1 and h.contains_subspace(a.derived_algebra())
    assert not h.contains(c)
    sub = restrict(a, h)
    assert sub is not None and sub.is_two_step()
    images = [a.bracket(c, v) for v in hb]
    assert cert["D"] == [[h.coordinates(w)[i] for w in images]
                         for i in range(len(hb))]
    for i in range(len(hb)):
        for j in range(i, len(hb)):
            assert not any(x + y for x, y in zip(a.bracket(images[i], hb[j]),
                                                 a.bracket(images[j], hb[i])))


def test_derivation_certificate_L5_and_duv_identity():
    """Class-C certificate exists for the small normal forms, and D
    satisfies D[U,V] = 2[DU,V] = 2[U,DV] exactly on basis pairs."""
    for key in ("L5_lemma7a", "L6_1", "L6_2", "L6_3"):
        a = build(key)
        cert = derivation_class_certificate(a)
        assert cert is not None, key
        assert_derivation_witness(a, cert)
        h, c = cert["h"], cert["c"]
        hb = h.basis
        for i in range(len(hb)):
            for j in range(i + 1, len(hb)):
                uv = a.bracket(hb[i], hb[j])
                duv = a.bracket(c, uv)
                du_v = a.bracket(a.bracket(c, hb[i]), hb[j])
                u_dv = a.bracket(hb[i], a.bracket(c, hb[j]))
                assert duv == [2 * t for t in du_v] == [2 * t for t in u_dv]


def test_remark_families_are_derivation_class():
    for key, params in (("remark_famA", {"k": 2, "l": 2}),
                        ("remark_famB", {"k": 2, "l": 1})):
        a = build(key, **params)
        assert_derivation_witness(a, derivation_class_certificate(a))


def assert_cocycle_witness(a, cert):
    """c spans C3(g), and at the returned X the linear form
    Y -> omega(X, [X,Y]_h) is nonzero and the quadratic form
    Y -> omega(Y, [X,Y]_h) is nonzero on its kernel, recomputed from
    omega and the quotient bracket."""
    c3 = a.lower_central_series()[2]
    assert c3.dim == 1 and Subspace([cert["c"]], a.n) == c3
    h, omega, x = cert["quotient"], cert["omega"], cert["x"]

    def om(u, v):
        return sum(u[i] * omega[i][j] * v[j]
                   for i in range(h.n) for j in range(h.n))

    lin = [om(x, h.bracket(x, basis_vector(h.n, j))) for j in range(h.n)]
    assert any(v != 0 for v in lin)
    kern = nullspace([lin], h.n)
    assert len(kern) == h.n - 1
    assert any(om(u, h.bracket(x, v)) + om(v, h.bracket(x, u)) != 0
               for u in kern for v in kern)


def test_cocycle_certificate_on_class_b_extension():
    a = _class_b_algebra()
    assert a.validate().valid
    cert = cocycle_class_certificate(a)
    assert cert is not None
    assert_cocycle_witness(a, cert)
    assert cert["quotient"].is_two_step()
    # it is not of the derivation class, and lemma7 reports exactly that
    assert derivation_class_certificate(a) is None
    v = lemma7_classify(a)
    assert v.lemma7_classes == ["cocycle"]


LEMMA7_CATALOG = (("filiform4", {}), ("L5_lemma7a", {}), ("L6_1", {}),
                  ("L6_2", {}), ("L6_3", {}),
                  ("remark_famA", {"k": 2, "l": 2}),
                  ("remark_famB", {"k": 2, "l": 1}))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cocycle_verdict_is_basis_independent(seed):
    """Found or None as in the original basis, with c spanning the image
    of C3(g)."""
    algebras = [_class_b_algebra()] + [build(k, **kw)
                                       for k, kw in LEMMA7_CATALOG]
    for a in algebras:
        p = unimodular(a.n, seed)
        b = in_basis(a, p)
        cert, cert_b = (cocycle_class_certificate(x) for x in (a, b))
        assert (cert is None) == (cert_b is None), a.name
        if cert_b is None:
            continue
        c3 = a.lower_central_series()[2]
        mapped = Subspace([solve(p, v) for v in c3.basis], b.n)
        assert Subspace([cert_b["c"]], b.n) == mapped
        assert_cocycle_witness(b, cert_b)


def test_rational_roots_of_binary_forms():
    """Roots (y1 : y2) of b11 y1^2 + 2 b12 y1 y2 + b22 y2^2: none for a
    negative or non-square discriminant."""
    from fractions import Fraction as F
    roots = classification._rational_roots
    assert roots(F(1), F(0), F(-4)) == [(2, 1), (-2, 1)]
    assert roots(F(0), F(1), F(3)) == [(1, 0), (-3, 2)]
    assert roots(F(1), F(0), F(-1, 9)) == [(F(1, 3), 1), (F(-1, 3), 1)]
    assert roots(F(1), F(0), F(-2)) == []
    assert roots(F(1), F(0), F(1)) == []
    for b11, b12, b22 in ((1, 0, -4), (0, 1, 3), (1, 0, F(-1, 9))):
        for y1, y2 in roots(F(b11), F(b12), F(b22)):
            assert b11 * y1 * y1 + 2 * b12 * y1 * y2 + b22 * y2 * y2 == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_derivation_verdict_is_basis_independent(seed):
    """Found for every Lemma-7 catalog algebra and filiform4 in the basis
    (W, X - 5W, Y, Z), None for class-B, in the original basis and in a
    unimodular one; and h there is the image of the original h. That h
    is unique: of the two candidates that the first nonzero entry form
    of ad_X^2 leaves in the original basis, only one qualifies."""
    algebras = [_class_b_algebra(), _sheared_filiform4()] + [
        build(k, **kw) for k, kw in LEMMA7_CATALOG]
    for a in algebras:
        p = unimodular(a.n, seed)
        b = in_basis(a, p)
        cert, cert_b = (derivation_class_certificate(x) for x in (a, b))
        assert (cert is None) == (cert_b is None) == (a.name == "classB"), \
            a.name
        if cert is None:
            continue
        assert_derivation_witness(a, cert)
        assert_derivation_witness(b, cert_b)
        mapped = Subspace([solve(p, v) for v in cert["h"].basis], b.n)
        assert cert_b["h"] == mapped, a.name


def test_classify_runs_each_rank_search_once(tmp_path, monkeypatch, capsys):
    """Counted at every module that binds the search, the CLI included."""
    calls = {"check_rk5": 0, "check_rk7": 0}
    modules = [m for k, m in sys.modules.items() if k.startswith("nilcurv")]
    for name, search in [(k, getattr(classification, k)) for k in calls]:
        def counted(*args, _name=name, _search=search):
            calls[_name] += 1
            return _search(*args)
        for mod in modules:
            if getattr(mod, name, None) is search:
                monkeypatch.setattr(mod, name, counted)
    path = tmp_path / "L5_lemma7a.json"
    save_algebra(build("L5_lemma7a"), path)
    assert main(["classify", str(path), "--json"]) == 0
    capsys.readouterr()
    assert calls == {"check_rk5": 1, "check_rk7": 1}
    calls.update(check_rk5=0, check_rk7=0)
    lemma7_classify(build("L5_lemma7a"))
    assert calls == {"check_rk5": 1, "check_rk7": 1}


def _sl2():
    """sl2 in the basis (h, e, f): g' = g, so it is not nilpotent."""
    return NilpotentAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2},
                                (1, 2): {0: 1}}, name="sl2")


def test_classify_terminates_off_nilpotent_input():
    """g' = g leaves the word basis no generators: it is completed by the
    complement alone, the identity, and classify still returns."""
    a = _sl2()
    assert not a.is_nilpotent()
    assert a.word_basis().brackets == a.brackets
    v = classify(a)
    assert not (v.rk5_holds or v.rk7_holds or v.two_step)


def test_word_basis_is_the_algebra_in_a_sparse_basis():
    """The word basis of an algebra in a dense basis is a nilpotent Lie
    algebra with the same invariants, and no denser than the original."""
    for a in [_class_b_algebra(), _rk7_algebra(), build("L6_1"),
              build("filiform_standard", n=6)]:
        b = in_basis(a, unimodular(a.n, 1))
        w = b.word_basis()
        assert w.validate().valid, a.name
        assert invariant_tuple(w) == invariant_tuple(a), a.name
        assert (sum(map(len, w.brackets.values()))
                <= sum(map(len, b.brackets.values()))), a.name


def test_lemma7_preconditions():
    with pytest.raises(ClassificationError):
        lemma7_classify(build("abelian", n=3))
    with pytest.raises(ClassificationError):
        lemma7_classify(build("heisenberg", m=1))
    with pytest.raises(ClassificationError):
        lemma7_classify(build("filiform_standard", n=5))


def test_lemma7_identifies_shapes():
    v = lemma7_classify(build("L5_lemma7a"))
    assert "derivation" in v.lemma7_classes
    assert v.N == 5 and v.L_shape == "lemma7a"
    for key, label in (("L6_1", "dimsix1"), ("L6_2", "dimsix2"),
                       ("L6_3", "dimsix3")):
        v = lemma7_classify(build(key))
        assert v.N == 6 and v.L_shape == label, key


def test_bracket_closure_of_a_basis_triple():
    """L(e1, e2, e3), the span of the triple and its brackets, is all of
    filiform5."""
    t = tuple(basis_vector(5, i) for i in (0, 1, 2))
    assert shape_of_L(build("filiform_standard", n=5), t)[0] == 5


def test_generic_triple_shape_stability():
    """At least 95 of 100 random rational triples in L5_lemma7a span the
    whole algebra and match the five-dimensional shape."""
    a = build("L5_lemma7a")
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(100):
        t = tuple(_random_rational_vector(rng, 5) for _ in range(3))
        n_dim, label = shape_of_L(a, t)
        if n_dim == 5 and label == "lemma7a":
            hits += 1
    assert hits >= 95


def test_theorem2_expected_M():
    a = build("heisenberg", m=2)
    assert theorem2_expected_M(a).basis == a.derived_algebra().basis
    a = build("filiform4")
    ideal = a.find_codim1_abelian_ideal()
    assert theorem2_expected_M(a).basis == ideal.basis
    assert theorem2_expected_M(_sheared_filiform4()).dim == 3
    a = build("abelian", n=3)
    assert theorem2_expected_M(a).dim == 3
    a = build("filiform_standard", n=5)
    assert theorem2_expected_M(a).dim == 5


def test_restrict_non_subalgebra_returns_none():
    a = build("heisenberg", m=1)
    s = Subspace([basis_vector(3, 0), basis_vector(3, 1)], 3)
    assert restrict(a, s) is None
