"""Structural algebra operations: brackets, series, ideals, subspaces."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcurv import NilpotentAlgebra, Subspace, build, list_catalog
from nilcurv.algebra import basis_vector
from nilcurv.rational import integer_row, nullspace, rank, solve
from test_exact_oracles import fraction_rref
from test_rational import in_row_space


def h3():
    return build("heisenberg", m=1)


def test_bracket_antisymmetry_and_bilinearity():
    a = build("filiform_standard", n=5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = [Fraction(int(v)) for v in rng.integers(-4, 5, a.n)]
        y = [Fraction(int(v)) for v in rng.integers(-4, 5, a.n)]
        xy = a.bracket(x, y)
        yx = a.bracket(y, x)
        assert all(u == -v for u, v in zip(xy, yx))
        two_x = [2 * v for v in x]
        assert a.bracket(two_x, y) == [2 * v for v in xy]


def test_jacobi_holds_on_all_catalog_entries():
    for entry in list_catalog():
        a = entry.build()
        assert a.jacobi_failures() == []
        rep = a.validate()
        assert rep.valid and rep.nilpotent


def test_expected_facts_match():
    for entry in list_catalog():
        a = entry.build()
        facts = entry.expected_facts
        if "nilpotency_class" in facts:
            assert a.nilpotency_class() == facts["nilpotency_class"]
        if "center_dim" in facts:
            assert a.center().dim == facts["center_dim"]
        if "two_step" in facts:
            assert a.is_two_step() == facts["two_step"]
        if "codim1_abelian" in facts:
            assert (a.find_codim1_abelian_ideal() is not None) \
                == facts["codim1_abelian"]


def test_h3_center_and_derived():
    a = h3()
    assert a.center().dim == 1
    assert a.derived_algebra().dim == 1
    z = basis_vector(3, 2)
    assert a.center().contains(z)
    assert a.derived_algebra().contains(z)


def test_lower_central_series_strictly_decreasing():
    for key, params in (("filiform_standard", {"n": 6}),
                        ("L6_2", {}), ("heisenberg", {"m": 2})):
        a = build(key, **params)
        dims = [s.dim for s in a.lower_central_series()]
        assert dims[0] == a.n and dims[-1] == 0
        assert all(d1 > d2 for d1, d2 in zip(dims, dims[1:]))


def test_filiform_standard_class_and_center():
    for n in (4, 5, 6):
        a = build("filiform_standard", n=n)
        assert a.nilpotency_class() == n - 1
        assert a.center().dim == 1


def test_non_nilpotent_rejected():
    # sl2-like relation is not nilpotent: [e1,e2]=e2 stalls the series
    a = NilpotentAlgebra(2, {(0, 1): {1: Fraction(1)}})
    rep = a.validate()
    assert not rep.nilpotent


def test_jacobi_failure_detected():
    # [e1,e2]=e3, [e1,e3]=e1: the (e1,e2,e3) Jacobiator is -e3
    bad = NilpotentAlgebra(3, {(0, 1): {2: Fraction(1)},
                               (0, 2): {0: Fraction(1)}})
    assert bad.jacobi_failures() != []


def test_subspace_operations():
    s1 = Subspace([[1, 0, 0], [0, 1, 0]], 3)
    s2 = Subspace([[0, 1, 0], [0, 0, 1]], 3)
    assert s1.intersection(s2).dim == 1
    assert s1.sum(s2).dim == 3
    assert s1.contains([2, 3, 0])
    assert not s1.contains([0, 0, 1])
    assert s1.contains_subspace(Subspace([[1, 1, 0]], 3))


_entry = st.one_of(st.just(Fraction(0)),
                   st.fractions(-3, 3, max_denominator=4))


@st.composite
def subspace_and_vector(draw):
    """(rows, v): up to n spanning rows in dimension n <= 7, and v a
    combination of them, perturbed half of the time."""
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(_entry, min_size=n, max_size=n),
                         max_size=n))
    coeffs = draw(st.lists(_entry, min_size=len(rows), max_size=len(rows)))
    v = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
         for j in range(n)]
    if draw(st.booleans()):
        v = [x + y for x, y in zip(v, draw(
            st.lists(_entry, min_size=n, max_size=n)))]
    return rows, v


def greedy_complement(s: Subspace) -> list[list[Fraction]]:
    """Reference: scan e_0, ..., e_{n-1}, keeping each e_i that raises the
    rank of s plus the kept vectors."""
    kept = []
    for i in range(s.n):
        e = basis_vector(s.n, i)
        if rank(s.basis + kept + [e]) > s.dim + len(kept):
            kept.append(e)
    return kept


@settings(max_examples=150, deadline=None)
@given(subspace_and_vector())
def test_subspace_membership_and_coordinates(case):
    rows, v = case
    s = Subspace(rows, len(v))
    assert s.contains(v) == in_row_space(rows, v)
    coords = s.coordinates(v)
    if coords is not None:
        assert [sum((c * r[j] for c, r in zip(coords, s.basis)), Fraction(0))
                for j in range(s.n)] == v


@settings(max_examples=150, deadline=None)
@given(subspace_and_vector())
def test_subspace_rows_are_the_scaled_rref(case):
    """Each integer row is the RREF row of the Fraction reference times
    its least common denominator, primitive with a positive pivot; the
    Fraction and float views are that RREF, the rows span the same
    subspace, and the integer intersection has the dimension and
    containments it must."""
    rows, v = case
    n = len(v)
    s = Subspace(rows, n)
    ref = fraction_rref(rows)
    assert s.basis == ref
    assert s.rows == [integer_row(r)[0] for r in ref]
    assert all(math.gcd(*r) == 1 and r[p] > 0
               for r, p in zip(s.rows, s.pivots))
    assert np.array_equal(s.float_basis, np.array(ref, float).reshape(-1, n))
    t = Subspace.from_integer_rows(s.rows, n)
    assert t == s and hash(t) == hash(s)
    line = Subspace([v], n)
    both = s.intersection(line)
    assert both.dim == s.dim + line.dim - s.sum(line).dim
    assert s.contains_subspace(both) and line.contains_subspace(both)


@settings(max_examples=150, deadline=None)
@given(subspace_and_vector())
def test_complement_matches_greedy_scan(case):
    rows, v = case
    s = Subspace(rows, len(v))
    comp = s.complement()
    assert comp == greedy_complement(s)
    assert s.dim + len(comp) == s.n


def is_ideal(a: NilpotentAlgebra, s: Subspace) -> bool:
    """[e_i, v] lies in s for every basis vector e_i and v in s."""
    for i in range(a.n):
        ei = basis_vector(a.n, i)
        for v in s.basis:
            if not s.contains(a.bracket(ei, v)):
                return False
    return True


def is_abelian_subspace(a: NilpotentAlgebra, s: Subspace) -> bool:
    """Every bracket of two basis vectors of s vanishes."""
    bs = s.basis
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            if any(x != 0 for x in a.bracket(bs[i], bs[j])):
                return False
    return True


def test_codim1_abelian_ideal():
    a = build("filiform4")
    ideal = a.find_codim1_abelian_ideal()
    assert ideal is not None and ideal.dim == 3
    assert is_ideal(a, ideal) and is_abelian_subspace(a, ideal)
    assert build("heisenberg", m=2).find_codim1_abelian_ideal() is None


def test_codim1_abelian_ideal_outside_small_normals():
    # filiform4 in the basis (W, X - 5W, Y, Z): its ideal span(X, Y, Z) is
    # ker(1, -5, 0, 0), a normal with a coefficient outside {-3..3}
    a = NilpotentAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1},
                             (1, 2): {3: -5}})
    ideal = a.find_codim1_abelian_ideal()
    assert ideal == Subspace([[5, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4)


def unimodular(n: int, seed: int) -> list[list[int]]:
    """Seeded integer matrix of determinant +-1: a row permutation of a
    unit lower times a unit upper triangular matrix."""
    rng = random.Random(seed)
    low = [[1 if i == j else rng.randint(-2, 2) if j < i else 0
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else rng.randint(-2, 2) if j > i else 0
           for j in range(n)] for i in range(n)]
    p = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    rng.shuffle(p)
    return p


def in_basis(a: NilpotentAlgebra, p) -> NilpotentAlgebra:
    """The algebra in the basis given by the columns of p."""
    cols = [[row[j] for row in p] for j in range(a.n)]
    brackets = {}
    for i in range(a.n):
        for j in range(i + 1, a.n):
            coords = solve(p, a.bracket(cols[i], cols[j]))
            brackets[(i, j)] = dict(enumerate(coords))
    return NilpotentAlgebra(a.n, brackets, name=a.name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_codim1_abelian_ideal_is_basis_independent(seed):
    for e in list_catalog():
        a = e.build()
        p = unimodular(a.n, seed)
        b = in_basis(a, p)
        h, hb = a.find_codim1_abelian_ideal(), b.find_codim1_abelian_ideal()
        assert (h is None) == (hb is None), e.label
        if hb is None:
            continue
        assert hb.dim == b.n - 1
        assert is_abelian_subspace(b, hb) and is_ideal(b, hb)
        if not a.is_two_step():
            # unique: the same ideal, written in the new basis
            assert hb == Subspace([solve(p, v) for v in h.basis], b.n)


def two_step_by_brackets(a: NilpotentAlgebra) -> bool:
    """Reference: [g, [g, g]] = 0 decided bracket by bracket, each
    [e_m, [e_i, e_j]] in turn."""
    for (i, j) in a.brackets:
        w = a.basis_bracket(i, j)
        for m in range(a.n):
            if any(x != 0 for x in a.bracket(basis_vector(a.n, m), w)):
                return False
    return True


def center_by_ad(a: NilpotentAlgebra) -> Subspace:
    """Reference: the null space of the stacked ad-matrices of the basis,
    each built from exact brackets."""
    stacked = []
    for i in range(a.n):
        stacked.extend(a.ad(basis_vector(a.n, i)))
    return Subspace(nullspace(stacked, a.n), a.n)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_two_step_and_center_match_their_references(seed):
    """On the catalog, also in a unimodular change of basis: the center
    read off the structure constants is the ad-matrix null space, and
    g' in z(g) decides two-step as the bracket loop does."""
    verdicts = set()
    for e in list_catalog():
        a = e.build()
        if seed is not None:
            a = in_basis(a, unimodular(a.n, seed))
        assert a.center() == center_by_ad(a), e.label
        assert a.is_two_step() == two_step_by_brackets(a), e.label
        verdicts.add(a.is_two_step())
    assert verdicts == {True, False}


def test_codim1_abelian_ideal_catalog_verdicts():
    assert [e.label for e in list_catalog("codim1-abelian")] == [
        "abelian3", "heisenberg3", "h3xA1", "h3xA2", "filiform4", "L52",
        "L58"]
    assert build("filiform4").find_codim1_abelian_ideal() == Subspace(
        [basis_vector(4, i) for i in (1, 2, 3)], 4)


def test_bracket_key_validation():
    with pytest.raises(ValueError):
        NilpotentAlgebra(3, {(1, 0): {2: Fraction(1)}})
    with pytest.raises(ValueError):
        NilpotentAlgebra(2, {(0, 1): {5: Fraction(1)}})
